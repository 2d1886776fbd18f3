"""Alternating training of the energy model and the generator.

Each step draws a data minibatch, rows in the models' dtype (float32 for
the models ``config.build_models`` gives a run) from
``data_io.Dataset.minibatch``, and a generated minibatch, updates the
energy model with the positive/negative phase gradient, and (every
``dem_updates_per_dgm_update`` batches) updates the generator on a fresh
latent draw. Each gradient comes from its loss's hand-written backward
(``energy_model.dem_loss_gradient``,
``generator_model.dgm_loss_gradient``), which leaves it in the model's
``store.grad``; no step records anything on a tape or copies a gradient.
Both models use AdaGrad: one ``adagrad_step`` per model update squares
``store.grad`` once, and that square gives the logged gradient norm, the
one finiteness check and the increment of ``store.acc``, the accumulator
each model carries in its store. A norm that is not finite aborts the run
with the offending parameter before anything moves, rather than
being masked: a NaN or infinite gradient, or a finite one whose squares
overflow, which would make the accumulator infinite and freeze the model.
Each step runs with numpy's overflow and invalid-value warnings off: a
value that leaves the dtype's range (in float32, past about 3.4e38) and
spoils a gradient shows up at that check, which aborts the run with no
warning printed first. An entropy estimate that becomes singular aborts the run
too. ``train()`` alone puts the step on an abort (``ABORTS``): ``.step``,
and "at step N" ending its message. The losses return the stats a metrics
line logs, in the line's order. AdaGrad works in each store's ``scratch``,
which no checkpoint holds.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

import numpy as np

from .autodiff import ParameterStore
from .energy_model import EnergyModel, dem_loss_gradient
from .generator_model import (
    GeneratorModel,
    SingularEntropyError,
    dgm_loss_gradient,
    sample_prior,
)

if TYPE_CHECKING:  # config and data_io import this module
    from .config import RunConfig
    from .data_io import Dataset


class ConfigError(ValueError):
    """Invalid run configuration or data input."""


class NonFiniteGradientError(RuntimeError):
    def __init__(self, param_name: str):
        self.param_name = param_name
        super().__init__(f"non-finite gradient for parameter {param_name!r}")


# what aborts a run: train() marks each with its step, the CLI exits 3 on it
ABORTS = (NonFiniteGradientError, SingularEntropyError)


def rng_streams(seed: int) -> dict[str, np.random.Generator]:
    """Independent named substreams so components can be varied separately."""
    data_ss, prior_ss, init_ss = np.random.SeedSequence(seed).spawn(3)
    return {
        "data": np.random.default_rng(data_ss),
        "prior": np.random.default_rng(prior_ss),
        "init": np.random.default_rng(init_ss),
    }


class TrainState:
    """Step counter and the data and prior RNG streams; the AdaGrad
    accumulators live in the models' stores."""

    def __init__(self, step: int, data_rng: np.random.Generator,
                 prior_rng: np.random.Generator):
        if isinstance(step, bool) or not isinstance(step, int) or step < 0:
            raise ValueError(f"step must be a non-negative integer, got {step!r}")
        self.step = step
        self.data_rng = data_rng
        self.prior_rng = prior_rng

    @classmethod
    def initial(cls, seed: int) -> "TrainState":
        streams = rng_streams(seed)
        return cls(0, streams["data"], streams["prior"])


def adagrad_step(store: ParameterStore, lr: float, eps: float) -> float:
    """acc += g^2; values -= lr * g / (sqrt(acc) + eps), elementwise over a
    model's flat parameter store, with g = ``store.grad`` and acc =
    ``store.acc``; returns the gradient's Euclidean norm.

    ``store.scratch`` is overwritten. g^2 is computed once, and every
    operation works in place on the whole flat array, in the store's
    dtype: float32 for a run's models, float64 for ones loaded from a
    float64 checkpoint. The norm
    sums g^2 per parameter span with ``np.add.reduce``, which has the bits
    of ``(g_p * g_p).sum()``, and adds the spans' sums as Python floats. A
    norm that is not finite, from a NaN or infinite entry or from squares
    that overflow (past about 1.8e19 in float32), raises
    ``NonFiniteGradientError`` before anything moves, with no numpy
    warning. It names the first parameter whose sum is not finite, else
    the one with the largest sum. Coordinates with g == 0 are left
    untouched even when acc and eps are both zero (the 0/0 case).
    """
    grad = store.grad
    sq, delta = store.scratch
    with np.errstate(over="ignore"):   # an overflow shows as a sum of inf
        np.multiply(grad, grad, out=sq)
        sums = [float(np.add.reduce(sq[span])) for _, span, _ in store.spans]
        total = 0.0
        for part in sums:   # left to right, which fixes the logged norm's bits
            total += part
        if not math.isfinite(total):
            bad = next((i for i, part in enumerate(sums) if not math.isfinite(part)),
                       int(np.argmax(sums)))
            raise NonFiniteGradientError(store.spans[bad][0])
        store.acc += sq
    denom = np.sqrt(store.acc, out=sq)
    denom += eps
    np.multiply(grad, lr, out=delta)
    with np.errstate(invalid="ignore", divide="ignore"):
        delta /= denom
    # denom is spent: its first grad.size bytes hold the g == 0 mask
    zero = np.equal(grad, 0.0, out=sq.view(np.bool_)[:grad.size])
    np.copyto(delta, 0.0, where=zero)
    store.values -= delta
    return math.sqrt(total)


def train(dem: EnergyModel, gen: GeneratorModel, dataset: Dataset, config: RunConfig,
          state: Optional[TrainState] = None, metrics_out=None,
          checkpoint_fn=None) -> TrainState:
    """Run the dual loop until ``state.step`` reaches ``config.steps``.

    config is the run's ``config.RunConfig``, validated here; only its
    training fields are read. dataset is a ``data_io.Dataset``, never
    mutated: each step draws row indices over its points and reads the
    rows through ``dataset.minibatch``, in the dtype the two models share
    (see ``config.build_models``). One line of
    ``key=value`` metrics per step goes to ``metrics_out`` when given.
    ``checkpoint_fn(state)`` fires every ``checkpoint_interval`` steps.
    Returns the final state; the models, with the AdaGrad accumulators in
    their stores, are updated in place.
    """
    config.validate()
    if state is None:
        state = TrainState.initial(config.seed)
    dtype = dem.dtype
    n = config.batch_size
    while state.step < config.steps:
        try:
            # an overflow or a NaN anywhere in the step reaches adagrad_step
            # as a gradient that is not finite and aborts the run there,
            # with its step, so numpy need not warn of it on the way
            with np.errstate(over="ignore", invalid="ignore"):
                idx = state.data_rng.integers(0, dataset.points.shape[0], size=n)
                x_pos = dataset.minibatch(idx, dtype)
                z = sample_prior(n, gen.d_z, state.prior_rng)
                x_neg = gen.generate(z, "train")
                _, dem_stats = dem_loss_gradient(dem, x_pos, x_neg)
                dem_gnorm = adagrad_step(dem.store, config.dem_lr, config.adagrad_eps)
                metrics = {"step": state.step, **dem_stats, "dem_gnorm": dem_gnorm}
                if (state.step + 1) % config.dem_updates_per_dgm_update == 0:
                    z2 = sample_prior(n, gen.d_z, state.prior_rng)
                    _, dgm_stats = dgm_loss_gradient(
                        gen, dem, z2, config.entropy_weight, config.entropy_estimator)
                    dgm_gnorm = adagrad_step(gen.store, config.dgm_lr, config.adagrad_eps)
                    metrics.update(dgm_stats, dgm_gnorm=dgm_gnorm)
        except ABORTS as err:
            err.step = state.step
            err.args = (f"{err} at step {state.step}",)
            raise
        state.step += 1
        if metrics_out is not None:
            metrics_out.write(" ".join(f"{k}={v!r}" for k, v in metrics.items()) + "\n")
        if (checkpoint_fn is not None and config.checkpoint_interval > 0
                and state.step % config.checkpoint_interval == 0
                and state.step < config.steps):
            checkpoint_fn(state)
    return state

