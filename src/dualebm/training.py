"""Alternating training of the energy model and the generator.

Each step draws a data minibatch and a generated minibatch, updates the
energy model with the positive/negative phase gradient, and (every
``dem_updates_per_dgm_update`` batches) updates the generator on a fresh
latent draw. Each gradient comes from its loss's hand-written backward
(``energy_model.dem_loss_gradient``, ``generator_model.dgm_loss_gradient``),
which leaves it in the model's ``store.grad``; no step records anything on
a tape or copies a gradient. Both models use AdaGrad: one ``adagrad_step``
per model update squares ``store.grad`` once, and that square gives the
logged gradient norm, the finiteness check and the increment of
``store.acc``, the accumulator each model carries in its store. A NaN or
infinite gradient aborts the run with the offending parameter and step
rather than being masked, and so does an entropy estimate that becomes
singular, with its step. Each ``train`` call allocates the optimizer's
scratch once and drops it on return; it is never checkpointed.
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

if TYPE_CHECKING:  # config imports data_io, which imports this module
    from .config import RunConfig


class ConfigError(ValueError):
    """Invalid run configuration or data input."""


class NonFiniteGradientError(RuntimeError):
    def __init__(self, param_name: str, step: Optional[int] = None):
        self.param_name = param_name
        self.step = step
        at = f" at step {step}" if step is not None else ""
        super().__init__(f"non-finite gradient for parameter {param_name!r}{at}")


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


def adagrad_step(store: ParameterStore, lr: float, eps: float,
                 scratch: Optional[np.ndarray] = None) -> float:
    """acc += g^2; values -= lr * g / (sqrt(acc) + eps), elementwise over a
    model's flat parameter store, with g = ``store.grad`` and acc =
    ``store.acc``; returns the gradient's Euclidean norm.

    scratch, a (2, store size) float64 array with contiguous rows, is
    overwritten (allocated when None). g^2 is computed once, and every
    operation works in place on the whole flat array. The norm sums g^2
    per parameter span with ``np.add.reduce``, which has the bits of
    ``(g_p * g_p).sum()``. A sum that is not finite triggers the check: a
    NaN or infinite entry raises ``NonFiniteGradientError`` naming its
    parameter before anything moves, while a finite gradient whose square
    overflows proceeds with norm inf. Coordinates with g == 0 are left
    untouched even when acc and eps are both zero (the 0/0 case).
    """
    grad = store.grad
    sq, delta = np.empty((2, grad.size)) if scratch is None else scratch
    np.multiply(grad, grad, out=sq)
    total = 0.0
    for _, span, _ in store.spans:
        total += float(np.add.reduce(sq[span]))
    if not math.isfinite(total):
        bad = store.first_nonfinite(grad)
        if bad is not None:
            raise NonFiniteGradientError(bad)
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


def _format_metrics(metrics: dict) -> str:
    parts = [f"step={metrics['step']}"]
    parts += [f"{k}={v!r}" for k, v in metrics.items() if k != "step"]
    return " ".join(parts)


def train(dem: EnergyModel, gen: GeneratorModel, dataset, config: RunConfig,
          state: Optional[TrainState] = None, metrics_out=None,
          checkpoint_fn=None) -> TrainState:
    """Run the dual loop until ``state.step`` reaches ``config.steps``.

    config is the run's ``config.RunConfig``, validated here; only its
    training fields are read. dataset is anything with a ``points`` array
    (or the array itself); it is never mutated. One line of ``key=value``
    metrics per step goes to ``metrics_out`` when given.
    ``checkpoint_fn(state)`` fires every ``checkpoint_interval`` steps.
    Returns the final state; the models, with the AdaGrad accumulators in
    their stores, are updated in place.
    """
    config.validate()
    points = np.asarray(getattr(dataset, "points", dataset), dtype=np.float64)
    if points.ndim != 2 or points.shape[0] < 1:
        raise ConfigError(f"dataset must be a nonempty (n, d) array, got {points.shape}")
    if state is None:
        state = TrainState.initial(config.seed)
    buffer = np.empty((2, max(dem.store.values.size, gen.store.values.size)))
    dem_scratch = buffer[:, :dem.store.values.size]
    gen_scratch = buffer[:, :gen.store.values.size]
    n = config.batch_size
    while state.step < config.steps:
        try:
            idx = state.data_rng.integers(0, points.shape[0], size=n)
            x_pos = points[idx]
            z = sample_prior(n, gen.d_z, state.prior_rng)
            x_neg = gen.generate(z, "train")
            _, dem_stats = dem_loss_gradient(dem, x_pos, x_neg)
            dem_gnorm = adagrad_step(dem.store, config.dem_lr, config.adagrad_eps,
                                     dem_scratch)
            metrics = {
                "step": state.step,
                "e_pos": dem_stats["e_pos"],
                "e_neg": dem_stats["e_neg"],
                "dem_gnorm": dem_gnorm,
            }
            if (state.step + 1) % config.dem_updates_per_dgm_update == 0:
                z2 = sample_prior(n, gen.d_z, state.prior_rng)
                _, dgm_stats = dgm_loss_gradient(
                    gen, dem, z2, config.entropy_weight, config.entropy_estimator)
                dgm_gnorm = adagrad_step(gen.store, config.dgm_lr, config.adagrad_eps,
                                         gen_scratch)
                metrics["e_gen"] = dgm_stats["e_gen"]
                metrics["entropy"] = dgm_stats["entropy"]
                metrics["dgm_gnorm"] = dgm_gnorm
        except NonFiniteGradientError as err:
            raise NonFiniteGradientError(err.param_name, step=state.step) from None
        except SingularEntropyError as err:
            raise SingularEntropyError(err.reason, step=state.step) from None
        state.step += 1
        if metrics_out is not None:
            metrics_out.write(_format_metrics(metrics) + "\n")
        if (checkpoint_fn is not None and config.checkpoint_interval > 0
                and state.step % config.checkpoint_interval == 0
                and state.step < config.steps):
            checkpoint_fn(state)
    return state

