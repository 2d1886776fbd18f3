"""Alternating training of the energy model and the generator.

Each step draws a data minibatch and a generated minibatch, updates the
energy model with the positive/negative phase gradient, and (every
``dem_updates_per_dgm_update`` batches) updates the generator on a fresh
latent draw. Both models use AdaGrad. Gradients are checked for finiteness
before every update; a NaN aborts the run with the offending parameter and
step rather than being masked.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from .autodiff import ParameterStore
from .energy_model import EnergyModel, dem_loss_gradient
from .generator_model import GeneratorModel, dgm_loss_gradient, sample_prior

if TYPE_CHECKING:  # config imports data_io, which imports this module
    from .config import RunConfig


# Entries per AdaGrad pass. Each block's temporaries (64 KiB) stay in cache
# and below glibc's default mmap threshold, so every step reuses the same
# heap memory instead of growing the heap and faulting fresh pages in.
ADAGRAD_BLOCK = 8192


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
    """Step counter, AdaGrad accumulators and RNG streams.

    ``accumulators`` holds one flat AdaGrad accumulator per model, keyed
    ``"dem"`` and ``"gen"`` and laid out like that model's
    ``ParameterStore``; each is created, zero, at the model's first update.
    A checkpoint writes and reads it per parameter name, through the
    store's ``views``.
    """

    def __init__(self, step=0, data_rng=None, prior_rng=None):
        self.step = step
        self.accumulators: dict[str, np.ndarray] = {}
        self.data_rng = data_rng
        self.prior_rng = prior_rng

    @classmethod
    def initial(cls, seed: int) -> "TrainState":
        streams = rng_streams(seed)
        return cls(data_rng=streams["data"], prior_rng=streams["prior"])


def adagrad_step(store: ParameterStore, grad: np.ndarray,
                 accumulator: np.ndarray, lr: float, eps: float) -> None:
    """acc += g^2; values -= lr * g / (sqrt(acc) + eps), elementwise over a
    model's flat parameter store.

    grad and accumulator are flat arrays laid out like ``store.values``.
    Every gradient entry is checked before anything moves; a non-finite one
    raises ``NonFiniteGradientError`` naming its parameter. Coordinates with
    g == 0 are left untouched even when acc and eps are both zero (the 0/0
    case).
    """
    bad = store.first_nonfinite(grad)
    if bad is not None:
        raise NonFiniteGradientError(bad)
    for start in range(0, grad.size, ADAGRAD_BLOCK):
        block = slice(start, start + ADAGRAD_BLOCK)
        g, acc = grad[block], accumulator[block]
        denom = g * g
        acc += denom
        np.sqrt(acc, out=denom)
        denom += eps
        delta = lr * g
        with np.errstate(invalid="ignore", divide="ignore"):
            delta /= denom
        delta[g == 0.0] = 0.0
        store.values[block] -= delta


def _accumulator(state: TrainState, key: str, store: ParameterStore) -> np.ndarray:
    """The flat accumulator of the model under ``key``, zero when new."""
    accumulator = state.accumulators.get(key)
    if accumulator is None:
        accumulator = state.accumulators[key] = np.zeros_like(store.values)
    return accumulator


def _grad_norm(store: ParameterStore, grad: np.ndarray) -> float:
    return float(np.sqrt(sum(float((g * g).sum()) for g in store.views(grad).values())))


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
    Returns the final state; models are updated in place.
    """
    config.validate()
    points = np.asarray(getattr(dataset, "points", dataset), dtype=np.float64)
    if points.ndim != 2 or points.shape[0] < 1:
        raise ConfigError(f"dataset must be a nonempty (n, d) array, got {points.shape}")
    if state is None:
        state = TrainState.initial(config.seed)
    n = config.batch_size
    while state.step < config.steps:
        try:
            idx = state.data_rng.integers(0, points.shape[0], size=n)
            x_pos = points[idx]
            z = sample_prior(n, gen.d_z, state.prior_rng)
            x_neg = gen.generate(z, "train")
            dem_grad, dem_stats = dem_loss_gradient(dem, x_pos, x_neg)
            adagrad_step(dem.store, dem_grad, _accumulator(state, "dem", dem.store),
                         config.dem_lr, config.adagrad_eps)
            metrics = {
                "step": state.step,
                "e_pos": dem_stats["e_pos"],
                "e_neg": dem_stats["e_neg"],
                "dem_gnorm": _grad_norm(dem.store, dem_grad),
            }
            if (state.step + 1) % config.dem_updates_per_dgm_update == 0:
                z2 = sample_prior(n, gen.d_z, state.prior_rng)
                dgm_grad, dgm_stats = dgm_loss_gradient(
                    gen, dem, z2, config.entropy_weight, config.entropy_estimator)
                adagrad_step(gen.store, dgm_grad, _accumulator(state, "gen", gen.store),
                             config.dgm_lr, config.adagrad_eps)
                metrics["e_gen"] = dgm_stats["e_gen"]
                metrics["entropy"] = dgm_stats["entropy"]
                metrics["dgm_gnorm"] = _grad_norm(gen.store, dgm_grad)
        except NonFiniteGradientError as err:
            raise NonFiniteGradientError(err.param_name, step=state.step) from None
        state.step += 1
        if metrics_out is not None:
            metrics_out.write(_format_metrics(metrics) + "\n")
        if (checkpoint_fn is not None and config.checkpoint_interval > 0
                and state.step % config.checkpoint_interval == 0
                and state.step < config.steps):
            checkpoint_fn(state)
    return state

