"""Finite-difference gradient checking.

The oracle only ever reads the loss's value, so it is independent of the
hand-written backwards whose gradients it checks. ``worst_relative_error``
guards the denominator with max(1, |analytic|, |numeric|): plain relative
error for O(1) gradients, absolute error for vanishing ones.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

import numpy as np

from .autodiff import Parameter

FD_STEP = 1e-5


def finite_difference(loss_fn: Callable[[], float],
                      params: Iterable[Parameter]) -> dict[str, np.ndarray]:
    """Central differences of a scalar loss over every parameter coordinate,
    with step ``FD_STEP``."""
    out = {}
    for p in params:
        grad = np.zeros_like(p.values)
        flat_values = p.values.ravel()
        flat_grad = grad.ravel()
        for j in range(flat_values.size):
            orig = flat_values[j]
            flat_values[j] = orig + FD_STEP
            up = loss_fn()
            flat_values[j] = orig - FD_STEP
            down = loss_fn()
            flat_values[j] = orig
            flat_grad[j] = (up - down) / (2.0 * FD_STEP)
        out[p.name] = grad
    return out


def worst_relative_error(analytic: Mapping[str, np.ndarray],
                         numeric: Mapping[str, np.ndarray]) -> float:
    """Largest guarded relative error across all coordinates."""
    worst = 0.0
    for name, a in analytic.items():
        f = numeric[name]
        denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(f)))
        err = np.abs(a - f) / denom
        worst = max(worst, float(err.max()) if err.size else 0.0)
    return worst


GRADCHECK_TOLERANCE = 1e-4
GRADCHECK_BATCH = 8


def run_gradcheck(seed: int = 0, scale: float = 1.0) -> tuple[float, dict[str, float]]:
    """Check every parameter of a small random model pair against central
    differences, through both training losses.

    Covers the energy model's two-phase loss and the generator loss, which
    back-propagates through the energy function, once with each entropy
    estimator. The differences are taken of the values of ``dem_loss`` and
    ``dgm_loss``, the functions whose gradients training uses. Returns the
    worst guarded relative error and the per-loss breakdown.
    """
    from .energy_model import EnergyModel, dem_loss, dem_loss_gradient
    from .generator_model import (
        ENTROPY_ESTIMATORS,
        GeneratorModel,
        dgm_loss,
        dgm_loss_gradient,
        sample_prior,
    )

    rng = np.random.default_rng(seed)
    dem = EnergyModel.build((2, 16, 4), 4, rng, init_scale=scale)
    gen = GeneratorModel.build((4, 16, 2), rng, init_scale=scale)
    x_pos = rng.normal(size=(GRADCHECK_BATCH, 2))
    x_neg = rng.normal(size=(GRADCHECK_BATCH, 2))
    z = sample_prior(GRADCHECK_BATCH, 4, rng)

    dem_analytic, _ = dem_loss_gradient(dem, x_pos, x_neg)
    breakdown = {"dem_loss": worst_relative_error(
        dem.store.views(dem_analytic),
        finite_difference(lambda: dem_loss(dem, x_pos, x_neg)[0], dem.params()))}
    for estimator in ENTROPY_ESTIMATORS:
        dgm_analytic, _ = dgm_loss_gradient(gen, dem, z, 1.0, estimator)
        breakdown[f"dgm_loss[{estimator}]"] = worst_relative_error(
            gen.store.views(dgm_analytic),
            finite_difference(
                lambda: dgm_loss(gen, dem, z, 1.0, estimator)[0], gen.params()))
    return max(breakdown.values()), breakdown
