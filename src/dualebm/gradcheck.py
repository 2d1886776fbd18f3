"""Finite-difference gradient checking.

The oracle only ever reads the loss's value, so it is independent of the
hand-written backwards whose gradients it checks. ``worst_relative_error``
guards the denominator with max(1, |analytic|, |numeric|): plain relative
error for O(1) gradients, absolute error for vanishing ones.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

FD_STEP = 1e-5


def finite_difference(loss_fn: Callable[[], float], values: np.ndarray) -> np.ndarray:
    """Central differences of a scalar loss over every entry of ``values``,
    with step ``FD_STEP``, in an array of the shape of ``values``.

    Each entry is moved in place, the loss read twice, and the entry put
    back, so ``loss_fn`` must read ``values`` itself: a model's flat
    ``store.values``, say.
    """
    grad = np.zeros_like(values)
    for j in np.ndindex(values.shape):
        orig = values[j]
        values[j] = orig + FD_STEP
        up = loss_fn()
        values[j] = orig - FD_STEP
        down = loss_fn()
        values[j] = orig
        grad[j] = (up - down) / (2.0 * FD_STEP)
    return grad


def worst_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Largest guarded relative error across all coordinates."""
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    err = np.abs(analytic - numeric) / denom
    return float(err.max()) if err.size else 0.0


GRADCHECK_TOLERANCE = 1e-4
GRADCHECK_BATCH = 8


def run_gradcheck(seed: int = 0, scale: float = 1.0) -> tuple[float, dict[str, float]]:
    """Check every parameter of a small random model pair against central
    differences, through both training losses.

    Covers the energy model's two-phase loss and the generator loss, which
    back-propagates through the energy function, once with each entropy
    estimator. The differences are taken of the values of ``dem_loss`` and
    ``dgm_loss``, the functions whose gradients training uses, over each
    model's flat ``store.values``, and compared with the flat gradient.
    Returns the worst guarded relative error and the per-loss breakdown.
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
        dem_analytic,
        finite_difference(lambda: dem_loss(dem, x_pos, x_neg)[0], dem.store.values))}
    for estimator in ENTROPY_ESTIMATORS:
        dgm_analytic, _ = dgm_loss_gradient(gen, dem, z, 1.0, estimator)
        breakdown[f"dgm_loss[{estimator}]"] = worst_relative_error(
            dgm_analytic,
            finite_difference(lambda: dgm_loss(gen, dem, z, 1.0, estimator)[0],
                              gen.store.values))
    return max(breakdown.values()), breakdown
