import math
import threading
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dualebm import autodiff as ad
from dualebm.autodiff import ROW_BLOCK, ShapeError, Tape
from dualebm.energy_model import (
    EnergyModel,
    dem_loss_gradient,
    grid_log_density,
    logsumexp,
)
from dualebm.gradcheck import finite_difference

from helpers import assert_grads_match, reference_dem_loss_gradient, reference_energy


@pytest.mark.parametrize("a", [
    np.random.default_rng(60).normal(scale=30.0, size=1000),
    np.array([-np.inf, 1.5, -np.inf, 2.5, 2.5, -3.0]),
    np.full(7, -np.inf),
    np.array([700.0, -700.0, 699.5, 700.0]),
    np.array([-700.0, -700.0, -709.0]),
    np.array([np.inf, 1.0]),
    np.array([]),
], ids=["normal", "mixed_with_-inf", "all_-inf", "+700", "-700", "+inf", "empty"])
def test_logsumexp_keeps_scipys_bits(a):
    from scipy.special import logsumexp as scipy_logsumexp

    with np.errstate(over="ignore"):   # scipy's unshifted pass on +inf
        expected = float(scipy_logsumexp(a))
    assert logsumexp(a) == expected


def test_grid_log_density_keeps_scipys_normalizer():
    from scipy.special import logsumexp as scipy_logsumexp

    model = EnergyModel.build((2, 16, 4), 4, np.random.default_rng(61))
    bounds = [(-1.5, 1.5), (-1.5, 1.5)]
    points, _, log_z, log_w = grid_log_density(model.energy_values, bounds, 150)
    assert log_z == float(scipy_logsumexp(-model.energy_values(points) + log_w))


def _one_batch_energy(model, x):
    """``_energy`` over the rows of x as one batch, in an infer workspace of
    their own, as ``energy_values`` runs each block."""
    return model._energy(x, ad.workspace(None, len(x), model.layers, backward=False))


def _zeroed(model):
    for p in model.params():
        p.values[:] = 0.0
    return model


def _quadratic_model(sigma=1.0, n_experts=0):
    """Zero parameters: energy reduces to x.x/sigma^2 - n_experts*log 2."""
    rng = np.random.default_rng(0)
    return _zeroed(EnergyModel.build((2, 4, 4), n_experts, rng, sigma=sigma))


def test_features_zero_parameters_sigmoid_gives_half():
    model = _zeroed(EnergyModel.build((2, 4, 3), 2, np.random.default_rng(0)))
    f = ad.stack_forward(model.layers[:-1], np.random.default_rng(1).normal(size=(5, 2)),
                         "infer")
    assert_allclose(f, 0.5 * np.ones((5, 3)))


def test_features_identical_rows_identical_outputs():
    model = EnergyModel.build((2, 8, 3), 2, np.random.default_rng(2))
    x = np.array([[0.3, -1.2]])
    batch = np.repeat(x, 4, axis=0)
    f = ad.stack_forward(model.layers[:-1], batch, "infer")
    assert np.array_equal(f, np.repeat(f[:1], 4, axis=0))


def test_features_bounded_on_extreme_inputs():
    model = EnergyModel.build((2, 16, 4), 4, np.random.default_rng(3))
    x = np.random.default_rng(4).uniform(-100.0, 100.0, size=(10_000, 2))
    f = ad.stack_forward(model.layers[:-1], x, "infer")
    assert np.all(f >= 0.0) and np.all(f <= 1.0)


def test_features_rejects_wrong_width():
    """The stack trusts its input; the training pass that reaches it
    checks the width first (``energy_values`` is checked below)."""
    model = EnergyModel.build((2, 4, 3), 2, np.random.default_rng(5))
    with pytest.raises(ShapeError, match=r"\(batch, 2\)"):
        model.energy_gradient(np.zeros((3, 5)), np.ones(3), params=True)


@pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf, 1e200, 1e-200, 1e-160])
def test_sigma_must_be_positive_and_finite(sigma):
    """An infinite sigma drops the quadratic term that makes exp(-E)
    integrable; a NaN one makes every energy NaN. A sigma whose 1/sigma^2
    leaves float range (sigma^2 overflows, underflows to 0 or to a
    subnormal whose inverse is inf) once built and then failed in the
    energy with an OverflowError, a ZeroDivisionError or inf energies."""
    with pytest.raises(ValueError, match="sigma must be positive and finite"):
        EnergyModel.build((2, 4, 3), 2, np.random.default_rng(0), sigma=sigma)


def test_energy_zero_parameters_closed_form():
    model = _quadratic_model(n_experts=4)
    e = model.energy_values(np.zeros((1, 2)))
    assert_allclose(e, [-4.0 * math.log(2.0)], rtol=1e-12)
    assert_allclose(e, [-2.772589], atol=1e-6)


def test_energy_difference_is_quadratic_term():
    model = _quadratic_model(n_experts=4)
    e = model.energy_values(np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert_allclose(e[0] - e[1], 1.0, rtol=1e-12)


def test_unnormalized_density_integrates_stably():
    model = EnergyModel.build((2, 8, 4), 4, np.random.default_rng(6))
    bounds = [(-20.0, 20.0), (-20.0, 20.0)]
    coarse = grid_log_density(model.energy_values, bounds, 200)[2]
    fine = grid_log_density(model.energy_values, bounds, 400)[2]
    assert np.isfinite(coarse) and np.isfinite(fine)
    assert abs(fine - coarse) < 1e-3 * abs(fine)


def test_energy_batch_permutation_equivariance():
    model = EnergyModel.build((2, 8, 4), 4, np.random.default_rng(7))
    x = np.random.default_rng(8).normal(size=(16, 2))
    perm = np.random.default_rng(9).permutation(16)
    assert_allclose(model.energy_values(x)[perm], model.energy_values(x[perm]),
                    rtol=1e-12)


@pytest.mark.parametrize("rows", [500, ROW_BLOCK + 7])
def test_energy_values_is_bit_equal_to_the_recorded_pass(rows):
    """``energy_values`` against the chain of tape primitives it stands
    for, one block at a time."""
    model = EnergyModel.build((2, 32, 32, 4), 4, np.random.default_rng(30))
    x = np.random.default_rng(31).normal(size=(rows, 2))
    recorded = np.concatenate([
        reference_energy(model, Tape().constant(x[start:start + ROW_BLOCK])).values
        for start in range(0, rows, ROW_BLOCK)])
    assert np.array_equal(model.energy_values(x), recorded)


def test_energy_values_builds_no_tape(monkeypatch):
    model = EnergyModel.build((2, 8, 3), 2, np.random.default_rng(32))
    x = np.random.default_rng(33).normal(size=(10, 2))
    expected = model.energy_values(x)

    def no_tape(self):
        raise AssertionError("energy_values built a tape")

    monkeypatch.setattr(Tape, "__init__", no_tape)
    assert np.array_equal(model.energy_values(x), expected)


def test_energy_values_peak_memory_is_a_few_chunk_activations():
    rows, width = 20_000, 128
    model = EnergyModel.build((2, width, width, 4), 4, np.random.default_rng(34))
    x = np.random.default_rng(35).normal(size=(rows, 2))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        model.energy_values(x)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # a recorded pass keeps every intermediate array: 6.3 of these units
    assert peak < 2 * rows * width * 8


def test_energy_values_runs_in_row_blocks():
    model = EnergyModel.build((2, 128, 128, 4), 4, np.random.default_rng(36))
    rows = 3 * ROW_BLOCK + 5
    x = np.random.default_rng(37).normal(size=(rows, 2))
    e = model.energy_values(x)
    blocks = np.concatenate([_one_batch_energy(model, x[start:start + ROW_BLOCK])
                             for start in range(0, rows, ROW_BLOCK)])
    assert np.array_equal(e, blocks)
    # BLAS may pick its kernel by the row count: one batch agrees to an ulp
    assert_allclose(e, _one_batch_energy(model, x), rtol=0, atol=1e-14)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_energy_values_of_a_2d_model_runs_in_blocks_of_its_widest_layer(dtype):
    """The 2D model's widest layer is 128 wide: its pass runs in blocks of
    ``block_rows(128)`` rows, and gives the bits of the serial loop over
    those blocks."""
    model = EnergyModel.build((2, 128, 128, 4), 4, np.random.default_rng(36), dtype=dtype)
    block = ad.block_rows(128)
    rows = 3 * block + 5
    x = np.random.default_rng(37).normal(size=(rows, 2)).astype(dtype)
    serial = np.concatenate([_one_batch_energy(model, x[start:start + block])
                             for start in range(0, rows, block)])
    energy, calls = model._energy, []     # list.append is atomic

    def recording(block_x, ws, out):
        calls.append((len(block_x), threading.current_thread(), ws))
        return energy(block_x, ws, out=out)

    model._energy = recording
    assert np.array_equal(model.energy_values(x), serial)
    assert sorted(rows for rows, _, _ in calls) == [5, block, block, block]
    # a share reuses one workspace for its full blocks
    kept = {thread: ws for rows, thread, ws in calls if rows == block}
    assert all(kept[thread] is ws for rows, thread, ws in calls if rows == block)


def test_energy_values_keep_the_callers_error_state_on_every_share():
    """numpy's error state does not reach new threads: an overflow in a
    block that another thread runs still raises under the caller's
    ``np.errstate(over="raise")``."""
    model = EnergyModel.build((2, 8, 4), 4, np.random.default_rng(39), dtype=np.float32)
    x = np.zeros((3 * ROW_BLOCK, 2))
    x[ROW_BLOCK:2 * ROW_BLOCK] = 1e30     # its square overflows float32
    with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
        model.energy_values(x)


def test_energy_values_zero_rows_and_wrong_width():
    model = EnergyModel.build((2, 8, 3), 2, np.random.default_rng(38))
    e = model.energy_values(np.empty((0, 2)))
    assert e.shape == (0,) and e.dtype == np.float64
    for x in (np.zeros((3, 5)), np.empty((0, 3)), np.zeros(2)):
        with pytest.raises(ShapeError, match=r"\(batch, 2\)"):
            model.energy_values(x)


def _energy_values_peak(rows, width):
    model = EnergyModel.build((2, width, width, 4), 4, np.random.default_rng(34))
    x = np.random.default_rng(35).normal(size=(rows, 2))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        model.energy_values(x)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("rows", [20_000, 80_000])
def test_energy_values_peak_memory_does_not_grow_with_rows(rows):
    # the output, and four block arrays for each share of the blocks, of
    # the rows the pass's blocks have
    width = 128
    block = ad.block_rows(width)
    assert (_energy_values_peak(rows, width)
            < rows * 8 + ad.share_count(rows, block) * 4 * block * width * 8)


def test_energy_values_peak_memory_on_one_cpu(monkeypatch):
    monkeypatch.setattr(ad, "usable_cpus", lambda: 1)
    rows, width = 20_000, 128
    block = ad.block_rows(width)
    assert ad.share_count(rows, block) == 1
    assert _energy_values_peak(rows, width) < rows * 8 + 4 * block * width * 8


# --- maximum-likelihood-style gradient -----------------------------------------

def test_identical_phases_cancel_exactly():
    model = EnergyModel.build((2, 4, 3), 3, np.random.default_rng(10))
    x = np.random.default_rng(11).normal(size=(8, 2))
    loss, stats = dem_loss_gradient(model, x, x.copy())
    assert stats["e_pos"] == stats["e_neg"] and loss == 0.0
    assert np.all(model.store.grad == 0.0)


def test_dem_loss_gradient_weights_each_phase_by_its_own_rows():
    """7 positives and 12 negatives: each phase's rows weigh 1/n of its own
    n, with the bits of the primitive chain's two means."""
    model, ref = (EnergyModel.build((2, 8, 4), 3, np.random.default_rng(12), sigma=0.7)
                  for _ in range(2))
    shift = 0.1 * np.random.default_rng(13).standard_normal(model.store.values.shape)
    model.store.values += shift
    ref.store.values += shift
    rng = np.random.default_rng(14)
    x_pos, x_neg = rng.normal(size=(7, 2)), rng.normal(size=(12, 2))
    loss, stats = dem_loss_gradient(model, x_pos, x_neg)
    ref_loss, ref_grad, ref_stats = reference_dem_loss_gradient(ref, x_pos, x_neg)
    assert loss == ref_loss and stats == ref_stats
    assert np.array_equal(model.store.grad, ref_grad)


def test_dem_loss_gradient_matches_finite_differences():
    model = EnergyModel.build((2, 4, 2), 2, np.random.default_rng(13))
    rng = np.random.default_rng(14)
    x_pos = rng.normal(size=(8, 2))
    x_neg = rng.normal(size=(8, 2))

    dem_loss_gradient(model, x_pos, x_neg)
    analytic = model.store.grad.copy()
    numeric = finite_difference(lambda: dem_loss_gradient(model, x_pos, x_neg)[0],
                                model.store.values)
    assert_grads_match(model.store.views(analytic), model.store.views(numeric),
                       rtol=1e-5)


def test_one_gradient_step_separates_phases():
    model = EnergyModel.build((2, 8, 4), 4, np.random.default_rng(15))
    rng = np.random.default_rng(16)
    x_pos = rng.normal(size=(32, 2)) * 0.1 - 1.0
    x_neg = rng.normal(size=(32, 2)) * 0.1 + 1.0
    before_pos = model.energy_values(x_pos).mean()
    before_neg = model.energy_values(x_neg).mean()
    dem_loss_gradient(model, x_pos, x_neg)
    model.store.values -= 1e-3 * model.store.grad
    assert model.energy_values(x_pos).mean() < before_pos
    assert model.energy_values(x_neg).mean() > before_neg


def test_negative_phase_estimator_averages_toward_large_batch():
    """Mean of per-batch gradient estimates approaches the huge-batch value.

    Quadrupling the number of averaged batches should roughly halve the
    estimation error (Monte Carlo 1/sqrt(N) behavior).
    """
    from dualebm.generator_model import GeneratorModel, sample_prior

    model = EnergyModel.build((2, 8, 4), 4, np.random.default_rng(17))
    gen = GeneratorModel.build((3, 8, 2), np.random.default_rng(18))

    def neg_phase_grad(z):
        model.store.grad[...] = 0.0
        model.energy_gradient(gen.generate(z, "infer"), np.full(len(z), 1.0 / len(z)),
                              params=True)
        return model.store.grad.copy()

    rng = np.random.default_rng(19)
    reference = neg_phase_grad(sample_prior(200_000, 3, rng))

    def averaged_error(n_batches, rng):
        total = np.zeros_like(reference)
        for _ in range(n_batches):
            total += neg_phase_grad(sample_prior(64, 3, rng))
        return np.linalg.norm(total / n_batches - reference)

    err_small = averaged_error(4, np.random.default_rng(20))
    err_large = averaged_error(64, np.random.default_rng(21))
    assert err_large < 0.6 * err_small


# --- partition quadrature --------------------------------------------------------

def test_log_partition_recovers_gaussian_integral():
    model = _quadratic_model(sigma=1.0, n_experts=0)
    log_z = grid_log_density(model.energy_values, [(-6.0, 6.0), (-6.0, 6.0)], 400)[2]
    assert abs(log_z - math.log(math.pi)) < 1e-3


def test_log_partition_grid_refinement_converges():
    model = _quadratic_model(sigma=1.0, n_experts=0)
    bounds = [(-6.0, 6.0), (-6.0, 6.0)]
    assert abs(grid_log_density(model.energy_values, bounds, 800)[2]
               - grid_log_density(model.energy_values, bounds, 400)[2]) < 1e-4


def test_log_partition_constant_shift_identity():
    model = _quadratic_model(n_experts=0)
    bounds = [(-6.0, 6.0), (-6.0, 6.0)]
    base = grid_log_density(model.energy_values, bounds, 200)[2]
    for c in (-3.0, 0.5, 10.0):
        shifted = grid_log_density(lambda x, c=c: model.energy_values(x) + c,
                                   bounds, 200)[2]
        assert_allclose(shifted, base - c, rtol=1e-12)


def test_log_partition_one_dimensional():
    log_z = grid_log_density(lambda x: (x[:, 0] ** 2), [(-8.0, 8.0)], 2000)[2]
    assert abs(log_z - 0.5 * math.log(math.pi)) < 1e-6


def test_grid_density_sums_to_one():
    model = EnergyModel.build((2, 8, 4), 4, np.random.default_rng(23))
    _, log_p, _, _ = grid_log_density(model.energy_values,
                                      [(-6.0, 6.0), (-6.0, 6.0)], 150)
    assert_allclose(np.exp(log_p).sum(), 1.0, atol=1e-12)
