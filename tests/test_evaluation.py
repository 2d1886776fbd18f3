import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.spatial import cKDTree
from scipy.stats import gaussian_kde as scipy_gaussian_kde

from dualebm.autodiff import ROW_BLOCK
from dualebm.data_io import SPIRAL_SPECS, arm_curve, make_dataset
from dualebm.energy_model import EnergyModel, trapezoid_grid
from dualebm.evaluation import (
    KDE_BLOCK_FLOATS,
    HeatmapGrid,
    energy_heatmap,
    export_image_grid,
    gaussian_kde,
    latent_interpolation,
    mode_coverage,
    model_data_divergence,
    nearest_distances,
    read_pgm,
    read_sidecar,
)
from dualebm.generator_model import GeneratorModel, sample_prior

from helpers import reference_image_files


def _bowl_model():
    """Zero parameters, no experts: energy is exactly ||x||^2."""
    model = EnergyModel.build((2, 4, 2), 0, np.random.default_rng(0))
    for p in model.params():
        p.values[:] = 0.0
    return model


# --- heatmaps ---------------------------------------------------------------

def test_heatmap_argmin_at_origin_cell():
    grid = energy_heatmap(_bowl_model(), [(-2.0, 2.0), (-2.0, 2.0)], 41)
    iy, ix = np.unravel_index(np.argmin(grid.values), grid.values.shape)
    assert (ix, iy) == (20, 20)  # odd resolution: the center cell holds 0
    assert grid.vmin == grid.values.min()
    assert grid.vmax == grid.values.max()


def test_heatmap_even_model_is_symmetric():
    model = EnergyModel.build((2, 4, 3), 3, np.random.default_rng(1))
    for p in model.params():
        p.values[:] = 0.0  # features constant, b zero: E(x) = E(-x)
    grid = energy_heatmap(model, [(-1.5, 1.5), (-1.5, 1.5)], 24)
    assert_allclose(grid.values, grid.values[::-1, ::-1], rtol=1e-12, atol=1e-12)


def test_heatmap_refinement_keeps_argmin_within_coarse_cell():
    model = EnergyModel.build((2, 16, 4), 4, np.random.default_rng(2))
    bounds = [(-1.5, 1.5), (-1.5, 1.5)]
    coarse = energy_heatmap(model, bounds, 32)
    fine = energy_heatmap(model, bounds, 64)
    cy, cx = np.unravel_index(np.argmin(coarse.values), coarse.values.shape)
    fy, fx = np.unravel_index(np.argmin(fine.values), fine.values.shape)
    cell = 3.0 / 32
    assert abs((-1.5 + (fx + 0.5) * 3.0 / 64) - (-1.5 + (cx + 0.5) * cell)) <= cell
    assert abs((-1.5 + (fy + 0.5) * 3.0 / 64) - (-1.5 + (cy + 0.5) * cell)) <= cell


def test_heatmap_rejects_non_2d_model():
    model = EnergyModel.build((3, 4, 2), 2, np.random.default_rng(3))
    with pytest.raises(ValueError, match="2-dimensional"):
        energy_heatmap(model, [(-1, 1), (-1, 1)], 10)


def test_heatmap_does_not_mutate_model():
    model = EnergyModel.build((2, 8, 4), 4, np.random.default_rng(4))
    before = [p.values.copy() for p in model.params()]
    energy_heatmap(model, [(-1, 1), (-1, 1)], 16)
    assert all(np.array_equal(p.values, b)
               for p, b in zip(model.params(), before))


# --- latent interpolation -------------------------------------------------------

def test_interpolation_endpoints_are_exact():
    gen = GeneratorModel.build((4, 16, 2), np.random.default_rng(5))
    rng = np.random.default_rng(6)
    z_a = sample_prior(1, 4, rng)[0]
    z_b = sample_prior(1, 4, rng)[0]
    # the interpolated latents at t = 0 and t = 1 are bitwise the endpoints
    t = np.linspace(0.0, 1.0, 7)[:, None]
    z = (1.0 - t) * z_a[None, :] + t * z_b[None, :]
    assert np.array_equal(z[0], z_a) and np.array_equal(z[-1], z_b)
    # outputs match a standalone forward to machine precision (vectorized
    # tanh may differ by an ulp between batch layouts)
    path = latent_interpolation(gen, z_a, z_b, 7)
    assert_allclose(path[0], gen.generate(z_a[None, :], "infer")[0],
                    rtol=0, atol=1e-14)
    assert_allclose(path[-1], gen.generate(z_b[None, :], "infer")[0],
                    rtol=0, atol=1e-14)


def test_interpolation_identical_endpoints_collapse():
    gen = GeneratorModel.build((4, 16, 2), np.random.default_rng(7))
    z = sample_prior(1, 4, np.random.default_rng(8))[0]
    path = latent_interpolation(gen, z, z, 5)
    assert_allclose(path, np.repeat(path[:1], 5, axis=0), rtol=0, atol=1e-14)


def test_interpolation_gaps_shrink_with_refinement():
    gen = GeneratorModel.build((4, 32, 2), np.random.default_rng(9))
    rng = np.random.default_rng(10)
    z_a = sample_prior(1, 4, rng)[0]
    z_b = sample_prior(1, 4, rng)[0]

    def max_gap(k):
        path = latent_interpolation(gen, z_a, z_b, k)
        return float(np.max(np.linalg.norm(np.diff(path, axis=0), axis=1)))

    gaps = [max_gap(k) for k in (9, 17, 33, 65)]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    # halving the step should roughly halve the gap; allow 4x curvature slack
    assert gaps[-1] <= 4.0 * gaps[0] * (8.0 / 64.0)


# --- mode coverage -----------------------------------------------------------------

def test_mode_coverage_self_consistency():
    ds = make_dataset("four_spin", 4000, 0.01, np.random.default_rng(11))
    report = mode_coverage(ds.points, "four_spin")
    assert report["unassigned"] < 0.05
    for fraction in report["fractions"]:
        assert abs(fraction - 0.25) < 0.05


def test_mode_coverage_single_point_mass():
    target = arm_curve("four_spin", 2)[800]
    samples = np.repeat(target[None, :], 50, axis=0)
    report = mode_coverage(samples, "four_spin")
    assert report["fractions"][2] == 1.0
    assert report["unassigned"] == 0.0


def test_mode_coverage_far_points_unassigned():
    samples = np.array([[1.5, 1.5], [-2.0, 0.3], [0.0, -1.6]])
    report = mode_coverage(samples, "four_spin")
    assert report["unassigned"] == 1.0
    assert sum(report["fractions"]) == 0.0


def test_mode_coverage_origin_is_within_threshold_of_arm_start():
    # the arms begin at radius 0.25/(1.5 pi) ~= 0.053 < 0.1, so the origin
    # is *not* off-manifold under the default threshold
    report = mode_coverage(np.zeros((3, 2)), "four_spin")
    assert report["unassigned"] == 0.0


def test_mode_coverage_fractions_sum_to_one():
    samples = np.random.default_rng(12).uniform(-1.2, 1.2, size=(500, 2))
    report = mode_coverage(samples, "two_spiral")
    assert sum(report["fractions"]) + report["unassigned"] == 1.0


def test_mode_coverage_unknown_dataset():
    with pytest.raises(ValueError, match="no mode-assignment rule"):
        mode_coverage(np.zeros((2, 2)), "mystery")


@pytest.mark.parametrize("dataset", sorted(SPIRAL_SPECS))
def test_mode_coverage_is_ckdtrees(dataset):
    """The nearest distances to each arm are cKDTree's, bit for bit, so the
    coverage report is the one cKDTree's distances give."""
    samples = make_dataset(dataset, 10_000, 0.06, np.random.default_rng(14)).points
    arms = SPIRAL_SPECS[dataset][0]
    distances = np.column_stack([cKDTree(arm_curve(dataset, arm)).query(samples)[0]
                                 for arm in range(arms)])
    for arm in range(arms):
        assert np.array_equal(nearest_distances(samples, arm_curve(dataset, arm)),
                              distances[:, arm])
    nearest = distances.argmin(axis=1)
    assigned = distances[np.arange(len(samples)), nearest] <= 0.1
    counts = np.bincount(nearest[assigned], minlength=arms)
    report = mode_coverage(samples, dataset)
    assert report["fractions"] == (counts / len(samples)).tolist()
    assert report["unassigned"] == float((len(samples) - counts.sum()) / len(samples))
    assert 0.0 < report["unassigned"] < 1.0


# --- divergence metrics --------------------------------------------------------------

def test_divergence_kde_self_comparison():
    ds = make_dataset("four_spin", 800, 0.02, np.random.default_rng(13))
    kde = scipy_gaussian_kde(ds.points.T)
    report = model_data_divergence(lambda x: -kde.logpdf(x.T), ds.points,
                                   [(-1.4, 1.4), (-1.4, 1.4)], 120)
    assert report["kl_vs_kde"] < 1e-6


def test_kde_logpdf_is_scipys():
    """Scott's bandwidth and the whitened kernel sum of scipy's
    gaussian_kde: eval's 10 000 held-out points at its 200 x 200 grid."""
    points = make_dataset("four_spin", 10_000, 0.01, np.random.default_rng(15)).points
    grid, _ = trapezoid_grid([(-1.5, 1.5), (-1.5, 1.5)], 200)
    expected = scipy_gaussian_kde(points.T).logpdf(grid.T)
    assert_allclose(gaussian_kde(points).logpdf(grid), expected, rtol=1e-12, atol=1e-12)


def test_kde_logpdf_holds_one_block():
    """logpdf keeps one block buffer of at most KDE_BLOCK_FLOATS kernel
    values (4 MiB), not the points-by-sample matrix, which is over 150
    times larger here."""
    points = make_dataset("two_spiral", 10_000, 0.02, np.random.default_rng(16)).points
    grid = np.random.default_rng(17).uniform(-1.5, 1.5, size=(32 * ROW_BLOCK, 2))
    kde = gaussian_kde(points)
    kde.logpdf(grid[:10])   # first-call caches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        kde.logpdf(grid)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 8 * KDE_BLOCK_FLOATS


def test_divergence_constant_energy_cross_entropy_is_log_area():
    points = np.random.default_rng(14).uniform(-0.5, 0.5, size=(100, 2))
    report = model_data_divergence(lambda x: np.zeros(len(x)), points,
                                   [(-1.0, 1.0), (-1.0, 1.0)], 100)
    assert_allclose(report["cross_entropy"], math.log(4.0), atol=1e-9)


def test_divergence_invariant_to_energy_shift():
    ds = make_dataset("four_spin", 500, 0.02, np.random.default_rng(15))
    model = EnergyModel.build((2, 8, 4), 4, np.random.default_rng(16))
    bounds = [(-1.5, 1.5), (-1.5, 1.5)]
    base = model_data_divergence(model, ds.points, bounds, 100)
    shifted = model_data_divergence(
        lambda x: model.energy_values(x) + 11.5, ds.points, bounds, 100)
    assert abs(base["cross_entropy"] - shifted["cross_entropy"]) < 1e-6
    assert abs(base["kl_vs_kde"] - shifted["kl_vs_kde"]) < 1e-6


def test_training_lowers_cross_entropy():
    from dualebm.config import RunConfig
    from dualebm.training import train

    ds = make_dataset("four_spin", 2000, 0.01, np.random.default_rng(17))
    bounds = [(-1.5, 1.5), (-1.5, 1.5)]
    dem = EnergyModel.build((2, 32, 4), 4, np.random.default_rng(18))
    gen = GeneratorModel.build((4, 32, 2), np.random.default_rng(19))
    before = model_data_divergence(dem, ds.points, bounds, 100)
    train(dem, gen, ds.points, RunConfig(batch_size=32, steps=1500, seed=20,
                                         entropy_estimator="nearest_neighbour"))
    after = model_data_divergence(dem, ds.points, bounds, 100)
    assert after["cross_entropy"] < before["cross_entropy"]


# --- exports ------------------------------------------------------------------------

def test_pgm_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(21)
    samples = rng.uniform(0.0, 1.0, size=(6, 49))
    path = tmp_path / "strip.pgm"
    export_image_grid(samples, path)
    pixels = read_pgm(path)
    assert pixels.shape == (7, 42)
    vmin, vmax = samples.min(), samples.max()
    expected = np.round((samples - vmin) / (vmax - vmin) * 255.0).astype(np.uint8)
    expected = expected.reshape(6, 7, 7).transpose(1, 0, 2).reshape(7, 42)
    assert np.array_equal(pixels, expected)
    meta = read_sidecar(path)
    assert float(meta["vmin"]) == vmin
    assert float(meta["vmax"]) == vmax


def test_constant_samples_give_degenerate_scale(tmp_path):
    path = tmp_path / "flat.pgm"
    export_image_grid(np.full((3, 16), 0.7), path)
    pixels = read_pgm(path)
    assert np.all(pixels == 0)
    assert read_sidecar(path)["degenerate_scale"] == "true"


@pytest.mark.parametrize("width", [49, 784])
@pytest.mark.parametrize("k", [1, 255, 256, 257, 3 * ROW_BLOCK + 5])
def test_image_strip_is_byte_identical_to_the_full_array_export(tmp_path, k, width):
    samples = np.random.default_rng(k + width).uniform(-0.3, 1.2, size=(k, width))
    path = tmp_path / "strip.pgm"
    export_image_grid(samples, path)
    pgm, meta = reference_image_files(samples)
    assert path.read_bytes() == pgm
    assert (tmp_path / "strip.pgm.meta").read_text() == meta


@pytest.mark.parametrize("width", [49, 784])
def test_constant_image_strip_is_byte_identical_to_the_full_array_export(tmp_path,
                                                                        width):
    samples = np.full((ROW_BLOCK + 3, width), -0.25)
    path = tmp_path / "flat.pgm"
    export_image_grid(samples, path)
    pgm, meta = reference_image_files(samples)
    assert path.read_bytes() == pgm
    assert (tmp_path / "flat.pgm.meta").read_text() == meta


@pytest.mark.parametrize("width", [49, 784])
def test_image_strip_makes_no_full_size_float_temporary(tmp_path, width):
    samples = np.random.default_rng(24).uniform(0.0, 1.0, size=(5000, width))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        export_image_grid(samples, tmp_path / "strip.pgm")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # the uint8 strip is an eighth of the samples, one float block buffer
    # a few per cent of them; a full-size float temporary alone is the lot
    assert peak < samples.nbytes / 4


def test_interpolation_strip_layout(tmp_path):
    gen = GeneratorModel.build((10, 32, 784), np.random.default_rng(22),
                               output_activation="sigmoid")
    rng = np.random.default_rng(23)
    strip = latent_interpolation(gen, sample_prior(1, 10, rng)[0],
                                 sample_prior(1, 10, rng)[0], 10)
    path = tmp_path / "interp.pgm"
    export_image_grid(strip, path)
    assert read_pgm(path).shape == (28, 280)


def test_heatmap_csv_export(tmp_path):
    grid = energy_heatmap(_bowl_model(), [(-1.0, 1.0), (-1.0, 1.0)], 8)
    path = tmp_path / "grid.csv"
    export_image_grid(grid, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y,energy"
    assert len(lines) == 1 + 64
    meta = read_sidecar(path)
    assert float(meta["vmin"]) == grid.vmin
    assert float(meta["vmax"]) == grid.vmax


def test_heatmap_csv_rows_are_float_reprs(tmp_path):
    values = np.arange(12).reshape(3, 4)  # integers are written as floats
    grid = HeatmapGrid(((-1.0, 1.0), (0.0, 3.0)), (4, 3), values, 0.0, 11.0)
    path = tmp_path / "grid.csv"
    export_image_grid(grid, path)
    xs = [-0.75, -0.25, 0.25, 0.75]
    expected = [f"{x!r},{y!r},{float(values[iy, ix])!r}"
                for iy, y in enumerate([0.5, 1.5, 2.5]) for ix, x in enumerate(xs)]
    assert path.read_text().splitlines() == ["x,y,energy"] + expected


def test_non_square_samples_rejected(tmp_path):
    with pytest.raises(ValueError, match="square"):
        export_image_grid(np.zeros((2, 10)), tmp_path / "bad.pgm")
