import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dualebm import autodiff as ad
from dualebm.autodiff import ROW_BLOCK, Parameter, ShapeError, Tape
from dualebm.energy_model import EnergyModel
from dualebm.generator_model import (
    GeneratorModel,
    SingularEntropyError,
    dgm_loss_gradient,
    entropy_surrogate,
    nearest_neighbour_constant,
    nearest_neighbour_entropy,
    sample_prior,
    squared_distances,
)
from dualebm.gradcheck import finite_difference
from dualebm.training import adagrad_step

from helpers import (
    assert_grads_match,
    reference_entropy_surrogate,
    reference_generate,
    reference_nearest_neighbour_entropy,
)


class ConstantEnergy:
    """Stand-in energy model: E(x) = c for every row, no parameters, so
    its gradient in x is zero."""

    def __init__(self, c=0.0):
        self.c = c

    def params(self):
        return []

    def energy_gradient(self, x, weights, params, onto=None):
        dx = onto if onto is not None else np.zeros_like(x)
        return np.full(x.shape[0], self.c), None if params else dx


# --- prior -----------------------------------------------------------------

def test_prior_moments():
    z = sample_prior(1_000_000, 1, np.random.default_rng(0))
    assert abs(z.mean()) < 0.005
    assert abs(z.var() - 1.0 / 3.0) < 0.005


def test_prior_within_bounds_and_reproducible():
    z1 = sample_prior(1000, 4, np.random.default_rng(42))
    z2 = sample_prior(1000, 4, np.random.default_rng(42))
    assert np.array_equal(z1, z2)
    assert np.all(z1 >= -1.0) and np.all(z1 <= 1.0)


def test_prior_rejects_empty_batch():
    with pytest.raises(ValueError):
        sample_prior(0, 4, np.random.default_rng(0))


# --- generation --------------------------------------------------------------

def test_generate_zero_parameters_gives_zero_samples():
    gen = GeneratorModel.build((4, 8, 2), np.random.default_rng(1))
    for layer in gen.layers:
        layer.w.values[:] = 0.0
        layer.b.values[:] = 0.0
        if layer.has_batch_norm:
            layer.bn_shift.values[:] = 0.0
            layer.bn_scale.values[:] = 1.0
    z = sample_prior(16, 4, np.random.default_rng(2))
    assert_allclose(gen.generate(z, "train"), np.zeros((16, 2)))


def test_generate_duplicate_latents_duplicate_samples_infer():
    gen = GeneratorModel.build((4, 16, 2), np.random.default_rng(3))
    z = np.repeat(sample_prior(1, 4, np.random.default_rng(4)), 5, axis=0)
    x = gen.generate(z, "infer")
    # numpy's vectorized tanh may differ by one ulp between SIMD lanes and
    # the scalar remainder, so rows agree to machine precision, not bitwise
    assert_allclose(x, np.repeat(x[:1], 5, axis=0), rtol=0, atol=1e-14)


def test_generate_infer_is_bit_identical():
    gen = GeneratorModel.build((4, 16, 2), np.random.default_rng(5))
    z = sample_prior(8, 4, np.random.default_rng(6))
    assert np.array_equal(gen.generate(z, "infer"), gen.generate(z, "infer"))


def test_generate_rejects_wrong_latent_width():
    gen = GeneratorModel.build((4, 8, 2), np.random.default_rng(7))
    with pytest.raises(Exception, match=r"\(batch, 4\)"):
        gen.generate(np.zeros((3, 5)), "infer")


@pytest.mark.parametrize("output_activation", ["linear", "sigmoid"])
@pytest.mark.parametrize("mode", ["train", "infer"])
def test_generate_is_bit_equal_to_the_recorded_pass(mode, output_activation):
    """``generate`` against the chain of tape primitives it stands for."""
    # two copies, since a train-mode pass moves the running statistics
    plain, recorded = (GeneratorModel.build((4, 32, 32, 3), np.random.default_rng(20),
                                            output_activation=output_activation)
                       for _ in range(2))
    z = sample_prior(300, 4, np.random.default_rng(21))
    for _ in range(2):
        x_plain = plain.generate(z, mode)
        tape = Tape()
        x_recorded = reference_generate(recorded, tape.constant(z), mode).values
        assert type(x_plain) is np.ndarray
        assert np.array_equal(x_plain, x_recorded)
        for a, b in zip(plain.layers, recorded.layers):
            if a.has_batch_norm:
                assert np.array_equal(a.bn_state.mean, b.bn_state.mean)
                assert np.array_equal(a.bn_state.var, b.bn_state.var)
    if mode == "train":
        assert not np.array_equal(plain.layers[0].bn_state.var, np.ones(32))


def test_generate_builds_no_tape(monkeypatch):
    gen = GeneratorModel.build((4, 16, 2), np.random.default_rng(22))
    z = sample_prior(16, 4, np.random.default_rng(23))
    expected = gen.generate(z, "infer")

    def no_tape(self):
        raise AssertionError("generate built a tape")

    monkeypatch.setattr(Tape, "__init__", no_tape)
    assert np.array_equal(gen.generate(z, "infer"), expected)
    gen.generate(z, "train")


@pytest.mark.parametrize("mode", ["train", "infer"])
def test_generate_peak_memory_is_a_few_hidden_activations(mode):
    rows, width = 20_000, 128
    gen = GeneratorModel.build((4, width, width, 2), np.random.default_rng(24))
    z = sample_prior(rows, 4, np.random.default_rng(25))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        gen.generate(z, mode)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # a recorded pass keeps every intermediate array: 11 of these units
    assert peak < 4 * rows * width * 8


# (output width, output activation): the 2D models' and the mnist models'
OUTPUTS = [(2, "linear"), (784, "sigmoid")]


@pytest.mark.parametrize("out_width, activation", OUTPUTS)
def test_generate_infer_runs_in_row_blocks(out_width, activation):
    gen = GeneratorModel.build((4, 128, 128, out_width), np.random.default_rng(26),
                               output_activation=activation)
    gen.generate(sample_prior(64, 4, np.random.default_rng(27)), "train")
    stats = [(l.bn_state.mean.copy(), l.bn_state.var.copy())
             for l in gen.layers if l.has_batch_norm]
    rows = 3 * ROW_BLOCK + 5
    z = sample_prior(rows, 4, np.random.default_rng(28))
    x = gen.generate(z, "infer")
    blocks = np.concatenate([ad.stack_forward(gen.layers, z[start:start + ROW_BLOCK],
                                              "infer")
                             for start in range(0, rows, ROW_BLOCK)])
    assert np.array_equal(x, blocks)
    # BLAS may pick its kernel by the row count: one batch agrees to an ulp
    assert_allclose(x, ad.stack_forward(gen.layers, z, "infer"), rtol=0, atol=1e-14)
    for (mean, var), layer in zip(stats, [l for l in gen.layers if l.has_batch_norm]):
        assert np.array_equal(layer.bn_state.mean, mean)
        assert np.array_equal(layer.bn_state.var, var)


@pytest.mark.parametrize("out_width, activation, rows",
                         [(2, "linear", 20_000), (2, "linear", 80_000),
                          (784, "sigmoid", 2_000), (784, "sigmoid", 8_000)])
def test_generate_infer_peak_memory_does_not_grow_with_rows(out_width, activation,
                                                            rows):
    width = 128
    gen = GeneratorModel.build((4, width, width, out_width), np.random.default_rng(24),
                               output_activation=activation)
    z = sample_prior(rows, 4, np.random.default_rng(25))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        gen.generate(z, "infer")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # the output, four hidden block arrays and one output-width block
    # array (the sigmoid's exp(-|x|)): the output layer writes into the
    # output, so no block of its result is made and copied
    assert peak < rows * out_width * 8 + ROW_BLOCK * (4 * width + out_width) * 8


@pytest.mark.parametrize("out_width, activation", OUTPUTS)
def test_generate_infer_zero_rows_and_wrong_width(out_width, activation):
    gen = GeneratorModel.build((4, 8, out_width), np.random.default_rng(29),
                               output_activation=activation)
    x = gen.generate(np.empty((0, 4)), "infer")
    assert x.shape == (0, out_width) and x.dtype == np.float64
    for z in (np.zeros((3, 5)), np.empty((0, 5)), np.zeros(4)):
        with pytest.raises(ShapeError, match=r"\(batch, 4\)"):
            gen.generate(z, "infer")


def test_infer_matches_train_after_running_stats_converge():
    gen = GeneratorModel.build((3, 16, 2), np.random.default_rng(8))
    z = sample_prior(256, 3, np.random.default_rng(9))
    for _ in range(200):  # EMA with momentum 0.9 converges fast on a frozen batch
        x_train = gen.generate(z, "train")
    x_infer = gen.generate(z, "infer")
    assert np.max(np.abs(x_train - x_infer)) < 1e-2


# --- entropy estimates ----------------------------------------------------------

def _single_scale_model(value):
    gen = GeneratorModel.build((2, 1, 1), np.random.default_rng(10))
    gen.scale_parameters()[0].values[:] = value
    return gen


def _reference_surrogate(gen, g):
    """The surrogate's value and g times its gradient in each scale, on the
    tape."""
    tape = Tape()
    entropy = reference_entropy_surrogate(gen, tape)
    tape.backward(entropy * g)
    return float(entropy.values), [p.grad.copy() for p in gen.scale_parameters()]


def test_entropy_surrogate_unit_scale():
    gen = _single_scale_model(1.0)
    assert_allclose(entropy_surrogate(gen), 1.418939, atol=1e-6)
    assert entropy_surrogate(gen) == _reference_surrogate(gen, 1.0)[0]


def test_entropy_surrogate_doubling_adds_log2():
    assert_allclose(entropy_surrogate(_single_scale_model(2.0)),
                    1.418939 + math.log(2.0), atol=1e-6)


def test_entropy_surrogate_gradient_is_reciprocal_scale():
    gen = _single_scale_model(0.5)
    gen.store.grad[...] = 0.0
    entropy_surrogate(gen, 1.0)
    assert_allclose(gen.scale_parameters()[0].grad, [2.0], rtol=1e-12)


def test_entropy_surrogate_is_bit_equal_to_the_tape():
    gen = GeneratorModel.build((3, 16, 8, 2), np.random.default_rng(30))
    rng = np.random.default_rng(31)
    for p in gen.scale_parameters():
        p.values[...] = rng.uniform(-2.0, 2.0, size=p.values.shape)
    want_value, want_grads = _reference_surrogate(gen, -0.7)
    gen.store.grad[...] = 0.0
    assert entropy_surrogate(gen, -0.7) == want_value
    for p, want in zip(gen.scale_parameters(), want_grads):
        assert np.array_equal(p.grad, want)


def test_entropy_surrogate_zero_scale_is_singular():
    gen = _single_scale_model(0.0)
    with pytest.raises(SingularEntropyError, match="singular"):
        entropy_surrogate(gen)


@pytest.mark.parametrize("shape", [(64, 2), (9, 5)])
def test_nearest_neighbour_entropy_is_bit_equal_to_the_tape(shape):
    x = np.random.default_rng(32).normal(size=shape)
    p = Parameter(x, "x")
    tape = Tape()
    entropy = reference_nearest_neighbour_entropy(tape.watch(p))
    tape.backward(entropy * -0.7)
    value, dx = nearest_neighbour_entropy(x, -0.7)
    assert value == float(entropy.values)
    assert np.array_equal(dx, p.grad)
    assert nearest_neighbour_entropy(x) == (value, None)


def test_nearest_neighbour_constant_is_the_digamma_difference():
    """H_(n-1) stands for digamma(n) - digamma(1), within 4 ulp."""
    from scipy.special import digamma

    for n in range(2, 1025):
        expected = float(digamma(n) - digamma(1))
        assert abs(nearest_neighbour_constant(n, 0) - expected) <= 4 * np.spacing(expected)


@pytest.mark.parametrize("d", [1, 2, 784])
def test_nearest_neighbour_distances_are_cdists(d):
    """The squared distances that pick each row's neighbour are cdist's,
    bit for bit, at the 2D and the 784-d widths."""
    from scipy.spatial.distance import cdist

    x = np.random.default_rng(62).normal(scale=3.0, size=(64, d))
    out, scratch = np.empty((64, 64)), np.empty((64, 64))
    assert np.array_equal(squared_distances(x, x, out, scratch),
                          cdist(x, x, "sqeuclidean"))


def test_nearest_neighbour_entropy_coincident_rows_are_singular():
    x = np.random.default_rng(33).normal(size=(6, 2))
    x[4] = x[1]
    with pytest.raises(SingularEntropyError, match="coincide"):
        nearest_neighbour_entropy(x)


@pytest.mark.parametrize("shape", [(1, 2), (0, 2), (5,)])
def test_nearest_neighbour_entropy_needs_two_rows(shape):
    with pytest.raises(ShapeError, match="batch >= 2"):
        nearest_neighbour_entropy(np.zeros(shape))


# --- generator loss gradient ------------------------------------------------------

def test_constant_energy_zero_weight_gives_zero_gradient():
    gen = GeneratorModel.build((2, 8, 2), np.random.default_rng(11))
    z = sample_prior(8, 2, np.random.default_rng(12))
    dgm_loss_gradient(gen, ConstantEnergy(3.7), z, entropy_weight=0.0,
                      entropy_estimator="batch_norm_scale")
    assert np.all(gen.store.grad == 0.0)


def test_dgm_loss_gradient_rejects_negative_entropy_weight():
    gen = GeneratorModel.build((2, 8, 2), np.random.default_rng(13))
    z = sample_prior(4, 2, np.random.default_rng(14))
    with pytest.raises(ValueError, match="entropy_weight"):
        dgm_loss_gradient(gen, ConstantEnergy(), z, entropy_weight=-0.1,
                          entropy_estimator="batch_norm_scale")


@pytest.mark.parametrize("entropy_weight, estimator", [
    pytest.param(0.0, "batch_norm_scale", id="0.0"),
    pytest.param(1.0, "batch_norm_scale", id="1.0"),
    pytest.param(1.0, "nearest_neighbour", id="nearest_neighbour"),
])
def test_dgm_loss_gradient_matches_finite_differences(entropy_weight, estimator):
    dem = EnergyModel.build((2, 8), 3, np.random.default_rng(15))
    gen = GeneratorModel.build((2, 8, 2), np.random.default_rng(16))
    z = sample_prior(8, 2, np.random.default_rng(17))

    dgm_loss_gradient(gen, dem, z, entropy_weight, estimator)
    analytic = gen.store.grad.copy()
    numeric = finite_difference(
        lambda: dgm_loss_gradient(gen, dem, z, entropy_weight, estimator)[0],
        gen.store.values)
    assert_grads_match(gen.store.views(analytic), gen.store.views(numeric), rtol=1e-5)


def test_dgm_loss_leaves_energy_model_untouched():
    dem = EnergyModel.build((2, 8, 4), 4, np.random.default_rng(18))
    gen = GeneratorModel.build((3, 8, 2), np.random.default_rng(19))
    for p in dem.params():
        p.grad[:] = 0.0
    before = [p.values.copy() for p in dem.params()]
    dgm_loss_gradient(gen, dem, sample_prior(8, 3, np.random.default_rng(20)), 1.0,
                      "batch_norm_scale")
    for p, b in zip(dem.params(), before):
        assert np.all(p.grad == 0.0)
        assert np.array_equal(p.values, b)


def test_dem_loss_leaves_generator_untouched():
    from dualebm.energy_model import dem_loss_gradient

    dem = EnergyModel.build((2, 8, 4), 4, np.random.default_rng(21))
    gen = GeneratorModel.build((3, 8, 2), np.random.default_rng(22))
    for p in gen.params():
        p.grad[:] = 0.0
    z = sample_prior(8, 3, np.random.default_rng(23))
    x_neg = gen.generate(z, "train")
    dem_loss_gradient(dem, np.zeros((8, 2)), x_neg)
    for p in gen.params():
        assert np.all(p.grad == 0.0)


def test_entropy_pressure_increases_every_scale():
    """With the energy frozen flat, one AdaGrad step grows every bn scale."""
    gen = GeneratorModel.build((2, 8, 8, 2), np.random.default_rng(24))
    z = sample_prior(16, 2, np.random.default_rng(25))
    dgm_loss_gradient(gen, ConstantEnergy(), z, entropy_weight=1.0,
                      entropy_estimator="batch_norm_scale")
    before = [p.values.copy() for p in gen.scale_parameters()]
    adagrad_step(gen.store, lr=0.05, eps=1e-8)
    for p, b in zip(gen.scale_parameters(), before):
        assert np.all(p.values > b)


def test_entropy_unbounded_below_near_zero_scale():
    vals = [entropy_surrogate(_single_scale_model(s)) for s in (1.0, 0.1, 0.01, 1e-6)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < -10.0


def test_collapse_without_entropy_pressure():
    """Pure energy chasing on a single-minimum bowl shrinks sample spread."""
    dem = EnergyModel.build((2, 4, 2), 0, np.random.default_rng(26))
    for p in dem.params():
        p.values[:] = 0.0  # energy = ||x||^2, unique minimum at the origin
    gen = GeneratorModel.build((2, 16, 2), np.random.default_rng(27))
    prior_rng = np.random.default_rng(28)
    probe = sample_prior(128, 2, np.random.default_rng(29))

    def spread():
        x = gen.generate(probe, "infer")
        diffs = x[:, None, :] - x[None, :, :]
        return float(np.sqrt((diffs**2).sum(-1)).mean())

    spreads = [spread()]
    for step in range(600):
        z = sample_prior(64, 2, prior_rng)
        dgm_loss_gradient(gen, dem, z, entropy_weight=0.0,
                          entropy_estimator="batch_norm_scale")
        adagrad_step(gen.store, lr=0.05, eps=1e-8)
        if (step + 1) % 150 == 0:
            spreads.append(spread())
    assert spreads[-1] < 0.25 * spreads[0]
    assert all(b < a * 1.05 for a, b in zip(spreads, spreads[1:]))
