"""Each model pass and each loss has a hand-written backward over buffers
the model reuses: it must give the bits of the chain of tape primitives it
stands for, pass every gradient check, and never let a buffer leak into
what a caller keeps."""

import numpy as np
import pytest

from dualebm import autodiff as ad
from dualebm.autodiff import Tape
from dualebm.config import RunConfig, build_models
from dualebm.energy_model import EnergyModel, dem_loss_gradient
from dualebm.generator_model import GeneratorModel, dgm_loss_gradient, sample_prior
from dualebm.gradcheck import GRADCHECK_TOLERANCE, finite_difference, run_gradcheck
from dualebm.training import train

from helpers import (
    assert_grads_match,
    reference_dem_loss_gradient,
    reference_dgm_loss_gradient,
    reference_energy,
    reference_generate,
)


def _pair(output_activation="linear", d_out=2, seed=0):
    rng = np.random.default_rng(seed)
    dem = EnergyModel.build((d_out, 24, 16, 4), 3, rng, sigma=0.7)
    gen = GeneratorModel.build((3, 16, 24, d_out), rng,
                               output_activation=output_activation)
    # move every parameter off its initial value (zero biases, unit scales)
    for store in (dem.store, gen.store):
        store.values += 0.1 * rng.standard_normal(store.values.shape)
    return dem, gen


def _data(batch, d_out, seed=1):
    rng = np.random.default_rng(seed)
    return (rng.uniform(0.0, 1.0, size=(batch, d_out)),
            rng.uniform(0.0, 1.0, size=(batch, d_out)),
            sample_prior(batch, 3, rng))


def _bn_states(gen):
    return [(l.bn_state.mean.copy(), l.bn_state.var.copy())
            for l in gen.layers if l.has_batch_norm]


@pytest.mark.parametrize("batch", [64, 7])
@pytest.mark.parametrize("output_activation, d_out", [("linear", 2), ("sigmoid", 5)])
@pytest.mark.parametrize("estimator", ["batch_norm_scale", "nearest_neighbour"])
def test_loss_gradients_are_bit_equal_to_the_primitive_chain(batch, output_activation,
                                                              d_out, estimator):
    dem, gen = _pair(output_activation, d_out)
    ref_dem, ref_gen = _pair(output_activation, d_out)
    x_pos, x_neg, z = _data(batch, d_out)
    for _ in range(2):   # the second call reuses the workspaces
        loss, stats = dem_loss_gradient(dem, x_pos, x_neg)
        ref_loss, ref_grad, ref_stats = reference_dem_loss_gradient(ref_dem, x_pos, x_neg)
        assert np.array_equal(dem.store.grad, ref_grad)
        assert (loss, stats) == (ref_loss, ref_stats)
        loss, stats = dgm_loss_gradient(gen, dem, z, 0.5, estimator)
        ref_loss, ref_grad, ref_stats = reference_dgm_loss_gradient(
            ref_gen, ref_dem, z, 0.5, estimator)
        assert np.array_equal(gen.store.grad, ref_grad)
        assert (loss, stats) == (ref_loss, ref_stats)
        for (m, v), (ref_m, ref_v) in zip(_bn_states(gen), _bn_states(ref_gen)):
            assert np.array_equal(m, ref_m) and np.array_equal(v, ref_v)


@pytest.mark.parametrize("mode", ["train", "infer"])
def test_input_gradients_are_bit_equal_to_the_primitive_chain(mode):
    """A loss that reaches the generator through the energy of its samples,
    and x through the energy of x, with row weights: the plain ∇ₓE
    backward, without and with a gradient already in x, then the
    generator's backward."""
    x, _, z = _data(9, 5)
    rng = np.random.default_rng(2)
    weights, onto = rng.standard_normal(9), rng.standard_normal((9, 5))

    dem, gen = _pair("sigmoid", 5)
    gen.store.grad[...] = 0.0
    ws = ad.workspace(None, 9, gen.layers)
    samples = ad.stack_forward(gen.layers, z, mode, ws)
    e_gen, dx_gen = dem.energy_gradient(samples, np.full(9, 1.0) / 9, params=False)
    ad.stack_backward(gen.layers, z, ws, dx_gen, mode, params=True)
    e_x, dx = dem.energy_gradient(x, weights, params=False, onto=onto.copy())
    got = (e_gen, gen.store.grad.copy(), e_x, dx)

    dem, gen = _pair("sigmoid", 5)
    tape = Tape()
    tape.freeze(dem.params())
    xp = ad.Parameter(x, "x")
    e_samples = reference_energy(dem, reference_generate(gen, tape.constant(z), mode))
    e_x_node = reference_energy(dem, tape.watch(xp))
    # x's first gradient is onto: it is recorded last
    tape.backward(e_samples.mean() + (e_x_node * weights).sum()
                  + (tape.watch(xp) * onto).sum())
    want = (e_samples.values, gen.store.grad.copy(), e_x_node.values, xp.grad)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    assert not dem.store.grad.any()


@pytest.mark.parametrize("scale", [1.0, 3.0])
@pytest.mark.parametrize("seed", range(5))
def test_gradcheck_passes(seed, scale):
    worst, breakdown = run_gradcheck(seed=seed, scale=scale)
    assert worst < GRADCHECK_TOLERANCE, breakdown


def test_energy_gradient_in_x_matches_finite_differences():
    dem, _ = _pair()
    x = np.random.default_rng(3).normal(size=(6, 2))
    weights = np.random.default_rng(4).standard_normal(6)
    _, dx = dem.energy_gradient(x, weights, params=False)
    numeric = finite_difference(lambda: float((dem.energy_values(x) * weights).sum()), x)
    assert_grads_match({"x": dx}, {"x": numeric}, rtol=1e-6)


def test_kept_results_do_not_change_when_the_next_call_runs():
    dem, gen = _pair()
    x_pos, x_neg, z = _data(16, 2)
    samples = gen.generate(z, "train")
    energies = dem.energy_values(x_pos)
    _, dx = dem.energy_gradient(x_neg, np.full(16, 1.0 / 16), params=False)
    kept = [a.copy() for a in (samples, energies, dx)]
    other_pos, other_neg, other_z = _data(16, 2, seed=5)
    gen.generate(other_z, "train")
    dem_loss_gradient(dem, other_pos, other_neg)
    dgm_loss_gradient(gen, dem, other_z, 1.0, "batch_norm_scale")
    for array, copy in zip((samples, energies, dx), kept):
        assert np.array_equal(array, copy)


def test_switching_the_batch_size_gives_the_results_of_a_fresh_model():
    def gradients(dem, gen, x_pos, x_neg, z):
        dem_result = dem_loss_gradient(dem, x_pos, x_neg)
        dgm_result = dgm_loss_gradient(gen, dem, z, 1.0, "nearest_neighbour")
        return dem_result, dgm_result, dem.store.grad.copy(), gen.store.grad.copy()

    dem, gen = _pair()
    for batch in (64, 7, 64, 12):
        data = _data(batch, 2, seed=batch)
        got = gradients(dem, gen, *data)
        want = gradients(*_pair(), *data)
        for a, b in zip(got, want):
            assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


@pytest.mark.parametrize("estimator", ["batch_norm_scale", "nearest_neighbour"])
def test_training_keeps_one_workspace_per_model(estimator):
    """Every step's passes share their model's one workspace, built at the
    first step for the batch size and kept as long as the size holds."""
    config = RunConfig(seed=0, steps=2, entropy_estimator=estimator)
    dem, gen = build_models(config)
    points = np.random.default_rng(30).normal(size=(256, 2))
    state = train(dem, gen, points, config)
    workspaces = (dem._workspace, gen._workspace)
    assert [ws.rows for ws in workspaces] == [config.batch_size] * 2
    config.steps = 5
    train(dem, gen, points, config, state=state)
    assert dem._workspace is workspaces[0] and gen._workspace is workspaces[1]
