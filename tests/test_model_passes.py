"""Each model pass and each loss has a hand-written backward over buffers
the model reuses: it must give the bits of the chain of tape primitives it
stands for, pass every gradient check, and never let a buffer leak into
what a caller keeps."""

import numpy as np
import pytest

from dualebm import autodiff as ad
from dualebm.autodiff import Tape
from dualebm.config import RunConfig, build_models
from dualebm.data_io import Dataset, make_dataset
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


@pytest.mark.parametrize("mode", ["train"])
def test_input_gradients_are_bit_equal_to_the_primitive_chain(mode):
    """A loss that reaches the generator through the energy of its samples,
    and x through the energy of x, with row weights: the plain ∇ₓE
    backward, without and with a gradient already in x, then the
    generator's backward, which follows a train-mode forward."""
    x, _, z = _data(9, 5)
    rng = np.random.default_rng(2)
    weights, onto = rng.standard_normal(9), rng.standard_normal((9, 5))

    dem, gen = _pair("sigmoid", 5)
    gen.store.grad[...] = 0.0
    ws = ad.workspace(None, 9, gen.layers)
    samples = ad.stack_forward(gen.layers, z, mode, ws)
    e_gen, dx_gen = dem.energy_gradient(samples, np.full(9, 1.0) / 9, params=False)
    ad.stack_backward(gen.layers, z, ws, dx_gen, params=True)
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


def _default_models(dataset):
    return build_models(RunConfig(dataset=dataset, mnist_images="i.idx",
                                  mnist_labels="l.idx"))


def _blocked_passes(dem, gen, rows):
    """The two plain passes over many rows, each over ``rows`` rows."""
    return (lambda: dem.energy_values(np.zeros((rows, dem.d_in))),
            lambda: gen.generate(np.zeros((rows, gen.d_z)), "infer"))


@pytest.mark.parametrize("dataset, rows", [("four_spin", 1024), ("mnist", 256)])
def test_block_rows_follow_the_widest_layer_of_the_default_models(dataset, rows,
                                                                    monkeypatch):
    """The plain passes of the default 2D models (widest layer 128) hand
    ``run_in_shares`` 1024-row blocks; the mnist models' (784) keep
    ``ROW_BLOCK``."""
    blocks = []
    run_in_shares = ad.run_in_shares

    def recording(share, n, block=ad.ROW_BLOCK):
        blocks.append(block)
        run_in_shares(share, n, block)

    monkeypatch.setattr(ad, "run_in_shares", recording)
    for run in _blocked_passes(*_default_models(dataset), 5):
        run()
    assert blocks == [rows, rows]


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("dataset, block", [("four_spin", 1024), ("mnist", 256)])
def test_blocked_passes_build_one_workspace_per_share_per_call(dataset, block, cpus,
                                                              monkeypatch):
    """Each share of ``energy_values`` and ``generate(z, "infer")`` builds one
    infer workspace at its first block and reuses it for its other full
    blocks; only a shorter last block gets one more. So a call builds one
    workspace per share, plus one when the rows do not fill the last block,
    and no array is made and freed block by block."""
    monkeypatch.setattr(ad, "usable_cpus", lambda: cpus)
    builds = []   # (rows, backward) of each workspace built; list.append is atomic
    workspace = ad.workspace

    def recording(ws, rows, layers, backward=True):
        built = workspace(ws, rows, layers, backward)
        if built is not ws:
            builds.append((rows, backward))
        return built

    monkeypatch.setattr(ad, "workspace", recording)
    dem, gen = _default_models(dataset)
    for rows in (3 * block + 5, 4 * block):
        shares = ad.share_count(rows, block)
        assert shares == cpus
        expected = sorted([(block, False)] * shares + [(5, False)] * (rows % block > 0))
        for run in _blocked_passes(dem, gen, rows):
            for _ in range(2):   # a second call builds its own, as many
                builds.clear()
                run()
                assert sorted(builds) == expected


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_every_workspace_holds_an_array_of_its_inputs_shape(dtype, monkeypatch):
    """Each workspace the models build, in the training layout of the two
    losses and the infer layout of the two blocked passes, holds ``x`` of
    its pass's input shape and the model's dtype; a backward into the input
    writes x's gradient there and returns it."""
    built = []   # (workspace, its layers, backward); list.append is atomic
    workspace = ad.workspace

    def recording(ws, rows, layers, backward=True):
        new = workspace(ws, rows, layers, backward)
        built.append((new, layers, backward))
        return new

    monkeypatch.setattr(ad, "workspace", recording)
    rng = np.random.default_rng(0)
    dem = EnergyModel.build((5, 24, 16, 4), 3, rng, dtype=dtype)
    gen = GeneratorModel.build((3, 16, 24, 5), rng, output_activation="sigmoid",
                               dtype=dtype)
    x_pos, x_neg, z = _data(9, 5)
    dem_loss_gradient(dem, x_pos, x_neg)
    dgm_loss_gradient(gen, dem, z, 1.0, "batch_norm_scale")
    dem.energy_values(np.zeros((3, 5)))
    gen.generate(np.zeros((3, 3)), "infer")
    inputs = {(id(layers[0]), backward) for _, layers, backward in built}
    assert inputs == {(id(model.layers[0]), backward)
                      for model in (dem, gen) for backward in (True, False)}
    for ws, layers, _ in built:
        assert ws.x.shape == (ws.rows, layers[0].w.values.shape[0]) and ws.x.dtype == dtype
    ws = workspace(None, 9, gen.layers)
    ad.stack_forward(gen.layers, z, "train", ws)
    dx = ad.stack_backward(gen.layers, z, ws, np.ones((9, 5), dtype), params=False)
    assert dx is ws.x and dx.shape == z.shape


@pytest.mark.parametrize("estimator", ["batch_norm_scale", "nearest_neighbour"])
def test_training_keeps_one_workspace_per_model(estimator):
    """Every step's passes share their model's one workspace, built at the
    first step for the batch size and kept as long as the size holds."""
    config = RunConfig(seed=0, steps=2, entropy_estimator=estimator)
    dem, gen = build_models(config)
    data = Dataset(np.random.default_rng(30).normal(size=(256, 2)))
    state = train(dem, gen, data, config)
    workspaces = (dem._workspace, gen._workspace)
    assert [ws.rows for ws in workspaces] == [config.batch_size] * 2
    config.steps = 5
    train(dem, gen, data, config, state=state)
    assert dem._workspace is workspaces[0] and gen._workspace is workspaces[1]


# --- the float32 passes of the run's models ----------------------------------

def _float32_pairs(dataset, seed):
    """The default models of ``dataset`` in float32, as ``build_models``
    makes them, and float64 twins holding the same float32-rounded
    parameters."""
    dem32, gen32 = build_models(RunConfig(dataset=dataset, mnist_images="i.idx",
                                          mnist_labels="l.idx", seed=seed))
    rng = np.random.default_rng(seed)
    dem64 = EnergyModel.build(dem32.widths, dem32.n_experts, rng)
    gen64 = GeneratorModel.build(gen32.widths, rng, output_activation=(
        "sigmoid" if dataset == "mnist" else "linear"))
    for twin, model in ((dem64, dem32), (gen64, gen32)):
        assert model.dtype == np.float32 and twin.dtype == np.float64
        twin.store.values[...] = model.store.values
    return dem32, gen32, dem64, gen64


def _relative_error(got, want):
    return float(np.linalg.norm(got.astype(np.float64) - want) / np.linalg.norm(want))


@pytest.mark.parametrize("dataset, seed", [
    *[pytest.param("mnist", seed, id=str(seed)) for seed in range(3)],
    *[pytest.param("four_spin", seed, id=f"four_spin-{seed}") for seed in range(3)],
])
def test_float32_loss_gradients_agree_with_float64(dataset, seed):
    """On the same float32-rounded parameters and inputs, each loss's
    float32 gradient is within 1e-5 of the float64 one, relative to its
    norm, for the default 784-d and four-spin models (at most 2.3e-6 was
    measured on the 784-d ones, 5.3e-6 on the four-spin ones). The one
    exception is the four-spin nearest-neighbour gradient, within 1e-4: it
    scales each row's term by 1 / rho^2, and 64 initial 2D samples of size
    ~1 lie as close as rho ~0.006, so the samples' float32 rounding (~5e-7)
    moves it by up to 3.6e-5 (as much when the estimate is computed in
    float64 from the float32 samples)."""
    dem32, gen32, dem64, gen64 = _float32_pairs(dataset, seed)
    rng = np.random.default_rng(100 + seed)
    data = (Dataset(rng.integers(0, 256, size=(64, 784), dtype=np.uint8))
            if dataset == "mnist" else make_dataset(dataset, 64, 0.01, rng))
    x_pos = data.minibatch(np.arange(64), np.float32)
    x_neg = gen32.generate(sample_prior(64, gen32.d_z, rng), "infer")
    z = sample_prior(64, gen32.d_z, rng).astype(np.float32)
    assert x_neg.dtype == np.float32
    dem_loss_gradient(dem32, x_pos, x_neg)
    dem_loss_gradient(dem64, x_pos.astype(np.float64), x_neg.astype(np.float64))
    assert dem32.store.grad.dtype == np.float32
    assert _relative_error(dem32.store.grad, dem64.store.grad) <= 1e-5
    for estimator in ("batch_norm_scale", "nearest_neighbour"):
        dgm_loss_gradient(gen32, dem32, z, 1.0, estimator)
        dgm_loss_gradient(gen64, dem64, z.astype(np.float64), 1.0, estimator)
        assert gen32.store.grad.dtype == np.float32
        bound = 1e-4 if (dataset, estimator) == ("four_spin", "nearest_neighbour") else 1e-5
        assert _relative_error(gen32.store.grad, gen64.store.grad) <= bound, estimator
