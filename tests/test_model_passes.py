"""Each model pass is one tape entry with a hand-written backward over
buffers the model reuses: it must give the bits of the primitive chain it
replaces, pass every gradient check, and never let a buffer leak into what
a caller keeps."""

import numpy as np
import pytest

from dualebm import autodiff as ad
from dualebm.autodiff import Tape, TapeError
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
        grad, stats = dem_loss_gradient(dem, x_pos, x_neg)
        ref_grad, ref_stats = reference_dem_loss_gradient(ref_dem, x_pos, x_neg)
        assert np.array_equal(grad, ref_grad)
        assert stats == ref_stats
        grad, stats = dgm_loss_gradient(gen, dem, z, 0.5, estimator)
        ref_grad, ref_stats = reference_dgm_loss_gradient(ref_gen, ref_dem, z, 0.5,
                                                          estimator)
        assert np.array_equal(grad, ref_grad)
        assert stats == ref_stats
        for (m, v), (ref_m, ref_v) in zip(_bn_states(gen), _bn_states(ref_gen)):
            assert np.array_equal(m, ref_m) and np.array_equal(v, ref_v)


@pytest.mark.parametrize("mode", ["train", "infer"])
def test_input_gradients_are_bit_equal_to_the_primitive_chain(mode):
    """A loss that reaches z through the generator and the energy of its
    samples, and x through the energy of x."""
    x, _, z = _data(9, 5)
    weights = np.random.default_rng(2).standard_normal(9)

    def run(energy, generate):
        dem, gen = _pair("sigmoid", 5)
        tape = Tape()
        zp, xp = ad.Parameter(z, "z"), ad.Parameter(x, "x")
        loss = (energy(dem, generate(gen, tape.watch(zp), mode)).mean()
                + (energy(dem, tape.watch(xp)) * weights).sum())
        tape.backward(loss)
        return (float(loss.values), zp.grad.copy(), xp.grad.copy(),
                dem.store.grad.copy(), gen.store.grad.copy())

    got = run(EnergyModel.energy, GeneratorModel.generate_node)
    want = run(reference_energy, reference_generate)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("scale", [1.0, 3.0])
@pytest.mark.parametrize("seed", range(5))
def test_gradcheck_passes(seed, scale):
    worst, breakdown = run_gradcheck(seed=seed, scale=scale)
    assert worst < GRADCHECK_TOLERANCE, breakdown


def test_energy_gradient_in_x_matches_finite_differences():
    dem, _ = _pair()
    x = ad.Parameter(np.random.default_rng(3).normal(size=(6, 2)), "x")
    tape = Tape()
    tape.freeze(dem.params())
    tape.backward(dem.energy(tape.watch(x)).sum())
    numeric = finite_difference(lambda: float(dem.energy_values(x.values).sum()), [x])
    assert_grads_match({"x": x.grad}, numeric, rtol=1e-6)


def test_kept_results_do_not_change_when_the_next_call_runs():
    dem, gen = _pair()
    x_pos, x_neg, z = _data(16, 2)
    samples = gen.generate(z, "train")
    dem_grad, _ = dem_loss_gradient(dem, x_pos, x_neg)
    dgm_grad, _ = dgm_loss_gradient(gen, dem, z, 1.0, "batch_norm_scale")
    kept = [a.copy() for a in (samples, dem_grad, dgm_grad)]
    other_pos, other_neg, other_z = _data(16, 2, seed=5)
    gen.generate(other_z, "train")
    dem_loss_gradient(dem, other_pos, other_neg)
    dgm_loss_gradient(gen, dem, other_z, 1.0, "batch_norm_scale")
    for array, copy in zip((samples, dem_grad, dgm_grad), kept):
        assert np.array_equal(array, copy)


def test_switching_the_batch_size_gives_the_results_of_a_fresh_model():
    def gradients(dem, gen, x_pos, x_neg, z):
        return (*dem_loss_gradient(dem, x_pos, x_neg),
                *dgm_loss_gradient(gen, dem, z, 1.0, "nearest_neighbour"))

    dem, gen = _pair()
    for batch in (64, 7, 64, 12):
        data = _data(batch, 2, seed=batch)
        got = gradients(dem, gen, *data)
        want = gradients(*_pair(), *data)
        for a, b in zip(got, want):
            assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


def test_each_pass_on_a_tape_writes_a_slot_of_its_own(monkeypatch):
    """Three energy passes and two generator passes of one batch size on one
    tape: the k-th pass of a model writes slot k, so the workspaces grow to
    3 and 2 slots, each pass runs its forward once, and the gradients stay
    those of the chain."""
    x1, x2, z1 = _data(10, 2)
    z2 = _data(10, 2, seed=4)[2]
    forwards = []
    for owner, name in ((EnergyModel, "_energy"), (GeneratorModel, "_forward")):
        original = getattr(owner, name)

        def counted(*args, _original=original, _name=name):
            forwards.append(_name)
            return _original(*args)

        monkeypatch.setattr(owner, name, counted)

    def run(energy, generate):
        dem, gen = _pair()
        tape = Tape()
        s1 = generate(gen, tape.constant(z1), "train")
        s2 = generate(gen, tape.constant(z2), "train")
        loss = (energy(dem, tape.constant(x1)).mean() + energy(dem, s1).mean() * 0.5
                + energy(dem, tape.constant(x2)).mean() * 2.0 + (s2 * s2).sum())
        tape.backward(loss)
        return dem, gen, (dem.store.grad.copy(), gen.store.grad.copy(), _bn_states(gen))

    dem, gen, got = run(EnergyModel.energy, GeneratorModel.generate_node)
    assert (forwards.count("_energy"), forwards.count("_forward")) == (3, 2)
    assert (len(dem._workspace.slots), len(gen._workspace.slots)) == (3, 2)
    want = run(reference_energy, reference_generate)[2]
    for a, b in zip(got[:2], want[:2]):
        assert np.array_equal(a, b)
    for (m, v), (ref_m, ref_v) in zip(got[2], want[2]):
        assert np.array_equal(m, ref_m) and np.array_equal(v, ref_v)


@pytest.mark.parametrize("model", ["energy", "generator"])
def test_a_backward_after_another_tape_took_its_slot_is_a_tape_error(model):
    """Tape a records a pass, tape b records a pass of the same model into
    the same slot, then a runs its backward: the slot no longer holds a's
    intermediates."""
    dem, gen = _pair()
    x, _, z = _data(8, 2)

    def record(tape):
        if model == "energy":
            return dem.energy(tape.constant(x)).sum()
        return gen.generate_node(tape.constant(z), "train").sum()

    a, b = Tape(), Tape()
    root_a = record(a)
    root_b = record(b)
    with pytest.raises(TapeError, match="run backward before recording another pass"):
        a.backward(root_a)
    b.backward(root_b)


@pytest.mark.parametrize("estimator", ["batch_norm_scale", "nearest_neighbour"])
def test_training_keeps_one_slot_per_pass_of_a_step(estimator):
    """Each step's tapes start again at slot 0, so however many steps run,
    the energy model holds a slot per phase of its loss and the generator
    one."""
    config = RunConfig(seed=0, steps=5, entropy_estimator=estimator)
    dem, gen = build_models(config)
    train(dem, gen, np.random.default_rng(30).normal(size=(256, 2)), config)
    assert (len(dem._workspace.slots), len(gen._workspace.slots)) == (2, 1)


def test_one_entry_per_model_pass():
    dem, gen = _pair()
    tape = Tape()
    x = gen.generate_node(tape.constant(_data(8, 2)[2]), "train")
    dem.energy(x)
    # a constant, the generator's store, its pass; the energy model's store, its pass
    assert len(tape._values) == 5


def test_freezing_part_of_a_model_is_rejected():
    dem, _ = _pair()
    tape = Tape()
    tape.freeze(dem.params()[:1])
    with pytest.raises(TapeError, match="only some"):
        dem.energy(tape.constant(np.zeros((3, 2))))
