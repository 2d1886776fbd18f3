import gc
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dualebm import training
from dualebm.autodiff import ParameterStore, Tape
from dualebm.config import RunConfig
from dualebm.energy_model import EnergyModel
from dualebm.generator_model import GeneratorModel, sample_prior
from dualebm.training import (
    ConfigError,
    NonFiniteGradientError,
    adagrad_step,
    train,
)

from helpers import param


def _models(seed=0, d_in=2):
    dem = EnergyModel.build((d_in, 8, 4), 4, np.random.default_rng(seed))
    gen = GeneratorModel.build((2, 8, d_in), np.random.default_rng(seed + 1))
    return dem, gen


# --- AdaGrad -----------------------------------------------------------------

def _adagrad(store, grad, lr, eps, scratch=None):
    """Put ``grad`` in ``store.grad``, as a loss would, and take one step."""
    store.grad[...] = grad
    return adagrad_step(store, lr, eps, scratch)


def test_adagrad_first_step():
    p = param([0.0])
    store = ParameterStore([p])
    _adagrad(store, [1.0], lr=0.1, eps=0.0)
    assert_allclose(p.values, [-0.1], rtol=1e-12)


def test_adagrad_second_step_shrinks():
    p = param([0.0])
    store = ParameterStore([p])
    _adagrad(store, [1.0], lr=0.1, eps=0.0)
    _adagrad(store, [1.0], lr=0.1, eps=0.0)
    assert_allclose(p.values, [-0.1 - 0.1 / math.sqrt(2.0)], rtol=1e-12)


def test_adagrad_zero_gradient_is_a_noop():
    p = param([3.0])
    store = ParameterStore([p])
    _adagrad(store, [0.0], lr=0.1, eps=0.0)
    assert p.values[0] == 3.0
    assert store.acc[0] == 0.0


def test_adagrad_rejects_nonfinite_gradient():
    p = param([0.0], "bad_param")
    with pytest.raises(NonFiniteGradientError, match="bad_param"):
        _adagrad(ParameterStore([p]), [np.nan], 0.1, 1e-8)


@given(st.floats(0.01, 10.0), st.integers(1, 20))
@settings(max_examples=30, deadline=None)
def test_adagrad_step_sizes_nonincreasing_for_constant_gradient(g, steps):
    p = param([0.0])
    store = ParameterStore([p])
    lr = 0.1
    positions = [0.0]
    for _ in range(steps):
        _adagrad(store, [g], lr=lr, eps=1e-8)
        positions.append(float(p.values[0]))
    deltas = [abs(b - a) for a, b in zip(positions, positions[1:])]
    assert deltas[0] <= lr * g / (g + 1e-8) + 1e-15
    assert all(b <= a + 1e-15 for a, b in zip(deltas, deltas[1:]))
    assert np.all(store.acc >= 0.0)


def _per_parameter_adagrad(params, grads, accumulators, lr, eps):
    """The AdaGrad rule one parameter at a time, as a reference."""
    for p in params:
        g = grads[p.name]
        acc = accumulators.setdefault(p.name, np.zeros_like(p.values))
        acc += g * g
        denom = np.sqrt(acc) + eps
        with np.errstate(invalid="ignore", divide="ignore"):
            p.values -= np.where(g == 0.0, 0.0, lr * g / denom)


@pytest.mark.parametrize("eps", [0.0, 1e-8])
def test_flat_adagrad_equals_the_per_parameter_rule_bitwise(eps):
    flat_model, ref_model = (GeneratorModel.build((3, 6, 6, 2), np.random.default_rng(40))
                             for _ in range(2))
    rng = np.random.default_rng(41)
    ref_acc = {}
    for step in range(6):
        flat = rng.normal(size=flat_model.store.values.size) * 10.0 ** rng.integers(-3, 3)
        flat[rng.random(flat.size) < 0.3] = 0.0   # exact zeros, with acc still 0 at first
        if step == 0:
            flat[:5] = 0.0                         # with eps = 0: the 0/0 case
        grads = flat_model.store.views(flat)
        _adagrad(flat_model.store, flat, lr=0.05, eps=eps)
        _per_parameter_adagrad(ref_model.params(), grads, ref_acc, lr=0.05, eps=eps)
    acc_views = flat_model.store.views(flat_model.store.acc)
    for p, q in zip(flat_model.params(), ref_model.params()):
        assert np.array_equal(p.values, q.values), p.name
        assert np.array_equal(acc_views[p.name], ref_acc[q.name]), p.name
    assert np.all(np.isfinite(flat_model.store.values))


def _span_store(rng):
    """A store with one parameter over 8192 entries and two under 128, so
    the norm's per-span sums cover short sums and long pairwise ones."""
    return ParameterStore([param(rng.normal(size=(96, 90)), "big"),
                           param(rng.normal(size=5), "small"),
                           param(rng.normal(size=(40, 3)), "mid")])


@pytest.mark.parametrize("eps", [0.0, 1e-8])
def test_adagrad_returns_the_per_parameter_norm_bitwise(eps):
    store, ref = (_span_store(np.random.default_rng(42)) for _ in range(2))
    rng = np.random.default_rng(43)
    ref_acc = {}
    scratch = np.empty((2, store.values.size))
    for step in range(4):
        flat = rng.normal(size=store.values.size) * 10.0 ** rng.integers(-3, 3)
        flat[rng.random(flat.size) < 0.3] = 0.0
        if step == 0:
            flat[-130:] = 0.0                      # the 0/0 case, in the small spans
        grads = store.views(flat)
        expected = float(np.sqrt(sum(float((g * g).sum()) for g in grads.values())))
        norm = _adagrad(store, flat, lr=0.05, eps=eps,
                        scratch=scratch if step % 2 else None)
        assert norm == expected, step
        _per_parameter_adagrad(ref.params, grads, ref_acc, lr=0.05, eps=eps)
    acc_views = store.views(store.acc)
    for p, q in zip(store.params, ref.params):
        assert np.array_equal(p.values, q.values), p.name
        assert np.array_equal(acc_views[p.name], ref_acc[q.name]), p.name


def test_adagrad_steps_on_a_finite_gradient_whose_square_overflows():
    """The check looks for non-finite gradient entries, not squares."""
    store, ref = (_span_store(np.random.default_rng(44)) for _ in range(2))
    rng = np.random.default_rng(45)
    ref_acc = {}
    flat = rng.normal(size=store.values.size)
    flat[::7] = 1e200
    flat[3::7] = -1e200
    flat[5::11] = 0.0
    with np.errstate(over="ignore"):
        norm = _adagrad(store, flat, lr=0.05, eps=1e-8)
        _per_parameter_adagrad(ref.params, store.views(flat), ref_acc, lr=0.05, eps=1e-8)
    assert norm == math.inf
    acc_views = store.views(store.acc)
    for p, q in zip(store.params, ref.params):
        assert np.array_equal(p.values, q.values), p.name
        assert np.array_equal(acc_views[p.name], ref_acc[q.name]), p.name
    assert np.all(np.isfinite(store.values))


def test_adagrad_step_with_scratch_allocates_no_store_sized_array():
    store = _span_store(np.random.default_rng(46))
    rng = np.random.default_rng(47)
    scratch = np.empty((2, store.values.size))
    store.grad[...] = rng.normal(size=store.values.size)
    adagrad_step(store, 0.05, 1e-8, scratch)    # warm-up
    tracemalloc.start()
    try:
        adagrad_step(store, 0.05, 1e-8, scratch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < store.values.nbytes / 4


@pytest.mark.parametrize("estimator", ["batch_norm_scale", "nearest_neighbour"])
def test_a_loss_and_its_update_allocate_no_store_sized_array(estimator):
    """Each loss leaves its gradient in its store, and AdaGrad reads it
    there and updates the store's accumulator in place: after a warm-up, a
    loss and its update on 256-wide models allocate less than a quarter of
    a store."""
    dem = EnergyModel.build((2, 256, 256, 4), 4, np.random.default_rng(48))
    gen = GeneratorModel.build((4, 256, 256, 2), np.random.default_rng(49))
    rng = np.random.default_rng(50)
    x_pos = rng.normal(size=(64, 2))
    x_neg = gen.generate(sample_prior(64, gen.d_z, rng), "train")
    z = sample_prior(64, gen.d_z, rng)
    dem_scratch = np.empty((2, dem.store.values.size))
    gen_scratch = np.empty((2, gen.store.values.size))

    def dem_pair():
        training.dem_loss_gradient(dem, x_pos, x_neg)
        adagrad_step(dem.store, 0.01, 1e-8, dem_scratch)

    def gen_pair():
        training.dgm_loss_gradient(gen, dem, z, 1.0, estimator)
        adagrad_step(gen.store, 0.01, 1e-8, gen_scratch)

    for pair, store in ((dem_pair, dem.store), (gen_pair, gen.store)):
        pair()    # warm-up: the workspaces are built
        tracemalloc.start()
        try:
            pair()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < store.values.nbytes / 4, pair.__name__


def test_adagrad_names_the_first_nonfinite_parameter_and_moves_nothing():
    a, b, c = param([1.0, 2.0], "a"), param([[3.0]], "b"), param([4.0, 5.0], "c")
    store = ParameterStore([a, b, c])
    before = store.values.copy()
    with pytest.raises(NonFiniteGradientError, match="'b'"):
        _adagrad(store, [1.0, 1.0, np.nan, np.inf, 1.0], 0.1, 1e-8)
    assert np.array_equal(store.values, before)
    assert np.all(store.acc == 0.0)


def test_nan_gradient_aborts_with_parameter_and_step(monkeypatch):
    real = training.dgm_loss_gradient
    calls = []

    def poisoned(gen, *args, **kwargs):
        result = real(gen, *args, **kwargs)
        calls.append(None)
        if len(calls) == 4:
            gen.store.views(gen.store.grad)["gen.layer1.b"][1] = np.nan
        return result

    monkeypatch.setattr(training, "dgm_loss_gradient", poisoned)
    dem, gen = _models(19)
    points = np.random.default_rng(20).normal(size=(64, 2))
    before = gen.store.values.copy()
    with pytest.raises(NonFiniteGradientError) as err:
        train(dem, gen, points, _tiny_config(steps=10))
    assert err.value.param_name == "gen.layer1.b"
    assert err.value.step == 3
    assert str(err.value) == "non-finite gradient for parameter 'gen.layer1.b' at step 3"
    assert not np.array_equal(gen.store.values, before)   # steps 0-2 moved it


def test_each_model_updates_the_accumulator_of_its_own_store():
    dem, gen = _models(21)
    dem_acc, gen_acc = dem.store.acc, gen.store.acc
    points = np.random.default_rng(22).normal(size=(64, 2))
    config = _tiny_config(steps=1, dem_updates_per_dgm_update=2)
    state = train(dem, gen, points, config)
    assert dem.store.acc is dem_acc and dem_acc.any()
    assert gen.store.acc is gen_acc and not gen_acc.any()   # not updated yet
    config.steps = 2
    state = train(dem, gen, points, config, state=state)
    assert dem.store.acc is dem_acc and gen.store.acc is gen_acc and gen_acc.any()
    assert not hasattr(state, "accumulators")


@pytest.mark.parametrize("estimator", ["nearest_neighbour", "batch_norm_scale"])
def test_training_gradients_leave_nothing_for_the_cycle_collector(estimator):
    """The loss backwards build no reference cycle, so reference counting
    frees all they allocate."""
    from dualebm.config import RunConfig, build_models
    from dualebm.energy_model import dem_loss_gradient
    from dualebm.generator_model import dgm_loss_gradient

    dem, gen = build_models(RunConfig(seed=0))
    rng = np.random.default_rng(22)
    x_pos = rng.normal(size=(64, 2))
    x_neg = gen.generate(sample_prior(64, gen.d_z, rng), "train")
    z = sample_prior(64, gen.d_z, rng)
    gc.collect()
    gc.disable()
    try:
        dem_loss_gradient(dem, x_pos, x_neg)
        dgm_loss_gradient(gen, dem, z, 1.0, estimator)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("estimator", ["batch_norm_scale", "nearest_neighbour"])
def test_a_training_step_records_nothing_on_a_tape(monkeypatch, estimator):
    """Both losses run their hand-written backwards: a default step records
    no tape entry."""
    from dualebm.config import build_models

    records = []
    original = Tape._record

    def counted(self, *args):
        records.append(1)
        return original(self, *args)

    config = RunConfig(seed=0, entropy_estimator=estimator, steps=1)
    dem, gen = build_models(config)
    points = np.random.default_rng(30).normal(size=(256, 2))
    monkeypatch.setattr(Tape, "_record", counted)
    state = train(dem, gen, points, config)
    assert state.step == 1 and gen.store.acc.any()
    assert records == []


# --- config -------------------------------------------------------------------

@pytest.mark.parametrize("bad", [
    {"steps": 0},
    {"batch_size": 1},
    {"dem_lr": 0.0},
    {"adagrad_eps": 0.0},
    {"entropy_weight": -1.0},
    {"dem_updates_per_dgm_update": 0},
    {"entropy_estimator": "kernel_density"},
])
def test_config_validation(bad):
    with pytest.raises(ConfigError):
        RunConfig(**bad).validate()


@pytest.mark.parametrize("name", ["dem_lr", "dgm_lr", "adagrad_eps",
                                  "entropy_weight"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_rejects_nonfinite_floats(name, value):
    # NaN compares false with everything, so range checks alone let it pass
    with pytest.raises(ConfigError, match="must be finite"):
        RunConfig(**{name: value}).validate()


# --- training loop --------------------------------------------------------------

def _tiny_config(**kw):
    base = dict(batch_size=16, steps=50, seed=7,
                entropy_estimator="nearest_neighbour")
    base.update(kw)
    return RunConfig(**base)


def test_train_metric_streams_are_deterministic():
    def run():
        dem, gen = _models(3)
        out = io.StringIO()
        points = np.random.default_rng(5).normal(size=(200, 2))
        train(dem, gen, points, _tiny_config(), metrics_out=out)
        return out.getvalue()

    first = run()
    assert first == run()
    assert len(first.splitlines()) == 50
    assert first.splitlines()[0].startswith("step=0 ")


def test_train_returns_state_and_respects_step_budget():
    dem, gen = _models(4)
    points = np.random.default_rng(6).normal(size=(100, 2))
    state = train(dem, gen, points, _tiny_config(steps=10))
    assert state.step == 10


def test_train_does_not_mutate_dataset():
    dem, gen = _models(5)
    points = np.random.default_rng(8).normal(size=(100, 2))
    original = points.copy()
    train(dem, gen, points, _tiny_config(steps=5))
    assert np.array_equal(points, original)


def test_degenerate_dataset_carves_a_minimum():
    dem, gen = _models(9)
    target = np.array([[0.4, -0.3]])
    points = np.repeat(target, 64, axis=0)
    train(dem, gen, points, _tiny_config(steps=500, batch_size=32))
    probes = np.random.default_rng(10).uniform(-1.5, 1.5, size=(100, 2))
    assert dem.energy_values(target).mean() < dem.energy_values(probes).mean()


def test_alternation_touches_only_its_own_parameters():
    dem, gen = _models(11)
    points = np.random.default_rng(12).normal(size=(64, 2))
    gen_before = [p.values.copy() for p in gen.params()]
    dem_before = [p.values.copy() for p in dem.params()]
    # with the generator update gated to every 2nd batch, step 1 is DEM-only
    train(dem, gen, points, _tiny_config(steps=1, dem_updates_per_dgm_update=2))
    assert all(np.array_equal(p.values, b) for p, b in zip(gen.params(), gen_before))
    assert any(not np.array_equal(p.values, b)
               for p, b in zip(dem.params(), dem_before))


def test_train_calls_go_through_the_patchable_names(monkeypatch):
    """The benchmark times a step by wrapping these names where they are
    looked up (module attributes of ``training``, class attributes of the
    models); a step that bypasses them goes unmeasured."""
    calls = []

    def counted(owner, name, label=None):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls.append(label(args, kwargs) if label else name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for name in ("dem_loss_gradient", "dgm_loss_gradient", "adagrad_step",
                 "sample_prior"):
        counted(training, name)
    counted(GeneratorModel, "generate", lambda args, kwargs: "generate:" + kwargs.get(
        "mode", args[2] if len(args) > 2 else "infer"))
    dem, gen = _models(15)
    points = np.random.default_rng(16).normal(size=(64, 2))
    steps = 3
    train(dem, gen, points, _tiny_config(steps=steps))
    assert calls.count("adagrad_step") == 2 * steps
    assert calls.count("generate:train") == steps
    assert len([c for c in calls if c.startswith("generate")]) == steps
    assert calls.count("dem_loss_gradient") == steps
    assert calls.count("dgm_loss_gradient") == steps
    assert calls.count("sample_prior") == 2 * steps


def test_dgm_update_cadence():
    dem, gen = _models(13)
    points = np.random.default_rng(14).normal(size=(64, 2))
    out = io.StringIO()
    train(dem, gen, points, _tiny_config(steps=6, dem_updates_per_dgm_update=3),
          metrics_out=out)
    lines = out.getvalue().splitlines()
    assert ["dgm_gnorm" in line for line in lines] == [False, False, True] * 2


def test_nonfinite_abort_carries_step_and_parameter():
    dem, gen = _models(15)
    points = np.random.default_rng(16).normal(size=(64, 2))
    dem.layers[0].w.values[0, 0] = np.nan
    with pytest.raises(NonFiniteGradientError) as err:
        train(dem, gen, points, _tiny_config(steps=5))
    assert err.value.step == 0
    assert "dem." in err.value.param_name


def test_resume_matches_uninterrupted_run():
    cfg = _tiny_config(steps=40)

    def fresh():
        return _models(17)

    dem, gen = fresh()
    full = io.StringIO()
    train(dem, gen, np.random.default_rng(18).normal(size=(128, 2)), cfg,
          metrics_out=full)

    dem2, gen2 = fresh()
    points = np.random.default_rng(18).normal(size=(128, 2))
    half = io.StringIO()
    state = train(dem2, gen2, points, _tiny_config(steps=20), metrics_out=half)
    state_resumed = train(dem2, gen2, points, cfg, state=state, metrics_out=half)
    assert state_resumed.step == 40
    assert half.getvalue() == full.getvalue()
    for p, q in zip(dem.params(), dem2.params()):
        assert np.array_equal(p.values, q.values)

