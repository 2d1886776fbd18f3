import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dualebm import training
from dualebm.autodiff import Tape
from dualebm.energy_model import EnergyModel
from dualebm.generator_model import GeneratorModel, sample_prior
from dualebm.training import (
    ConfigError,
    NonFiniteGradientError,
    TrainConfig,
    TrainState,
    adagrad_step,
    train,
)

from helpers import param


def _models(seed=0, d_in=2):
    dem = EnergyModel.build((d_in, 8, 4), 4, np.random.default_rng(seed))
    gen = GeneratorModel.build((2, 8, d_in), np.random.default_rng(seed + 1))
    return dem, gen


# --- AdaGrad -----------------------------------------------------------------

def test_adagrad_first_step():
    p = param([0.0])
    acc = {}
    adagrad_step([p], {"p": np.array([1.0])}, acc, lr=0.1, eps=0.0)
    assert_allclose(p.values, [-0.1], rtol=1e-12)


def test_adagrad_second_step_shrinks():
    p = param([0.0])
    acc = {}
    g = {"p": np.array([1.0])}
    adagrad_step([p], g, acc, lr=0.1, eps=0.0)
    adagrad_step([p], g, acc, lr=0.1, eps=0.0)
    assert_allclose(p.values, [-0.1 - 0.1 / math.sqrt(2.0)], rtol=1e-12)


def test_adagrad_zero_gradient_is_a_noop():
    p = param([3.0])
    acc = {"p": np.array([0.0])}
    adagrad_step([p], {"p": np.array([0.0])}, acc, lr=0.1, eps=0.0)
    assert p.values[0] == 3.0
    assert acc["p"][0] == 0.0


def test_adagrad_rejects_nonfinite_gradient():
    p = param([0.0], "bad_param")
    with pytest.raises(NonFiniteGradientError, match="bad_param"):
        adagrad_step([p], {"bad_param": np.array([np.nan])}, {}, 0.1, 1e-8)


@given(st.floats(0.01, 10.0), st.integers(1, 20))
@settings(max_examples=30, deadline=None)
def test_adagrad_step_sizes_nonincreasing_for_constant_gradient(g, steps):
    p = param([0.0])
    acc = {}
    lr = 0.1
    positions = [0.0]
    for _ in range(steps):
        adagrad_step([p], {"p": np.array([g])}, acc, lr=lr, eps=1e-8)
        positions.append(float(p.values[0]))
    deltas = [abs(b - a) for a, b in zip(positions, positions[1:])]
    assert deltas[0] <= lr * g / (g + 1e-8) + 1e-15
    assert all(b <= a + 1e-15 for a, b in zip(deltas, deltas[1:]))
    assert np.all(acc["p"] >= 0.0)


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
        TrainConfig(**bad).validate()


@pytest.mark.parametrize("name", ["dem_lr", "dgm_lr", "adagrad_eps",
                                  "entropy_weight"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_rejects_nonfinite_floats(name, value):
    # NaN compares false with everything, so range checks alone let it pass
    with pytest.raises(ConfigError, match="must be finite"):
        TrainConfig(**{name: value}).validate()


# --- training loop --------------------------------------------------------------

def _tiny_config(**kw):
    base = dict(batch_size=16, steps=50, seed=7)
    base.update(kw)
    return TrainConfig(**base)


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
    models and the tape); a step that bypasses them goes unmeasured."""
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
    counted(Tape, "backward")
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
    assert calls.count("backward") == 2 * steps


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
    dem.weights[0].values[0, 0] = np.nan
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

