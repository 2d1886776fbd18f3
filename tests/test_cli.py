import importlib.util
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from dualebm import cli
from dualebm.config import config_from_dict, load_run_dataset
from dualebm.data_io import Checkpoint, load_checkpoint, save_checkpoint
from dualebm.energy_model import EnergyModel
from dualebm.evaluation import read_pgm
from dualebm.generator_model import GeneratorModel, sample_prior
from dualebm.training import TrainState

from helpers import reference_image_files, rewrite_checkpoint_header, write_idx_pair


def _write_config(tmp_path, **overrides):
    config = {
        "dataset": "four_spin",
        "n_points": 512,
        "steps": 30,
        "batch_size": 16,
        "dem_hidden": [16, 16],
        "gen_hidden": [16, 16],
        "seed": 5,
        "out_dir": str(tmp_path / "run"),
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def _train(tmp_path, *extra, **overrides):
    config = _write_config(tmp_path, **overrides)
    code = cli.main(["train", "--config", str(config), *extra])
    return code, tmp_path / "run"


def test_train_smoke_writes_metrics_and_checkpoint(tmp_path):
    code, run_dir = _train(tmp_path)
    assert code == 0
    lines = (run_dir / "metrics.txt").read_text().splitlines()
    assert len(lines) == 30  # one metric record per step
    assert (run_dir / "checkpoint_final.bin").exists()


def test_train_is_byte_deterministic(tmp_path):
    # identical config (including out_dir): stash the first run's bytes,
    # rerun, and compare
    _, run_dir = _train(tmp_path)
    metrics = (run_dir / "metrics.txt").read_bytes()
    checkpoint = (run_dir / "checkpoint_final.bin").read_bytes()
    _, run_dir = _train(tmp_path)
    assert (run_dir / "metrics.txt").read_bytes() == metrics
    assert (run_dir / "checkpoint_final.bin").read_bytes() == checkpoint


def test_train_override_takes_precedence(tmp_path):
    code, run_dir = _train(tmp_path, "--steps", "12")
    assert code == 0
    assert len((run_dir / "metrics.txt").read_text().splitlines()) == 12


def test_train_rejects_zero_steps(tmp_path):
    code, _ = _train(tmp_path, "--steps", "0")
    assert code == 2


def test_train_rejects_negative_seed(tmp_path):
    code, _ = _train(tmp_path, "--seed", "-1")
    assert code == 2


def test_train_rejects_unknown_config_key(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"datasset": "four_spin"}))
    assert cli.main(["train", "--config", str(path)]) == 2


def test_train_rejects_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert cli.main(["train", "--config", str(path)]) == 2


def test_train_rejects_unknown_override(tmp_path):
    config = _write_config(tmp_path)
    assert cli.main(["train", "--config", str(config), "--bogus", "1"]) == 2


@pytest.mark.parametrize("flag, value", [
    ("--steps", "abc"),
    ("--dem_hidden", "a,b"),
    ("--dem_lr", "fast"),
])
def test_train_unparseable_override_is_config_error(tmp_path, capsys, flag,
                                                    value):
    code, _ = _train(tmp_path, flag, value)
    assert code == 2
    assert f"bad value for {flag[2:]!r}" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("seed", 1.7),
    ("steps", True),
    ("batch_size", 16.0),
    ("dem_hidden", [1.5]),
    ("gen_hidden", [16, "8"]),
    ("dem_hidden", 16),
    ("dem_lr", False),
    ("dataset", 5),
])
def test_train_mistyped_json_value_is_config_error(tmp_path, capsys, key, value):
    """A JSON value of another type than its field's is rejected, not
    coerced: a float seed is not truncated, ``true`` is not one step."""
    code, run_dir = _train(tmp_path, **{key: value})
    assert code == 2
    assert f"bad value for {key!r}" in capsys.readouterr().err
    assert not run_dir.exists()


def test_json_values_of_the_field_type_load():
    config = config_from_dict({"seed": 3, "sigma": 2, "dem_lr": 0.5,
                               "dem_hidden": [8, 4], "steps": "7"})
    assert (config.seed, config.dem_hidden, config.steps) == (3, [8, 4], 7)
    assert type(config.sigma) is float and config.sigma == 2.0


@pytest.mark.parametrize("flag, value", [
    ("--entropy_weight", "nan"),
    ("--noise_sd", "nan"),
    ("--adagrad_eps", "inf"),
    ("--sigma", "-inf"),
])
def test_train_rejects_nonfinite_float(tmp_path, capsys, flag, value):
    code, run_dir = _train(tmp_path, flag, value)
    assert code == 2
    assert f"{flag[2:]} must be finite" in capsys.readouterr().err
    assert not run_dir.exists()


@pytest.mark.parametrize("value", ["1e200", "1e-200", "1e-160"])
def test_train_rejects_sigma_out_of_float_range(tmp_path, capsys, value):
    """1/sigma^2 must be a finite positive float: these sigmas once ended
    in an OverflowError or ZeroDivisionError traceback, or an abort on a
    non-finite gradient."""
    code, run_dir = _train(tmp_path, "--sigma", value)
    assert code == 2
    assert "sigma must be positive and finite" in capsys.readouterr().err
    assert not run_dir.exists()


@pytest.mark.parametrize("overrides, message", [
    ("--n_points 3", "n_points must be >= 4 for four_spin, got 3"),
    ("--dataset mnist --mnist_images {d}/missing.idx --mnist_labels {d}/labels.idx",
     "No such file"),
    ("--dataset mnist --mnist_images {d}/truncated/images.idx "
     "--mnist_labels {d}/labels.idx", "truncated file"),
    ("--dataset mnist --mnist_images {d}/images.idx --mnist_labels {d}/labels.idx "
     "--mnist_limit -50", "mnist_limit must be >= 0"),
    ("--dataset mnist --mnist_images {d}/images.idx --mnist_labels {d}/labels.idx "
     "--mnist_limit -5", "mnist_limit must be >= 0"),
    ("--dataset mnist --mnist_images {d}/empty/images.idx "
     "--mnist_labels {d}/empty/labels.idx", "nonempty"),
    ("--dataset mnist --mnist_images {d}/small/images.idx "
     "--mnist_labels {d}/small/labels.idx", "images of 12 pixels"),
], ids=["n_points_below_arms", "missing_images", "truncated_images",
        "limit_empties_dataset", "negative_limit", "no_images", "not_28x28"])
def test_train_rejects_bad_data_input(tmp_path, capsys, overrides, message):
    """A data input that cannot give a dataset exits 2 before anything is
    written, and a negative mnist_limit is refused, not read as "drop the
    last images". {d} holds a pair of 50 images of 28x28, the same pair with
    its images file cut short, a pair of 0 images and one of 4x3 images."""
    write_idx_pair(tmp_path, count=50, rows=28, cols=28)
    for sub, count, rows, cols in (("truncated", 50, 28, 28), ("empty", 0, 28, 28),
                                   ("small", 50, 4, 3)):
        (tmp_path / sub).mkdir()
        write_idx_pair(tmp_path / sub, count=count, rows=rows, cols=cols)
    truncated = tmp_path / "truncated" / "images.idx"
    truncated.write_bytes(truncated.read_bytes()[:-5])
    run_dir = tmp_path / "run"
    argv = ["train", *overrides.format(d=tmp_path).split(), "--steps", "2",
            "--dem_hidden", "8", "--gen_hidden", "8", "--out_dir", str(run_dir)]
    assert cli.main(argv) == 2
    assert message in capsys.readouterr().err
    assert not run_dir.exists()


def test_checkpoint_config_round_trips_to_the_run_config(tmp_path, monkeypatch):
    """eval rebuilds the run's config from the checkpoint header, so the one
    config type must come back equal: training fields and run fields alike."""
    monkeypatch.delenv("DUALEBM_OUTDIR", raising=False)
    overrides = ["--dem_lr", "0.02", "--entropy_estimator", "nearest_neighbour",
                 "--n_points", "300", "--dem_hidden", "16,8", "--gen_hidden", "16",
                 "--batch_size", "16", "--steps", "5",
                 "--out_dir", str(tmp_path / "run")]
    assert cli.main(["train", *overrides]) == 0
    expected = cli.load_run_config(None, overrides)
    assert (expected.dem_lr, expected.entropy_estimator) == (0.02, "nearest_neighbour")
    assert (expected.n_points, expected.dem_hidden) == (300, [16, 8])
    header = load_checkpoint(tmp_path / "run" / "checkpoint_final.bin").config
    assert config_from_dict(header) == expected


@pytest.mark.parametrize("via", ["override", "config_file"])
def test_train_rejects_generator_without_hidden_layer(tmp_path, capsys, via):
    # with no hidden layer there is no batch norm, so the entropy
    # surrogate would be the constant 0
    if via == "override":
        code, run_dir = _train(tmp_path, "--gen_hidden", "")
    else:
        code, run_dir = _train(tmp_path, gen_hidden=[])
    assert code == 2
    assert "gen_hidden needs at least one hidden layer" in capsys.readouterr().err
    assert not run_dir.exists()


def test_outdir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("DUALEBM_OUTDIR", str(tmp_path / "env_run"))
    code, _ = _train(tmp_path)
    assert code == 0
    assert (tmp_path / "env_run" / "metrics.txt").exists()


def test_periodic_checkpoints(tmp_path):
    code, run_dir = _train(tmp_path, "--checkpoint_interval", "10")
    assert code == 0
    assert (run_dir / "checkpoint_10.bin").exists()
    assert (run_dir / "checkpoint_20.bin").exists()
    assert (run_dir / "checkpoint_final.bin").exists()


def test_nonfinite_abort_maps_to_exit_3(tmp_path, monkeypatch):
    from dualebm.training import NonFiniteGradientError

    def boom(*args, **kwargs):
        raise NonFiniteGradientError("dem.layer0.w", step=7)

    monkeypatch.setattr(cli, "train", boom)
    config = _write_config(tmp_path)
    assert cli.main(["train", "--config", str(config)]) == 3


def test_singular_entropy_abort_maps_to_exit_3_with_its_step(tmp_path, monkeypatch,
                                                             capsys):
    """A generator step large enough to map two latents onto one point makes
    the nearest-neighbour entropy singular: the run aborts at that step."""
    monkeypatch.setenv("DUALEBM_OUTDIR", str(tmp_path / "run"))
    code = cli.main(["train", "--entropy_estimator", "nearest_neighbour",
                     "--dgm_lr", "1000", "--steps", "300", "--n_points", "500"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("aborted: nearest-neighbour entropy is singular")
    step = int(err.split(" at step ")[1])
    metrics = (tmp_path / "run" / "metrics.txt").read_text().splitlines()
    assert len(metrics) == step and step < 300


@pytest.mark.parametrize("flag, value, quiet", [
    ("--sigma", "1e-100", True),      # energies ~1e199: the generator's square overflows
    ("--dem_lr", "1e300", True),      # the first energy step throws the model off range
])
def test_an_overflowing_gradient_norm_aborts_at_its_step(tmp_path, flag, value, quiet):
    """A finite gradient whose square overflows would make the AdaGrad
    accumulator infinite and freeze that model for good; the run aborts at
    the step instead, with exit 3, and with no numpy warning from AdaGrad."""
    result = subprocess.run(
        [sys.executable, "-m", "dualebm.cli", "train", "--steps", "5", "--n_points",
         "200", "--out_dir", str(tmp_path / "run"), flag, value],
        capture_output=True, text=True)
    assert result.returncode == 3
    last = result.stderr.splitlines()[-1]
    assert last.startswith("aborted: non-finite gradient for parameter ")
    assert last.endswith(" at step 0")
    assert (tmp_path / "run" / "metrics.txt").read_text() == ""
    if quiet:
        assert "Warning" not in result.stderr


@pytest.mark.parametrize("flags", [
    ("--noise_sd", "1e300"),                   # data ~1e300: every energy is inf
    ("--noise_sd", "1e153", "--batch_size", "1000"),   # a batch's energies sum to inf
], ids=["noise_sd_1e300", "batch_sum_1e153"])
def test_train_rejects_a_data_scale_whose_energies_overflow(tmp_path, flags):
    """Data whose energies overflow is a usage error naming noise_sd, found
    before any step and with no numpy warning; it once printed numpy's
    overflow warning from the energy and aborted at step 0 with exit 3."""
    result = subprocess.run(
        [sys.executable, "-m", "dualebm.cli", "train", "--steps", "5", "--n_points",
         "200", "--out_dir", str(tmp_path / "run"), *flags],
        capture_output=True, text=True)
    assert result.returncode == 2
    assert result.stderr.startswith(f"config error: noise_sd {float(flags[1])!r}: "
                                    "the data's energies overflow with sigma 1.0")
    assert "Warning" not in result.stderr
    assert not (tmp_path / "run").exists()


# --- checkpoint-consuming commands --------------------------------------------

@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("trained")
    code, run_dir = _train(tmp_path)
    assert code == 0
    return run_dir


@pytest.mark.parametrize("command, flag, value", [
    ("eval", "--grid-n", "1"),
    ("energy-map", "--res", "1"),
    ("sample", "--n", "0"),
    ("eval", "--n", "0"),
    ("interpolate", "--k", "1"),
    ("sample", "--seed", "-1"),
    ("interpolate", "--seed", "-1"),
    ("eval", "--seed", "-1"),
])
def test_out_of_range_argument_is_usage_error(tmp_path, capsys, command, flag,
                                              value):
    argv = [command, "--checkpoint", str(tmp_path / "nope.bin"), flag, value]
    if command != "eval":
        argv += ["--out", str(tmp_path / "out.csv")]
    assert cli.main(argv) == 2  # a missing checkpoint would give 4
    assert f"argument {flag}: must be at least" in capsys.readouterr().err


def test_sample_deterministic_csv(trained_run, tmp_path):
    ckpt = str(trained_run / "checkpoint_final.bin")
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["sample", "--checkpoint", ckpt, "--n", "50",
                     "--seed", "3", "--out", str(out_a)]) == 0
    assert cli.main(["sample", "--checkpoint", ckpt, "--n", "50",
                     "--seed", "3", "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert len(out_a.read_text().splitlines()) == 51


def test_sample_missing_checkpoint_exit_4(tmp_path):
    assert cli.main(["sample", "--checkpoint", str(tmp_path / "nope.bin"),
                     "--out", str(tmp_path / "x.csv")]) == 4


def test_unreadable_checkpoint_exit_4_naming_the_path(tmp_path, capsys):
    # a directory opens with IsADirectoryError, an OSError that is not
    # FileNotFoundError
    checkpoint = tmp_path / "a_directory"
    checkpoint.mkdir()
    assert cli.main(["sample", "--checkpoint", str(checkpoint),
                     "--out", str(tmp_path / "x.csv")]) == 4
    assert str(checkpoint) in capsys.readouterr().err


def test_sample_corrupt_checkpoint_exit_4(trained_run, tmp_path):
    corrupt = tmp_path / "corrupt.bin"
    corrupt.write_bytes((trained_run / "checkpoint_final.bin").read_bytes()[:40])
    assert cli.main(["sample", "--checkpoint", str(corrupt),
                     "--out", str(tmp_path / "x.csv")]) == 4


@pytest.mark.parametrize("command, edit", [
    ("sample", lambda h: h["gen"].update(widths=[4, 0, 2])),
    ("eval", lambda h: h["dem"].update(sigma=float("nan"))),
    ("eval", lambda h: h["dem"].update(sigma=float("inf"))),
    ("eval", lambda h: h["gen"]["widths"].__setitem__(-1, 3)),
    ("sample", lambda h: h["gen"]["widths"].__setitem__(-1, 3)),
    ("energy-map", lambda h: h["gen"]["widths"].__setitem__(-1, 3)),
    ("eval", lambda h: h["dem"].update(sigma=1e200)),
    ("eval", lambda h: h["dem"].update(sigma=1e-200)),
    ("energy-map", lambda h: h["dem"].update(sigma=1e200)),
], ids=["sample_zero_width", "eval_nan_sigma", "eval_infinite_sigma",
        "eval_mismatched_widths", "sample_mismatched_widths",
        "energy_map_mismatched_widths", "eval_huge_sigma", "eval_tiny_sigma",
        "energy_map_huge_sigma"])
def test_checkpoint_of_an_invalid_model_exit_4(trained_run, tmp_path, capsys, command,
                                               edit):
    """A zero width once killed ``sample`` with an OverflowError traceback,
    a NaN or infinite sigma let ``eval`` print its metrics, and a generator
    whose output width is not the energy model's input width killed
    ``eval`` with a scipy traceback while ``sample`` and ``energy-map``
    ran. A sigma whose square leaves float range loaded, and then ``eval``
    and ``energy-map`` died with an OverflowError or ZeroDivisionError."""
    ckpt = tmp_path / "invalid.bin"
    ckpt.write_bytes((trained_run / "checkpoint_final.bin").read_bytes())
    rewrite_checkpoint_header(ckpt, edit)
    argv = [command, "--checkpoint", str(ckpt)]
    if command != "eval":
        argv += ["--out", str(tmp_path / "x.csv")]
    assert cli.main(argv) == 4
    captured = capsys.readouterr()
    assert "corrupt header" in captured.err and not captured.out
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("command", ["sample", "eval", "energy-map"])
def test_checkpoint_block_of_an_overflowing_size_exit_4(trained_run, tmp_path, capsys,
                                                         command):
    """A [2^32, 2^32] block's size wraps to 0 in int64, which once passed
    the payload size check and died in a reshape traceback."""
    ckpt = tmp_path / "huge.bin"
    ckpt.write_bytes((trained_run / "checkpoint_final.bin").read_bytes())
    rewrite_checkpoint_header(
        ckpt, lambda h: h["tensors"].append(["extra", [2**32, 2**32]]))
    argv = [command, "--checkpoint", str(ckpt)]
    if command != "eval":
        argv += ["--out", str(tmp_path / "x.csv")]
    assert cli.main(argv) == 4
    captured = capsys.readouterr()
    assert "corrupt tensor payload" in captured.err and not captured.out
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("config", [
    {"dataset": "bogus"},
    {"n_points": -5},
    {"noise_sd": -1.0},
    {"no_such_key": 1},
    {"dataset": "mnist", "mnist_images": "i.idx", "mnist_labels": "l.idx"},
    {"dataset": "mnist"},
    {"n_points": "many"},
], ids=["unknown_dataset", "negative_n_points", "negative_noise_sd", "unknown_key",
        "mnist_dataset", "mnist_without_paths", "mistyped_value"])
def test_eval_of_an_invalid_stored_config_exit_4(trained_run, tmp_path, capsys, config):
    """``eval`` rebuilds its held-out set from the stored config, which
    must be a valid config of a 2D dataset: these values once ended in a
    traceback (exit 1) or, for an unknown key, a usage error."""
    ckpt = tmp_path / "invalid.bin"
    ckpt.write_bytes((trained_run / "checkpoint_final.bin").read_bytes())
    rewrite_checkpoint_header(ckpt, lambda h: h["config"].update(config))
    assert cli.main(["eval", "--checkpoint", str(ckpt), "--n", "50",
                     "--grid-n", "10"]) == 4
    captured = capsys.readouterr()
    assert "invalid stored config" in captured.err and not captured.out


def test_commands_do_not_mutate_checkpoint(trained_run, tmp_path):
    ckpt = trained_run / "checkpoint_final.bin"
    before = ckpt.read_bytes()
    cli.main(["sample", "--checkpoint", str(ckpt), "--n", "10",
              "--out", str(tmp_path / "s.csv")])
    cli.main(["energy-map", "--checkpoint", str(ckpt), "--res", "16",
              "--out", str(tmp_path / "m.csv")])
    assert ckpt.read_bytes() == before


def test_energy_map_zero_parameter_model_argmin_at_origin(tmp_path):
    dem = EnergyModel.build((2, 8, 4), 4, np.random.default_rng(0))
    for p in dem.params():
        p.values[:] = 0.0
    gen = GeneratorModel.build((4, 8, 2), np.random.default_rng(1))
    ckpt_path = tmp_path / "zero.bin"
    save_checkpoint(ckpt_path, Checkpoint({}, dem, gen, TrainState.initial(0)))
    out = tmp_path / "map.csv"
    assert cli.main(["energy-map", "--checkpoint", str(ckpt_path),
                     "--bounds", "-2", "2", "--res", "21",
                     "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    values = np.array([[float(a), float(b), float(c)] for a, b, c in rows])
    best = values[np.argmin(values[:, 2])]
    assert abs(best[0]) < 1e-9 and abs(best[1]) < 1e-9  # center cell of 21x21


@pytest.mark.parametrize("command", ["eval", "energy-map"])
def test_2d_commands_reject_a_784d_checkpoint(tmp_path, capsys, command):
    dem = EnergyModel.build((784, 8, 4), 4, np.random.default_rng(4))
    gen = GeneratorModel.build((4, 8, 784), np.random.default_rng(5),
                               output_activation="sigmoid")
    ckpt_path = tmp_path / "mnist.bin"
    save_checkpoint(ckpt_path, Checkpoint({"dataset": "mnist"}, dem, gen,
                                          TrainState.initial(0)))
    argv = [command, "--checkpoint", str(ckpt_path)]
    if command == "energy-map":
        argv += ["--res", "4", "--out", str(tmp_path / "map.csv")]
    assert cli.main(argv) == 2
    assert "2D models only" in capsys.readouterr().err
    assert not (tmp_path / "map.csv").exists()


@pytest.mark.parametrize("lo, hi", [("nan", "1"), ("0", "inf"), ("-1", "nan"),
                                    ("1", "-1"), ("1", "1"), ("-inf", "1")])
def test_energy_map_rejects_nonfinite_or_empty_bounds(trained_run, tmp_path, capsys,
                                                      lo, hi):
    out = tmp_path / "map.csv"
    assert cli.main(["energy-map", "--checkpoint",
                     str(trained_run / "checkpoint_final.bin"),
                     "--bounds", lo, hi, "--res", "4", "--out", str(out)]) == 2
    assert "--bounds must be finite with LO < HI" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("lo, hi", [("-1e1", "1e1"), ("-1E+1", "10"), ("-1_0", "1e1")])
def test_energy_map_bounds_take_any_float_spelling(trained_run, tmp_path, lo, hi):
    checkpoint = str(trained_run / "checkpoint_final.bin")
    maps = []
    for bounds in ((lo, hi), ("-10", "10")):
        out = tmp_path / f"map{len(maps)}.csv"
        assert cli.main(["energy-map", "--checkpoint", checkpoint, "--bounds", *bounds,
                         "--res", "6", "--out", str(out)]) == 0
        maps.append((out.read_bytes(), (tmp_path / f"{out.name}.meta").read_bytes()))
    assert maps[0] == maps[1]


def test_energy_map_rejects_bounds_on_which_the_energy_overflows(trained_run, tmp_path,
                                                                  capsys):
    out = tmp_path / "map.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["energy-map", "--checkpoint",
                         str(trained_run / "checkpoint_final.bin"), "--bounds", "1",
                         "1e308", "--res", "3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--bounds 1.0 1e+308" in err and "overflows" in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


@pytest.mark.parametrize("command", ["sample", "energy-map", "interpolate", "train"])
def test_unwritable_output_path_is_usage_error(trained_run, tmp_path, capsys,
                                               monkeypatch, command):
    """An output under a missing directory, or under a regular file, exits 2
    with a one-line message naming the path."""
    monkeypatch.delenv("DUALEBM_OUTDIR", raising=False)
    (tmp_path / "a_file").write_text("")
    if command == "train":
        out = tmp_path / "a_file" / "run"
        argv = ["train", "--steps", "2", "--dem_hidden", "8", "--gen_hidden", "8",
                "--out_dir", str(out)]
    else:
        out = tmp_path / "missing" / "out.csv"
        argv = [command, "--checkpoint", str(trained_run / "checkpoint_final.bin"),
                "--out", str(out)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [err.strip()] and f"cannot write {out}" in err


def test_interpolate_2d_writes_csv(trained_run, tmp_path):
    out = tmp_path / "interp.csv"
    assert cli.main(["interpolate", "--checkpoint",
                     str(trained_run / "checkpoint_final.bin"),
                     "--k", "7", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 8


def test_interpolate_image_model_writes_strip(tmp_path):
    dem = EnergyModel.build((16, 8, 4), 4, np.random.default_rng(2))
    gen = GeneratorModel.build((4, 8, 16), np.random.default_rng(3),
                               output_activation="sigmoid")
    ckpt_path = tmp_path / "img.bin"
    save_checkpoint(ckpt_path, Checkpoint({}, dem, gen, TrainState.initial(0)))
    out = tmp_path / "strip.pgm"
    assert cli.main(["interpolate", "--checkpoint", str(ckpt_path),
                     "--k", "5", "--out", str(out)]) == 0
    assert read_pgm(out).shape == (4, 20)


def test_sample_image_model_matches_the_full_array_export(tmp_path):
    """An mnist-shaped checkpoint: the strip of 257 samples, one more than
    a row block, is the full-array export of ``generate``'s samples."""
    dem = EnergyModel.build((784, 8, 4), 4, np.random.default_rng(6))
    gen = GeneratorModel.build((4, 16, 784), np.random.default_rng(7),
                               output_activation="sigmoid")
    gen.generate(sample_prior(64, 4, np.random.default_rng(8)), "train")
    ckpt_path = tmp_path / "mnist.bin"
    save_checkpoint(ckpt_path, Checkpoint({"dataset": "mnist"}, dem, gen,
                                          TrainState.initial(0)))
    out = tmp_path / "samples.pgm"
    assert cli.main(["sample", "--checkpoint", str(ckpt_path), "--n", "257",
                     "--seed", "9", "--out", str(out)]) == 0
    z = sample_prior(257, 4, np.random.default_rng(9))
    pgm, meta = reference_image_files(load_checkpoint(ckpt_path).gen.generate(z, "infer"))
    assert out.read_bytes() == pgm
    assert (tmp_path / "samples.pgm.meta").read_text() == meta


def test_eval_reports_metrics(trained_run, capsys):
    assert cli.main(["eval", "--checkpoint",
                     str(trained_run / "checkpoint_final.bin"),
                     "--n", "200", "--grid-n", "60"]) == 0
    out = capsys.readouterr().out
    for key in ("mode_0", "mode_3", "unassigned", "cross_entropy",
                "kl_vs_kde", "energy_gap"):
        assert f"{key}=" in out


def test_eval_computes_the_held_out_energies_once(trained_run, monkeypatch, capsys):
    path = trained_run / "checkpoint_final.bin"
    config = config_from_dict(load_checkpoint(path).config)
    held_out = load_run_dataset(
        config, np.random.default_rng(np.random.SeedSequence(config.seed + 1)))
    inputs = []
    energy_values = EnergyModel.energy_values

    def spy(self, x):
        inputs.append(np.array(x))
        return energy_values(self, x)

    monkeypatch.setattr(EnergyModel, "energy_values", spy)
    assert cli.main(["eval", "--checkpoint", str(path), "--n", "200",
                     "--grid-n", "60"]) == 0
    assert sum(np.array_equal(x, held_out.points) for x in inputs) == 1


def test_gradcheck_rejects_negative_seed(capsys):
    assert cli.main(["gradcheck", "--seed", "-1"]) == 2
    assert "argument --seed: must be at least 0" in capsys.readouterr().err


@pytest.mark.parametrize("scale", ["0", "-1", "nan", "inf"])
def test_gradcheck_rejects_nonpositive_or_nonfinite_scale(capsys, scale):
    assert cli.main(["gradcheck", "--scale", scale]) == 2
    assert "argument --scale: must be a positive finite number" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("scale", ["1e-200", "1e300"])
def test_gradcheck_collapsing_scale_is_usage_error(capsys, scale):
    # the probe generator's rows coincide, so its entropy is undefined
    assert cli.main(["gradcheck", "--scale", scale]) == 2
    assert capsys.readouterr().err.startswith(
        f"argument --scale: {float(scale)!r} is out of range (")


def test_gradcheck_command_passes():
    assert cli.main(["gradcheck"]) == 0


def test_console_entry_point():
    result = subprocess.run([sys.executable, "-m", "dualebm.cli", "gradcheck"],
                            capture_output=True, text=True)
    assert result.returncode == 0
    assert "worst relative error" in result.stdout


def test_every_module_is_reached_from_the_cli():
    """Importing the command line loads every module of the package, so no
    module sits where no command can reach it."""
    package = Path(cli.__file__).parent
    expected = {"dualebm" if f.stem == "__init__" else f"dualebm.{f.stem}"
                for f in package.glob("*.py")}
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(package.parent), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, dualebm.cli; print(*sorted(sys.modules))"],
        capture_output=True, text=True, check=True, env=env)
    assert expected - set(result.stdout.split()) == set()


def test_commands_that_need_no_scipy_never_import_it(tmp_path):
    """Every command runs on numpy alone: train with either entropy
    estimator, sample, energy-map, interpolate, eval (its KDE, log-sum-exp
    and nearest distances included) and gradcheck never load scipy."""
    config = _write_config(tmp_path, steps=5)
    checkpoint = tmp_path / "run" / "checkpoint_final.bin"
    commands = [
        ["train", "--config", str(config)],
        ["train", "--config", str(config), "--entropy_estimator", "nearest_neighbour",
         "--out_dir", str(tmp_path / "nn")],
        ["sample", "--checkpoint", str(checkpoint), "--n", "20",
         "--out", str(tmp_path / "samples.csv")],
        ["energy-map", "--checkpoint", str(checkpoint), "--res", "5",
         "--out", str(tmp_path / "map.csv")],
        ["interpolate", "--checkpoint", str(checkpoint), "--k", "3",
         "--out", str(tmp_path / "path.csv")],
        ["eval", "--checkpoint", str(checkpoint), "--n", "50", "--grid-n", "20"],
        ["gradcheck"],
    ]
    package = Path(cli.__file__).parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(package.parent), os.environ.get("PYTHONPATH")]))}
    script = (
        "import json, sys\n"
        "import dualebm.cli\n"
        f"codes = [dualebm.cli.main(argv) for argv in {commands!r}]\n"
        "scipy = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
        "print(json.dumps({'codes': codes, 'scipy': scipy}))\n")
    result = subprocess.run([sys.executable, "-c", script],
                            capture_output=True, text=True, check=True, env=env)
    report = json.loads(result.stdout.splitlines()[-1])
    assert report["codes"] == [0] * len(commands)
    assert report["scipy"] == []


# --- scripts/ ---------------------------------------------------------------------

def _load_script(name):
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_fourspin():
    return _load_script("run_fourspin").run


def test_run_fourspin_override_without_value_exit_2(tmp_path):
    assert _run_fourspin()(str(tmp_path / "out"), ["--steps"]) == 2


def test_run_fourspin_follows_outdir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("DUALEBM_OUTDIR", str(tmp_path / "env_run"))
    code = _run_fourspin()(str(tmp_path / "out"), [
        "--steps", "5", "--n_points", "256", "--batch_size", "16",
        "--dem_hidden", "8,8", "--gen_hidden", "8,8"])
    assert code == 0
    for name in ("checkpoint_final.bin", "energy_map.csv", "samples.csv"):
        assert (tmp_path / "env_run" / name).exists()
    assert not (tmp_path / "out").exists()


def _bench_pair(seed, parent, change):
    """One pair of run.py result lines for one workload "w" with metrics
    t (lower is better) and r (higher is better)."""
    def side(values, failed):
        return {"w": {"attempted": 4, "failed": failed, "metrics": {
            "t": {"value": values[0], "unit": "s"},
            "r": {"value": values[1], "unit": "1/s"}}}}
    return {"seed": seed, "parent": side(parent, 0), "change": side(change, 1)}


def test_bench_pairs_counts_wins_ties_and_the_claim_gate():
    bench = _load_script("bench_pairs")
    assert bench.parse_seeds("701-703") == [701, 702, 703]
    runs = [_bench_pair(1, (1.0, 10.0), (0.5, 12.0)),
            _bench_pair(2, (1.1, 10.0), (0.5, 10.0)),
            _bench_pair(3, (0.9, 10.0), (1.0, 9.0))]
    end_to_end = [{"name": "t", "unit": "s", "better": "lower", "bound": 0.2},
                  {"name": "r", "unit": "1/s", "better": "higher", "bound": 0.2}]
    workloads = bench.summarize(runs, end_to_end)
    t, r = workloads["w"]["t"], workloads["w"]["r"]
    assert (t["change_wins"], t["ties"], t["pairs"]) == (2, 0, 3)
    assert (r["change_wins"], r["ties"]) == (1, 1)
    assert t["parent"] == {"median": 1.0, "q1": 0.95, "q3": 1.05}
    assert t["runs"] == {"parent": [1.0, 1.1, 0.9], "change": [0.5, 0.5, 1.0]}
    assert t["change_vs_parent"] == -0.5
    assert bench.operations(runs) == {"w": {"parent": {"attempted": 12, "failed": 0},
                                            "change": {"attempted": 12, "failed": 3}}}
    assert not bench.claim(workloads, "w", "t")["met"]  # 2 of 3 wins is short of 9/10
    wins_all = bench.summarize(runs[:2], end_to_end)
    assert bench.claim(wins_all, "w", "t")["met"]
    assert not bench.claim(wins_all, "w", "r")["met"]

    # No-regression verdicts: worse by more than the bound is "worse"; a
    # parent spread wider than the bound is "unresolved" unless every change
    # run beats every parent run.
    def verdicts(runs, t_better, t_bound, r_bound=0.2):
        workloads = bench.summarize(runs, [
            {"name": "t", "unit": "s", "better": t_better, "bound": t_bound},
            {"name": "r", "unit": "1/s", "better": "higher", "bound": r_bound}])
        return workloads["w"]["t"]["verdict"], workloads["w"]["r"]["verdict"]

    # t: parent median 1.0, spread 0.1; change median 0.5. r: both medians 10.
    assert verdicts(runs, "lower", 0.2) == ("within_bound", "within_bound")
    assert verdicts(runs, "higher", 0.2) == ("worse", "within_bound")   # 50 % worse
    assert verdicts(runs, "lower", 0.05)[0] == "unresolved"   # 1.0 does not beat 0.9
    assert verdicts(runs[:2], "lower", 0.01)[0] == "within_bound"   # every run beats
    worse_r = [_bench_pair(s, (1.0, 10.0), (1.0, 7.0)) for s in (1, 2, 3)]
    assert verdicts(worse_r, "lower", 0.2) == ("within_bound", "worse")
    assert verdicts(worse_r, "lower", 0.2, r_bound=0.5)[1] == "within_bound"
    workloads = bench.summarize(runs, [
        {"name": "t", "unit": "s", "better": "higher", "bound": 0.05},
        {"name": "r", "unit": "1/s", "better": "higher", "bound": 0.2}])
    assert bench.verdicts(workloads) == {"worse": [], "unresolved": ["w:t"]}
    assert bench.relative(0.0, 0.0) == 0.0 and bench.relative(1.0, 0.0) == float("inf")
