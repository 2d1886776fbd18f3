"""Tests of the benchmark itself: tiny-size runs of every workload, and the
output checks catching damaged outputs.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

import checks
from conftest import BENCH, ROOT
from dualebm import data_io
from dualebm.config import RunConfig, build_models

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "1", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        reported = result["metrics"][m["name"]]
        assert reported["unit"] == m["unit"]
        assert math.isfinite(reported["value"])
        if not trace:
            assert reported["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = run_bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_truncated_csv_is_caught(tmp_path):
    path = tmp_path / "samples.csv"
    data_io.save_points_csv(path, np.random.default_rng(0).normal(size=(50, 2)))
    checks.check_points_csv(path, 50, 2)
    text = path.read_text()
    path.write_text(text[: len(text) - 20])
    with pytest.raises(checks.CheckFailed):
        checks.check_points_csv(path, 50, 2)


def test_truncated_energy_map_is_caught(tmp_path):
    from dualebm.evaluation import energy_heatmap, export_image_grid
    dem, _ = build_models(RunConfig())
    path = tmp_path / "map.csv"
    export_image_grid(energy_heatmap(dem, [(-1.5, 1.5), (-1.5, 1.5)], 10), path)
    checks.check_energy_map(path, 10)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-3]))
    with pytest.raises(checks.CheckFailed):
        checks.check_energy_map(path, 10)


@pytest.fixture
def checkpoint(tmp_path):
    from dualebm.training import TrainState
    cfg = RunConfig()
    dem, gen = build_models(cfg)
    path = tmp_path / "checkpoint.bin"
    data_io.save_checkpoint(path, data_io.Checkpoint(cfg.to_dict(), dem, gen,
                                                     TrainState.initial(0)))
    checks.check_checkpoint_reload(path, dem, gen)
    return path, dem, gen


def test_corrupted_checkpoint_is_caught(checkpoint):
    path, dem, gen = checkpoint
    payload = bytearray(path.read_bytes())
    payload[-8:] = np.float64(12345.0).tobytes()   # last tensor element
    path.write_bytes(bytes(payload))
    with pytest.raises(checks.CheckFailed, match="differ"):
        checks.check_checkpoint_reload(path, dem, gen)


def test_truncated_checkpoint_is_caught(checkpoint):
    path, dem, gen = checkpoint
    path.write_bytes(path.read_bytes()[:-100])
    with pytest.raises(checks.CheckFailed, match="does not reload"):
        checks.check_checkpoint_reload(path, dem, gen)


def test_eval_report_checks():
    good = ("dataset=four_spin\nunassigned=0.25\ncross_entropy=1.5\nkl_vs_kde=0.3\n"
            "energy_gap=2.0\nmode_0=0.25\nmode_1=0.25\nmode_2=0.125\nmode_3=0.125\n")
    checks.parse_eval_report(good, 4)
    with pytest.raises(checks.CheckFailed, match="lacks"):
        checks.parse_eval_report(good.replace("kl_vs_kde=0.3\n", ""), 4)
    with pytest.raises(checks.CheckFailed, match="sum"):
        checks.parse_eval_report(good.replace("mode_3=0.125", "mode_3=0.2"), 4)
    with pytest.raises(checks.CheckFailed, match="finite"):
        checks.parse_eval_report(good.replace("energy_gap=2.0", "energy_gap=nan"), 4)


def test_metrics_lines_check():
    lines = [f"step={i} e_pos=0.5 e_neg=0.25 dem_gnorm=1.0" for i in range(3)]
    checks.check_metrics_lines(lines, 0, 3)
    with pytest.raises(checks.CheckFailed):
        checks.check_metrics_lines(lines[:2], 0, 3)
    with pytest.raises(checks.CheckFailed):
        checks.check_metrics_lines(lines[:2] + ["step=2 e_pos=nan e_neg=0.1"], 0, 3)


def test_benchmark_json_follows_the_format():
    import re
    raw = (ROOT / "BENCHMARK.json").read_bytes()
    assert len(raw) <= 64 * 1024
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert 1 <= len(SPEC["paths"]) <= 16
    for path in SPEC["paths"]:
        assert re.fullmatch(r"[A-Za-z0-9_./-]{1,200}", path)
        assert not path.startswith("/") and ".." not in path.split("/")
    assert 1 <= len(SPEC["command"]) <= 32
    assert all(isinstance(a, str) and len(a) <= 200 for a in SPEC["command"])
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [w["name"] for w in SPEC["workloads"]]
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        names.append(m["name"])
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
        assert m["better"] in ("lower", "higher")
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
