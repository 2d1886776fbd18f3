"""Output checks. Each raises ``CheckFailed`` with the reason; the worker
counts a raised check as a failed operation."""

from __future__ import annotations

import hashlib
import math

import numpy as np

from dualebm import data_io, evaluation


class CheckFailed(Exception):
    pass


def model_digest(dem, gen) -> str:
    """SHA-256 over every parameter and batch-norm running statistic."""
    h = hashlib.sha256()
    for p in dem.params() + gen.params():
        h.update(p.name.encode())
        h.update(np.ascontiguousarray(p.values).tobytes())
    for layer in gen.layers:
        if layer.has_batch_norm:
            h.update(layer.bn_state.mean.tobytes())
            h.update(layer.bn_state.var.tobytes())
    return h.hexdigest()


def check_metrics_lines(lines, first_step: int, steps: int) -> None:
    """One ``key=value`` line per step, in order, with finite e_pos/e_neg."""
    if len(lines) != steps:
        raise CheckFailed(f"expected {steps} metrics lines, got {len(lines)}")
    for i, line in enumerate(lines):
        fields = dict(part.split("=", 1) for part in line.split())
        if int(fields.get("step", -1)) != first_step + i:
            raise CheckFailed(f"metrics line {i} has step {fields.get('step')}")
        for key in ("e_pos", "e_neg"):
            if key not in fields or not math.isfinite(float(fields[key])):
                raise CheckFailed(f"step {first_step + i}: {key} missing or not finite")


def check_checkpoint_reload(path, dem, gen) -> str:
    """The checkpoint reloads to models bit-equal to the given ones."""
    try:
        loaded = data_io.load_checkpoint(path)
    except (OSError, data_io.CheckpointError, KeyError, ValueError) as err:
        raise CheckFailed(f"{path}: does not reload: {err}") from None
    want = model_digest(dem, gen)
    if model_digest(loaded.dem, loaded.gen) != want:
        raise CheckFailed(f"{path}: reloaded parameters differ from the trained models")
    return want


def check_periodic_checkpoints(out_dir, steps: int, interval: int) -> None:
    want = {f"checkpoint_{k}.bin" for k in range(interval, steps, interval)}
    have = {p.name for p in out_dir.glob("checkpoint_*.bin")} - {"checkpoint_final.bin"}
    if have != want:
        raise CheckFailed(f"periodic checkpoints {sorted(have)}, expected {sorted(want)}")


def parse_eval_report(text: str, n_modes: int) -> dict:
    """Every key ``dualebm eval`` prints is present and finite, and the
    mode fractions plus the unassigned fraction sum to one."""
    report = dict(line.split("=", 1) for line in text.splitlines() if "=" in line)
    keys = (["unassigned", "cross_entropy", "kl_vs_kde", "energy_gap"]
            + [f"mode_{i}" for i in range(n_modes)])
    values = {}
    for key in keys:
        if key not in report:
            raise CheckFailed(f"eval report lacks {key}")
        values[key] = float(report[key])
        if not math.isfinite(values[key]):
            raise CheckFailed(f"eval {key} is not finite: {report[key]}")
    total = values["unassigned"] + sum(values[f"mode_{i}"] for i in range(n_modes))
    if abs(total - 1.0) > 1e-9:
        raise CheckFailed(f"mode fractions plus unassigned sum to {total!r}")
    return values


def _read_csv_rows(path, columns: int) -> list:
    with open(path) as f:
        header = f.readline().rstrip("\n").split(",")
        rows = [line.rstrip("\n").split(",") for line in f]
    if len(header) != columns:
        raise CheckFailed(f"{path}: header has {len(header)} columns, expected {columns}")
    for i, row in enumerate(rows):
        if len(row) != columns:
            raise CheckFailed(f"{path}: row {i} has {len(row)} fields, expected {columns}")
    return rows


def check_points_csv(path, n: int, d: int) -> None:
    rows = _read_csv_rows(path, d)
    if len(rows) != n:
        raise CheckFailed(f"{path}: {len(rows)} rows, expected {n}")
    if not all(math.isfinite(float(v)) for row in rows for v in row):
        raise CheckFailed(f"{path}: non-finite sample")


def check_energy_map(path, res: int) -> None:
    """res*res rows, and the sidecar's vmin/vmax are the data's min/max."""
    rows = _read_csv_rows(path, 3)
    if len(rows) != res * res:
        raise CheckFailed(f"{path}: {len(rows)} rows, expected {res * res}")
    energies = [float(row[2]) for row in rows]
    meta = evaluation.read_sidecar(path)
    if float(meta["vmin"]) != min(energies) or float(meta["vmax"]) != max(energies):
        raise CheckFailed(f"{path}.meta: vmin/vmax {meta['vmin']}/{meta['vmax']} "
                          f"do not match the data {min(energies)!r}/{max(energies)!r}")


def check_image_strip(path, n: int, side: int) -> None:
    pixels = evaluation.read_pgm(path)
    if pixels.shape != (side, n * side):
        raise CheckFailed(f"{path}: image {pixels.shape}, expected {(side, n * side)}")
    if int(evaluation.read_sidecar(path)["tiles"]) != n:
        raise CheckFailed(f"{path}.meta: tile count differs from {n}")
