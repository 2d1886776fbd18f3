#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs, summarized as a BENCH_*.json.

Usage:
    python3 scripts/bench_pairs.py --parent ROOT --change ROOT --seeds 701-710 \
        --claim fourspin_train:setup_s --description TEXT --out BENCH_7.json

PARENT and CHANGE are two source roots (checkouts of the parent commit and
of the change), each with its own src/, perfbench/ and BENCHMARK.json. For
every seed S the script runs ``python3 perfbench/run.py --workload all
--seed S --seconds N``, N being BENCHMARK.json's run_seconds, in both
roots, one after the other; the parent runs first for odd S, the change
for even S, so drift in machine speed falls on both sides alike. It reads each run's last output line (the per-workload
end-to-end metrics) and rewrites the summary after every pair, so an
interrupted series keeps the pairs it finished.

The summary holds, per workload and end-to-end metric, each side's median
and quartiles (inclusive method), the relative change of the medians, and
the number of pairs the change wins (ties count for neither side); the
claim is met when the change wins at least nine tenths of the pairs and the
medians differ, in the better direction, by more than the parent's
interquartile range. Every run's values are kept under "runs".
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ENVIRONMENT_KEYS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "blas", "cpu",
                    "nproc", "numpy", "python", "scipy")
SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """'701-710' or '701' -> the seeds, first to last inclusive."""
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds or seeds[0] < 0:
        raise argparse.ArgumentTypeError(f"need a range FIRST-LAST of seeds >= 0, got {text!r}")
    return seeds


def parse_claim(text: str) -> tuple[str, str]:
    workload, sep, metric = text.partition(":")
    if not (sep and workload and metric):
        raise argparse.ArgumentTypeError(f"need WORKLOAD:METRIC, got {text!r}")
    return workload, metric


def git_commit(root: Path) -> str:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "not a git checkout"


def run_benchmark(root: Path, seed: int, seconds: int) -> dict:
    """One ``run.py --workload all`` in ``root``: its last output line,
    {workload: {correct, attempted, failed, metrics: {name: {value, unit}}}}."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all",
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=root, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: perfbench exited {proc.returncode} on seed {seed}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(root: Path, seed: int) -> dict:
    """The environment a run in ``root`` recorded, from its results file."""
    results = sorted((root / ".perfbench" / "results").glob(f"*-seed{seed}-trace0.json"))
    recorded = json.loads(results[0].read_text())["environment"] if results else {}
    return {key: recorded[key] for key in ENVIRONMENT_KEYS if key in recorded}


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per workload and metric: each side's quartiles, the relative change
    of the medians, and the pairs the change wins or ties."""
    workloads = {}
    for workload in runs[0]["parent"]:
        rows = {}
        for spec in end_to_end:
            name, sign = spec["name"], (1.0 if spec["better"] == "lower" else -1.0)
            values = {side: [r[side][workload]["metrics"][name]["value"] for r in runs]
                      for side in SIDES}
            stats = {side: quartiles(values[side]) for side in SIDES}
            deltas = [sign * (p - c) for p, c in zip(values["parent"], values["change"])]
            rows[name] = {
                "unit": spec["unit"],
                "better": spec["better"],
                **stats,
                "change_vs_parent": round(
                    stats["change"]["median"] / stats["parent"]["median"] - 1.0, 4),
                "change_wins": sum(d > 0 for d in deltas),
                "ties": sum(d == 0 for d in deltas),
                "pairs": len(runs),
                "runs": values,
            }
        workloads[workload] = rows
    return workloads


def operations(runs: list[dict]) -> dict:
    """Operations attempted and failed per workload and side, over all runs."""
    return {workload: {side: {key: sum(r[side][workload][key] for r in runs)
                              for key in ("attempted", "failed")}
                       for side in SIDES}
            for workload in runs[0]["parent"]}


def claim(workloads: dict, workload: str, metric: str) -> dict:
    row = workloads[workload][metric]
    parent, change = row["parent"], row["change"]
    gain = (parent["median"] - change["median"]) * (1.0 if row["better"] == "lower" else -1.0)
    parent_iqr = parent["q3"] - parent["q1"]
    return {
        "metric": metric,
        "workload": workload,
        "parent_median": parent["median"],
        "change_median": change["median"],
        "parent_iqr": parent_iqr,
        "change_wins": row["change_wins"],
        "pairs": row["pairs"],
        "met": row["change_wins"] >= 0.9 * row["pairs"] and gain > parent_iqr,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="source root of the parent")
    parser.add_argument("--change", type=Path, required=True, help="source root of the change")
    parser.add_argument("--seeds", type=parse_seeds, required=True, metavar="FIRST-LAST")
    parser.add_argument("--claim", type=parse_claim, required=True, metavar="WORKLOAD:METRIC")
    parser.add_argument("--description", required=True, help="what the change does")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workload, metric = args.claim
    if workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"{workload} is not a workload of BENCHMARK.json")
    if metric not in {m["name"] for m in spec["end_to_end"]}:
        parser.error(f"{metric} is not an end-to-end metric of BENCHMARK.json")

    runs = []
    for seed in args.seeds:
        order = SIDES if seed % 2 else SIDES[::-1]
        run = {"seed": seed}
        for side in order:
            print(f"seed {seed}: {side}", file=sys.stderr, flush=True)
            run[side] = run_benchmark(roots[side], seed, seconds)
        runs.append(run)
        workloads = summarize(runs, spec["end_to_end"])
        summary = {
            "change": args.description,
            "parent_commit": git_commit(roots["parent"]),
            "environment": environment(roots["change"], seed),
            "method": {"end_to_end": (
                f"python3 perfbench/run.py --workload all --seed S --seconds {seconds}, "
                f"in a checkout of the parent and one of the change, for S = "
                f"{args.seeds[0]}..{args.seeds[-1]}; the parent runs first for odd S. "
                f"Medians and quartiles (inclusive method) of the values per side; "
                f"change_wins counts pairs where the change is better, ties counting "
                f"for neither. Written by scripts/bench_pairs.py.")},
            "claim": claim(workloads, workload, metric),
            "workloads": workloads,
            "operations": operations(runs),
        }
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
