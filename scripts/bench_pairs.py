#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs, summarized as a BENCH_*.json.

Usage:
    python3 scripts/bench_pairs.py --parent ROOT --change ROOT --seeds 701-710 \
        [--claim fourspin_train:setup_s] --description TEXT --out BENCH_7.json

PARENT and CHANGE are two source roots (checkouts of the parent commit and
of the change), each with its own src/, perfbench/ and BENCHMARK.json. For
every seed S the script runs ``python3 perfbench/run.py --workload all
--seed S --seconds N``, N being BENCHMARK.json's run_seconds, in both
roots, one after the other; the parent runs first for odd S, the change
for even S, so drift in machine speed falls on both sides alike. Each
run.py starts with one BLAS and OpenMP thread (``PINNED_THREADS``), so its
own reference-kernel readings are pinned as its workers' are, and each
root's src/ is byte-compiled once before the first pair, so no worker's
set-up compiles the package, even under PYTHONDONTWRITEBYTECODE. It reads
each run's last output line (the per-workload end-to-end metrics) and
rewrites the summary after every pair, so an interrupted series keeps the
pairs it finished.

The summary holds, per workload and end-to-end metric, each side's median
and quartiles (inclusive method), the relative change of the medians, and
the number of pairs the change wins (ties count for neither side). Each
metric also gets a no-regression verdict against its relative bound in
BENCHMARK.json: "unresolved" when the parent's interquartile range,
relative to its median, is wider than the bound and not every change run
beats every parent run; otherwise "worse" when the change's median is
worse than the parent's by more than the bound, and "within_bound" when it
is not. The summary's "verdict" lists the metrics that are worse or
unresolved, and under "more_failures" the workloads where the change
failed a larger share of its operations than the parent. A claimed
metric (``--claim``, left out when the change claims no gain) is met when
the change wins at least nine tenths of the pairs and the medians differ,
in the better direction, by more than the parent's interquartile range.
Every run's values are kept under "runs".

PARENT must be the top of a git checkout, so the summary names the commit
it measured against (make one with ``git worktree add --detach DIR
COMMIT``): a root where git names no commit, or whose
``git rev-parse --show-toplevel`` is another directory (a plain directory
inside some checkout), is refused before anything compiles or runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ENVIRONMENT_KEYS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "blas", "cpu",
                    "nproc", "numpy", "python", "scipy")
SIDES = ("parent", "change")
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}


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


def git_commit(root: Path) -> str | None:
    """The commit checked out in ``root``, or None when git names none or
    ``root`` is not the top of the checkout git finds, whose commit would
    say nothing of the files in ``root``."""
    proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        return None
    toplevel, commit = proc.stdout.splitlines()
    return commit if Path(toplevel).resolve() == root.resolve() else None


def run_benchmark(root: Path, seed: int, seconds: int) -> dict:
    """One ``run.py --workload all`` in ``root``: its last output line,
    {workload: {correct, attempted, failed, metrics: {name: {value, unit}}}}."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all",
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=root, stdout=subprocess.PIPE, text=True, env={**os.environ, **PINNED_THREADS})
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: perfbench exited {proc.returncode} on seed {seed}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def compile_sources(root: Path) -> None:
    """Byte-compile ``root``'s src/ in place, as every run then imports it."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=root, check=True)


def environment(root: Path, seed: int) -> dict:
    """The environment a run in ``root`` recorded, from its results file;
    whether PYTHONDONTWRITEBYTECODE was set for the runs, which inherit this
    process's environment; the thread counts each run.py started with; and
    that src/ was compiled before the runs, so that no worker compiled the
    package and ``setup_s`` holds no compile time."""
    results = sorted((root / ".perfbench" / "results").glob(f"*-seed{seed}-trace0.json"))
    recorded = json.loads(results[0].read_text())["environment"] if results else {}
    return {**{key: recorded[key] for key in ENVIRONMENT_KEYS if key in recorded},
            "PYTHONDONTWRITEBYTECODE": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
            "run_py_env": dict(PINNED_THREADS),
            "src_compiled_before_runs": True}


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def relative(value: float, reference: float) -> float:
    """value / |reference|; for a zero reference, 0 or infinity."""
    if reference == 0:
        return 0.0 if value == 0 else float("inf")
    return value / abs(reference)


def verdict(values: dict, stats: dict, sign: float, bound: float) -> str:
    """The no-regression verdict, "within_bound", "worse" or "unresolved"
    (see the module docstring); sign is 1 when lower is better, -1 when
    higher is."""
    parent = stats["parent"]
    clear_win = (max(sign * v for v in values["change"])
                 < min(sign * v for v in values["parent"]))
    if relative(parent["q3"] - parent["q1"], parent["median"]) > bound and not clear_win:
        return "unresolved"
    worsening = relative(sign * (stats["change"]["median"] - parent["median"]),
                         parent["median"])
    return "worse" if worsening > bound else "within_bound"


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per workload and metric: each side's quartiles, the relative change
    of the medians, the pairs the change wins or ties, and the verdict."""
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
                "change_vs_parent": round(relative(
                    stats["change"]["median"] - stats["parent"]["median"],
                    stats["parent"]["median"]), 4),
                "change_wins": sum(d > 0 for d in deltas),
                "ties": sum(d == 0 for d in deltas),
                "pairs": len(runs),
                "bound": spec["bound"],
                "verdict": verdict(values, stats, sign, spec["bound"]),
                "runs": values,
            }
        workloads[workload] = rows
    return workloads


def verdicts(workloads: dict) -> dict:
    """The "workload:metric" names of every metric not within its bound."""
    out = {"worse": [], "unresolved": []}
    for workload, rows in workloads.items():
        for metric, row in rows.items():
            if row["verdict"] in out:
                out[row["verdict"]].append(f"{workload}:{metric}")
    return out


def operations(runs: list[dict]) -> dict:
    """Operations attempted and failed per workload and side, over all runs."""
    return {workload: {side: {key: sum(r[side][workload][key] for r in runs)
                              for key in ("attempted", "failed")}
                       for side in SIDES}
            for workload in runs[0]["parent"]}


def more_failures(ops: dict) -> list[str]:
    """The workloads of ``operations``' counts where the change failed a
    larger share of the operations it attempted than the parent did."""
    def failed_share(counts: dict) -> float:
        return counts["failed"] / counts["attempted"] if counts["attempted"] else 0.0

    return [workload for workload, sides in ops.items()
            if failed_share(sides["change"]) > failed_share(sides["parent"])]


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
    parser.add_argument("--claim", type=parse_claim, metavar="WORKLOAD:METRIC",
                        help="the one metric the change claims to improve; "
                             "omit it when no gain is claimed")
    parser.add_argument("--description", required=True, help="what the change does")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    parent_commit = git_commit(roots["parent"])
    if parent_commit is None:
        parser.error(f"--parent {args.parent} is not the top of a git checkout, so "
                     f"its commit is unknown; make one with "
                     f"git worktree add --detach DIR COMMIT")
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workload, metric = args.claim or (None, None)
    if args.claim and workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"{workload} is not a workload of BENCHMARK.json")
    if args.claim and metric not in {m["name"] for m in spec["end_to_end"]}:
        parser.error(f"{metric} is not an end-to-end metric of BENCHMARK.json")

    for root in roots.values():
        compile_sources(root)
    runs = []
    for seed in args.seeds:
        order = SIDES if seed % 2 else SIDES[::-1]
        run = {"seed": seed}
        for side in order:
            print(f"seed {seed}: {side}", file=sys.stderr, flush=True)
            run[side] = run_benchmark(roots[side], seed, seconds)
        runs.append(run)
        workloads = summarize(runs, spec["end_to_end"])
        ops = operations(runs)
        summary = {
            "change": args.description,
            "parent_commit": parent_commit,
            "environment": environment(roots["change"], seed),
            "method": {"end_to_end": (
                f"python3 perfbench/run.py --workload all --seed S --seconds {seconds}, "
                f"in a checkout of the parent and one of the change, for S = "
                f"{args.seeds[0]}..{args.seeds[-1]}; the parent runs first for odd S. "
                f"Medians and quartiles (inclusive method) of the values per side; "
                f"change_wins counts pairs where the change is better, ties counting "
                f"for neither; verdict holds each change median against the parent's "
                f"and BENCHMARK.json's bound. Written by scripts/bench_pairs.py.")},
            "claim": claim(workloads, workload, metric) if args.claim else None,
            "verdict": {**verdicts(workloads), "more_failures": more_failures(ops)},
            "workloads": workloads,
            "operations": ops,
        }
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
