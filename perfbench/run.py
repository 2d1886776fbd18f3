#!/usr/bin/env python3
"""dualebm benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. W is one of fourspin_train, fourspin_analyze,
wide_train, or ``all`` to run the three in turn. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. Lines before it give every metric with its unit, the error rate,
extra timings and the environment. perfbench/README.md describes the
workloads, metrics and bounds.

Each workload runs in a fresh worker process (perfbench/worker.py) with
BLAS threads pinned, so its peak memory is its own. Set-up is sampled in
SETUP_REPEATS further processes that stop after set-up, and setup_s is the
median of all samples.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import reference_ms, scale

WORKLOADS = ("fourspin_train", "fourspin_analyze", "wide_train")
SETUP_REPEATS = 2
RUN_LIMIT_S = 170.0
BLAS_THREADS = "1"   # steadier than 2 on a shared 2-core machine; recorded per run
HERE = Path(__file__).resolve().parent


def pinned_env(root: Path) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env.pop("DUALEBM_OUTDIR", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(root: Path, env: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "not a git checkout"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                                    capture_output=True, timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            commit = "unknown"
    return {
        "OPENBLAS_NUM_THREADS": env["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": env["OMP_NUM_THREADS"],
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "git_commit": commit, "source_sha256": source_digest(root),
    }


def run_worker(root, env, work, args, deadline, setup_only=False) -> dict:
    """One worker process; returns its JSON result with setup_s added."""
    result_path = work / f"result-{time.monotonic_ns()}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--result", str(result_path),
           "--workdir", str(work / ("setup" if setup_only else "main")),
           "--idx-images", str(work / "images.idx"), "--idx-labels", str(work / "labels.idx")]
    if setup_only:
        cmd.append("--setup-only")
    if args.smoke:
        cmd.append("--smoke")
    ref_before = reference_ms()
    launched = time.monotonic()
    proc = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr,
                          timeout=max(1.0, deadline - launched))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    result = json.loads(result_path.read_text())
    if "setup_end" in result:
        result["setup_s_raw"] = result["setup_end"] - launched
        result["setup_s"] = scale(result["setup_s_raw"], ref_before,
                                  result["ref_at_setup_end"])
    if setup_only:
        shutil.rmtree(work / "setup", ignore_errors=True)
    return result


def run_workload(root: Path, args, spec: dict) -> dict:
    """Set-up samples and the measured run of one workload, aggregated."""
    deadline = time.monotonic() + RUN_LIMIT_S
    env = pinned_env(root)
    work = root / ".perfbench" / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.workload == "wide_train":
            from inputs import write_idx_pair
            n = 128 if args.smoke else 10_000
            write_idx_pair(work / "images.idx", work / "labels.idx", n, args.seed)
        setups = []
        if not args.trace:
            for _ in range(1 if args.smoke else SETUP_REPEATS):
                setups.append(run_worker(root, env, work, args, deadline, setup_only=True))
        main = run_worker(root, env, work, args, deadline)
        if args.trace:
            spans = root / ".perfbench" / "spans"
            spans.mkdir(parents=True, exist_ok=True)
            shutil.copy(work / "main" / "spans.jsonl",
                        spans / f"{args.workload}-seed{args.seed}.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = main["attempted"] + sum(s["attempted"] for s in setups)
    failures = main["failures"] + [f for s in setups for f in s["failures"]]
    digests = {r["checkpoint_digest"] for r in setups + [main] if "checkpoint_digest" in r}
    if len(digests) > 1:
        failures.append("checkpoints trained with the same seed in separate processes differ")
    attempted += bool(digests)
    if args.trace:
        values = main["layers"]
    else:
        values = dict(main["metrics"])
        values["setup_s"] = statistics.median(r["setup_s"] for r in setups + [main])
        main["raw"]["setup_s"] = statistics.median(r["setup_s_raw"] for r in setups + [main])
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if set(values) != {m["name"] for m in wanted}:
        raise RuntimeError(f"measured {sorted(values)}, BENCHMARK.json lists "
                           f"{sorted(m['name'] for m in wanted)}")
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in wanted}
    missing = [name for name, (value, _) in metrics.items()
               if not isinstance(value, (int, float)) or value != value]
    if missing:
        raise RuntimeError(f"no value for {missing}; failures: {failures}")
    return {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "attempted": attempted, "failed": len(failures), "failures": failures,
            "metrics": metrics, "raw": main.get("raw", {}), "report": main["report"],
            "quality_reps": main.get("quality_reps"),
            "step_ms": main.get("step_ms"), "sample_all_s": main.get("sample_all_s"),
            "setup_samples_s": [r["setup_s"] for r in setups + [main]],
            "environment": {**environment(root, env), **main["environment"]}}


def print_report(summary: dict) -> None:
    print(f"== {summary['workload']} (seed {summary['seed']}, trace {summary['trace']})")
    for name, (value, unit) in summary["metrics"].items():
        raw = summary["raw"].get(name)
        print(f"{name} = {value!r} {unit}" + (f" (unscaled {raw!r})" if raw else ""))
    print(f"error_rate = {summary['failed'] / summary['attempted']!r} "
          f"({summary['failed']} of {summary['attempted']} operations)")
    for name, value in summary["report"].items():
        if value is not None:
            print(f"{name} = {value!r}")
    for failure in summary["failures"]:
        print(f"FAILED: {failure}")
    print("environment: " + json.dumps(summary["environment"], sort_keys=True))


def result_line(summary: dict) -> dict:
    return {"correct": summary["failed"] == 0, "attempted": summary["attempted"],
            "failed": summary["failed"],
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in summary["metrics"].items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    root = Path.cwd()
    if not (root / "src" / "dualebm" / "__init__.py").is_file():
        print("perfbench: src/dualebm not found; run from the repository root",
              file=sys.stderr)
        return 2

    spec = json.loads((root / "BENCHMARK.json").read_text())
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = {}
    for workload in workloads:
        args.workload = workload
        try:
            summaries[workload] = run_workload(root, args, spec)
        except (RuntimeError, subprocess.TimeoutExpired, OSError, KeyError,
                json.JSONDecodeError) as err:
            print(f"perfbench: {workload} did not complete: {err}", file=sys.stderr)
            return 1
        print_report(summaries[workload])
        out = root / ".perfbench" / "results"
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(summaries[workload], indent=1, default=str))
    if len(workloads) == 1:
        print(json.dumps(result_line(summaries[workloads[0]])))
    else:
        print(json.dumps({w: result_line(s) for w, s in summaries.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
