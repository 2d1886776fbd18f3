#!/usr/bin/env python3
"""One benchmark process: set-up, one workload, output checks and, with
--trace 1, spans around the program's public functions.

run.py starts this script from the repository root and reads the JSON it
writes to --result. With --setup-only the process stops after set-up, which
is how run.py samples set-up time several times per run.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import sys
import time
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
# Modules that load numpy are imported inside functions, so that the timed
# import of the program (cli.import_ms) includes numpy and scipy.


@dataclass(frozen=True)
class Sizes:
    n_points: int                  # four-spin dataset size
    quality_reps: int              # four-spin pairs per quality block
    quality_steps: int             # fixed training budget of each pair
    analyze_train_steps: int       # budget of the checkpoint fourspin_analyze inspects
    wide_images: int
    wide_steps: int
    wide_checkpoint_interval: int
    sample_n_2d: int
    sample_n_wide: int
    sample_repeats: int
    energy_map_res: int
    eval_args: tuple               # extra `dualebm eval` arguments
    grid_n: int                    # quality-block quadrature grid per axis
    tv_block: int                  # grid nodes per histogram block and axis
    quality_samples: int
    prim_repeats: int
    record_n: int
    big_batch: int                 # energy_values calls of at least this many points


FULL = Sizes(n_points=10_000, quality_reps=8, quality_steps=250,
             analyze_train_steps=100, wide_images=10_000, wide_steps=250,
             wide_checkpoint_interval=25, sample_n_2d=50_000, sample_n_wide=10_000,
             sample_repeats=5, energy_map_res=200, eval_args=(), grid_n=100,
             tv_block=5, quality_samples=10_000, prim_repeats=200, record_n=20_000,
             big_batch=10_000)
SMOKE = Sizes(n_points=400, quality_reps=2, quality_steps=10, analyze_train_steps=10,
              wide_images=128, wide_steps=12, wide_checkpoint_interval=4,
              sample_n_2d=300, sample_n_wide=50, sample_repeats=1, energy_map_res=20,
              eval_args=("--n", "300", "--grid-n", "20"), grid_n=40, tv_block=4,
              quality_samples=500, prim_repeats=3, record_n=100,
              big_batch=100)

N_MODES = 4  # four-spin arms


class StepClock:
    """``metrics_out`` sink for ``training.train``: keeps each metrics line
    and each step's latency, one write per step.

    Every BLOCK steps it runs the reference kernel, outside the step times,
    so each block's latencies can be rescaled by the kernel times at its
    two ends (see reference.py).
    """

    BLOCK = 25

    def __init__(self):
        from reference import reference_ms
        self.lines: list[str] = []
        self.intervals: list[tuple] = []   # (start, end) of each step
        self.refs = [reference_ms()]
        self.resume = time.perf_counter()

    def write(self, text: str) -> None:
        from reference import reference_ms
        self.intervals.append((self.resume, time.perf_counter()))
        self.lines.append(text)
        if len(self.lines) % self.BLOCK == 0:
            self.refs.append(reference_ms())
        self.resume = time.perf_counter()

    def close(self) -> None:
        from reference import reference_ms
        if len(self.lines) % self.BLOCK:
            self.refs.append(reference_ms())

    def raw_ms(self) -> list[float]:
        return [1e3 * (end - start) for start, end in self.intervals]

    def scaled_ms(self) -> list[float]:
        from reference import scale
        return [1e3 * scale(end - start, self.refs[i // self.BLOCK],
                            self.refs[i // self.BLOCK + 1])
                for i, (start, end) in enumerate(self.intervals)]


class Run:
    def __init__(self, args, sizes: Sizes):
        self.args = args
        self.sizes = sizes
        self.work = Path(args.workdir)
        self.attempted = 0
        self.failures: list[str] = []
        self.step_ms: list[float] = []         # untraced measured steps, scaled
        self.untraced_raw_ms: list[float] = []
        self.traced_step_ms: list[float] = []  # raw
        self.traced_scaled_ms: list[float] = []
        self.step_windows: list = []           # StepClocks of traced reps
        self.traced_nodes = 0
        self.measured_reps = 0
        self.sample_s: list = []               # (scaled, raw) seconds
        self.eval_s: list = []
        self.energy_map_s: list = []
        self.quality: dict = {}
        self.result: dict = {}
        self.tracer = None
        self.checkpoint_2d = None              # a trained four-spin checkpoint

    # -- bookkeeping ---------------------------------------------------------

    def setup_done(self) -> bool:
        """Mark the end of set-up; False when only set-up was asked for."""
        from reference import reference_ms
        self.result["setup_end"] = time.monotonic()
        reference_ms()  # the first pass in a fresh process runs cold
        self.result["ref_at_setup_end"] = reference_ms()
        return not self.args.setup_only

    def op(self, name, fn, *args, **kwargs):
        """Run one operation; an exception or failed check counts as a failure.

        Garbage from earlier operations is collected first: tapes hold
        reference cycles, so otherwise the collector frees them at arbitrary
        points of later operations, which moves both their time and the
        peak memory from run to run.
        """
        gc.collect()
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as err:  # every failure is reported, none stops the run
            self.failures.append(f"{name}: {type(err).__name__}: {err}")
            return None

    def phase(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.phase = name

    def cli(self, span: str, argv: list) -> tuple[str, tuple]:
        """``dualebm.cli.main`` in-process; returns its stdout and its
        (scaled, raw) wall time in seconds."""
        from dualebm import cli
        from checks import CheckFailed
        from reference import Bracket

        out = io.StringIO()
        with Bracket() as timed, contextlib.redirect_stdout(out):
            start = time.perf_counter()
            code = cli.main([str(a) for a in argv])
            end = time.perf_counter()
        if self.tracer is not None:
            self.tracer.record(span, start, end)
        if code != 0:
            raise CheckFailed(f"dualebm {argv[0]} exited with code {code}")
        return out.getvalue(), (timed.scaled, timed.raw)

    # -- training ------------------------------------------------------------

    def timed_train(self, dem, gen, dataset, cfg, measured: bool, checkpoint_fn=None):
        """``training.train`` with the CLI's TrainConfig, one latency per step.

        In a traced run every other measured rep runs with the spans taken
        out, so traced and untraced step times come from the same process.
        """
        from dualebm import training
        from checks import check_metrics_lines

        tracer = self.tracer
        traced = tracer is not None and measured and self.measured_reps % 2 == 1
        paused = tracer is not None and measured and not traced
        if paused:
            tracer.uninstall()
        clock = StepClock()
        nodes_before = tracer.nodes if tracer is not None else 0
        try:
            state = training.train(dem, gen, dataset, cfg.train_config(),
                                   metrics_out=clock, checkpoint_fn=checkpoint_fn)
        finally:
            clock.close()
            if paused:
                from tracing import install_program_spans
                install_program_spans(tracer)
            if measured and clock.lines:
                self.measured_reps += 1
                if traced:
                    self.traced_step_ms += clock.raw_ms()
                    self.traced_scaled_ms += clock.scaled_ms()
                    self.step_windows.append(clock)
                    self.traced_nodes += tracer.nodes - nodes_before
                else:
                    self.untraced_raw_ms += clock.raw_ms()
                    self.step_ms += clock.scaled_ms()
        check_metrics_lines(clock.lines, 0, cfg.steps)
        return state

    def fourspin_config(self, seed: int):
        from dualebm.config import RunConfig
        return RunConfig(seed=seed, steps=self.sizes.quality_steps,
                         n_points=self.sizes.n_points)

    def fourspin_rep(self, seed: int, measured: bool, models=None) -> dict:
        """Train one default four-spin pair for the fixed budget, write and
        reload its checkpoint, and compute its quality block."""
        from dualebm import data_io
        import checks
        from quality import quality_block

        cfg = self.fourspin_config(seed)
        dataset, dem, gen = models or build_models(cfg)
        state = self.timed_train(dem, gen, dataset, cfg, measured)
        path = self.work / f"fourspin_{seed}_{self.attempted}.bin"
        data_io.save_checkpoint(path, data_io.Checkpoint(cfg.to_dict(), dem, gen, state))
        digest = checks.check_checkpoint_reload(path, dem, gen)
        q = quality_block(dem, gen, cfg, self.sizes.grid_n, self.sizes.tv_block,
                          self.sizes.quality_samples)
        return {"seed": seed, "path": path, "digest": digest, "quality": q}

    def quality_pairs(self, seed: int, measured: bool, first_models=None) -> None:
        """The fixed-budget quality block: quality_reps four-spin pairs, then a
        second run of the first seed that must match it bit for bit."""
        from checks import CheckFailed

        seeds = [seed * 1000 + r for r in range(self.sizes.quality_reps)]
        reps = []
        for r, s in enumerate(seeds):
            rep = self.op(f"four-spin pair seed {s}", self.fourspin_rep, s, measured,
                          first_models if r == 0 else None)
            if rep is not None:
                reps.append(rep)
        again = self.op(f"four-spin pair seed {seeds[0]} again", self.fourspin_rep,
                        seeds[0], measured)

        def same(a, b):
            if a is None or b is None or a["seed"] != b["seed"]:
                raise CheckFailed("no pair of same-seed runs to compare")
            if a["digest"] != b["digest"] or a["quality"] != b["quality"]:
                raise CheckFailed(f"seed {a['seed']}: two runs differ "
                                  f"({a['quality']} vs {b['quality']})")
        self.op("determinism", same, reps[0] if reps else None, again)
        if reps:
            self.checkpoint_2d = reps[0]["path"]
            self.quality = {key: statistics.median(r["quality"][key] for r in reps)
                            for key in reps[0]["quality"]}
            self.result["quality_reps"] = [r["quality"] for r in reps]

    def sample(self, checkpoint, n: int, d: int) -> None:
        import checks

        self.phase("sample")
        suffix = ".csv" if d == 2 else ".pgm"
        out = self.work / f"samples{suffix}"

        def once(timed: bool):
            _, seconds = self.cli("cli.sample", ["sample", "--checkpoint", checkpoint,
                                                 "--n", n, "--out", out])
            if d == 2:
                checks.check_points_csv(out, n, 2)
            else:
                checks.check_image_strip(out, n, 28)
            if timed:
                self.sample_s.append(seconds)

        self.op("sample (warm-up)", once, False)
        for _ in range(self.sizes.sample_repeats):
            self.op("sample", once, True)


def build_models(cfg):
    """Dataset and freshly initialised models, the way `dualebm train` makes them."""
    from dualebm import config as run_config
    from dualebm.training import rng_streams

    dem, gen = run_config.build_models(cfg)
    dataset = run_config.load_run_dataset(cfg, rng_streams(cfg.seed)["data"])
    return dataset, dem, gen


# --- workloads -------------------------------------------------------------------
# Each does its set-up, calls run.setup_done(), and returns early when only
# set-up is asked for. Everything after setup_done() is measured.

def fourspin_train(run: Run) -> None:
    seed = run.args.seed
    models = build_models(run.fourspin_config(seed * 1000))
    if not run.setup_done():
        return
    run.phase("train")
    start = time.perf_counter()
    run.quality_pairs(seed, measured=True, first_models=models)
    extra = 0
    while time.perf_counter() - start < run.args.seconds:
        extra += 1
        run.op("four-spin pair (timing only)", run.fourspin_rep,
               seed * 1000 + run.sizes.quality_reps + extra, True)
    if run.checkpoint_2d is not None:
        run.sample(run.checkpoint_2d, run.sizes.sample_n_2d, 2)


def fourspin_analyze(run: Run) -> None:
    import checks

    seed = run.args.seed
    ckpt_dir = run.work / "checkpoint"
    checkpoint = ckpt_dir / "checkpoint_final.bin"

    def train_checkpoint():
        from dualebm import data_io
        run.cli("cli.train", ["train", "--steps", run.sizes.analyze_train_steps,
                              "--seed", seed, "--n_points", run.sizes.n_points,
                              "--out_dir", ckpt_dir])
        lines = (ckpt_dir / "metrics.txt").read_text().splitlines()
        checks.check_metrics_lines(lines, 0, run.sizes.analyze_train_steps)
        loaded = data_io.load_checkpoint(checkpoint)
        run.result["checkpoint_digest"] = checks.model_digest(loaded.dem, loaded.gen)

    run.op("train checkpoint", train_checkpoint)
    if not run.setup_done():
        return
    run.phase("quality")
    run.quality_pairs(seed, measured=True)

    res = run.sizes.energy_map_res
    energy_map = run.work / "energy_map.csv"

    def evaluate():
        text, seconds = run.cli("cli.eval", ["eval", "--checkpoint", checkpoint,
                                             *run.sizes.eval_args])
        checks.parse_eval_report(text, N_MODES)
        run.eval_s.append(seconds)

    def draw_map():
        _, seconds = run.cli("cli.energy_map", ["energy-map", "--checkpoint", checkpoint,
                                                "--res", res, "--out", energy_map])
        checks.check_energy_map(energy_map, res)
        run.energy_map_s.append(seconds)

    start = time.perf_counter()
    while True:
        run.phase("analysis")
        run.op("eval", evaluate)
        run.op("energy-map", draw_map)
        run.sample(checkpoint, run.sizes.sample_n_2d, 2)
        if time.perf_counter() - start >= run.args.seconds:
            break


def wide_config(run: Run, seed: int, tag: str):
    from dualebm.config import RunConfig
    return RunConfig(dataset="mnist", mnist_images=run.args.idx_images,
                     mnist_labels=run.args.idx_labels,
                     mnist_limit=run.sizes.wide_images, seed=seed,
                     steps=run.sizes.wide_steps,
                     checkpoint_interval=run.sizes.wide_checkpoint_interval,
                     out_dir=str(run.work / f"wide_{tag}"))


def wide_train(run: Run) -> None:
    import shutil

    from dualebm import data_io
    import checks

    seed = run.args.seed
    first_cfg = wide_config(run, seed, "0")
    models = build_models(first_cfg)
    if not run.setup_done():
        return
    run.phase("quality")
    run.quality_pairs(seed, measured=False)

    def rep(cfg, models):
        dataset, dem, gen = models or build_models(cfg)
        out = Path(cfg.out_dir)
        out.mkdir(parents=True)

        def write(state, name):
            data_io.save_checkpoint(out / name,
                                    data_io.Checkpoint(cfg.to_dict(), dem, gen, state))

        state = run.timed_train(dem, gen, dataset, cfg, measured=True,
                                checkpoint_fn=lambda s: write(s, f"checkpoint_{s.step}.bin"))
        write(state, "checkpoint_final.bin")
        checks.check_periodic_checkpoints(out, cfg.steps, cfg.checkpoint_interval)
        digest = checks.check_checkpoint_reload(out / "checkpoint_final.bin", dem, gen)
        for periodic in out.glob("checkpoint_[0-9]*.bin"):
            periodic.unlink()
        return digest

    run.phase("train")
    start = time.perf_counter()
    first = run.op(f"784-d pair seed {seed}", rep, first_cfg, models)
    again = run.op(f"784-d pair seed {seed} again", rep,
                   wide_config(run, seed, "0again"), None)

    def same():
        if first is None or first != again:
            raise checks.CheckFailed(f"seed {seed}: two 784-d runs differ")
    run.op("determinism (784-d)", same)
    shutil.rmtree(run.work / "wide_0again", ignore_errors=True)
    tag = 0
    while time.perf_counter() - start < run.args.seconds:
        tag += 1
        cfg = wide_config(run, seed * 1000 + tag, str(tag))
        run.op(f"784-d pair seed {cfg.seed}", rep, cfg, None)
        shutil.rmtree(cfg.out_dir, ignore_errors=True)
    run.sample(Path(first_cfg.out_dir) / "checkpoint_final.bin",
               run.sizes.sample_n_wide, 784)


WORKLOADS = {"fourspin_train": fourspin_train, "fourspin_analyze": fourspin_analyze,
             "wide_train": wide_train}
TRAIN_PHASE = {"fourspin_train": "train", "fourspin_analyze": "quality",
               "wide_train": "train"}
MAIN_PHASES = {"fourspin_train": ("train", "sample"),
               "fourspin_analyze": ("analysis", "sample"),
               "wide_train": ("train", "sample")}


# --- per-layer metrics from spans --------------------------------------------------

def probe_layers(run: Run) -> None:
    """Call the layer functions a workload may not reach, on small fixed
    inputs, so every traced run reports every per-layer metric. A metric
    falls back to these spans only when the workload made no such call."""
    import numpy as np

    from dualebm import data_io
    from inputs import write_idx_pair

    run.phase("probe")
    images, labels = run.work / "probe-images.idx", run.work / "probe-labels.idx"
    write_idx_pair(images, labels, 256, 0)
    run.op("probe load_mnist_idx", data_io.load_mnist_idx, images, labels)
    points = np.random.default_rng(0).uniform(-1, 1, size=(2000, 2))
    run.op("probe save_points_csv", data_io.save_points_csv, run.work / "probe.csv", points)
    if run.checkpoint_2d is not None:
        run.op("probe eval", run.cli, "cli.eval",
               ["eval", "--checkpoint", run.checkpoint_2d, "--n", 1000, "--grid-n", 50])
        run.op("probe energy-map", run.cli, "cli.energy_map",
               ["energy-map", "--checkpoint", run.checkpoint_2d, "--res", 50,
                "--out", run.work / "probe-map.csv"])


def layer_metrics(run: Run, workload: str) -> dict:
    import numpy as np

    from microbench import prim_timings, record_us

    spans = [s for s in run.tracer.spans if s is not None]
    main = MAIN_PHASES[workload]

    def preferred(name, keep=lambda s: True):
        """Spans of `name` from the workload's main phases, else from any
        other phase, else from the probes."""
        found = [s for s in spans if s[0] == name and keep(s)]
        for choose in (lambda s: s[4] in main, lambda s: s[4] != "probe", lambda s: True):
            chosen = [s for s in found if choose(s)]
            if chosen:
                return chosen
        return []

    def median_ms(name, keep=lambda s: True):
        chosen = preferred(name, keep)
        return 1e3 * statistics.median(s[2] - s[1] for s in chosen) if chosen else float("nan")

    out = {}
    # Per-step numbers: spans starting inside a traced training step.
    train_phase = TRAIN_PHASE[workload]
    steps = [interval for clock in run.step_windows for interval in clock.intervals]
    starts = [start for start, _ in steps]
    per_step = [defaultdict(float) for _ in steps]
    calls = defaultdict(int)
    for name, start, end, parent, phase, info in spans:
        i = bisect_left(starts, start) - 1 if phase == train_phase else -1
        if i < 0 or start >= steps[i][1]:
            continue
        label = name if name != "generator_model.generate" else f"{name}.{info}"
        per_step[i][label] += end - start
        if parent == -1:
            per_step[i]["top_level"] += end - start
        calls[label] += 1

    def step_median_ms(label):
        return 1e3 * statistics.median(step[label] for step in per_step)

    n_steps = len(steps)
    out["training.traced_step_p50_ms"] = statistics.median(run.traced_step_ms)
    # Scaled, so that a host slowdown between the two halves does not count.
    out["tracing.step_overhead_ms"] = (statistics.median(run.traced_scaled_ms)
                                       - statistics.median(run.step_ms))
    out["training.dem_loss_gradient_ms"] = step_median_ms("training.dem_loss_gradient")
    out["training.dgm_loss_gradient_ms"] = step_median_ms("training.dgm_loss_gradient")
    out["training.adagrad_step_ms"] = median_ms(
        "training.adagrad_step", lambda s: s[4] == train_phase)
    out["training.adagrad_calls_per_step"] = calls["training.adagrad_step"] / n_steps
    out["training.sample_prior_ms"] = median_ms(
        "training.sample_prior", lambda s: s[4] == train_phase)
    out["training.loop_other_ms"] = 1e3 * statistics.median(
        (end - start) - step["top_level"] for (start, end), step in zip(steps, per_step))
    out["generator_model.generate_train_ms"] = median_ms(
        "generator_model.generate", lambda s: s[4] == train_phase and s[5] == "train")
    out["generator_model.generate_infer_ms"] = median_ms(
        "generator_model.generate", lambda s: s[4] == "sample" and s[5] == "infer")
    out["autodiff.nodes_per_step"] = run.traced_nodes / n_steps
    out["autodiff.backward_ms"] = step_median_ms("autodiff.backward")
    out["autodiff.record_us"] = record_us(run.sizes.record_n)
    out.update(prim_timings(run.sizes.prim_repeats))

    out["cli.import_ms"] = median_ms("cli.import")
    out["config.build_models_ms"] = median_ms("config.build_models")
    for name in ("make_dataset", "load_mnist_idx", "save_checkpoint", "load_checkpoint",
                 "save_points_csv"):
        out[f"data_io.{name}_ms"] = median_ms(f"data_io.{name}")
    sizes = [s[5] for s in preferred("data_io.save_checkpoint") if s[5]]
    out["data_io.checkpoint_bytes"] = statistics.median(sizes) if sizes else float("nan")

    big = preferred("energy_model.energy_values", lambda s: s[5] >= run.sizes.big_batch)
    out["energy_model.energy_values_points_per_s"] = (
        sum(s[5] for s in big) / sum(s[2] - s[1] for s in big) if big else float("nan"))

    kde_by_call = defaultdict(float)
    for s in preferred("evaluation.kde"):
        kde_by_call[s[3]] += s[2] - s[1]
    out["evaluation.kde_ms"] = (1e3 * statistics.median(kde_by_call.values())
                                if kde_by_call else float("nan"))
    for name in ("grid_log_density", "model_data_divergence", "mode_coverage",
                 "energy_heatmap", "export_image_grid"):
        out[f"evaluation.{name}_ms"] = median_ms(f"evaluation.{name}")
    for name in ("eval", "energy_map", "sample"):
        out[f"cli.{name}_ms"] = median_ms(f"cli.{name}")
    missing = [k for k, v in out.items() if not np.isfinite(v)]
    if missing:
        run.failures.append(f"per-layer metrics not measured: {missing}")
        run.attempted += 1
    return out


# --- end-to-end metrics ------------------------------------------------------------

def median_of(pairs, which: int):
    """Median of the scaled (0) or raw (1) halves of (scaled, raw) timings."""
    return statistics.median(p[which] for p in pairs) if pairs else None


def end_to_end(run: Run) -> tuple[dict, dict]:
    """Every end-to-end metric but setup_s (run.py adds it), and the same
    timings unscaled."""
    import numpy as np

    def steps(ms):
        if not ms:
            return {"steps_per_s": None, "step_ms_p50": None, "step_ms_p99": None}
        return {"steps_per_s": 1e3 / statistics.fmean(ms),
                "step_ms_p50": float(np.percentile(ms, 50)),
                "step_ms_p99": float(np.percentile(ms, 99))}

    metrics = {**steps(run.step_ms), "sample_s": median_of(run.sample_s, 0),
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
               **run.quality}
    raw = {**steps(run.untraced_raw_ms), "sample_s": median_of(run.sample_s, 1)}
    return metrics, raw


# --- entry point -------------------------------------------------------------------

def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = "unknown"
    return {"numpy": numpy.__version__, "scipy": scipy.__version__, "blas": openblas}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--idx-images", default="")
    parser.add_argument("--idx-labels", default="")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    run = Run(args, SMOKE if args.smoke else FULL)
    run.work.mkdir(parents=True, exist_ok=True)

    if args.trace:
        from tracing import Tracer
        run.tracer = Tracer()
    start = time.perf_counter()
    import dualebm.cli  # noqa: F401  (the whole program; its import is set-up)
    if run.tracer is not None:
        from tracing import install_program_spans
        run.tracer.record("cli.import", start, time.perf_counter())
        install_program_spans(run.tracer)

    WORKLOADS[args.workload](run)

    if not args.setup_only:
        if args.trace:
            probe_layers(run)
            run.tracer.uninstall()
            run.result["layers"] = layer_metrics(run, args.workload)
            run.tracer.dump(run.work / "spans.jsonl")
        else:
            run.result["metrics"], run.result["raw"] = end_to_end(run)
        run.result["report"] = {
            "eval_s": median_of(run.eval_s, 0), "eval_s_raw": median_of(run.eval_s, 1),
            "energy_map_s": median_of(run.energy_map_s, 0),
            "energy_map_s_raw": median_of(run.energy_map_s, 1),
            "measured_steps": len(run.step_ms) + len(run.traced_step_ms),
        }
        run.result["step_ms"] = run.step_ms
        run.result["sample_all_s"] = run.sample_s
        run.result["environment"] = environment()
    run.result["attempted"] = run.attempted
    run.result["failures"] = run.failures
    with open(args.result, "w") as f:
        json.dump(run.result, f, default=str)
    return 0


if __name__ == "__main__":
    sys.exit(main())
