"""Command-line entry point.

Subcommands: train, sample, energy-map, interpolate, gradcheck, eval.
Every command is deterministic given (config, seed, checkpoint). Exit
codes: 0 success, 2 configuration problem or out-of-range argument, 3
training abort on a non-finite gradient or a singular entropy estimate
(step number printed), 4 missing or corrupt checkpoint. The environment
variable DUALEBM_OUTDIR overrides the configured output directory.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .config import (
    RunConfig,
    apply_overrides,
    build_models,
    config_from_dict,
    dataset_bounds,
    load_config,
    load_run_dataset,
)
from .data_io import (
    SPIRAL_SPECS,
    Checkpoint,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
    save_points_csv,
)
from .evaluation import (
    energy_heatmap,
    export_image_grid,
    latent_interpolation,
    mode_coverage,
    model_data_divergence,
)
from .gradcheck import GRADCHECK_TOLERANCE, run_gradcheck
from .generator_model import SingularEntropyError, sample_prior
from .training import ConfigError, NonFiniteGradientError, rng_streams, train

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONFINITE = 3
EXIT_CHECKPOINT = 4


def load_run_config(config_path, overrides) -> RunConfig:
    """The validated RunConfig of ``dualebm train``: the JSON file (or the
    defaults), then ``--field value`` overrides, then DUALEBM_OUTDIR."""
    config = load_config(config_path) if config_path else RunConfig()
    pairs = []
    leftover = list(overrides)
    while leftover:
        key = leftover.pop(0)
        if not key.startswith("--") or not leftover:
            raise ConfigError(f"overrides must be '--key value' pairs, got {key!r}")
        pairs.append((key[2:].replace("-", "_"), leftover.pop(0)))
    apply_overrides(config, pairs)
    outdir_env = os.environ.get("DUALEBM_OUTDIR")
    if outdir_env:
        config.out_dir = outdir_env
    return config.validate()


def _at_least(minimum: int):
    """argparse type: an int no smaller than ``minimum``; anything else is
    a usage error (exit 2)."""
    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _positive_float(text: str) -> float:
    """argparse type: a positive finite float, else a usage error (exit 2)."""
    value = float(text)
    if not 0.0 < value < math.inf:  # false for NaN too
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text}")
    return value


_positive_float.__name__ = "float"  # argparse names the type in "invalid float value"

# argparse reads an argument that starts with "-" as an option unless it
# matches its parser's negative-number pattern, which knows -1 and -1.5 but
# not -1e1, -1_0 or -inf. Every float spelling starts with a digit, a point
# and a digit, "inf" or "nan" after its sign; no option here does.
_NEGATIVE_NUMBER = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)


def _open_2d_checkpoint(path, command: str) -> Checkpoint:
    """The checkpoint at ``path``, whose energy model must take 2D points:
    ``eval`` and ``energy-map`` are defined on the plane only."""
    checkpoint = load_checkpoint(path)
    if checkpoint.dem.d_in != 2:
        raise ConfigError(f"{command} is defined for 2D models only; {path} "
                          f"holds a model of {checkpoint.dem.d_in} dimensions")
    return checkpoint


def _stored_2d_config(checkpoint: Checkpoint, path) -> RunConfig:
    """The checkpoint's stored run config, validated, whose dataset must be
    a 2D spiral; a config that fails is part of a corrupt checkpoint."""
    try:
        config = config_from_dict(checkpoint.config, source="checkpoint config")
        config.validate()
    except ConfigError as err:
        raise CheckpointError(f"{path}: invalid stored config: {err}") from None
    if config.dataset not in SPIRAL_SPECS:
        raise CheckpointError(f"{path}: invalid stored config: dataset "
                              f"{config.dataset!r} is not a 2D dataset")
    return config


@contextmanager
def _output(path):
    """Report a failure to write to ``path`` (a missing directory, a
    regular file where a directory should be, no permission) as a usage
    error naming the path."""
    try:
        yield
    except OSError as err:
        raise ConfigError(f"cannot write {path}: {err.strerror or err}") from None


def cmd_train(args) -> int:
    config = load_run_config(args.config, args.overrides)
    dem, gen = build_models(config)
    streams = rng_streams(config.seed)
    dataset = load_run_dataset(config, streams["data"])
    out_dir = Path(config.out_dir)

    def write_checkpoint(state, name):
        save_checkpoint(out_dir / name,
                        Checkpoint(config.to_dict(), dem, gen, state))

    with _output(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "metrics.txt", "w") as metrics:
            state = train(
                dem, gen, dataset, config, metrics_out=metrics,
                checkpoint_fn=lambda s: write_checkpoint(s, f"checkpoint_{s.step}.bin"))
        write_checkpoint(state, "checkpoint_final.bin")
    print(f"trained {state.step} steps; outputs in {out_dir}")
    return EXIT_OK


def _write_generated(path, points: np.ndarray) -> None:
    """Generated rows as a PGM strip when their width is the square of a
    side >= 2 (images), as CSV otherwise (2D points)."""
    side = int(round(np.sqrt(points.shape[1])))
    if side >= 2 and side * side == points.shape[1]:
        export_image_grid(points, path)
    else:
        save_points_csv(path, points)


def cmd_sample(args) -> int:
    checkpoint = load_checkpoint(args.checkpoint)
    gen = checkpoint.gen
    z = sample_prior(args.n, gen.d_z, np.random.default_rng(args.seed))
    samples = gen.generate(z, "infer")
    with _output(args.out):
        _write_generated(args.out, samples)
    print(f"wrote {samples.shape[0]} samples to {args.out}")
    return EXIT_OK


def cmd_energy_map(args) -> int:
    lo, hi = args.bounds
    if not -math.inf < lo < hi < math.inf:  # false for NaN too
        raise ConfigError(f"--bounds must be finite with LO < HI, got {lo} {hi}")
    checkpoint = _open_2d_checkpoint(args.checkpoint, "energy-map")
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        grid = energy_heatmap(checkpoint.dem, [(lo, hi), (lo, hi)], args.res)
    if not np.isfinite(grid.values).all():
        raise ConfigError(f"--bounds {lo} {hi}: the energy overflows on that box; "
                          "give smaller bounds")
    with _output(args.out):
        export_image_grid(grid, args.out)
    print(f"wrote {args.res}x{args.res} energy map to {args.out} "
          f"(min {grid.vmin:.4f}, max {grid.vmax:.4f})")
    return EXIT_OK


def cmd_interpolate(args) -> int:
    checkpoint = load_checkpoint(args.checkpoint)
    gen = checkpoint.gen
    rng = np.random.default_rng(args.seed)
    z = sample_prior(2, gen.d_z, rng)
    path_points = latent_interpolation(gen, z[0], z[1], args.k)
    with _output(args.out):
        _write_generated(args.out, path_points)
    print(f"wrote {args.k}-step interpolation to {args.out}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    try:
        worst, breakdown = run_gradcheck(seed=args.seed, scale=args.scale)
    except SingularEntropyError as err:
        # the probe models collapse at this scale: no gradient to check
        print(f"argument --scale: {args.scale!r} is out of range ({err})",
              file=sys.stderr)
        return EXIT_CONFIG
    for name, err in breakdown.items():
        print(f"{name}: worst relative error {err:.3e}")
    print(f"worst relative error {worst:.3e} "
          f"({'OK' if worst < GRADCHECK_TOLERANCE else 'FAIL'}, "
          f"tolerance {GRADCHECK_TOLERANCE:.0e})")
    return EXIT_OK if worst < GRADCHECK_TOLERANCE else 1


def cmd_eval(args) -> int:
    checkpoint = _open_2d_checkpoint(args.checkpoint, "eval")
    config = _stored_2d_config(checkpoint, args.checkpoint)
    held_out = load_run_dataset(
        config, np.random.default_rng(np.random.SeedSequence(config.seed + 1)))
    z = sample_prior(args.n, checkpoint.gen.d_z, np.random.default_rng(args.seed))
    samples = checkpoint.gen.generate(z, "infer")
    coverage = mode_coverage(samples, config.dataset)
    divergence = model_data_divergence(
        checkpoint.dem, held_out.points, dataset_bounds(config), args.grid_n)
    e_data = checkpoint.dem.energy_values(held_out.points).mean()
    box = np.random.default_rng(args.seed + 1).uniform(
        held_out.points.min(), held_out.points.max(), size=(args.n, 2))
    e_probe = checkpoint.dem.energy_values(box).mean()
    report = {
        "dataset": config.dataset,
        "unassigned": coverage["unassigned"],
        "cross_entropy": divergence["cross_entropy"],
        "kl_vs_kde": divergence["kl_vs_kde"],
        "energy_gap": float(e_probe - e_data),
    }
    for i, fraction in enumerate(coverage["fractions"]):
        report[f"mode_{i}"] = fraction
    for key, value in report.items():
        print(f"{key}={value}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualebm",
        description="Train an energy model and a sample generator against "
                    "each other; inspect the result.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run the dual training loop")
    p_train.add_argument("--config", help="JSON config file")
    p_train.set_defaults(fn=cmd_train, overrides=[])

    p_sample = sub.add_parser("sample", help="draw generator samples")
    p_sample.add_argument("--checkpoint", required=True)
    p_sample.add_argument("--n", type=_at_least(1), default=1000)
    p_sample.add_argument("--seed", type=_at_least(0), default=0)
    p_sample.add_argument("--out", required=True)
    p_sample.set_defaults(fn=cmd_sample)

    p_map = sub.add_parser("energy-map", help="export an energy heatmap CSV")
    p_map.add_argument("--checkpoint", required=True)
    p_map.add_argument("--bounds", type=float, nargs=2, default=[-1.5, 1.5],
                       metavar=("LO", "HI"))
    p_map._negative_number_matcher = _NEGATIVE_NUMBER
    p_map.add_argument("--res", type=_at_least(2), default=200)
    p_map.add_argument("--out", required=True)
    p_map.set_defaults(fn=cmd_energy_map)

    p_interp = sub.add_parser("interpolate",
                              help="generate samples along a latent line")
    p_interp.add_argument("--checkpoint", required=True)
    p_interp.add_argument("--k", type=_at_least(2), default=10)
    p_interp.add_argument("--seed", type=_at_least(0), default=0)
    p_interp.add_argument("--out", required=True)
    p_interp.set_defaults(fn=cmd_interpolate)

    p_grad = sub.add_parser("gradcheck",
                            help="compare analytic gradients to central differences")
    p_grad.add_argument("--scale", type=_positive_float, default=1.0,
                        help="random init scale for the probe models")
    p_grad.add_argument("--seed", type=_at_least(0), default=0)
    p_grad.set_defaults(fn=cmd_gradcheck)

    p_eval = sub.add_parser("eval", help="mode coverage and divergence metrics")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--n", type=_at_least(1), default=5000)
    p_eval.add_argument("--seed", type=_at_least(0), default=0)
    p_eval.add_argument("--grid-n", type=_at_least(2), default=200)
    p_eval.set_defaults(fn=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
    except SystemExit as exit_err:  # argparse reports its own usage errors
        code = exit_err.code or 0
        return EXIT_CONFIG if code == 2 else int(code)
    if args.fn is cmd_train:
        args.overrides = extra  # --field value pairs, validated against RunConfig
    elif extra:
        print(f"unrecognized arguments: {' '.join(extra)}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return args.fn(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (NonFiniteGradientError, SingularEntropyError) as err:
        print(f"aborted: {err}", file=sys.stderr)
        return EXIT_NONFINITE
    except CheckpointError as err:
        print(f"checkpoint error: {err}", file=sys.stderr)
        return EXIT_CHECKPOINT


if __name__ == "__main__":
    sys.exit(main())
