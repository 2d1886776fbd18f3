"""Command-line entry point.

Subcommands: train, sample, energy-map, interpolate, gradcheck, eval.
Every command is deterministic given (config, seed, checkpoint). Exit
codes: 0 success, 1 ``gradcheck`` error above its tolerance, 2
configuration problem, out-of-range argument, a report whose values leave
float range or a size too large for memory, 3 training abort on a
non-finite gradient or a singular entropy estimate (step number printed),
4 missing or corrupt checkpoint. ``train`` takes every RunConfig field as
an option (``dualebm train --help``), which overrides the field's value
in the ``--config`` JSON file or its default.
"""

from __future__ import annotations

import argparse
import math
import re
import shutil
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .config import (
    RunConfig,
    build_models,
    check_rules,
    config_from_dict,
    dataset_bounds,
    load_config,
    load_run_dataset,
    parse_field,
)
from .data_io import (
    SPIRAL_SPECS,
    Checkpoint,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
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
from .training import ABORTS, ConfigError, rng_streams, train

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONFINITE = 3
EXIT_CHECKPOINT = 4


def load_run_config(args) -> RunConfig:
    """The validated RunConfig of parsed ``dualebm train`` arguments: the
    ``--config`` JSON file (or the defaults), then the fields given as
    options."""
    config = load_config(args.config) if args.config else RunConfig()
    for name in vars(config):
        if hasattr(args, name):
            setattr(config, name, getattr(args, name))
    return config.validate()


def _argument(parse, **rules):
    """argparse type: ``parse`` of the text, held to ``rules``, when given, by
    ``check_rules`` (``train`` gives none: ``validate`` holds its fields).
    A refusal of either is a usage error (exit 2)."""
    def argument(text: str):
        try:
            value = parse(text)
            if rules:
                check_rules(value, rules)
        except ConfigError as err:
            raise argparse.ArgumentTypeError(str(err)) from None
        return value
    argument.__name__ = parse.__name__  # argparse's "invalid int value" names it
    return argument


# argparse reads an argument that starts with "-" as an option unless it
# matches its parser's negative-number pattern, which knows -1 and -1.5 but
# not -1e1, -1_0 or -inf. Every float spelling starts with a digit, a point
# and a digit, "inf" or "nan" after its sign; no option here does. Every
# subcommand takes it, so a value such as "--out -1.csv" is a value too.
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
    config = load_run_config(args)
    dem, gen = build_models(config)
    streams = rng_streams(config.seed)
    dataset = load_run_dataset(config, streams["data"])
    out_dir = Path(config.out_dir)

    def write_checkpoint(state, name):
        save_checkpoint(out_dir / name,
                        Checkpoint(config.to_dict(), dem, gen, state))

    # the outermost directory mkdir makes, if it makes one
    made = next((p for p in reversed([out_dir, *out_dir.parents]) if not p.exists()),
                None)
    with _output(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
        try:
            with open(out_dir / "metrics.txt", "w") as metrics:
                state = train(
                    dem, gen, dataset, config, metrics_out=metrics,
                    checkpoint_fn=lambda s: write_checkpoint(s, f"checkpoint_{s.step}.bin"))
        except MemoryError:
            # a batch too large for memory fails in the first step; a run
            # that ends no step is a refused config, and leaves nothing
            if (out_dir / "metrics.txt").stat().st_size == 0:
                if made:
                    shutil.rmtree(made)
                else:
                    (out_dir / "metrics.txt").unlink()
            raise
        write_checkpoint(state, "checkpoint_final.bin")
    print(f"trained {state.step} steps; outputs in {out_dir}")
    return EXIT_OK


def cmd_sample(args) -> int:
    checkpoint = load_checkpoint(args.checkpoint)
    gen = checkpoint.gen
    z = sample_prior(args.n, gen.d_z, np.random.default_rng(args.seed))
    samples = gen.generate(z, "infer")
    with _output(args.out):
        export_image_grid(samples, args.out)
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
        export_image_grid(path_points, args.out)
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
    if held_out.points.shape[0] <= held_out.points.shape[1]:
        raise ConfigError(
            f"eval fits a KDE to a held-out set of n_points={config.n_points} points, "
            f"which needs more than {held_out.points.shape[1]}; train with a larger "
            "n_points")
    z = sample_prior(args.n, checkpoint.gen.d_z, np.random.default_rng(args.seed))
    samples = checkpoint.gen.generate(z, "infer")
    with np.errstate(all="ignore"):  # every value is checked below
        coverage = mode_coverage(samples, config.dataset)
        divergence = model_data_divergence(
            checkpoint.dem.energy_values, held_out.points, dataset_bounds(config),
            args.grid_n)
        box = np.random.default_rng(args.seed + 1).uniform(
            held_out.points.min(), held_out.points.max(), size=(args.n, 2))
        e_probe = np.mean(checkpoint.dem.energy_values(box), dtype=np.float64)
        report = {
            "dataset": config.dataset,
            "unassigned": coverage["unassigned"],
            "cross_entropy": divergence["cross_entropy"],
            "kl_vs_kde": divergence["kl_vs_kde"],
            "energy_gap": float(e_probe - divergence["mean_energy"]),
        }
    for i, fraction in enumerate(coverage["fractions"]):
        report[f"mode_{i}"] = fraction
    for key, value in report.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"eval: {key} is {value}: the model's energies on "
                              f"{args.checkpoint}'s held-out data leave float range")
    for key, value in report.items():
        print(f"{key}={value}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualebm",
        description="Train an energy model and a sample generator against "
                    "each other; inspect the result.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser(
        "train", help="run the dual training loop", allow_abbrev=False,
        description="Each option overrides its field of --config. Lists are "
                    "comma-separated: --dem_hidden 128,128.")
    p_train.add_argument("--config", help="JSON config file")
    for name, default in vars(RunConfig()).items():
        field_type = _argument(lambda text, name=name: parse_field(name, text))
        p_train.add_argument(f"--{name}", type=field_type, default=argparse.SUPPRESS,
                             metavar=type(default).__name__.upper(),
                             help=f"default {default!r}")
    p_train.set_defaults(fn=cmd_train)

    p_sample = sub.add_parser("sample", help="draw generator samples")
    p_sample.add_argument("--checkpoint", required=True)
    p_sample.add_argument("--n", type=_argument(int, minimum=1), default=1000)
    p_sample.add_argument("--seed", type=_argument(int, minimum=0), default=0)
    p_sample.add_argument("--out", required=True)
    p_sample.set_defaults(fn=cmd_sample)

    p_map = sub.add_parser("energy-map", help="export an energy heatmap CSV")
    p_map.add_argument("--checkpoint", required=True)
    p_map.add_argument("--bounds", type=float, nargs=2, default=[-1.5, 1.5],
                       metavar=("LO", "HI"))
    p_map.add_argument("--res", type=_argument(int, minimum=2), default=200)
    p_map.add_argument("--out", required=True)
    p_map.set_defaults(fn=cmd_energy_map)

    p_interp = sub.add_parser("interpolate",
                              help="generate samples along a latent line")
    p_interp.add_argument("--checkpoint", required=True)
    p_interp.add_argument("--k", type=_argument(int, minimum=2), default=10)
    p_interp.add_argument("--seed", type=_argument(int, minimum=0), default=0)
    p_interp.add_argument("--out", required=True)
    p_interp.set_defaults(fn=cmd_interpolate)

    p_grad = sub.add_parser("gradcheck",
                            help="compare analytic gradients to central differences")
    p_grad.add_argument("--scale", type=_argument(float, above=0.0), default=1.0,
                        help="random init scale for the probe models")
    p_grad.add_argument("--seed", type=_argument(int, minimum=0), default=0)
    p_grad.set_defaults(fn=cmd_gradcheck)

    p_eval = sub.add_parser("eval", help="mode coverage and divergence metrics")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--n", type=_argument(int, minimum=1), default=5000)
    p_eval.add_argument("--seed", type=_argument(int, minimum=0), default=0)
    p_eval.add_argument("--grid-n", type=_argument(int, minimum=2), default=200)
    p_eval.set_defaults(fn=cmd_eval)
    for command in sub.choices.values():
        command._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_err:  # argparse reports its own usage errors
        code = exit_err.code or 0
        return EXIT_CONFIG if code == 2 else int(code)
    try:
        return args.fn(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except ABORTS as err:
        print(f"aborted: {err}", file=sys.stderr)
        return EXIT_NONFINITE
    except CheckpointError as err:
        print(f"checkpoint error: {err}", file=sys.stderr)
        return EXIT_CHECKPOINT
    except MemoryError as err:  # a size argument or field too large for this machine
        print(f"config error: not enough memory: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
