#!/usr/bin/env python3
"""End-to-end four-spin experiment: train the model pair, report coverage
and divergence numbers, export the energy map and generator samples.

Usage: python scripts/run_fourspin.py [out_dir] [--field value ...]

The options are ``dualebm train``'s (``dualebm train --help``); an
``--out_dir`` among them overrides the positional out_dir. Exits with the
first non-zero code of the four commands, or 0.
"""

import sys
from pathlib import Path

from dualebm.cli import build_parser
from dualebm.cli import main as cli_main


def run(out_dir: str, overrides) -> int:
    train_args = ["--dataset", "four_spin", "--out_dir", out_dir, *overrides]
    code = cli_main(["train", *train_args])
    if code != 0:
        return code

    run_dir = Path(build_parser().parse_args(["train", *train_args]).out_dir)
    ckpt = str(run_dir / "checkpoint_final.bin")
    for argv in (["energy-map", "--checkpoint", ckpt, "--res", "200",
                  "--out", str(run_dir / "energy_map.csv")],
                 ["sample", "--checkpoint", ckpt, "--n", "5000",
                  "--out", str(run_dir / "samples.csv")],
                 ["eval", "--checkpoint", ckpt]):
        code = cli_main(argv)
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    argv = sys.argv[1:]
    out_dir = argv.pop(0) if argv and not argv[0].startswith("--") else "runs/fourspin"
    sys.exit(run(out_dir, argv))
