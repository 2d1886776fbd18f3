"""The fixed-budget quality block of one trained four-spin model pair.

* cross_entropy_nats: held-out points (drawn as ``dualebm eval`` draws
  them) under the model normalised by ``energy_model.grid_log_density``.
* unassigned_frac: ``evaluation.mode_coverage`` of generator samples.
* gen_model_tv: total variation between the histogram of generator samples
  and the model's grid mass, on blocks of ``block`` x ``block`` grid nodes
  over the evaluation box; samples outside the box count as mismatch.
"""

from __future__ import annotations

import numpy as np

from dualebm import config as run_config
from dualebm import energy_model, evaluation, generator_model


def quality_block(dem, gen, cfg, grid_n: int, block: int, n_samples: int) -> dict:
    held_out = run_config.load_run_dataset(
        cfg, np.random.default_rng(np.random.SeedSequence(cfg.seed + 1)))
    bounds = run_config.dataset_bounds(cfg)
    _, log_p, log_z, _ = energy_model.grid_log_density(dem.energy_values, bounds, grid_n)
    cross_entropy = float(np.mean(dem.energy_values(held_out.points)) + log_z)

    z = generator_model.sample_prior(
        n_samples, gen.d_z, np.random.default_rng(np.random.SeedSequence([cfg.seed, 2])))
    samples = gen.generate(z, "infer")
    unassigned = evaluation.mode_coverage(samples, cfg.dataset)["unassigned"]

    # Grid node i sits at lo + i*h (node order is x-major, as in the
    # quadrature); a block's edges are half a step outside its end nodes.
    (lo, hi), _ = bounds
    h = (hi - lo) / (grid_n - 1)
    starts = np.arange(0, grid_n, block)
    edges = np.concatenate([[lo], lo + (starts[1:] - 0.5) * h, [hi]])
    mass = np.exp(log_p).reshape(grid_n, grid_n)
    model_blocks = np.add.reduceat(np.add.reduceat(mass, starts, axis=0), starts, axis=1)
    counts, _, _ = np.histogram2d(samples[:, 0], samples[:, 1], bins=[edges, edges])
    gen_blocks = counts / len(samples)
    outside = 1.0 - gen_blocks.sum()
    tv = 0.5 * (float(np.abs(gen_blocks - model_blocks).sum()) + outside)
    return {"cross_entropy_nats": cross_entropy, "unassigned_frac": unassigned,
            "gen_model_tv": tv}
