"""The benchmark in ``perfbench/`` wraps the program's functions by name,
times the tape primitives, checks checkpoints against the models' layers
and scores a trained pair; a renamed or deleted hook breaks it. These tests
load its modules as they are and run their hooks on the program."""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from dualebm.config import RunConfig, build_models
from dualebm.data_io import Checkpoint, save_checkpoint
from dualebm.generator_model import sample_prior
from dualebm.training import TrainState

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_benchmark_patches_exists_and_is_put_back():
    import dualebm.cli  # noqa: F401  (the tracer wants the program imported)

    tracing = _load("tracing")
    tracer = tracing.Tracer()
    try:
        tracing.install_program_spans(tracer)
        patches = list(tracer._patches)
        assert patches
        for owner, attr, original in patches:
            assert getattr(owner, attr) is not original, attr
    finally:
        tracer.uninstall()
    for owner, attr, original in patches:
        assert getattr(owner, attr) is original, attr


def test_the_primitive_timings_run():
    microbench = _load("microbench")
    timings = microbench.prim_timings(1)
    assert timings and all(math.isfinite(t) and t > 0 for t in timings.values())
    record = microbench.record_us(2)
    assert math.isfinite(record) and record > 0


def test_a_saved_pair_passes_the_reload_check(tmp_path):
    """``check_checkpoint_reload`` digests every parameter and each batch-norm
    layer's running statistics, read through ``gen.layers``."""
    checks = _load("checks")
    dem, gen = build_models(RunConfig(dem_hidden=[8], gen_hidden=[8, 8]))
    gen.generate(sample_prior(16, gen.d_z, np.random.default_rng(0)), "train")
    path = tmp_path / "pair.bin"
    save_checkpoint(path, Checkpoint({}, dem, gen, TrainState.initial(0)))
    assert checks.check_checkpoint_reload(path, dem, gen) == checks.model_digest(dem, gen)
    gen.layers[1].bn_state.var[0] += 1.0
    with pytest.raises(checks.CheckFailed, match="differ"):
        checks.check_checkpoint_reload(path, dem, gen)


def test_the_quality_block_runs_at_a_tiny_size():
    quality = _load("quality")
    config = RunConfig(n_points=64, dem_hidden=[8], gen_hidden=[8])
    dem, gen = build_models(config)
    block = quality.quality_block(dem, gen, config, grid_n=12, block=4, n_samples=50)
    assert set(block) == {"cross_entropy_nats", "unassigned_frac", "gen_model_tv"}
    assert all(math.isfinite(value) for value in block.values())
    assert 0.0 <= block["unassigned_frac"] <= 1.0 and 0.0 <= block["gen_model_tv"] <= 1.0
