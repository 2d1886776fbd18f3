"""The benchmark in ``perfbench/`` wraps the program's functions by name and
times the tape primitives; a renamed or deleted hook breaks it. These tests
load its modules as they are and run their hooks on the program."""

import importlib.util
import math
from pathlib import Path

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
