"""Per-primitive timings on one-op tapes, at the shapes the two model
sizes use: 64x128 @ 128x128 (the default 2D model) and 64x784 @ 784x128
(the 784-d model). Each timing is forward + scalar sum + backward, so it
includes the tape's fixed cost of two extra nodes."""

from __future__ import annotations

import statistics
import time

import numpy as np

from dualebm import autodiff as ad


def _median_us(fn, repeats: int) -> float:
    fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e6


def _one_op(op, *params):
    def run():
        tape = ad.Tape()
        tape.backward(op(tape, *[tape.watch(p) for p in params]).sum())
    return run


def prim_timings(repeats: int) -> dict:
    rng = np.random.default_rng(0)
    out = {}
    for rows, inner, cols in ((64, 128, 128), (64, 784, 128)):
        a = ad.Parameter(rng.standard_normal((rows, inner)), "a")
        b = ad.Parameter(rng.standard_normal((inner, cols)) / np.sqrt(inner), "b")
        out[f"autodiff.matmul_{rows}x{inner}x{cols}_fwd_bwd_us"] = _median_us(
            _one_op(lambda tape, x, w: x @ w, a, b), repeats)
    for rows, width in ((64, 128), (64, 784)):
        x = ad.Parameter(rng.standard_normal((rows, width)), "x")
        shift = ad.Parameter(np.zeros(width), "shift")
        scale = ad.Parameter(np.ones(width), "scale")
        state = ad.BatchNormState.initial(width)
        ops = {
            "tanh": (lambda tape, v: ad.tanh(v), (x,)),
            "sigmoid": (lambda tape, v: ad.sigmoid(v), (x,)),
            "softplus": (lambda tape, v: ad.softplus(v), (x,)),
            "batch_norm": (lambda tape, v, s, c: ad.batch_norm(v, s, c, state, "train"),
                           (x, shift, scale)),
        }
        for name, (op, params) in ops.items():
            out[f"autodiff.{name}_{rows}x{width}_fwd_bwd_us"] = _median_us(
                _one_op(op, *params), repeats)
    return out


def record_us(n: int) -> float:
    """Cost of one recorded node: a 1-element add, averaged over n adds."""
    def run():
        tape = ad.Tape()
        a = tape.constant(np.ones(1))
        for _ in range(n):
            ad.add(a, a)
    return _median_us(run, 5) / n
