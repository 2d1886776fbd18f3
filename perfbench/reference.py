"""A fixed reference kernel that cancels host speed from the timings.

On a shared virtual machine the same code can run at one speed for a few
seconds and up to 1.9x slower for the next (measured on a 2-vCPU KVM
guest), and a whole run can land in a slow spell; process CPU time slows
down with it. Every timed region is
therefore bracketed by runs of this kernel, and its time is rescaled as

    scaled = measured * REFERENCE_MS / mean(kernel time before, kernel time after)

so it reads as milliseconds on a host where the kernel takes REFERENCE_MS.
The kernel is the benchmark's own code, a mix of small numpy operations and
Python object work like a training step's, and calls nothing in the
program: a change to the program moves the scaled times as it moves the
measured ones. Raw times are kept beside the scaled ones in every result.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_MS = 2.0   # kernel time in the fast state of the baseline machine

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((64, 128))
_W = _rng.standard_normal((128, 128)) / np.sqrt(128)


def reference_ms() -> float:
    start = time.perf_counter()
    for _ in range(8):
        kept = []
        h = _A @ _W
        t = np.tanh(h)
        s = np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))
        g = np.ones_like(s) * (1.0 - t * t)
        kept += [h, t, s, g, _A.T @ g, g @ _W.T]
        table = {i: (i, float(i)) for i in range(60)}
        kept.append(float(s.sum()) + sum(v for v, _ in table.values()))
    return 1e3 * (time.perf_counter() - start)


def scale(seconds: float, ref_before_ms: float, ref_after_ms: float) -> float:
    return seconds * REFERENCE_MS / (0.5 * (ref_before_ms + ref_after_ms))


class Bracket:
    """``with Bracket() as b: ...`` then ``b.raw`` and ``b.scaled`` seconds."""

    def __enter__(self):
        self.ref_before = reference_ms()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.raw = time.perf_counter() - self.start
        self.scaled = scale(self.raw, self.ref_before, reference_ms())
        return False
