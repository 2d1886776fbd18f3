"""Shared assertions and tiny builders for the test suite."""

import struct

import numpy as np

from dualebm.autodiff import Parameter


def assert_grads_match(analytic, numeric, rtol, floor=0.01):
    """Per-coordinate |a - f| / max(floor, |a|, |f|) < rtol for every param.

    The floor turns the bound into an absolute one for vanishing gradients,
    where plain relative error would only measure finite-difference noise.
    """
    assert set(analytic) == set(numeric)
    for name in analytic:
        a = np.asarray(analytic[name])
        f = np.asarray(numeric[name])
        assert a.shape == f.shape, name
        denom = np.maximum(floor, np.maximum(np.abs(a), np.abs(f)))
        err = np.abs(a - f) / denom
        assert err.max() < rtol, f"{name}: worst error {err.max():.3e} >= {rtol}"


def param(values, name="p"):
    return Parameter(np.asarray(values, dtype=np.float64), name)


def grads_of(params):
    return {p.name: p.grad.copy() for p in params}


def write_idx_pair(tmp_path, count=10, rows=4, cols=3, pixel_fn=None):
    """Hand-rolled IDX writer: independent of the loader under test."""
    images = tmp_path / "images.idx"
    labels = tmp_path / "labels.idx"
    rng = np.random.default_rng(0)
    pixels = (pixel_fn(count, rows, cols) if pixel_fn is not None
              else rng.integers(0, 256, size=(count, rows, cols), dtype=np.uint8))
    with open(images, "wb") as f:
        f.write(struct.pack(">iiii", 0x00000803, count, rows, cols))
        f.write(pixels.tobytes())
    with open(labels, "wb") as f:
        f.write(struct.pack(">ii", 0x00000801, count))
        f.write(rng.integers(0, 10, size=count, dtype=np.uint8).tobytes())
    return images, labels, pixels
