"""Synthetic MNIST-shaped IDX files, made from the workload seed.

Each 28x28 image is the sum of two or three Gaussian blobs at random
places with random widths, scaled to bytes. The program reads them through
its own ``mnist`` dataset path, so it sees nothing but the files.
"""

from __future__ import annotations

import struct

import numpy as np

SIDE = 28


def synthetic_images(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 784]))
    coords = np.arange(SIDE, dtype=np.float64)
    images = np.zeros((n, SIDE, SIDE))
    for blob in range(3):
        present = (rng.random(n) < 0.6) if blob == 2 else np.ones(n, bool)
        cy, cx = rng.uniform(5, SIDE - 5, size=(2, n))
        width = rng.uniform(1.5, 4.0, size=n)
        gy = np.exp(-0.5 * ((coords[None, :] - cy[:, None]) / width[:, None]) ** 2)
        gx = np.exp(-0.5 * ((coords[None, :] - cx[:, None]) / width[:, None]) ** 2)
        images += present[:, None, None] * gy[:, :, None] * gx[:, None, :]
    pixels = np.round(255.0 * np.clip(images, 0.0, 1.0)).astype(np.uint8)
    labels = rng.integers(0, 10, size=n).astype(np.uint8)
    return pixels, labels


def write_idx_pair(images_path, labels_path, n: int, seed: int) -> None:
    pixels, labels = synthetic_images(n, seed)
    with open(images_path, "wb") as f:
        f.write(struct.pack(">iiii", 0x00000803, n, SIDE, SIDE))
        f.write(pixels.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">ii", 0x00000801, n))
        f.write(labels.tobytes())
