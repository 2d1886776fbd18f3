"""Quantitative stand-ins for the usual visual checks on 2D runs.

Energy surfaces become grids with exported min/max, sample quality becomes
arm-coverage fractions against the known generating curves, and density fit
becomes cross-entropy / KL numbers computed with the brute-force partition
quadrature. ``export_image_grid`` writes every generated file: heatmaps
and points as CSV, images as binary PGM strips so no codec is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import ROW_BLOCK, run_in_shares
from .data_io import SPIRAL_SPECS, arm_curve, save_points_csv
from .energy_model import EnergyModel, grid_log_density, logsumexp
from .generator_model import GeneratorModel, squared_distances

MODE_DISTANCE_THRESHOLD = 0.1  # in normalized data coordinates
KDE_BLOCK_FLOATS = 1 << 19     # 4 MiB: the most a KDE logpdf block holds


@dataclass
class HeatmapGrid:
    points: np.ndarray       # (ny * nx, 2) cell centers, x fastest
    values: np.ndarray       # (ny, nx) energies at those points
    vmin: float
    vmax: float


def energy_heatmap(dem: EnergyModel, bounds, resolution: int) -> HeatmapGrid:
    """Energies of a 2D energy model at the cell centers of a resolution-
    by-resolution grid over the bounds; never mutates the model."""
    (x_lo, x_hi), (y_lo, y_hi) = (tuple(map(float, b)) for b in bounds)
    centers = np.arange(resolution) + 0.5
    gx, gy = np.meshgrid(x_lo + centers * (x_hi - x_lo) / resolution,
                         y_lo + centers * (y_hi - y_lo) / resolution)
    points = np.column_stack([gx.ravel(), gy.ravel()])
    energies = dem.energy_values(points)
    values = np.asarray(energies, dtype=np.float64).reshape(resolution, resolution)
    return HeatmapGrid(points, values, float(values.min()), float(values.max()))


def latent_interpolation(gen: GeneratorModel, z_a: np.ndarray,
                         z_b: np.ndarray, k: int) -> np.ndarray:
    """Samples along the straight line between two latents, infer mode."""
    z_a = np.asarray(z_a, dtype=np.float64).ravel()
    z_b = np.asarray(z_b, dtype=np.float64).ravel()
    t = np.linspace(0.0, 1.0, k)[:, None]
    z = (1.0 - t) * z_a[None, :] + t * z_b[None, :]
    return gen.generate(z, "infer")


def mode_coverage(samples: np.ndarray, dataset_name: str) -> dict:
    """Fraction of samples nearest each arm, plus the off-manifold fraction.

    A sample belongs to the arm whose noiseless center line is closest; it
    is unassigned when even the closest arm is farther than
    ``MODE_DISTANCE_THRESHOLD``. Fractions and the unassigned share sum to
    one exactly.
    """
    samples = np.asarray(samples, dtype=np.float64)
    arms = SPIRAL_SPECS[dataset_name][0]
    distances = np.column_stack([nearest_distances(samples, arm_curve(dataset_name, arm))
                                 for arm in range(arms)])
    nearest = distances.argmin(axis=1)
    assigned = distances[np.arange(len(samples)), nearest] <= MODE_DISTANCE_THRESHOLD
    counts = np.bincount(nearest[assigned], minlength=arms)
    n = len(samples)
    return {
        "fractions": (counts / n).tolist(),
        "unassigned": float((n - counts.sum()) / n),
    }


def nearest_distances(points: np.ndarray, curve: np.ndarray) -> np.ndarray:
    """Euclidean distance from each row of points to the nearest row of
    curve: the root of the least of the exact squared distances
    (``generator_model.squared_distances``), so these are the bits of
    ``scipy.spatial.cKDTree.query``. The rows run serially in blocks of
    ``ROW_BLOCK`` rows, each block through the same two block-by-curve
    buffers, so the memory stays that of one block. Both are 2-d arrays
    with the same number of columns."""
    sq = np.empty((min(points.shape[0], ROW_BLOCK), curve.shape[0]))
    scratch = np.empty_like(sq)
    out = np.empty(points.shape[0])
    for start in range(0, points.shape[0], ROW_BLOCK):
        block = points[start:start + ROW_BLOCK]
        rows = block.shape[0]
        squared_distances(block, curve, sq[:rows], scratch[:rows]).min(
            axis=1, out=out[start:start + rows])
    return np.sqrt(out, out=out)


class gaussian_kde:
    """Gaussian kernel density estimate of the rows of ``points``, with
    ``scipy.stats.gaussian_kde``'s formula: Scott's bandwidth factor
    n^(-1/(d+4)) on the sample covariance (``np.cov``), whose scaled
    Cholesky factor L whitens the kernel, so that

        log q(x) = log((1/n) sum_i exp(-|L^-1 (x - x_i)|^2 / 2))
                   - (d/2) log(2 pi) - log det L.

    ``logpdf`` takes its points in blocks of at most ``ROW_BLOCK`` rows
    and ``KDE_BLOCK_FLOATS`` kernel values: one matmul gives each block
    row's inner products with the whitened sample, and one log-sum-exp,
    in place in that block buffer, sums the kernels. So it never holds the
    whole points-by-sample matrix, and eval's 10 000 held-out points take
    52-row blocks. Both sides are centred on the sample mean first, which
    keeps the expanded squares small where the kernels are large.

    The class is a module attribute, looked up as a global by
    ``model_data_divergence``, so that a profiler can replace it by name
    and reassign ``logpdf`` on what it returns (perfbench's
    ``evaluation.kde_ms`` does).
    """

    def __init__(self, points: np.ndarray):
        points = np.asarray(points, dtype=np.float64)
        n, d = points.shape
        chol = np.linalg.cholesky(np.atleast_2d(np.cov(points, rowvar=False)))
        chol *= n ** (-1.0 / (d + 4))
        self.mean = points.mean(axis=0)
        self.whiten = np.linalg.inv(chol).T   # rows @ whiten: L^-1 applied to each
        self.sample = (points - self.mean) @ self.whiten
        self.half_sq = 0.5 * np.square(self.sample).sum(axis=1)
        self.log_norm = (-math.log(n) - 0.5 * d * math.log(2.0 * math.pi)
                         - float(np.log(np.diag(chol)).sum()))

    def logpdf(self, x: np.ndarray) -> np.ndarray:
        """log q at each row of x."""
        x = np.asarray(x, dtype=np.float64)
        x = (x - self.mean) @ self.whiten
        n = self.sample.shape[0]
        rows = max(1, min(ROW_BLOCK, KDE_BLOCK_FLOATS // n))
        out = np.empty(x.shape[0])
        buf = np.empty((min(x.shape[0], rows), n))
        for start in range(0, x.shape[0], rows):
            block = x[start:start + rows]
            # -|x - x_i|^2 / 2 = x.x_i - |x_i|^2 / 2 - |x|^2 / 2; the last
            # term is the row's own and is added after the sum
            arg = np.matmul(block, self.sample.T, out=buf[:block.shape[0]])
            arg -= self.half_sq
            row_max = arg.max(axis=1)
            arg -= row_max[:, None]
            np.exp(arg, out=arg)
            out[start:start + block.shape[0]] = (
                np.log(arg.sum(axis=1)) + row_max - 0.5 * np.square(block).sum(axis=1))
        out += self.log_norm
        return out


def model_data_divergence(energy_fn, points: np.ndarray, bounds, grid_n: int) -> dict:
    """Cross-entropy of held-out points under the grid-normalized density
    exp(-energy_fn), and KL(model density || Gaussian KDE of the points)
    over the same grid; also the points' mean energy ``mean_energy``,
    accumulated in float64 so that float32 energies average within float64's
    range. energy_fn maps an (n, 2) array to its n energies.

    The KDE bandwidth is Scott's rule. Both densities are normalized with
    identical trapezoid weights, so the comparison is between two discrete
    distributions on the same support.
    """
    points = np.asarray(points, dtype=np.float64)
    grid_points, log_p, log_z, log_w = grid_log_density(energy_fn, bounds, grid_n)
    mean_energy = float(np.mean(energy_fn(points), dtype=np.float64))
    cross_entropy = float(mean_energy + log_z)

    kde = gaussian_kde(points)
    log_q = kde.logpdf(grid_points) + log_w
    log_q = log_q - logsumexp(log_q)
    p = np.exp(log_p)
    kl = float(np.sum(np.where(p > 0, p * (log_p - log_q), 0.0)))
    return {"cross_entropy": cross_entropy, "kl_vs_kde": kl,
            "mean_energy": mean_energy}


# --- exports ---------------------------------------------------------------------

def _write_sidecar(path, entries: dict) -> None:
    with open(str(path) + ".meta", "w") as f:
        for key, value in entries.items():
            f.write(f"{key}={value}\n")


def write_pgm(path, pixels: np.ndarray) -> None:
    """Binary 8-bit grayscale PGM (P5) of a 2-d uint8 array."""
    height, width = pixels.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        f.write(np.ascontiguousarray(pixels).data)


def read_pgm(path) -> np.ndarray:
    with open(path, "rb") as f:
        if f.readline().strip() != b"P5":
            raise ValueError(f"{path}: not a binary PGM file")
        width, height = map(int, f.readline().split())
        maxval = int(f.readline())
        if maxval != 255:
            raise ValueError(f"{path}: unsupported max value {maxval}")
        data = f.read(width * height)
    return np.frombuffer(data, dtype=np.uint8).reshape(height, width)


def export_image_grid(obj, path) -> None:
    """The one writer of generated files. A ``HeatmapGrid`` goes to an
    x,y,energy CSV of its points; rows whose width is the square of a side
    >= 2 go to a PGM strip of square image tiles; any other rows go to
    ``save_points_csv``. The name predates the last case and stays because
    profilers replace this function by name.

    Heatmap and image min/max go to a ``<path>.meta`` sidecar; a constant
    image is all zeros with the degenerate scale noted. Images keep their
    dtype (the 784-d models' are float32). Their min/max and their scaling
    in float64 into the one uint8 strip run a row block at a time on every
    usable core (``autodiff.run_in_shares``), so the export needs a
    quarter of float32 samples' memory, an eighth of float64 ones', not
    copies.
    """
    if isinstance(obj, HeatmapGrid):
        rows = np.column_stack([obj.points, np.ravel(obj.values)])
        save_points_csv(path, rows, columns=("x", "y", "energy"))
        _write_sidecar(path, {"vmin": repr(obj.vmin), "vmax": repr(obj.vmax)})
        return

    samples = np.asarray(obj)
    side = math.isqrt(samples.shape[1])
    if side < 2 or side * side != samples.shape[1]:
        save_points_csv(path, samples)
        return
    k = samples.shape[0]
    vmin, vmax = _value_range(samples)
    meta = {"vmin": repr(vmin), "vmax": repr(vmax), "tiles": k, "tile_side": side}
    strip = np.zeros((side, k * side), dtype=np.uint8)
    if vmax > vmin:
        _scale_into_tiles(samples, vmin, vmax,
                          strip.reshape(side, k, side).transpose(1, 0, 2))
    else:
        meta["degenerate_scale"] = "true"
    write_pgm(path, strip)
    _write_sidecar(path, meta)


def _value_range(samples: np.ndarray) -> tuple[float, float]:
    """``samples.min()`` and ``samples.max()`` as floats, from the extremes
    of each block of ``ROW_BLOCK`` rows, found on every usable core."""
    blocks = -(-samples.shape[0] // ROW_BLOCK)
    lows, highs = np.empty(blocks, samples.dtype), np.empty(blocks, samples.dtype)

    def share(starts: range) -> None:
        for start in starts:
            block = samples[start:start + ROW_BLOCK]
            lows[start // ROW_BLOCK] = block.min()
            highs[start // ROW_BLOCK] = block.max()

    run_in_shares(share, samples.shape[0])
    return float(lows.min()), float(highs.max())


def _scale_into_tiles(samples: np.ndarray, vmin: float, vmax: float,
                      tiles: np.ndarray) -> None:
    """round((samples - vmin) / (vmax - vmin) * 255), computed in float64
    whatever the samples' dtype, into the (k, side, side) uint8 view
    ``tiles``, ``ROW_BLOCK`` rows at a time on every usable core. Each
    share scales its blocks through one float64 buffer of its own, so the
    memory is the strip plus a few block arrays per share, and no
    full-size float temporary is made."""
    span = vmax - vmin

    def share(starts: range) -> None:
        buf = np.empty((min(samples.shape[0], ROW_BLOCK), samples.shape[1]))
        for start in starts:
            block = samples[start:start + ROW_BLOCK]
            scaled = buf[:block.shape[0]]
            scaled[...] = block     # exact; a ufunc casting it would buffer 64 KiB
            scaled -= vmin
            scaled /= span
            scaled *= 255.0
            np.round(scaled, out=scaled)
            tiles[start:start + ROW_BLOCK] = scaled.reshape(-1, *tiles.shape[1:])

    run_in_shares(share, samples.shape[0])


def read_sidecar(path) -> dict:
    out = {}
    with open(str(path) + ".meta") as f:
        for line in f:
            key, _, value = line.strip().partition("=")
            out[key] = value
    return out
