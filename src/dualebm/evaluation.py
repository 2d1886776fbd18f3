"""Quantitative stand-ins for the usual visual checks on 2D runs.

Energy surfaces become grids with exported min/max, sample quality becomes
arm-coverage fractions against the known generating curves, and density fit
becomes cross-entropy / KL numbers computed with the brute-force partition
quadrature. Image-shaped samples are written as binary PGM strips so no
codec is involved.

scipy is imported inside the functions that use it (``mode_coverage``,
``gaussian_kde``, ``model_data_divergence``), not with the module:
importing ``scipy.stats`` takes ~0.64 s (2-core Xeon, after numpy), and
only ``eval`` needs it, while every command imports this module. A
module-level scipy import fails
``test_commands_that_need_no_scipy_never_import_it`` in tests/test_cli.py.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_io import SPIRAL_SPECS, arm_curve
from .energy_model import grid_log_density
from .generator_model import GeneratorModel

MODE_DISTANCE_THRESHOLD = 0.1  # in normalized data coordinates


@dataclass
class HeatmapGrid:
    bounds: tuple            # ((x_lo, x_hi), (y_lo, y_hi))
    resolution: tuple        # (nx, ny)
    values: np.ndarray       # (ny, nx) energies at cell centers
    vmin: float
    vmax: float


def _as_energy_fn(model_or_fn):
    fn = getattr(model_or_fn, "energy_values", model_or_fn)
    if not callable(fn):
        raise TypeError("need an energy model or an energy callable")
    return fn


def energy_heatmap(dem, bounds, resolution) -> HeatmapGrid:
    """Energies at the cell centers of a 2D grid; never mutates the model."""
    d_in = getattr(dem, "d_in", 2)
    if d_in != 2:
        raise ValueError(f"heatmaps need a 2-dimensional model, got d_in={d_in}")
    (x_lo, x_hi), (y_lo, y_hi) = [tuple(map(float, b)) for b in bounds]
    nx, ny = (resolution, resolution) if np.isscalar(resolution) else resolution
    if nx < 2 or ny < 2:
        raise ValueError(f"resolution must be >= 2 per dimension, got {nx}x{ny}")
    bounds = ((x_lo, x_hi), (y_lo, y_hi))
    xs, ys = _cell_centers(bounds, (nx, ny))
    gx, gy = np.meshgrid(xs, ys)
    energies = _as_energy_fn(dem)(np.column_stack([gx.ravel(), gy.ravel()]))
    values = np.asarray(energies, dtype=np.float64).reshape(ny, nx)
    return HeatmapGrid(bounds, (nx, ny), values,
                       float(values.min()), float(values.max()))


def _cell_centers(bounds, resolution) -> tuple[np.ndarray, np.ndarray]:
    """x and y centres of the cells of an nx-by-ny grid over the bounds."""
    (x_lo, x_hi), (y_lo, y_hi) = bounds
    nx, ny = resolution
    xs = x_lo + (np.arange(nx) + 0.5) * (x_hi - x_lo) / nx
    ys = y_lo + (np.arange(ny) + 0.5) * (y_hi - y_lo) / ny
    return xs, ys


def latent_interpolation(gen: GeneratorModel, z_a: np.ndarray,
                         z_b: np.ndarray, k: int) -> np.ndarray:
    """Samples along the straight line between two latents, infer mode."""
    if k < 2:
        raise ValueError(f"need at least the two endpoints, got k={k}")
    z_a = np.asarray(z_a, dtype=np.float64).ravel()
    z_b = np.asarray(z_b, dtype=np.float64).ravel()
    t = np.linspace(0.0, 1.0, k)[:, None]
    z = (1.0 - t) * z_a[None, :] + t * z_b[None, :]
    return gen.generate(z, "infer")


def mode_coverage(samples: np.ndarray, dataset_name: str,
                  threshold: float = MODE_DISTANCE_THRESHOLD) -> dict:
    """Fraction of samples nearest each arm, plus the off-manifold fraction.

    A sample belongs to the arm whose noiseless center line is closest; it
    is unassigned when even the closest arm is farther than the threshold.
    Fractions and the unassigned share sum to one exactly.
    """
    from scipy.spatial import cKDTree

    if dataset_name not in SPIRAL_SPECS:
        raise ValueError(f"no mode-assignment rule for dataset {dataset_name!r}")
    samples = np.asarray(samples, dtype=np.float64)
    arms = SPIRAL_SPECS[dataset_name][0]
    trees = [cKDTree(arm_curve(dataset_name, arm)) for arm in range(arms)]
    distances = np.column_stack([tree.query(samples)[0] for tree in trees])
    nearest = distances.argmin(axis=1)
    assigned = distances[np.arange(len(samples)), nearest] <= threshold
    counts = np.bincount(nearest[assigned], minlength=arms)
    n = len(samples)
    return {
        "fractions": (counts / n).tolist(),
        "unassigned": float((n - counts.sum()) / n),
        "threshold": threshold,
        "n_samples": n,
    }


def gaussian_kde(points: np.ndarray):
    """``scipy.stats.gaussian_kde(points)``, with scipy.stats imported on the
    first call rather than with this module.

    It is a module attribute, looked up as a global by
    ``model_data_divergence``, so that a profiler can replace it by name to
    time the KDE (perfbench's ``evaluation.kde_ms`` does).
    """
    from scipy.stats import gaussian_kde as scipy_gaussian_kde
    return scipy_gaussian_kde(points)


def model_data_divergence(dem, points: np.ndarray, bounds, grid_n: int) -> dict:
    """Cross-entropy of held-out points under the grid-normalized model, and
    KL(model density || Gaussian KDE of the points) over the same grid.

    The KDE bandwidth is Scott's rule. Both densities are normalized with
    identical trapezoid weights, so the comparison is between two discrete
    distributions on the same support.
    """
    from scipy.special import logsumexp

    energy_fn = _as_energy_fn(dem)
    points = np.asarray(points, dtype=np.float64)
    grid_points, log_p, log_z, log_w = grid_log_density(energy_fn, bounds, grid_n)
    cross_entropy = float(np.mean(energy_fn(points)) + log_z)

    kde = gaussian_kde(points.T)
    log_q = kde.logpdf(grid_points.T) + log_w
    log_q = log_q - logsumexp(log_q)
    p = np.exp(log_p)
    kl = float(np.sum(np.where(p > 0, p * (log_p - log_q), 0.0)))
    return {"cross_entropy": cross_entropy, "kl_vs_kde": kl, "log_z": log_z}


# --- exports ---------------------------------------------------------------------

def _write_sidecar(path, entries: dict) -> None:
    with open(str(path) + ".meta", "w") as f:
        for key, value in entries.items():
            f.write(f"{key}={value}\n")


def write_pgm(path, pixels: np.ndarray) -> None:
    """Binary 8-bit grayscale PGM (P5)."""
    pixels = np.asarray(pixels)
    if pixels.dtype != np.uint8:
        raise ValueError("PGM writer expects uint8 pixels")
    height, width = pixels.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        f.write(pixels.tobytes())


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
    """Heatmaps go to CSV, image-row samples to a PGM strip of square tiles.

    Min/max scaling is recorded in a ``<path>.meta`` sidecar; a constant
    input produces a zero image with the degenerate scale noted.
    """
    if isinstance(obj, HeatmapGrid):
        xs, ys = _cell_centers(obj.bounds, obj.resolution)
        x_text = [repr(x) for x in xs.tolist()]
        values = np.asarray(obj.values, dtype=np.float64).tolist()
        with open(path, "w") as f:
            f.write("x,y,energy\n")
            for y, row in zip(ys.tolist(), values):
                f.write("".join(f"{x},{y!r},{v!r}\n" for x, v in zip(x_text, row)))
        _write_sidecar(path, {"vmin": repr(obj.vmin), "vmax": repr(obj.vmax)})
        return

    samples = np.asarray(obj, dtype=np.float64)
    if samples.ndim != 2:
        raise ValueError(f"expected (k, pixels) samples, got shape {samples.shape}")
    side = int(round(np.sqrt(samples.shape[1])))
    if side * side != samples.shape[1]:
        raise ValueError(
            f"samples of width {samples.shape[1]} are not square images")
    vmin, vmax = float(samples.min()), float(samples.max())
    meta = {"vmin": repr(vmin), "vmax": repr(vmax),
            "tiles": samples.shape[0], "tile_side": side}
    if vmax > vmin:
        scaled = np.round((samples - vmin) / (vmax - vmin) * 255.0)
    else:
        scaled = np.zeros_like(samples)
        meta["degenerate_scale"] = "true"
    strip = (scaled.astype(np.uint8)
             .reshape(samples.shape[0], side, side)
             .transpose(1, 0, 2)
             .reshape(side, samples.shape[0] * side))
    write_pgm(path, strip)
    _write_sidecar(path, meta)


def read_sidecar(path) -> dict:
    out = {}
    with open(str(path) + ".meta") as f:
        for line in f:
            key, _, value = line.strip().partition("=")
            out[key] = value
    return out
