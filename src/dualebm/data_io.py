"""Synthetic 2D datasets, MNIST IDX ingestion, and checkpoint persistence.

The spiral family is parameterized by arc length t: a point on arm k of an
m-armed figure is t*(cos(t + 2*pi*k/m), sin(t + 2*pi*k/m)) / t_max, plus
isotropic Gaussian noise. Dividing by the arm's own t_max keeps every
dataset inside the unit disk regardless of arm length.

Checkpoints are a single binary container: magic, version word, a
length-prefixed JSON header (config, architectures, step, RNG states,
tensor manifest) followed by raw little-endian float64 tensor blocks in
manifest order: parameters, batch-norm statistics and AdaGrad
accumulators (each model's ``store.acc``), one block per parameter name.
A model's accumulator blocks are left out while the accumulator is all
zero, as before the model's first update, and absent ones load as zero.
Saving writes each array's buffer to a temp file renamed atomically. Loading
checks the header and the file size, builds the models, then walks the
manifest once: a block named for a model array is shape-checked and read
from the file straight into it, any other is skipped, and a parameter or
batch-norm statistic no block names is missing. No copy of the file is
held. Models load bit-exactly.
"""

from __future__ import annotations

import json
import math
import os
import struct
import sys
import tempfile
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .autodiff import ROW_BLOCK
from .energy_model import EnergyModel
from .generator_model import GeneratorModel
from .training import TrainState

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

CHECKPOINT_MAGIC = b"DUALEBM\x00"
CHECKPOINT_VERSION = 1
HEADER_KEYS = ("config", "dem", "gen", "state", "tensors")

# (number of arms, t_min, t_max) per named 2D dataset. Arms sit at equal
# angular offsets, so four-spin's distribution is unchanged by a quarter turn.
SPIRAL_SPECS = {
    "two_spiral": (2, 0.25, 3.0 * math.pi),
    "four_spin": (4, 0.25, 1.5 * math.pi),
}


class IdxFormatError(ValueError):
    """Malformed IDX file: bad magic, truncation, or image/label mismatch."""


class CheckpointError(ValueError):
    """Unreadable checkpoint: wrong magic or version, truncated, or malformed."""


@dataclass
class Dataset:
    points: np.ndarray
    name: str
    labels: Optional[np.ndarray] = None

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64)
        if self.points.ndim != 2 or self.points.shape[0] < 1:
            raise ValueError(f"points must be a nonempty (n, d) array, "
                             f"got shape {self.points.shape}")
        if not np.all(np.isfinite(self.points)):
            raise ValueError("dataset contains non-finite points")


def _spiral_points(t: np.ndarray, arm, arms: int, t_max: float) -> np.ndarray:
    """t*(cos, sin)(t + 2*pi*arm/arms)/t_max per entry of t (and of arm, if an array)."""
    angle = t + 2.0 * math.pi * arm / arms
    return t[:, None] * np.column_stack([np.cos(angle), np.sin(angle)]) / t_max


def arm_curve(name: str, arm: int, num: int = 2000) -> np.ndarray:
    """Dense noiseless sampling of one arm's center line."""
    arms, t_min, t_max = SPIRAL_SPECS[name]
    return _spiral_points(np.linspace(t_min, t_max, num), arm, arms, t_max)


def make_dataset(name: str, n: int, noise_sd: float,
                 rng: np.random.Generator) -> Dataset:
    if name not in SPIRAL_SPECS:
        raise ValueError(f"unknown dataset {name!r}")
    arms, t_min, t_max = SPIRAL_SPECS[name]
    if n < arms:
        raise ValueError(f"need n >= {arms}, got {n}")
    if noise_sd < 0:
        raise ValueError(f"noise_sd must be >= 0, got {noise_sd}")
    arm = np.arange(n) % arms          # balanced within +/- 1 per arm
    points = _spiral_points(rng.uniform(t_min, t_max, size=n), arm, arms, t_max)
    if noise_sd > 0:
        points = points + rng.normal(0.0, noise_sd, size=points.shape)
    return Dataset(points, name, labels=arm.copy())


# --- MNIST IDX ----------------------------------------------------------------

def _read_exact(f, count: int, path: str) -> bytes:
    data = f.read(count)
    if len(data) != count:
        raise IdxFormatError(
            f"{path}: truncated file, wanted {count} bytes, got {len(data)}")
    return data


def load_mnist_idx(images_path, labels_path) -> Dataset:
    """Standard big-endian IDX pair; pixels rescaled from bytes to [0, 1]."""
    with open(images_path, "rb") as f:
        magic, count, rows, cols = struct.unpack(">iiii", _read_exact(f, 16, str(images_path)))
        if magic != IDX_IMAGES_MAGIC:
            raise IdxFormatError(
                f"{images_path}: bad magic 0x{magic:08x}, "
                f"expected 0x{IDX_IMAGES_MAGIC:08x}")
        raw = _read_exact(f, count * rows * cols, str(images_path))
    pixels = np.frombuffer(raw, dtype=np.uint8).reshape(count, rows * cols)

    with open(labels_path, "rb") as f:
        magic, label_count = struct.unpack(">ii", _read_exact(f, 8, str(labels_path)))
        if magic != IDX_LABELS_MAGIC:
            raise IdxFormatError(
                f"{labels_path}: bad magic 0x{magic:08x}, "
                f"expected 0x{IDX_LABELS_MAGIC:08x}")
        labels = np.frombuffer(_read_exact(f, label_count, str(labels_path)),
                               dtype=np.uint8)
    if label_count != count:
        raise IdxFormatError(
            f"count mismatch: {count} images but {label_count} labels")
    return Dataset(pixels.astype(np.float64) / 255.0, "mnist",
                   labels=labels.astype(np.int64))


def save_points_csv(path, points: np.ndarray) -> None:
    """One header line x0,x1,... and one line per row, each value written
    as its shortest round-tripping repr; the rows are formatted and written
    a block of ``ROW_BLOCK`` at a time."""
    points = np.asarray(points, dtype=np.float64)
    fmt = ",".join(["%r"] * points.shape[1]) + "\n"
    with open(path, "w") as f:
        f.write(",".join(f"x{i}" for i in range(points.shape[1])) + "\n")
        for start in range(0, points.shape[0], ROW_BLOCK):
            rows = points[start:start + ROW_BLOCK].tolist()
            f.write("".join([fmt % tuple(row) for row in rows]))


# --- checkpoints -----------------------------------------------------------------

@dataclass
class Checkpoint:
    config: dict
    dem: EnergyModel
    gen: GeneratorModel
    state: TrainState


def _model_tensors(dem: EnergyModel, gen: GeneratorModel) -> dict[str, np.ndarray]:
    """The models' own parameter and batch-norm arrays, by checkpoint name."""
    tensors: dict[str, np.ndarray] = {}
    for p in dem.params() + gen.params():
        tensors[p.name] = p.values
    for i, layer in enumerate(gen.layers):
        if layer.has_batch_norm:
            tensors[f"gen.layer{i}.bn_running_mean"] = layer.bn_state.mean
            tensors[f"gen.layer{i}.bn_running_var"] = layer.bn_state.var
    return tensors


def _accumulator_views(stores) -> dict[str, np.ndarray]:
    """The AdaGrad accumulators of the given stores, by checkpoint name."""
    return {f"acc.{name}": view for store in stores
            for name, view in store.views(store.acc).items()}


def _restore_rng(saved) -> np.random.Generator:
    rng = np.random.default_rng(0)
    # a saved state that is no PCG64 state raises TypeError, ValueError or KeyError
    rng.bit_generator.state = saved
    return rng


def save_checkpoint(path, checkpoint: Checkpoint) -> None:
    """Write atomically: temp file in the target directory, then rename."""
    dem, gen, state = checkpoint.dem, checkpoint.gen, checkpoint.state
    tensors = _model_tensors(dem, gen)
    tensors.update(sorted(_accumulator_views(
        store for store in (dem.store, gen.store) if store.acc.any()).items()))
    header = {
        "config": checkpoint.config,
        "dem": {
            "widths": list(dem.widths),
            "n_experts": dem.n_experts,
            "sigma": dem.sigma,
        },
        "gen": {
            "widths": list(gen.widths),
            "output_activation": gen.output_activation,
        },
        "state": {
            "step": state.step,
            "data_rng": state.data_rng.bit_generator.state,
            "prior_rng": state.prior_rng.bit_generator.state,
        },
        "tensors": [[name, list(arr.shape)] for name, arr in tensors.items()],
    }
    blob = json.dumps(header).encode("utf-8")
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(CHECKPOINT_MAGIC)
            f.write(struct.pack("<I", CHECKPOINT_VERSION))
            f.write(struct.pack("<Q", len(blob)))
            f.write(blob)
            for arr in tensors.values():
                f.write(np.ascontiguousarray(arr, dtype="<f8"))
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _is_manifest(manifest) -> bool:
    """A list of [name, shape] pairs, shape a list of non-negative ints."""
    return isinstance(manifest, list) and all(
        isinstance(entry, list) and len(entry) == 2
        and isinstance(entry[0], str) and isinstance(entry[1], list)
        and all(isinstance(d, int) and d >= 0 for d in entry[1])
        for entry in manifest)


def load_checkpoint(path) -> Checkpoint:
    """Parse and rebuild; an unreadable file or any inconsistency raises
    ``CheckpointError``. Header fields that older versions wrote and this
    one does not read (the activation names, the metrics history) are ignored."""
    try:
        with open(path, "rb") as f:
            return _read_checkpoint(f, path)
    except FileNotFoundError:
        raise CheckpointError(f"{path}: no such checkpoint") from None
    except OSError as err:  # a directory, no permission, a read error
        raise CheckpointError(
            f"{path}: cannot read checkpoint: {err.strerror or err}") from None


def _read_checkpoint(f, path) -> Checkpoint:
    """The checkpoint in the open binary file f, read front to back: the
    header, then each tensor block straight into its model array."""
    file_size = os.fstat(f.fileno()).st_size
    head = f.read(20)
    if len(head) < 20:
        raise CheckpointError(f"{path}: truncated checkpoint header")
    if head[:8] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint (magic mismatch)")
    version = struct.unpack("<I", head[8:12])[0]
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint version {version}, "
            f"expected {CHECKPOINT_VERSION}")
    header_len = struct.unpack("<Q", head[12:20])[0]
    if file_size < 20 + header_len:
        raise CheckpointError(f"{path}: truncated checkpoint header")
    try:
        header = json.loads(f.read(header_len).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise CheckpointError(f"{path}: corrupt header: {err}") from None
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: corrupt header: not a JSON object")
    missing = [key for key in HEADER_KEYS if key not in header]
    if missing:
        raise CheckpointError(
            f"{path}: corrupt header: missing {', '.join(map(repr, missing))}")
    if not isinstance(header["config"], dict):
        raise CheckpointError(f"{path}: corrupt header: config is not a JSON object")
    manifest = header["tensors"]
    if not _is_manifest(manifest):
        raise CheckpointError(f"{path}: corrupt header: malformed tensor manifest")

    # Python ints, so a shape whose size overflows int64 cannot wrap
    expected = 20 + header_len + 8 * sum(math.prod(shape) for _, shape in manifest)
    if file_size != expected:
        raise CheckpointError(
            f"{path}: corrupt tensor payload, expected {expected} bytes, "
            f"got {file_size}")

    try:
        dem_meta, gen_meta, state_meta = header["dem"], header["gen"], header["state"]
        dem = EnergyModel.build(
            tuple(dem_meta["widths"]), dem_meta["n_experts"],
            np.random.default_rng(0), sigma=dem_meta["sigma"])
        gen = GeneratorModel.build(
            tuple(gen_meta["widths"]), np.random.default_rng(0),
            output_activation=gen_meta["output_activation"])
        state = TrainState(
            step=state_meta["step"],
            data_rng=_restore_rng(state_meta["data_rng"]),
            prior_rng=_restore_rng(state_meta["prior_rng"]),
        )
    except (KeyError, TypeError, ValueError) as err:
        raise CheckpointError(f"{path}: corrupt header: {err!r}") from None
    if gen.widths[-1] != dem.d_in:
        raise CheckpointError(
            f"{path}: corrupt header: the generator's output width "
            f"{gen.widths[-1]} differs from the energy model's input width {dem.d_in}")

    targets = _model_tensors(dem, gen)
    unseen = dict.fromkeys(targets)  # accumulators may be absent: they stay zero
    targets.update(_accumulator_views((dem.store, gen.store)))
    for name, shape in manifest:
        nbytes = 8 * math.prod(shape)
        target = targets.get(name)
        if target is None:
            f.seek(nbytes, os.SEEK_CUR)
            continue
        if tuple(shape) != target.shape:
            raise CheckpointError(f"{path}: tensor {name!r} has shape "
                                  f"{tuple(shape)}, model expects {target.shape}")
        # every target is a C-contiguous float64 array: a flat store's view
        # or a batch-norm statistic
        if f.readinto(memoryview(target).cast("B")) != nbytes:
            raise CheckpointError(f"{path}: truncated tensor {name!r}")
        if sys.byteorder != "little":   # the blocks are little-endian
            target.byteswap(inplace=True)
        unseen.pop(name, None)
    if unseen:
        raise CheckpointError(f"{path}: missing tensor {', '.join(map(repr, unseen))}")
    return Checkpoint(header["config"], dem, gen, state)
