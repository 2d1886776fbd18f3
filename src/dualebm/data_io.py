"""Synthetic 2D datasets, MNIST IDX ingestion, and checkpoint persistence.

The spiral family is parameterized by arc length t: a point on arm k of an
m-armed figure is t*(cos(t + 2*pi*k/m), sin(t + 2*pi*k/m)) / t_max, plus
isotropic Gaussian noise. Dividing by the arm's own t_max keeps every
dataset inside the unit disk regardless of arm length.

A ``Dataset`` owns the training rows and their format. An MNIST dataset
holds the IDX file's pixels as they are stored, one uint8 row per image,
and only the images a run trains on: the first ``limit`` of them.
``Dataset.minibatch`` gives the rows ``training.train`` draws in the
models' dtype, float32 for a run's models, decoding bytes to [0, 1] as
byte / 255 straight into that dtype and rounding float points to it.

Checkpoints are a single binary container: magic, version word, a
length-prefixed JSON header (config, architectures, step, RNG states,
the models' dtype, tensor manifest) followed by raw little-endian tensor
blocks of that dtype (``<f4`` for float32, ``<f8`` for float64) in
manifest order: parameters, batch-norm statistics and AdaGrad
accumulators (each model's ``store.acc``), one block per parameter name.
A header without a dtype, as written before float32 models, means
float64. A 2D checkpoint written while the 2D models computed in
float64 says float64 or nothing, and its models load and run in float64.
A model's accumulator blocks are left out while the accumulator is all
zero, as before the model's first update, and absent ones load as zero.
Saving writes each array's buffer to a temp file renamed atomically. Loading
checks the header and the file size, refuses layer widths whose weights
would hold more floats than the payload, builds the models, then walks the
manifest once: a block named for a model array is shape-checked and read
from the file straight into it, any other is skipped, and a parameter or
batch-norm statistic no block names is missing. No copy of the file is
held. Models load bit-exactly, in the dtype they were saved in.
"""

from __future__ import annotations

import json
import math
import os
import struct
import sys
import tempfile
from dataclasses import dataclass

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
CHECKPOINT_DTYPES = {name: np.dtype(name) for name in ("float32", "float64")}

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
    """The training rows: a nonempty (n, d) array of points. uint8 points
    are image bytes, held as they are; any other points are held as
    float64 and must be finite. ``minibatch`` gives rows in the dtype asked
    for."""
    points: np.ndarray

    def __post_init__(self):
        if not (isinstance(self.points, np.ndarray) and self.points.dtype == np.uint8):
            self.points = np.asarray(self.points, dtype=np.float64)
        if self.points.ndim != 2 or self.points.shape[0] < 1:
            raise ValueError(f"points must be a nonempty (n, d) array, "
                             f"got shape {self.points.shape}")
        if self.points.dtype != np.uint8 and not np.all(np.isfinite(self.points)):
            raise ValueError("dataset contains non-finite points")

    def minibatch(self, idx, dtype=np.float64) -> np.ndarray:
        """The rows at ``idx`` as ``dtype``. Image bytes are decoded
        straight into it, scaled to [0, 1] by ``np.divide(rows, 255.0,
        dtype=dtype)``: the bits of ``rows.astype(dtype) / 255.0``, and for
        float32 no float64 copy. Float rows are rounded to ``dtype``."""
        rows = self.points[idx]
        if rows.dtype == np.uint8:
            return np.divide(rows, 255.0, dtype=dtype)
        return rows.astype(dtype, copy=False)


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
    arms, t_min, t_max = SPIRAL_SPECS[name]
    arm = np.arange(n) % arms          # balanced within +/- 1 per arm
    points = _spiral_points(rng.uniform(t_min, t_max, size=n), arm, arms, t_max)
    if noise_sd > 0:
        points = points + rng.normal(0.0, noise_sd, size=points.shape)
    return Dataset(points)


# --- MNIST IDX ----------------------------------------------------------------

def _idx_dims(path, magic: int, n_dims: int) -> list[int]:
    """The dimensions in the header of a big-endian IDX file, which must
    hold ``magic`` and ``n_dims`` sizes. The sizes must be non-negative and
    the whole file exactly as long as they say, which is checked before
    any data are read, so a corrupt header cannot ask for more memory than
    the file holds."""
    header_size = 4 * (1 + n_dims)
    with open(path, "rb") as f:
        file_size = os.fstat(f.fileno()).st_size
        header = f.read(header_size)
    if len(header) != header_size:
        raise IdxFormatError(f"{path}: truncated file, wanted a {header_size}-byte "
                             f"header, got {len(header)} bytes")
    found, *dims = struct.unpack(f">{1 + n_dims}i", header)
    if found != magic:
        raise IdxFormatError(f"{path}: bad magic 0x{found:08x}, expected 0x{magic:08x}")
    if min(dims) < 0:
        raise IdxFormatError(f"{path}: negative dimension in header {dims}")
    expected = header_size + math.prod(dims)
    if file_size != expected:
        raise IdxFormatError(
            f"{path}: {'truncated file' if file_size < expected else 'trailing bytes'}"
            f", the header's dimensions {dims} need {expected} bytes, "
            f"the file has {file_size}")
    return dims


def load_mnist_idx(images_path, labels_path, limit: int = 0,
                   pixels: int = 0) -> Dataset:
    """A standard big-endian IDX pair as a dataset of uint8 pixel rows
    (image bytes, not yet scaled to [0, 1]). With ``limit`` > 0 only the
    first ``limit`` images are read. With ``pixels`` > 0, images of any
    other rows x cols are refused from the header, before a pixel is read.
    Both headers are checked in full and must agree on the count; no label
    is kept, so none is read."""
    count, rows, cols = _idx_dims(images_path, IDX_IMAGES_MAGIC, 3)
    if pixels and rows * cols != pixels:
        raise IdxFormatError(f"{images_path}: images of {rows * cols} pixels, "
                             f"the models take {pixels}")
    (label_count,) = _idx_dims(labels_path, IDX_LABELS_MAGIC, 1)
    if label_count != count:
        raise IdxFormatError(
            f"count mismatch: {count} images but {label_count} labels")
    n = min(count, limit) if limit else count
    pixels = np.fromfile(images_path, dtype=np.uint8, count=n * rows * cols,
                         offset=16)   # past the header's magic and three sizes
    return Dataset(pixels.reshape(n, rows * cols))


def save_points_csv(path, points: np.ndarray, columns=None) -> None:
    """One header line of the column names, x0,x1,... unless given, and one
    line per row. A float32 array's values are written with 9 significant
    digits (``%.9g``), which always parse back to the same float32; any
    other array is read as float64 and each value written as its shortest
    round-tripping repr. The rows are formatted by one ``%`` call and
    written a block of ``ROW_BLOCK`` rows at a time."""
    points, spec = np.asarray(points), "%.9g"
    if points.dtype != np.float32:
        points, spec = points.astype(np.float64, copy=False), "%r"
    if columns is None:
        columns = [f"x{i}" for i in range(points.shape[1])]
    row_fmt = ",".join([spec] * points.shape[1]) + "\n"
    with open(path, "w") as f:
        f.write(",".join(columns) + "\n")
        for start in range(0, points.shape[0], ROW_BLOCK):
            block = points[start:start + ROW_BLOCK]
            f.write((row_fmt * len(block)) % tuple(block.ravel().tolist()))


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
    """Write atomically: temp file in the target directory, then rename.
    The blocks are in the models' dtype, which the header records."""
    dem, gen, state = checkpoint.dem, checkpoint.gen, checkpoint.state
    block = dem.dtype.newbyteorder("<")
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
        "dtype": dem.dtype.name,
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
                f.write(np.ascontiguousarray(arr, dtype=block))
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
    one does not read (the activation names, the metrics history) are
    ignored; a header with no dtype holds float64 blocks."""
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
    dtype_name = header.get("dtype", "float64")
    dtype = CHECKPOINT_DTYPES.get(dtype_name) if isinstance(dtype_name, str) else None
    if dtype is None:
        raise CheckpointError(f"{path}: corrupt header: dtype {dtype_name!r} "
                              f"is none of {sorted(CHECKPOINT_DTYPES)}")
    itemsize = dtype.itemsize

    # Python ints, so a shape whose size overflows int64 cannot wrap
    payload = sum(math.prod(shape) for _, shape in manifest)
    expected = 20 + header_len + itemsize * payload
    if file_size != expected:
        raise CheckpointError(
            f"{path}: corrupt tensor payload, expected {expected} bytes, "
            f"got {file_size}")

    try:
        dem_meta, gen_meta, state_meta = header["dem"], header["gen"], header["state"]
        # each weight, the experts' (d_feat x n_experts) too, is a payload
        # block; abs, so a negative width cannot offset a large one
        weights = sum(abs(a * b) for widths in (
            (*dem_meta["widths"], dem_meta["n_experts"]), gen_meta["widths"])
            for a, b in zip(widths, widths[1:]))
        if weights > payload:   # refused before any model array is allocated
            raise CheckpointError(
                f"{path}: corrupt header: the layer widths need {weights} floats "
                f"of weights, the tensor payload holds {payload}")
        dem = EnergyModel.build(
            tuple(dem_meta["widths"]), dem_meta["n_experts"],
            np.random.default_rng(0), sigma=dem_meta["sigma"], dtype=dtype)
        gen = GeneratorModel.build(
            tuple(gen_meta["widths"]), np.random.default_rng(0),
            output_activation=gen_meta["output_activation"], dtype=dtype)
        state = TrainState(
            step=state_meta["step"],
            data_rng=_restore_rng(state_meta["data_rng"]),
            prior_rng=_restore_rng(state_meta["prior_rng"]),
        )
    except CheckpointError:
        raise
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
        nbytes = itemsize * math.prod(shape)
        target = targets.get(name)
        if target is None:
            f.seek(nbytes, os.SEEK_CUR)
            continue
        if tuple(shape) != target.shape:
            raise CheckpointError(f"{path}: tensor {name!r} has shape "
                                  f"{tuple(shape)}, model expects {target.shape}")
        # every target is a C-contiguous array of the header's dtype: a flat
        # store's view or a batch-norm statistic; an empty one (no experts)
        # reads nothing
        if nbytes and f.readinto(memoryview(target).cast("B")) != nbytes:
            raise CheckpointError(f"{path}: truncated tensor {name!r}")
        if sys.byteorder != "little":   # the blocks are little-endian
            target.byteswap(inplace=True)
        unseen.pop(name, None)
    if unseen:
        raise CheckpointError(f"{path}: missing tensor {', '.join(map(repr, unseen))}")
    return Checkpoint(header["config"], dem, gen, state)
