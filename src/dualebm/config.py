"""Run configuration: a flat JSON file with typed, validated fields.

Unknown keys are rejected up front so typos fail before any compute.
``dualebm train`` takes every field as an option too, which
``parse_field`` parses as it does a JSON string. All randomness descends
from the single ``seed`` through named substreams (data, prior, init).
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data_io import SPIRAL_SPECS, Dataset, load_mnist_idx, make_dataset
from .energy_model import EnergyModel, inverse_sigma_sq
from .generator_model import ENTROPY_ESTIMATORS, GeneratorModel
from .training import ConfigError, rng_streams

DATASET_NAMES = ("two_spiral", "four_spin", "mnist")
MNIST_PIXELS = 28 * 28  # the input width of the mnist models
# The one dtype every run's models compute in. Their steps are bound by
# BLAS, tanh and memory passes over activations and parameters, all faster
# in float32: a default step takes about half its float64 time at 784
# dimensions and about 0.6 of it on the 2D toys. Models built in another
# dtype on purpose (a float64 checkpoint, the tape comparisons, gradcheck)
# keep theirs.
COMPUTE_DTYPE = np.float32


def check_finite_floats(config) -> None:
    """Reject NaN and +/-inf in every float field of a config (a range
    check such as ``weight > 0`` is false for NaN, not an error)."""
    for name, value in vars(config).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")


@dataclass
class RunConfig:
    dataset: str = "four_spin"
    n_points: int = 10_000
    noise_sd: float = 0.01
    mnist_images: str = ""
    mnist_labels: str = ""
    mnist_limit: int = 10_000
    dem_hidden: list = field(default_factory=lambda: [128, 128])
    d_feat: int = 4
    n_experts: int = 4
    sigma: float = 1.0
    d_z: int = 4
    gen_hidden: list = field(default_factory=lambda: [128, 128])
    batch_size: int = 64
    dem_lr: float = 0.01
    dgm_lr: float = 0.01
    adagrad_eps: float = 1e-8
    entropy_weight: float = 1.0
    entropy_estimator: str = "batch_norm_scale"
    steps: int = 20_000
    dem_updates_per_dgm_update: int = 1
    seed: int = 0
    checkpoint_interval: int = 0
    out_dir: str = "runs/run"

    def validate(self) -> "RunConfig":
        check_finite_floats(self)
        if self.dataset not in DATASET_NAMES:
            raise ConfigError(
                f"dataset must be one of {DATASET_NAMES}, got {self.dataset!r}")
        if self.dataset == "mnist" and not (self.mnist_images and self.mnist_labels):
            raise ConfigError("mnist dataset needs mnist_images and mnist_labels paths")
        # a spiral needs a point on every arm; mnist, which ignores
        # n_points, keeps the floor of 2
        min_points = (SPIRAL_SPECS[self.dataset][0]
                      if self.dataset in SPIRAL_SPECS else 2)
        if self.n_points < min_points:
            raise ConfigError(f"n_points must be >= {min_points} for "
                              f"{self.dataset}, got {self.n_points}")
        if self.noise_sd < 0:
            raise ConfigError(f"noise_sd must be >= 0, got {self.noise_sd}")
        if self.mnist_limit < 0:
            raise ConfigError(
                f"mnist_limit must be >= 0 (0 means no limit), got {self.mnist_limit}")
        if self.d_feat < 1 or self.d_z < 1:
            raise ConfigError("d_feat and d_z must be positive")
        if self.n_experts < 0:
            raise ConfigError(f"n_experts must be >= 0, got {self.n_experts}")
        try:  # past COMPUTE_DTYPE's range, every energy would be inf
            inverse_sigma_sq(self.sigma, COMPUTE_DTYPE)
        except ValueError as err:
            raise ConfigError(str(err)) from None
        if any(w < 1 for w in list(self.dem_hidden) + list(self.gen_hidden)):
            raise ConfigError("hidden widths must be positive")
        if not self.gen_hidden:
            # the batch norm of each generator hidden layer carries the
            # entropy surrogate; with none it is the constant 0
            raise ConfigError("gen_hidden needs at least one hidden layer")
        if self.batch_size < 2:
            raise ConfigError(f"batch_size must be >= 2, got {self.batch_size}")
        if self.dem_lr <= 0 or self.dgm_lr <= 0:
            raise ConfigError("learning rates must be positive")
        if self.adagrad_eps <= 0:
            raise ConfigError(f"adagrad_eps must be positive, got {self.adagrad_eps}")
        if self.entropy_weight < 0:
            raise ConfigError(
                f"entropy_weight must be >= 0, got {self.entropy_weight}")
        if self.entropy_estimator not in ENTROPY_ESTIMATORS:
            raise ConfigError(
                f"entropy_estimator must be one of {ENTROPY_ESTIMATORS}, "
                f"got {self.entropy_estimator!r}")
        if self.steps < 1:
            raise ConfigError(f"steps must be positive, got {self.steps}")
        if self.dem_updates_per_dgm_update < 1:
            raise ConfigError("dem_updates_per_dgm_update must be positive")
        if self.checkpoint_interval < 0:
            raise ConfigError("checkpoint_interval must be >= 0")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        return self

    def train_config(self) -> "RunConfig":
        """The config itself, which ``training.train`` takes. Only
        ``perfbench/worker.py`` still calls this."""
        return self

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


_DEFAULTS = RunConfig()


def parse_field(key: str, raw) -> object:
    """``raw`` as the value of field ``key``, or ConfigError. A string (a
    command-line option, or a JSON string) is parsed; any other JSON value
    must be of the field's type already: an int for an int field (not a
    float or a bool), a number for a float field, a list of ints for a
    list field."""
    if key not in vars(_DEFAULTS):
        raise ConfigError(f"unknown config key {key!r}")
    example = getattr(_DEFAULTS, key)
    if isinstance(raw, str):
        try:
            if isinstance(example, list):
                return [int(v) for v in raw.split(",") if v]
            return type(example)(raw)
        except ValueError as err:
            raise ConfigError(f"bad value for {key!r}: {err}") from None
    if isinstance(example, list) and isinstance(raw, list) and all(map(_is_int, raw)):
        return list(raw)
    if isinstance(example, int) and _is_int(raw):
        return raw
    if isinstance(example, float) and (_is_int(raw) or isinstance(raw, float)):
        return float(raw)
    raise ConfigError(f"bad value for {key!r}: expected "
                      f"{type(example).__name__}, got {raw!r}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def config_from_dict(data: dict, source: str = "config") -> RunConfig:
    config = RunConfig()
    for key, value in data.items():
        try:
            setattr(config, key, parse_field(key, value))
        except ConfigError as err:
            raise ConfigError(f"{source}: {err}") from None
    return config


def load_config(path) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(
            f"{path}: invalid JSON at line {err.lineno}, column {err.colno}: "
            f"{err.msg}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return config_from_dict(data, source=str(path))


def load_run_dataset(config: RunConfig, rng: np.random.Generator) -> Dataset:
    """The run's training data: for mnist, the uint8 pixel rows of the
    first ``mnist_limit`` images of the IDX pair (all of them when it is
    0), with no other image read, and none at all unless the header's
    images have ``MNIST_PIXELS`` pixels; for a spiral, ``n_points``
    float64 points drawn from ``rng``, refused unless a batch of them has
    energies in ``COMPUTE_DTYPE``'s range."""
    if config.dataset == "mnist":
        try:
            return load_mnist_idx(config.mnist_images, config.mnist_labels,
                                  config.mnist_limit, MNIST_PIXELS)
        except (OSError, ValueError) as err:
            # a missing or unreadable file, an IdxFormatError (wrongly sized
            # images too), or the ValueError of a Dataset with no images
            raise ConfigError(f"cannot load mnist data: {err}") from None
    ds = make_dataset(config.dataset, config.n_points, config.noise_sd, rng)
    # a batch's energies sum |x|^2 / sigma^2 over its points in the models'
    # dtype, whose range that sum, and the squares, must stay in: a noise_sd
    # of 1e20 puts the points near 1e20, where every float32 energy is inf
    # before any step is taken.
    limit = float(np.finfo(COMPUTE_DTYPE).max)
    inv_sigma_sq = inverse_sigma_sq(config.sigma)
    with np.errstate(over="ignore"):
        largest = float(np.square(ds.points).sum(axis=1).max())
        batch_sum = config.batch_size * largest
    if not (batch_sum <= limit and batch_sum * inv_sigma_sq <= limit):
        raise ConfigError(
            f"noise_sd {config.noise_sd!r}: the data's energies overflow with sigma "
            f"{config.sigma!r} (the largest |x|^2 is {largest:.3g}, and the sum of "
            f"|x|^2 / sigma^2 over {config.batch_size} such points leaves the "
            f"{np.dtype(COMPUTE_DTYPE).name} range of the models); "
            "give a smaller noise_sd or a larger sigma")
    return ds


def build_models(config: RunConfig) -> tuple[EnergyModel, GeneratorModel]:
    """The run's freshly initialised models, in ``COMPUTE_DTYPE``. The
    weights are drawn as float64 and then rounded, so the dtype consumes
    the init stream as float64 models would."""
    mnist = config.dataset == "mnist"
    d_in = MNIST_PIXELS if mnist else 2
    init_rng = rng_streams(config.seed)["init"]
    dem = EnergyModel.build(
        tuple([d_in] + list(config.dem_hidden) + [config.d_feat]),
        config.n_experts, init_rng, sigma=config.sigma, dtype=COMPUTE_DTYPE)
    gen = GeneratorModel.build(
        tuple([config.d_z] + list(config.gen_hidden) + [d_in]),
        init_rng, output_activation="sigmoid" if mnist else "linear",
        dtype=COMPUTE_DTYPE)
    return dem, gen


def dataset_bounds(config: RunConfig) -> list:
    """Evaluation box for the 2D datasets (unit disk plus a 0.5 margin)."""
    if config.dataset == "mnist":
        raise ConfigError("grid evaluation is only defined for 2D datasets")
    return [(-1.5, 1.5), (-1.5, 1.5)]
