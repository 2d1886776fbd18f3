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

DATASET_NAMES = (*SPIRAL_SPECS, "mnist")
MNIST_PIXELS = 28 * 28  # the input width of the mnist models
# The one dtype every run's models compute in. Their steps are bound by
# BLAS, tanh and memory passes over activations and parameters, all faster
# in float32: a default step takes about half its float64 time at 784
# dimensions and about 0.6 of it on the 2D toys. Models built in another
# dtype on purpose (a float64 checkpoint, the tape comparisons, gradcheck)
# keep theirs.
COMPUTE_DTYPE = np.float32


def check_rules(value, rules) -> None:
    """Refuse, with a ConfigError that names no field, a float that is not
    finite (NaN would pass any range check) or a value outside ``rules``:
    ``minimum`` (inclusive), ``above`` (exclusive) and ``choices``, each
    checked when given, on each entry of a list."""
    for v in value if isinstance(value, list) else [value]:
        if isinstance(v, float) and not math.isfinite(v):
            raise ConfigError(f"must be finite, got {v}")
        if "minimum" in rules and v < rules["minimum"]:
            raise ConfigError(f"must be >= {rules['minimum']}, got {v}")
        if "above" in rules and v <= rules["above"]:
            raise ConfigError(f"must be > {rules['above']}, got {v}")
        if "choices" in rules and v not in rules["choices"]:
            raise ConfigError(f"must be one of {rules['choices']}, got {v!r}")


def _field(default, *, minimum=None, above=None, choices=None):
    """A RunConfig field and, in its metadata, the rules ``validate``
    holds its value to through ``check_rules``."""
    rules = {"minimum": minimum, "above": above, "choices": choices}
    metadata = {key: rule for key, rule in rules.items() if rule is not None}
    if isinstance(default, list):
        return field(default_factory=default.copy, metadata=metadata)
    return field(default=default, metadata=metadata)


@dataclass
class RunConfig:
    dataset: str = _field("four_spin", choices=DATASET_NAMES)
    n_points: int = 10_000   # validate: at least one point per spiral arm
    noise_sd: float = _field(0.01, minimum=0)
    mnist_images: str = ""
    mnist_labels: str = ""
    mnist_limit: int = _field(10_000, minimum=0)   # 0 means no limit
    dem_hidden: list = _field([128, 128], minimum=1)
    d_feat: int = _field(4, minimum=1)
    n_experts: int = _field(4, minimum=0)
    sigma: float = 1.0   # validate: 1/sigma^2 in COMPUTE_DTYPE's range
    d_z: int = _field(4, minimum=1)
    gen_hidden: list = _field([128, 128], minimum=1)
    batch_size: int = _field(64, minimum=2)
    dem_lr: float = _field(0.01, above=0)
    dgm_lr: float = _field(0.01, above=0)
    adagrad_eps: float = _field(1e-8, above=0)
    entropy_weight: float = _field(1.0, minimum=0)
    entropy_estimator: str = _field("batch_norm_scale", choices=tuple(ENTROPY_ESTIMATORS))
    steps: int = _field(20_000, minimum=1)
    dem_updates_per_dgm_update: int = _field(1, minimum=1)
    seed: int = _field(0, minimum=0)
    checkpoint_interval: int = _field(0, minimum=0)
    out_dir: str = "runs/run"

    def validate(self) -> "RunConfig":
        """Hold each field to its rules (``check_rules``, the refusal
        prefixed with the field's name), then check the rules that read
        another field or a dtype."""
        for f in dataclasses.fields(self):
            try:
                check_rules(getattr(self, f.name), f.metadata)
            except ConfigError as err:
                raise ConfigError(f"{f.name} {err}") from None
        if self.dataset == "mnist" and not (self.mnist_images and self.mnist_labels):
            raise ConfigError("mnist dataset needs mnist_images and mnist_labels paths")
        # a spiral needs a point on every arm; mnist, which ignores
        # n_points, keeps the floor of 2
        min_points = (SPIRAL_SPECS[self.dataset][0]
                      if self.dataset in SPIRAL_SPECS else 2)
        if self.n_points < min_points:
            raise ConfigError(f"n_points must be >= {min_points} for "
                              f"{self.dataset}, got {self.n_points}")
        try:  # past COMPUTE_DTYPE's range, every energy would be inf
            inverse_sigma_sq(self.sigma, COMPUTE_DTYPE)
        except ValueError as err:
            raise ConfigError(str(err)) from None
        if not self.gen_hidden:
            # the batch norm of each generator hidden layer carries the
            # entropy surrogate; with none it is the constant 0
            raise ConfigError("gen_hidden needs at least one hidden layer")
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
    # a batch's energies sum |x|^2 / sigma^2 over its points in the models'
    # dtype, whose range that sum, and the squares, must stay in: a noise_sd
    # of 1e20 puts the points near 1e20, where every float32 energy is inf
    # before any step is taken, and one of 1e308 draws points past float64's.
    limit = float(np.finfo(COMPUTE_DTYPE).max)
    inv_sigma_sq = inverse_sigma_sq(config.sigma)
    try:
        ds = make_dataset(config.dataset, config.n_points, config.noise_sd, rng)
    except ValueError:   # Dataset refuses a point that is not finite
        largest = math.inf
    else:
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
    return [(-1.5, 1.5), (-1.5, 1.5)]
