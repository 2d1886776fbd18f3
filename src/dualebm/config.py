"""Run configuration: a flat JSON file with typed, validated fields.

Unknown keys are rejected up front so typos fail before any compute.
Command-line overrides are applied as ``--field value`` pairs and parsed
with the same types. All randomness descends from the single ``seed``
through named substreams (data, prior, init).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data_io import Dataset, load_mnist_idx, make_dataset
from .energy_model import EnergyModel
from .generator_model import GeneratorModel
from .training import ConfigError, TrainConfig, check_finite_floats, rng_streams

DATASET_NAMES = ("two_spiral", "four_spin", "mnist")


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
        if self.n_points < 2:
            raise ConfigError(f"n_points must be >= 2, got {self.n_points}")
        if self.noise_sd < 0:
            raise ConfigError(f"noise_sd must be >= 0, got {self.noise_sd}")
        if self.d_feat < 1 or self.d_z < 1:
            raise ConfigError("d_feat and d_z must be positive")
        if self.n_experts < 0:
            raise ConfigError(f"n_experts must be >= 0, got {self.n_experts}")
        if self.sigma <= 0:
            raise ConfigError(f"sigma must be positive, got {self.sigma}")
        if any(w < 1 for w in list(self.dem_hidden) + list(self.gen_hidden)):
            raise ConfigError("hidden widths must be positive")
        if not self.gen_hidden:
            # the batch norm of each generator hidden layer carries the
            # entropy surrogate; with none it is the constant 0
            raise ConfigError("gen_hidden needs at least one hidden layer")
        self.train_config().validate()
        return self

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            batch_size=self.batch_size, dem_lr=self.dem_lr, dgm_lr=self.dgm_lr,
            adagrad_eps=self.adagrad_eps, entropy_weight=self.entropy_weight,
            entropy_estimator=self.entropy_estimator, steps=self.steps,
            dem_updates_per_dgm_update=self.dem_updates_per_dgm_update,
            seed=self.seed, checkpoint_interval=self.checkpoint_interval)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def _parse_value(name: str, raw, target_example) -> object:
    if isinstance(target_example, bool):
        raise ConfigError(f"unsupported field type for {name}")
    if isinstance(target_example, int):
        return int(raw)
    if isinstance(target_example, float):
        return float(raw)
    if isinstance(target_example, str):
        return str(raw)
    if isinstance(target_example, list):
        if isinstance(raw, list):
            return [int(v) for v in raw]
        return [int(v) for v in str(raw).split(",") if v]
    raise ConfigError(f"unsupported field type for {name}")


def _set_field(config: RunConfig, key: str, raw, source: str) -> None:
    """Parse ``raw`` as field ``key`` and store it, or raise ConfigError."""
    if key not in _FIELDS:
        raise ConfigError(f"{source}: unknown config key {key!r}")
    try:
        parsed = _parse_value(key, raw, getattr(config, key))
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{source}: bad value for {key!r}: {err}") from None
    setattr(config, key, parsed)


def config_from_dict(data: dict, source: str = "config") -> RunConfig:
    config = RunConfig()
    for key, value in data.items():
        _set_field(config, key, value, source)
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


def apply_overrides(config: RunConfig, pairs: list[tuple[str, str]]) -> RunConfig:
    for key, value in pairs:
        _set_field(config, key, value, f"override --{key}")
    return config


def load_run_dataset(config: RunConfig, rng: np.random.Generator) -> Dataset:
    if config.dataset == "mnist":
        ds = load_mnist_idx(config.mnist_images, config.mnist_labels)
        if config.mnist_limit and ds.points.shape[0] > config.mnist_limit:
            ds = Dataset(ds.points[:config.mnist_limit], ds.name,
                         None if ds.labels is None else ds.labels[:config.mnist_limit])
        return ds
    return make_dataset(config.dataset, config.n_points, config.noise_sd, rng)


def build_models(config: RunConfig) -> tuple[EnergyModel, GeneratorModel]:
    d_in = 784 if config.dataset == "mnist" else 2
    init_rng = rng_streams(config.seed)["init"]
    dem = EnergyModel.build(
        tuple([d_in] + list(config.dem_hidden) + [config.d_feat]),
        config.n_experts, init_rng, sigma=config.sigma)
    gen = GeneratorModel.build(
        tuple([config.d_z] + list(config.gen_hidden) + [d_in]),
        init_rng,
        output_activation="sigmoid" if config.dataset == "mnist" else "linear")
    return dem, gen


def dataset_bounds(config: RunConfig) -> list:
    """Evaluation box for the 2D datasets (unit disk plus a 0.5 margin)."""
    if config.dataset == "mnist":
        raise ConfigError("grid evaluation is only defined for 2D datasets")
    return [(-1.5, 1.5), (-1.5, 1.5)]
