import io
import json
import math
import struct
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.spatial.distance import cdist

from dualebm.autodiff import ROW_BLOCK
from dualebm.config import RunConfig, build_models, load_run_dataset
from dualebm.data_io import (
    SPIRAL_SPECS,
    Checkpoint,
    IDX_IMAGES_MAGIC,
    IDX_LABELS_MAGIC,
    CheckpointError,
    Dataset,
    IdxFormatError,
    arm_curve,
    load_checkpoint,
    load_mnist_idx,
    make_dataset,
    save_checkpoint,
    save_points_csv,
)
from dualebm.energy_model import EnergyModel
from dualebm.generator_model import GeneratorModel
from dualebm.training import ConfigError, TrainState, train

from helpers import rewrite_checkpoint_header, write_idx_pair


# --- spirals -------------------------------------------------------------------

def test_two_spiral_inverse_parameterization():
    ds = make_dataset("two_spiral", 2000, 0.0, np.random.default_rng(0))
    t_max = 3.0 * math.pi
    radius = np.linalg.norm(ds.points, axis=1)
    t = radius * t_max
    assert np.all(t >= 0.25 - 1e-9) and np.all(t <= t_max + 1e-9)
    angle = np.arctan2(ds.points[:, 1], ds.points[:, 0])
    # the point's polar angle must equal t (mod 2 pi) up to the arm offset
    residual0 = np.abs((angle - t + math.pi) % (2.0 * math.pi) - math.pi)
    residual1 = np.abs((angle - t - math.pi + math.pi) % (2.0 * math.pi) - math.pi)
    assert np.all(np.minimum(residual0, residual1) < 1e-9)


def _arm_counts(name, n, seed):
    """Points per arm of the noiseless dataset drawn with ``seed``, each
    point's arm read from its polar angle, t + 2 pi arm / arms at radius
    t / t_max. Noise moves points but assigns no arm, so these are the arm
    sizes of the noisy dataset drawn with ``seed`` too."""
    arms, _, t_max = SPIRAL_SPECS[name]
    points = make_dataset(name, n, 0.0, np.random.default_rng(seed)).points
    t = np.linalg.norm(points, axis=1) * t_max
    offset = (np.arctan2(points[:, 1], points[:, 0]) - t) % (2.0 * math.pi)
    arm = np.rint(offset * arms / (2.0 * math.pi))
    residual = np.abs(offset - arm * 2.0 * math.pi / arms)
    assert np.all(np.minimum(residual, 2.0 * math.pi - residual) < 1e-9)
    return np.bincount(arm.astype(int) % arms, minlength=arms)


def test_two_spiral_arm_balance_and_size():
    ds = make_dataset("two_spiral", 10_000, 0.01, np.random.default_rng(1))
    assert ds.points.shape == (10_000, 2)
    counts = _arm_counts("two_spiral", 10_000, 1)
    assert counts.sum() == 10_000 and abs(counts[0] - counts[1]) <= 1


def test_two_spiral_stays_in_box_at_small_noise():
    ds = make_dataset("two_spiral", 10_000, 0.02, np.random.default_rng(2))
    assert np.all(np.abs(ds.points) <= 1.2)


def test_two_spiral_odd_count_balance():
    counts = _arm_counts("two_spiral", 101, 3)
    assert counts.sum() == 101 and abs(int(counts[0]) - int(counts[1])) <= 1


def test_generators_are_pure_functions_of_seed():
    a = make_dataset("four_spin", 500, 0.01, np.random.default_rng(7))
    b = make_dataset("four_spin", 500, 0.01, np.random.default_rng(7))
    assert np.array_equal(a.points, b.points)


def test_four_spin_balance_and_center():
    ds = make_dataset("four_spin", 10_000, 0.01, np.random.default_rng(4))
    counts = _arm_counts("four_spin", 10_000, 4)
    assert counts.sum() == 10_000 and counts.max() - counts.min() <= 1
    assert np.linalg.norm(ds.points.mean(axis=0)) < 0.02


def _energy_distance(a, b):
    return (2.0 * cdist(a, b).mean() - cdist(a, a).mean() - cdist(b, b).mean())


def test_four_spin_quarter_turn_symmetry():
    """Rotating one sample by 90 degrees is indistinguishable from a fresh
    draw under a permutation-calibrated energy-distance test at alpha=0.01."""
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    a = make_dataset("four_spin", 500, 0.01, np.random.default_rng(5)).points @ rot.T
    b = make_dataset("four_spin", 500, 0.01, np.random.default_rng(6)).points
    observed = _energy_distance(a, b)
    pooled = np.vstack([a, b])
    perm_rng = np.random.default_rng(8)
    exceed = 0
    n_perm = 99
    for _ in range(n_perm):
        idx = perm_rng.permutation(len(pooled))
        pa, pb = pooled[idx[:500]], pooled[idx[500:]]
        if _energy_distance(pa, pb) >= observed:
            exceed += 1
    p_value = (exceed + 1) / (n_perm + 1)
    assert p_value > 0.01


def test_arm_curve_endpoints():
    curve = arm_curve("four_spin", 0, num=100)
    t_max = 1.5 * math.pi
    assert_allclose(np.linalg.norm(curve[0]), 0.25 / t_max, rtol=1e-12)
    assert_allclose(np.linalg.norm(curve[-1]), 1.0, rtol=1e-12)


def test_dataset_rejects_empty_or_nonfinite():
    with pytest.raises(ValueError):
        Dataset(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        Dataset(np.array([[np.nan, 0.0]]))
    with pytest.raises(ValueError, match="nonempty"):
        Dataset(np.zeros((0, 784), dtype=np.uint8))
    with pytest.raises(ValueError, match="nonempty"):
        Dataset(np.zeros(5))


def test_minibatch_decodes_bytes_and_keeps_floats():
    """Image bytes are held as uint8 and each minibatch is decoded to the
    bits of ``byte.astype(float64) / 255``, for every byte value; other
    points are held and drawn as float64."""
    pixels = np.arange(256, dtype=np.uint8).reshape(64, 4)
    ds = Dataset(pixels)
    assert ds.points is pixels
    idx = np.r_[np.arange(64)[::-1], 5, 5]
    rows = ds.minibatch(idx)
    assert rows.dtype == np.float64
    expected = pixels[idx].astype(np.float64) / 255.0
    assert np.array_equal(rows.view(np.int64), expected.view(np.int64))
    floats = Dataset([[0.5, -1.0], [2.0, 3.0]])
    assert floats.points.dtype == np.float64
    assert np.array_equal(floats.minibatch(np.array([1, 1, 0])),
                          [[2.0, 3.0], [2.0, 3.0], [0.5, -1.0]])


def test_minibatch_decodes_bytes_straight_to_float32():
    """A float32 minibatch of bytes has the bits of ``byte.astype(float32)
    / 255``, and of the float64 decoding rounded to float32, for every byte
    value, so a float dataset trains the float32 models as its bytes do;
    no float64 copy of the rows is made."""
    pixels = np.arange(256, dtype=np.uint8).reshape(64, 4)
    idx = np.r_[np.arange(64)[::-1], 5, 5]
    rows = Dataset(pixels).minibatch(idx, np.float32)
    assert rows.dtype == np.float32
    expected = pixels[idx].astype(np.float32) / 255.0
    assert np.array_equal(rows.view(np.int32), expected.view(np.int32))
    floats = Dataset(pixels / 255.0).minibatch(idx, np.float32)
    assert np.array_equal(floats.view(np.int32), expected.view(np.int32))
    images = Dataset(np.zeros((2000, 784), dtype=np.uint8))
    tracemalloc.start()
    try:
        images.minibatch(np.arange(2000), np.float32)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the bytes and the float32 rows; a float64 copy alone would be 8 per pixel
    assert peak < 2000 * 784 * (1 + 4) + 64 * 1024


# --- MNIST IDX -------------------------------------------------------------------

def test_idx_roundtrip_shapes_and_scaling(tmp_path):
    images, labels, pixels = write_idx_pair(tmp_path)
    ds = load_mnist_idx(images, labels)
    assert ds.points.shape == (10, 12)
    rows = ds.minibatch(np.arange(10))
    assert np.all(rows >= 0.0) and np.all(rows <= 1.0)
    assert np.array_equal(rows, pixels.reshape(10, 12) / 255.0)


def test_idx_byte_endpoints_map_to_unit_interval(tmp_path):
    def extremes(count, rows, cols):
        px = np.zeros((count, rows, cols), dtype=np.uint8)
        px[0, 0, 0] = 0xFF
        return px

    images, labels, _ = write_idx_pair(tmp_path, pixel_fn=extremes)
    rows = load_mnist_idx(images, labels).minibatch(np.arange(10))
    assert rows[0, 0] == 1.0
    assert rows[0, 1] == 0.0


def test_idx_standard_training_header_dimensions(tmp_path):
    images, labels, _ = write_idx_pair(tmp_path, count=60_000, rows=28, cols=28)
    ds = load_mnist_idx(images, labels)
    assert ds.points.shape == (60_000, 784)


def test_mnist_limit_reads_only_the_images_a_run_trains_on(tmp_path):
    """The dataset holds the first mnist_limit images as bytes, and the
    load allocates no more than that: no float copy and no whole file."""
    images, labels, pixels = write_idx_pair(tmp_path, count=2000, rows=28, cols=28)
    config = RunConfig(dataset="mnist", mnist_images=str(images),
                       mnist_labels=str(labels), mnist_limit=500)
    tracemalloc.start()
    try:
        ds = load_run_dataset(config, np.random.default_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ds.points.dtype == np.uint8 and ds.points.shape == (500, 784)
    assert np.array_equal(ds.points, pixels[:500].reshape(500, 784))
    array = ds.points
    while isinstance(array, np.ndarray):
        assert array.nbytes <= 500 * 784
        array = array.base
    assert array is None
    assert peak < 2 * 500 * 784 + 64 * 1024


def test_wrongly_sized_mnist_images_are_refused_before_any_pixel_is_read(tmp_path):
    """The images header's rows x cols are checked against the models'
    784 pixels before the pixels are read: a pair of 40 images of 500x500
    is refused having allocated far less than its 10 MB of pixels."""
    images, labels, _ = write_idx_pair(tmp_path, count=40, rows=500, cols=500)
    config = RunConfig(dataset="mnist", mnist_images=str(images),
                       mnist_labels=str(labels))
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="images of 250000 pixels"):
            load_run_dataset(config, np.random.default_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40 * 500 * 500 / 100


def test_idx_bad_magic(tmp_path):
    images, labels, _ = write_idx_pair(tmp_path)
    with open(images, "r+b") as f:
        f.write(struct.pack(">i", 0x00000107))
    with pytest.raises(IdxFormatError, match="bad magic"):
        load_mnist_idx(images, labels)


def test_idx_truncated_pixels(tmp_path):
    images, labels, _ = write_idx_pair(tmp_path)
    data = images.read_bytes()
    images.write_bytes(data[:-5])
    with pytest.raises(IdxFormatError, match="truncated"):
        load_mnist_idx(images, labels)


@pytest.mark.parametrize("which, header, message", [
    ("images", (10, -4, -3), "negative dimension in header"),
    ("images", (2**31 - 1, 4, 3), "truncated file"),
    ("labels", (2**31 - 1,), "truncated file"),
], ids=["negative_dims", "images_past_the_file", "labels_past_the_file"])
def test_idx_header_is_checked_before_reading(tmp_path, which, header, message):
    """Negative rows and columns whose product matches the data would
    train as if they were positive, and a count past the end of the file
    would ask ``read`` for more memory than the file holds."""
    paths = dict(zip(("images", "labels"), write_idx_pair(tmp_path)))
    magic = IDX_IMAGES_MAGIC if which == "images" else IDX_LABELS_MAGIC
    with open(paths[which], "r+b") as f:
        f.write(struct.pack(f">{1 + len(header)}i", magic, *header))
    with pytest.raises(IdxFormatError, match=message):
        load_mnist_idx(paths["images"], paths["labels"])


@pytest.mark.parametrize("which", ["images", "labels"])
def test_idx_file_shorter_than_its_header(tmp_path, which):
    paths = dict(zip(("images", "labels"), write_idx_pair(tmp_path)))
    paths[which].write_bytes(paths[which].read_bytes()[:6])
    with pytest.raises(IdxFormatError, match=r"truncated file, wanted a \d+-byte header"):
        load_mnist_idx(paths["images"], paths["labels"])


def test_idx_trailing_bytes(tmp_path):
    images, labels, _ = write_idx_pair(tmp_path)
    with open(images, "ab") as f:
        f.write(bytes(3))
    with pytest.raises(IdxFormatError, match="trailing bytes"):
        load_mnist_idx(images, labels)


def test_idx_count_mismatch(tmp_path):
    images, labels, _ = write_idx_pair(tmp_path)
    with open(labels, "wb") as f:
        f.write(struct.pack(">ii", 0x00000801, 7))
        f.write(bytes(7))
    with pytest.raises(IdxFormatError, match="count mismatch"):
        load_mnist_idx(images, labels)


# --- checkpoints -------------------------------------------------------------------

def _small_run(tmp_path, steps=20, ckpt_interval=0):
    dem = EnergyModel.build((2, 8, 4), 4, np.random.default_rng(0))
    gen = GeneratorModel.build((2, 8, 2), np.random.default_rng(1))
    data = make_dataset("four_spin", 256, 0.01, np.random.default_rng(2))
    config = RunConfig(batch_size=16, steps=steps, seed=9,
                       checkpoint_interval=ckpt_interval,
                       entropy_estimator="nearest_neighbour")
    return dem, gen, data, config


def test_checkpoint_manifest_is_pinned(tmp_path):
    """The names, shapes and order of a checkpoint's blocks after one
    update of each model, accumulators included. Checkpoints written
    earlier load only while this layout holds, so a refactor that renames
    or reorders a model's parameters must fail here."""
    dem = EnergyModel.build((2, 8, 5), 3, np.random.default_rng(0))
    gen = GeneratorModel.build((3, 6, 2), np.random.default_rng(1))
    data = make_dataset("four_spin", 64, 0.01, np.random.default_rng(2))
    state = train(dem, gen, data, RunConfig(batch_size=16, steps=1, seed=9))
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, Checkpoint({}, dem, gen, state))
    header_len = struct.unpack("<Q", path.read_bytes()[12:20])[0]
    manifest = json.loads(path.read_bytes()[20:20 + header_len])["tensors"]
    assert [(name, tuple(shape)) for name, shape in manifest] == [
        ("dem.layer0.w", (2, 8)), ("dem.layer1.w", (8, 5)),
        ("dem.layer0.b", (8,)), ("dem.layer1.b", (5,)),
        ("dem.expert_w", (5, 3)), ("dem.expert_b", (3,)), ("dem.b_vis", (2,)),
        ("gen.layer0.w", (3, 6)), ("gen.layer0.b", (6,)),
        ("gen.layer0.bn_shift", (6,)), ("gen.layer0.bn_scale", (6,)),
        ("gen.layer1.w", (6, 2)), ("gen.layer1.b", (2,)),
        ("gen.layer0.bn_running_mean", (6,)), ("gen.layer0.bn_running_var", (6,)),
        ("acc.dem.b_vis", (2,)), ("acc.dem.expert_b", (3,)),
        ("acc.dem.expert_w", (5, 3)), ("acc.dem.layer0.b", (8,)),
        ("acc.dem.layer0.w", (2, 8)), ("acc.dem.layer1.b", (5,)),
        ("acc.dem.layer1.w", (8, 5)), ("acc.gen.layer0.b", (6,)),
        ("acc.gen.layer0.bn_scale", (6,)), ("acc.gen.layer0.bn_shift", (6,)),
        ("acc.gen.layer0.w", (3, 6)), ("acc.gen.layer1.b", (2,)),
        ("acc.gen.layer1.w", (6, 2)),
    ]


def test_checkpoint_roundtrip_is_bit_exact(tmp_path):
    dem, gen, data, config = _small_run(tmp_path)
    state = train(dem, gen, data, config)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, Checkpoint({"note": "test"}, dem, gen, state))
    loaded = load_checkpoint(path)
    assert loaded.config == {"note": "test"}
    assert loaded.state.step == state.step
    for p, q in zip(dem.params() + gen.params(),
                    loaded.dem.params() + loaded.gen.params()):
        assert p.name == q.name
        assert np.array_equal(p.values, q.values)
    for model, twin in ((dem, loaded.dem), (gen, loaded.gen)):
        assert model.store.acc.any()
        assert np.array_equal(model.store.acc, twin.store.acc)
    for a, b in zip(gen.layers, loaded.gen.layers):
        if a.has_batch_norm:
            assert np.array_equal(a.bn_state.mean, b.bn_state.mean)
            assert np.array_equal(a.bn_state.var, b.bn_state.var)


def _bits(array):
    return np.asarray(array, dtype=np.float64).view(np.int64)


@pytest.mark.parametrize("overrides", [
    {"n_experts": 0},
    {"dem_hidden": []},
    {"d_feat": 1, "n_experts": 1},
    {"d_z": 1},
    {"dataset": "mnist", "mnist_images": "i.idx", "mnist_labels": "l.idx"},
], ids=["no_experts", "no_dem_hidden", "one_feature_one_expert", "one_latent", "mnist"])
def test_checkpoint_roundtrip_over_architecture_edges(tmp_path, overrides):
    """Each edge of the architectures the config accepts saves and loads
    with its parameters, AdaGrad accumulators and batch-norm statistics
    bit-equal, so no loader change can drop one."""
    config = RunConfig(batch_size=16, steps=3, seed=9, **overrides).validate()
    dem, gen = build_models(config)
    rng = np.random.default_rng(2)
    data = Dataset(rng.integers(0, 256, size=(64, 784), dtype=np.uint8)
                   if config.dataset == "mnist" else rng.normal(size=(64, 2)))
    state = train(dem, gen, data, config)
    path = tmp_path / "edge.bin"
    save_checkpoint(path, Checkpoint(config.to_dict(), dem, gen, state))
    loaded = load_checkpoint(path)
    assert (loaded.dem.widths, loaded.dem.n_experts, loaded.gen.widths) == (
        dem.widths, dem.n_experts, gen.widths)
    for model, twin in ((dem, loaded.dem), (gen, loaded.gen)):
        assert model.store.acc.any()
        assert np.array_equal(_bits(model.store.values), _bits(twin.store.values))
        assert np.array_equal(_bits(model.store.acc), _bits(twin.store.acc))
    for a, b in zip(gen.layers, loaded.gen.layers):
        if a.has_batch_norm:
            assert np.array_equal(_bits(a.bn_state.mean), _bits(b.bn_state.mean))
            assert np.array_equal(_bits(a.bn_state.var), _bits(b.bn_state.var))


def test_checkpoint_resume_replays_identically(tmp_path):
    dem, gen, data, config = _small_run(tmp_path, steps=40)
    full = io.StringIO()
    train(dem, gen, data, config, metrics_out=full)

    dem2, gen2, data2, _ = _small_run(tmp_path)
    half = io.StringIO()
    state = train(dem2, gen2, data2,
                  RunConfig(batch_size=16, steps=20, seed=9,
                            entropy_estimator="nearest_neighbour"),
                  metrics_out=half)
    path = tmp_path / "mid.bin"
    save_checkpoint(path, Checkpoint({}, dem2, gen2, state))

    resumed = load_checkpoint(path)
    train(resumed.dem, resumed.gen, data2,
          RunConfig(batch_size=16, steps=40, seed=9,
                    entropy_estimator="nearest_neighbour"), state=resumed.state,
          metrics_out=half)
    assert half.getvalue() == full.getvalue()
    for p, q in zip(dem.params(), resumed.dem.params()):
        assert np.array_equal(p.values, q.values)


@pytest.mark.parametrize("estimator", ["nearest_neighbour", "batch_norm_scale"])
def test_checkpoint_resume_gives_the_uninterrupted_state(tmp_path, estimator):
    """20 steps, checkpoint, reload, 20 more: metrics, parameters, batch-norm
    statistics, AdaGrad accumulators and the final checkpoint's bytes equal
    those of one 40-step run. The reloaded accumulators are rebuilt from
    their per-parameter checkpoint entries into each model's flat layout, so
    this is the path where the two could part."""
    def config(steps):
        return RunConfig(batch_size=16, steps=steps, seed=9,
                         entropy_estimator=estimator)

    dem, gen, data, _ = _small_run(tmp_path)
    full = io.StringIO()
    state = train(dem, gen, data, config(40), metrics_out=full)
    save_checkpoint(tmp_path / "full.bin", Checkpoint({}, dem, gen, state))

    dem2, gen2, data2, _ = _small_run(tmp_path)
    half = io.StringIO()
    state2 = train(dem2, gen2, data2, config(20), metrics_out=half)
    save_checkpoint(tmp_path / "mid.bin", Checkpoint({}, dem2, gen2, state2))
    resumed = load_checkpoint(tmp_path / "mid.bin")
    state2 = train(resumed.dem, resumed.gen, data2, config(40), state=resumed.state,
                   metrics_out=half)
    save_checkpoint(tmp_path / "resumed.bin",
                    Checkpoint({}, resumed.dem, resumed.gen, state2))

    assert half.getvalue() == full.getvalue()
    for p, q in zip(dem.params() + gen.params(),
                    resumed.dem.params() + resumed.gen.params()):
        assert np.array_equal(p.values, q.values), p.name
    for a, b in zip(gen.layers, resumed.gen.layers):
        if a.has_batch_norm:
            assert np.array_equal(a.bn_state.mean, b.bn_state.mean)
            assert np.array_equal(a.bn_state.var, b.bn_state.var)
    for model, twin in ((dem, resumed.dem), (gen, resumed.gen)):
        assert np.array_equal(model.store.acc, twin.store.acc)
    assert (tmp_path / "resumed.bin").read_bytes() == (tmp_path / "full.bin").read_bytes()


# --- float32 (784-d) runs and checkpoints -------------------------------------

def _mnist_config(steps, **overrides):
    """A small 784-d run: float32 models, as ``build_models`` makes them."""
    base = dict(dataset="mnist", mnist_images="i.idx", mnist_labels="l.idx",
                dem_hidden=[32], gen_hidden=[32], batch_size=16, steps=steps,
                seed=3)
    return RunConfig(**{**base, **overrides}).validate()


def _mnist_bytes():
    return Dataset(np.random.default_rng(4).integers(0, 256, size=(200, 784),
                                                     dtype=np.uint8))


def _payload(path):
    """A checkpoint's header and the bytes of its tensor blocks."""
    data = path.read_bytes()
    header_len = struct.unpack("<Q", data[12:20])[0]
    return json.loads(data[20:20 + header_len]), data[20 + header_len:]


@pytest.mark.parametrize("estimator", ["batch_norm_scale", "nearest_neighbour"])
def test_float32_run_is_deterministic_and_resumes_from_a_periodic_checkpoint(
        tmp_path, estimator):
    """Two 20-step float32 mnist runs give the same metrics and final
    checkpoint bytes, and so does a run resumed from the step-10 periodic
    checkpoint of the first."""
    config = _mnist_config(20, checkpoint_interval=10, entropy_estimator=estimator)
    data = _mnist_bytes()
    runs = []
    for name in ("first", "second"):
        dem, gen = build_models(config)
        out = tmp_path / name
        out.mkdir()

        def write(state, file_name, dem=dem, gen=gen, out=out):
            save_checkpoint(out / file_name,
                            Checkpoint(config.to_dict(), dem, gen, state))

        metrics = io.StringIO()
        state = train(dem, gen, data, config, metrics_out=metrics,
                      checkpoint_fn=lambda s: write(s, f"checkpoint_{s.step}.bin"))
        write(state, "checkpoint_final.bin")
        runs.append((metrics.getvalue(), (out / "checkpoint_final.bin").read_bytes()))
    assert runs[0] == runs[1]
    assert len(runs[0][0].splitlines()) == 20

    resumed = load_checkpoint(tmp_path / "first" / "checkpoint_10.bin")
    assert resumed.state.step == 10 and resumed.dem.dtype == np.float32
    metrics = io.StringIO()
    state = train(resumed.dem, resumed.gen, data, config, state=resumed.state,
                  metrics_out=metrics)
    save_checkpoint(tmp_path / "resumed.bin",
                    Checkpoint(config.to_dict(), resumed.dem, resumed.gen, state))
    assert metrics.getvalue().splitlines() == runs[0][0].splitlines()[10:]
    assert (tmp_path / "resumed.bin").read_bytes() == runs[0][1]


def test_float32_checkpoint_holds_f4_blocks_and_loads_as_float32(tmp_path):
    config = _mnist_config(3)
    dem, gen = build_models(config)
    state = train(dem, gen, _mnist_bytes(), config)
    path = tmp_path / "f32.bin"
    save_checkpoint(path, Checkpoint(config.to_dict(), dem, gen, state))
    header, payload = _payload(path)
    assert header["dtype"] == "float32"
    assert len(payload) == 4 * sum(math.prod(shape) for _, shape in header["tensors"])
    first = dem.layers[0].w.values
    assert header["tensors"][0] == ["dem.layer0.w", list(first.shape)]
    assert payload[:4 * first.size] == first.astype("<f4").tobytes()

    loaded = load_checkpoint(path)
    for model, twin in ((dem, loaded.dem), (gen, loaded.gen)):
        for name in ("values", "grad", "acc"):
            assert getattr(twin.store, name).dtype == np.float32, name
        assert np.array_equal(model.store.values.view(np.int32),
                              twin.store.values.view(np.int32))
        assert np.array_equal(model.store.acc.view(np.int32),
                              twin.store.acc.view(np.int32))
    for a, b in zip(gen.layers, loaded.gen.layers):
        if a.has_batch_norm:
            for stat in ("mean", "var"):
                assert getattr(b.bn_state, stat).dtype == np.float32
                assert np.array_equal(getattr(a.bn_state, stat).view(np.int32),
                                      getattr(b.bn_state, stat).view(np.int32))


def test_784_checkpoint_with_no_dtype_in_its_header_loads_as_float64(tmp_path):
    """Checkpoints written before float32 models record no dtype and hold
    float64 blocks: a 784-d one still loads as float64, bit-exactly."""
    rng = np.random.default_rng(5)
    dem = EnergyModel.build((784, 16, 4), 4, rng)
    gen = GeneratorModel.build((4, 16, 784), rng, output_activation="sigmoid")
    state = train(dem, gen, _mnist_bytes(), RunConfig(batch_size=16, steps=3, seed=9))
    path = tmp_path / "f64.bin"
    save_checkpoint(path, Checkpoint({}, dem, gen, state))
    rewrite_checkpoint_header(path, lambda header: header.pop("dtype"))
    header, payload = _payload(path)
    assert "dtype" not in header
    assert len(payload) == 8 * sum(math.prod(shape) for _, shape in header["tensors"])

    loaded = load_checkpoint(path)
    for model, twin in ((dem, loaded.dem), (gen, loaded.gen)):
        assert twin.dtype == np.float64
        assert np.array_equal(model.store.values.view(np.int64),
                              twin.store.values.view(np.int64))
        assert np.array_equal(model.store.acc.view(np.int64),
                              twin.store.acc.view(np.int64))
    for a, b in zip(gen.layers, loaded.gen.layers):
        if a.has_batch_norm:
            assert np.array_equal(a.bn_state.var.view(np.int64),
                                  b.bn_state.var.view(np.int64))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_checkpoint_sigma_is_checked_in_the_models_dtype(tmp_path, dtype):
    """sigma 1e-25 has 1/sigma^2 = 1e50, in float64 range and past
    float32's: a float32 checkpoint with it is corrupt, a float64 one
    loads."""
    dem = EnergyModel.build((2, 8, 4), 4, np.random.default_rng(0), dtype=dtype)
    gen = GeneratorModel.build((2, 8, 2), np.random.default_rng(1), dtype=dtype)
    path = tmp_path / "sigma.bin"
    save_checkpoint(path, Checkpoint({}, dem, gen, TrainState.initial(0)))
    rewrite_checkpoint_header(path, lambda header: header["dem"].update(sigma=1e-25))
    if dtype == np.float32:
        with pytest.raises(CheckpointError, match="in float32 range"):
            load_checkpoint(path)
    else:
        assert load_checkpoint(path).dem.sigma == 1e-25


@pytest.mark.parametrize("dtype", ["float16", "<f4", ["float32"], None])
def test_checkpoint_with_an_unknown_dtype_is_refused(tmp_path, dtype):
    dem, gen, _, _ = _small_run(tmp_path)
    path = tmp_path / "dtype.bin"
    save_checkpoint(path, Checkpoint({}, dem, gen, TrainState.initial(0)))
    rewrite_checkpoint_header(path, lambda header: header.update(dtype=dtype))
    with pytest.raises(CheckpointError, match="dtype"):
        load_checkpoint(path)


def test_checkpoint_rng_state_roundtrip(tmp_path):
    dem, gen, data, config = _small_run(tmp_path)
    state = train(dem, gen, data, config)
    path = tmp_path / "rng.bin"
    save_checkpoint(path, Checkpoint({}, dem, gen, state))
    loaded = load_checkpoint(path)
    assert np.array_equal(state.data_rng.uniform(size=16),
                          loaded.state.data_rng.uniform(size=16))
    assert np.array_equal(state.prior_rng.uniform(size=16),
                          loaded.state.prior_rng.uniform(size=16))


def test_checkpoint_truncation_detected(tmp_path):
    dem, gen, data, config = _small_run(tmp_path)
    state = train(dem, gen, data, config)
    path = tmp_path / "trunc.bin"
    save_checkpoint(path, Checkpoint({}, dem, gen, state))
    data = path.read_bytes()
    for cut in (4, 15, len(data) - 3):
        path.write_bytes(data[:cut])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


def test_checkpoint_bad_magic_and_version(tmp_path):
    dem, gen, data, config = _small_run(tmp_path)
    state = train(dem, gen, data, config)
    path = tmp_path / "bad.bin"
    save_checkpoint(path, Checkpoint({}, dem, gen, state))
    data = bytearray(path.read_bytes())

    path.write_bytes(b"NOTACKPT" + bytes(data[8:]))
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)

    data[8:12] = struct.pack("<I", 99)
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


@pytest.mark.parametrize("damage", ["tensors", "dem", "gen", "state", "config",
                                    "as_list"])
def test_checkpoint_bad_header_structure(tmp_path, damage):
    dem, gen, _, _ = _small_run(tmp_path)
    path = tmp_path / "header.bin"
    save_checkpoint(path, Checkpoint({}, dem, gen, TrainState.initial(0)))
    data = path.read_bytes()
    header_len = struct.unpack("<Q", data[12:20])[0]
    header = json.loads(data[20:20 + header_len])
    if damage == "as_list":
        header = [header]
    else:
        del header[damage]
    blob = json.dumps(header).encode()
    path.write_bytes(data[:12] + struct.pack("<Q", len(blob)) + blob
                     + data[20 + header_len:])
    with pytest.raises(CheckpointError, match="corrupt header"):
        load_checkpoint(path)


def test_checkpoint_header_that_is_not_utf8(tmp_path):
    dem, gen, _, _ = _small_run(tmp_path)
    path = tmp_path / "header.bin"
    save_checkpoint(path, Checkpoint({}, dem, gen, TrainState.initial(0)))
    data = bytearray(path.read_bytes())
    data[20] = 0xFF   # the header's opening brace; 0xFF is no UTF-8 byte
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointError, match="corrupt header"):
        load_checkpoint(path)


def _rename_tensor(header, old, new):
    for entry in header["tensors"]:
        if entry[0] == old:
            entry[0] = new


@pytest.mark.parametrize("edit", [
    lambda h: h.update(dem=[]),
    lambda h: _rename_tensor(h, "gen.layer0.bn_running_mean", "gen.layer0.bn_mean"),
    lambda h: h["state"].pop("data_rng"),
    lambda h: h.update(tensors={"a": 1}),
    lambda h: h["dem"].update(sigma=-1),
    lambda h: h.update(config=[]),
    lambda h: h["gen"].update(output_activation="relu"),
    lambda h: h["state"].update(step="3"),
    lambda h: h["dem"].update(widths=[2, 0, 4]),
    lambda h: h["gen"].update(widths=[2, 0, 2]),
    lambda h: h["dem"].update(sigma=float("nan")),
    lambda h: h["dem"].update(sigma=float("inf")),
    lambda h: h["state"].update(data_rng=None),
    lambda h: h["state"].update(prior_rng=None),
    lambda h: h["state"].update(step=-5),
    lambda h: h["state"].update(step=True),
    lambda h: h["tensors"].append(["extra", [2**32, 2**32]]),
], ids=["dem_list", "bn_stat_renamed", "no_data_rng", "tensors_dict",
        "negative_sigma", "config_list", "unknown_activation", "step_string",
        "dem_zero_width", "gen_zero_width", "nan_sigma", "infinite_sigma",
        "null_data_rng", "null_prior_rng", "negative_step", "bool_step",
        "block_size_overflowing_int64"])
def test_checkpoint_malformed_header_value(tmp_path, edit):
    """The last case's block size wraps to 0 in int64, which once passed
    the payload size check and failed in a reshape's ValueError."""
    dem, gen, _, _ = _small_run(tmp_path)
    path = tmp_path / "header.bin"
    save_checkpoint(path, Checkpoint({}, dem, gen, TrainState.initial(0)))
    rewrite_checkpoint_header(path, edit)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


@pytest.mark.parametrize("edit", [
    lambda h: h["dem"].update(widths=[2, 200_000, 200_000, 4]),
    lambda h: h["gen"].update(widths=[4, 200_000, 200_000, 2]),
    lambda h: h["dem"].update(n_experts=10**12),
    lambda h: h["dem"].update(widths=[2, 200_000, 200_000, 4], n_experts=-10**10),
], ids=["dem_widths", "gen_widths", "n_experts", "negative_n_experts_offsetting"])
def test_checkpoint_widths_past_the_payload_are_refused_before_building(
        tmp_path, monkeypatch, edit):
    """A header whose weights would hold more floats than the payload is
    refused before any model array is allocated; a negative width cannot
    offset a large one."""
    dem, gen, _, _ = _small_run(tmp_path)
    path = tmp_path / "wide.bin"
    save_checkpoint(path, Checkpoint({}, dem, gen, TrainState.initial(0)))
    rewrite_checkpoint_header(path, edit)

    def build(*args, **kwargs):
        raise AssertionError("a model was built")

    monkeypatch.setattr(EnergyModel, "build", build)
    monkeypatch.setattr(GeneratorModel, "build", build)
    with pytest.raises(CheckpointError, match="weights, the tensor payload holds"):
        load_checkpoint(path)


def _resize_tensor(path, name, size):
    """Rewrite the checkpoint at ``path`` so that tensor ``name`` holds
    ``size`` ones: its manifest entry and its payload block both change."""
    data = path.read_bytes()
    header_len = struct.unpack("<Q", data[12:20])[0]
    header = json.loads(data[20:20 + header_len])
    offset, payload = 20 + header_len, b""
    for entry in header["tensors"]:
        block_len = 8 * int(np.prod(entry[1]))
        block = data[offset:offset + block_len]
        offset += block_len
        if entry[0] == name:
            entry[1] = [size]
            block = np.ones(size).astype("<f8").tobytes()
        payload += block
    blob = json.dumps(header).encode()
    path.write_bytes(data[:12] + struct.pack("<Q", len(blob)) + blob + payload)


@pytest.mark.parametrize("size", [1, 3])
def test_checkpoint_accumulator_of_the_wrong_shape(tmp_path, size):
    """An accumulator that does not fit its parameter (b_vis has 2 entries)
    is a corrupt checkpoint, not something to broadcast on resume."""
    dem, gen, data, config = _small_run(tmp_path)
    state = train(dem, gen, data, config)
    path = tmp_path / "acc.bin"
    save_checkpoint(path, Checkpoint({}, dem, gen, state))
    _resize_tensor(path, "acc.dem.b_vis", size)
    with pytest.raises(CheckpointError, match="acc.dem.b_vis"):
        load_checkpoint(path)


def test_checkpoint_missing_accumulator_is_zero_and_unknown_one_ignored(tmp_path):
    dem, gen, data, config = _small_run(tmp_path)
    state = train(dem, gen, data, config)
    path = tmp_path / "acc.bin"
    save_checkpoint(path, Checkpoint({}, dem, gen, state))
    rewrite_checkpoint_header(
        path, lambda h: _rename_tensor(h, "acc.dem.b_vis", "acc.dem.nothing"))
    loaded = load_checkpoint(path)
    assert np.array_equal(loaded.gen.store.acc, gen.store.acc)
    saved = dem.store.views(dem.store.acc)
    for name, view in dem.store.views(loaded.dem.store.acc).items():
        assert np.all(view == (0.0 if name == "dem.b_vis" else saved[name])), name


def test_checkpoint_before_a_models_first_update_resumes_to_the_uninterrupted_run(
        tmp_path):
    """A model's accumulator is written once it holds a nonzero entry, so a
    checkpoint taken before the generator's first update holds none of
    ``acc.gen.*`` and loads a zero accumulator; resuming from it gives the
    bytes of the uninterrupted run's final checkpoint."""
    def config(steps):
        return RunConfig(batch_size=16, steps=steps, seed=9,
                         dem_updates_per_dgm_update=3)

    dem, gen, data, _ = _small_run(tmp_path)
    state = train(dem, gen, data, config(7))
    save_checkpoint(tmp_path / "full.bin", Checkpoint({}, dem, gen, state))

    dem2, gen2, data2, _ = _small_run(tmp_path)
    state2 = train(dem2, gen2, data2, config(1))
    save_checkpoint(tmp_path / "early.bin", Checkpoint({}, dem2, gen2, state2))
    data = (tmp_path / "early.bin").read_bytes()
    header_len = struct.unpack("<Q", data[12:20])[0]
    names = [name for name, _ in json.loads(data[20:20 + header_len])["tensors"]]
    assert any(name.startswith("acc.dem.") for name in names)
    assert not any(name.startswith("acc.gen.") for name in names)
    resumed = load_checkpoint(tmp_path / "early.bin")
    assert not resumed.gen.store.acc.any()
    assert np.array_equal(resumed.dem.store.acc, dem2.store.acc)
    state2 = train(resumed.dem, resumed.gen, data2, config(7), state=resumed.state)
    save_checkpoint(tmp_path / "resumed.bin",
                    Checkpoint({}, resumed.dem, resumed.gen, state2))
    assert (tmp_path / "resumed.bin").read_bytes() == (tmp_path / "full.bin").read_bytes()


def _insert_block(path, index, name, values):
    """Rewrite the checkpoint at ``path`` with one more block, ``name``
    holding ``values``, at manifest position ``index``."""
    data = path.read_bytes()
    header_len = struct.unpack("<Q", data[12:20])[0]
    header = json.loads(data[20:20 + header_len])
    offset = 20 + header_len + sum(8 * math.prod(shape)
                                   for _, shape in header["tensors"][:index])
    header["tensors"].insert(index, [name, list(values.shape)])
    blob = json.dumps(header).encode()
    path.write_bytes(data[:12] + struct.pack("<Q", len(blob)) + blob
                     + data[20 + header_len:offset] + values.astype("<f8").tobytes()
                     + data[offset:])


def test_checkpoint_unknown_block_before_a_model_block_is_skipped(tmp_path):
    """The loader walks the manifest once, so a block that names no model
    array must still advance the offset of the blocks after it."""
    dem, gen, data, config = _small_run(tmp_path)
    state = train(dem, gen, data, config)
    path = tmp_path / "extra.bin"
    save_checkpoint(path, Checkpoint({}, dem, gen, state))
    _insert_block(path, 0, "dem.no_such_parameter", np.arange(5.0))
    loaded = load_checkpoint(path)
    for p, q in zip(dem.params() + gen.params(),
                    loaded.dem.params() + loaded.gen.params()):
        assert np.array_equal(p.values, q.values), p.name
    for model, twin in ((dem, loaded.dem), (gen, loaded.gen)):
        assert np.array_equal(model.store.acc, twin.store.acc)
    for a, b in zip(gen.layers, loaded.gen.layers):
        if a.has_batch_norm:
            assert np.array_equal(a.bn_state.mean, b.bn_state.mean)
            assert np.array_equal(a.bn_state.var, b.bn_state.var)


def test_checkpoint_that_cannot_be_read(tmp_path):
    with pytest.raises(CheckpointError, match="no such checkpoint"):
        load_checkpoint(tmp_path / "absent.bin")
    with pytest.raises(CheckpointError, match=f"{tmp_path}: cannot read checkpoint"):
        load_checkpoint(tmp_path)


def test_a_failed_checkpoint_write_leaves_no_file(tmp_path, monkeypatch):
    """A write that fails at the rename is re-raised, and neither the temp
    file nor the checkpoint is left in the directory."""
    dem, gen, _, _ = _small_run(tmp_path)
    directory = tmp_path / "out"
    directory.mkdir()

    def refuse(src, dst):
        raise OSError("no space left on device")

    monkeypatch.setattr("os.replace", refuse)
    with pytest.raises(OSError, match="no space left"):
        save_checkpoint(directory / "checkpoint.bin",
                        Checkpoint({}, dem, gen, TrainState.initial(0)))
    assert list(directory.iterdir()) == []


def test_save_checkpoint_writes_the_arrays_without_copying_them(tmp_path):
    """On the default 784-d pair with nonzero accumulators (a ~3.8 MB
    file), saving allocates a small part of the file: each array's buffer
    is written as it is, with no bytes copy."""
    config = RunConfig(dataset="mnist", mnist_images="i.idx", mnist_labels="l.idx")
    dem, gen = build_models(config.validate())
    for model in (dem, gen):
        model.store.acc[...] = np.random.default_rng(6).uniform(size=model.store.acc.shape)
    checkpoint = Checkpoint(config.to_dict(), dem, gen, TrainState.initial(0))
    path = tmp_path / "wide.bin"
    save_checkpoint(path, checkpoint)  # imports and first-call caches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        save_checkpoint(path, checkpoint)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 10


def test_load_checkpoint_reads_each_block_into_its_array(tmp_path):
    """Loading the default 784-d pair with nonzero accumulators (a ~3.8 MB
    file) allocates the two models and little more: each block is read
    straight into its array, with no copy of the file."""
    config = RunConfig(dataset="mnist", mnist_images="i.idx", mnist_labels="l.idx")
    dem, gen = build_models(config.validate())
    for model in (dem, gen):
        model.store.acc[...] = np.random.default_rng(7).uniform(size=model.store.acc.shape)
    path = tmp_path / "wide.bin"
    save_checkpoint(path, Checkpoint(config.to_dict(), dem, gen, TrainState.initial(0)))
    load_checkpoint(path)  # imports and first-call caches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loaded = load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    for model, original in ((loaded.dem, dem), (loaded.gen, gen)):
        assert np.array_equal(model.store.values, original.store.values)
        assert np.array_equal(model.store.acc, original.store.acc)
    # building the two models peaks at ~7.6 MB, twice the file; a copy of
    # the whole file on top of that made the load peak 11.4 MB
    assert peak < 2 * path.stat().st_size + (1 << 20)


def test_checkpoint_with_older_header_fields_loads(tmp_path):
    # earlier versions also wrote activation names and a metrics history
    dem, gen, data, config = _small_run(tmp_path)
    state = train(dem, gen, data, config)
    path = tmp_path / "old.bin"
    save_checkpoint(path, Checkpoint({}, dem, gen, state))

    def add_old_fields(header):
        header["dem"].update(hidden_activation="tanh", final_activation="sigmoid")
        header["gen"].update(batch_norm_hidden=True, hidden_activation="tanh")
        header["state"]["history"] = [{"step": 0, "e_pos": 0.5, "e_neg": 0.25}]

    rewrite_checkpoint_header(path, add_old_fields)
    loaded = load_checkpoint(path)
    assert loaded.state.step == state.step
    x = np.random.default_rng(3).normal(size=(32, 2))
    assert np.array_equal(loaded.dem.energy_values(x), dem.energy_values(x))
    z = np.random.default_rng(4).uniform(-1.0, 1.0, size=(32, 2))
    assert np.array_equal(loaded.gen.generate(z), gen.generate(z))


def test_points_csv_export(tmp_path):
    pts = np.array([[0.25, -1.5], [3.0, 0.125]])
    path = tmp_path / "points.csv"
    save_points_csv(path, pts)
    lines = path.read_text().splitlines()
    assert lines[0] == "x0,x1"
    parsed = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.array_equal(parsed, pts)


def test_points_csv_writes_float_reprs(tmp_path):
    pts = np.array([[1, -2], [3, 4]])  # integers are written as floats
    path = tmp_path / "points.csv"
    save_points_csv(path, pts)
    assert path.read_text() == "x0,x1\n1.0,-2.0\n3.0,4.0\n"
    pts = np.random.default_rng(0).normal(size=(5, 3))
    save_points_csv(path, pts)
    assert path.read_text().splitlines()[1:] == [
        ",".join(repr(float(v)) for v in row) for row in pts]


def _float32_values(size: int) -> np.ndarray:
    """float32's edge values first, then random magnitudes over 1e-30..1e30
    of either sign."""
    f32 = np.finfo(np.float32)
    one = np.float32(1.0)
    edges = np.array([-0.0, 1e-45, f32.tiny, f32.max, -f32.max,
                      np.nextafter(one, np.float32(0.0)), one,
                      np.nextafter(one, np.float32(2.0))], dtype=np.float32)
    rng = np.random.default_rng(size)
    values = (rng.choice([-1.0, 1.0], size=size)
              * 10.0 ** rng.uniform(-30.0, 30.0, size=size)).astype(np.float32)
    values[:min(size, edges.size)] = edges[:size]
    return values


@pytest.mark.parametrize("width", [1, 2, 3])
@pytest.mark.parametrize("rows", [0, 1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1])
def test_points_csv_of_float32_reads_back_bit_for_bit(tmp_path, rows, width):
    """float32 values are written with 9 significant digits, which parse
    back to the same float32: -0.0, the smallest subnormal and float32's max
    too, in every row block."""
    pts = _float32_values(rows * width).reshape(rows, width)
    path = tmp_path / "points.csv"
    save_points_csv(path, pts)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(f"x{i}" for i in range(width))
    parsed = np.array([[np.float32(float(s)) for s in line.split(",")]
                       for line in lines[1:]], dtype=np.float32).reshape(rows, width)
    assert np.array_equal(parsed.view(np.uint32), pts.view(np.uint32))
