import io
import json
import math
import struct
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.spatial.distance import cdist

from dualebm.config import RunConfig, build_models
from dualebm.data_io import (
    Checkpoint,
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
from dualebm.training import TrainState, train

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


def test_two_spiral_arm_balance_and_size():
    ds = make_dataset("two_spiral", 10_000, 0.01, np.random.default_rng(1))
    assert ds.points.shape == (10_000, 2)
    counts = np.bincount(ds.labels)
    assert abs(counts[0] - counts[1]) <= 1


def test_two_spiral_stays_in_box_at_small_noise():
    ds = make_dataset("two_spiral", 10_000, 0.02, np.random.default_rng(2))
    assert np.all(np.abs(ds.points) <= 1.2)


def test_two_spiral_odd_count_balance():
    ds = make_dataset("two_spiral", 101, 0.0, np.random.default_rng(3))
    counts = np.bincount(ds.labels)
    assert abs(int(counts[0]) - int(counts[1])) <= 1


def test_generators_are_pure_functions_of_seed():
    a = make_dataset("four_spin", 500, 0.01, np.random.default_rng(7))
    b = make_dataset("four_spin", 500, 0.01, np.random.default_rng(7))
    assert np.array_equal(a.points, b.points)


def test_four_spin_balance_and_center():
    ds = make_dataset("four_spin", 10_000, 0.01, np.random.default_rng(4))
    counts = np.bincount(ds.labels)
    assert counts.max() - counts.min() <= 1
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
        Dataset(np.zeros((0, 2)), "empty")
    with pytest.raises(ValueError):
        Dataset(np.array([[np.nan, 0.0]]), "nan")


# --- MNIST IDX -------------------------------------------------------------------

def test_idx_roundtrip_shapes_and_scaling(tmp_path):
    images, labels, pixels = write_idx_pair(tmp_path)
    ds = load_mnist_idx(images, labels)
    assert ds.points.shape == (10, 12)
    assert ds.labels.shape == (10,)
    assert np.all(ds.points >= 0.0) and np.all(ds.points <= 1.0)
    assert_allclose(ds.points, pixels.reshape(10, 12) / 255.0)


def test_idx_byte_endpoints_map_to_unit_interval(tmp_path):
    def extremes(count, rows, cols):
        px = np.zeros((count, rows, cols), dtype=np.uint8)
        px[0, 0, 0] = 0xFF
        return px

    images, labels, _ = write_idx_pair(tmp_path, pixel_fn=extremes)
    ds = load_mnist_idx(images, labels)
    assert ds.points[0, 0] == 1.0
    assert ds.points[0, 1] == 0.0


def test_idx_standard_training_header_dimensions(tmp_path):
    images, labels, _ = write_idx_pair(tmp_path, count=60_000, rows=28, cols=28)
    ds = load_mnist_idx(images, labels)
    assert ds.points.shape == (60_000, 784)


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
    points = make_dataset("four_spin", 256, 0.01, np.random.default_rng(2)).points
    config = RunConfig(batch_size=16, steps=steps, seed=9,
                       checkpoint_interval=ckpt_interval,
                       entropy_estimator="nearest_neighbour")
    return dem, gen, points, config


def test_checkpoint_roundtrip_is_bit_exact(tmp_path):
    dem, gen, points, config = _small_run(tmp_path)
    state = train(dem, gen, points, config)
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


def test_checkpoint_resume_replays_identically(tmp_path):
    dem, gen, points, config = _small_run(tmp_path, steps=40)
    full = io.StringIO()
    train(dem, gen, points, config, metrics_out=full)

    dem2, gen2, points2, _ = _small_run(tmp_path)
    half = io.StringIO()
    state = train(dem2, gen2, points2,
                  RunConfig(batch_size=16, steps=20, seed=9,
                            entropy_estimator="nearest_neighbour"),
                  metrics_out=half)
    path = tmp_path / "mid.bin"
    save_checkpoint(path, Checkpoint({}, dem2, gen2, state))

    resumed = load_checkpoint(path)
    train(resumed.dem, resumed.gen, points2,
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

    dem, gen, points, _ = _small_run(tmp_path)
    full = io.StringIO()
    state = train(dem, gen, points, config(40), metrics_out=full)
    save_checkpoint(tmp_path / "full.bin", Checkpoint({}, dem, gen, state))

    dem2, gen2, points2, _ = _small_run(tmp_path)
    half = io.StringIO()
    state2 = train(dem2, gen2, points2, config(20), metrics_out=half)
    save_checkpoint(tmp_path / "mid.bin", Checkpoint({}, dem2, gen2, state2))
    resumed = load_checkpoint(tmp_path / "mid.bin")
    state2 = train(resumed.dem, resumed.gen, points2, config(40), state=resumed.state,
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


def test_checkpoint_rng_state_roundtrip(tmp_path):
    dem, gen, points, config = _small_run(tmp_path)
    state = train(dem, gen, points, config)
    path = tmp_path / "rng.bin"
    save_checkpoint(path, Checkpoint({}, dem, gen, state))
    loaded = load_checkpoint(path)
    assert np.array_equal(state.data_rng.uniform(size=16),
                          loaded.state.data_rng.uniform(size=16))
    assert np.array_equal(state.prior_rng.uniform(size=16),
                          loaded.state.prior_rng.uniform(size=16))


def test_checkpoint_truncation_detected(tmp_path):
    dem, gen, points, config = _small_run(tmp_path)
    state = train(dem, gen, points, config)
    path = tmp_path / "trunc.bin"
    save_checkpoint(path, Checkpoint({}, dem, gen, state))
    data = path.read_bytes()
    for cut in (4, 15, len(data) - 3):
        path.write_bytes(data[:cut])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


def test_checkpoint_bad_magic_and_version(tmp_path):
    dem, gen, points, config = _small_run(tmp_path)
    state = train(dem, gen, points, config)
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
    dem, gen, points, config = _small_run(tmp_path)
    state = train(dem, gen, points, config)
    path = tmp_path / "acc.bin"
    save_checkpoint(path, Checkpoint({}, dem, gen, state))
    _resize_tensor(path, "acc.dem.b_vis", size)
    with pytest.raises(CheckpointError, match="acc.dem.b_vis"):
        load_checkpoint(path)


def test_checkpoint_missing_accumulator_is_zero_and_unknown_one_ignored(tmp_path):
    dem, gen, points, config = _small_run(tmp_path)
    state = train(dem, gen, points, config)
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

    dem, gen, points, _ = _small_run(tmp_path)
    state = train(dem, gen, points, config(7))
    save_checkpoint(tmp_path / "full.bin", Checkpoint({}, dem, gen, state))

    dem2, gen2, points2, _ = _small_run(tmp_path)
    state2 = train(dem2, gen2, points2, config(1))
    save_checkpoint(tmp_path / "early.bin", Checkpoint({}, dem2, gen2, state2))
    data = (tmp_path / "early.bin").read_bytes()
    header_len = struct.unpack("<Q", data[12:20])[0]
    names = [name for name, _ in json.loads(data[20:20 + header_len])["tensors"]]
    assert any(name.startswith("acc.dem.") for name in names)
    assert not any(name.startswith("acc.gen.") for name in names)
    resumed = load_checkpoint(tmp_path / "early.bin")
    assert not resumed.gen.store.acc.any()
    assert np.array_equal(resumed.dem.store.acc, dem2.store.acc)
    state2 = train(resumed.dem, resumed.gen, points2, config(7), state=resumed.state)
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
    dem, gen, points, config = _small_run(tmp_path)
    state = train(dem, gen, points, config)
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
    dem, gen, points, config = _small_run(tmp_path)
    state = train(dem, gen, points, config)
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
