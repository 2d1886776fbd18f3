"""Shared assertions and tiny builders for the test suite."""

import json
import struct

import numpy as np

from dualebm import autodiff as ad
from dualebm.autodiff import Parameter, Tape
from dualebm.generator_model import LOG_2PIE, nearest_neighbour_constant
from dualebm.gradcheck import finite_difference


def assert_grads_match(analytic, numeric, rtol, floor=0.01):
    """Per-coordinate |a - f| / max(floor, |a|, |f|) < rtol for every param.

    The floor turns the bound into an absolute one for vanishing gradients,
    where plain relative error would only measure finite-difference noise.
    """
    assert set(analytic) == set(numeric)
    for name in analytic:
        a = np.asarray(analytic[name])
        f = np.asarray(numeric[name])
        assert a.shape == f.shape, name
        denom = np.maximum(floor, np.maximum(np.abs(a), np.abs(f)))
        err = np.abs(a - f) / denom
        assert err.max() < rtol, f"{name}: worst error {err.max():.3e} >= {rtol}"


def param(values, name="p"):
    return Parameter(np.asarray(values, dtype=np.float64), name)


def grads_of(params):
    return {p.name: p.grad.copy() for p in params}


def numeric_grads(loss_fn, params):
    """Central differences of ``loss_fn`` over each parameter, by name."""
    return {p.name: finite_difference(loss_fn, p.values) for p in params}


def write_idx_pair(tmp_path, count=10, rows=4, cols=3, pixel_fn=None):
    """Hand-rolled IDX writer: independent of the loader under test."""
    images = tmp_path / "images.idx"
    labels = tmp_path / "labels.idx"
    rng = np.random.default_rng(0)
    pixels = (pixel_fn(count, rows, cols) if pixel_fn is not None
              else rng.integers(0, 256, size=(count, rows, cols), dtype=np.uint8))
    with open(images, "wb") as f:
        f.write(struct.pack(">iiii", 0x00000803, count, rows, cols))
        f.write(pixels.tobytes())
    with open(labels, "wb") as f:
        f.write(struct.pack(">ii", 0x00000801, count))
        f.write(rng.integers(0, 10, size=count, dtype=np.uint8).tobytes())
    return images, labels, pixels


def rewrite_checkpoint_header(path, edit):
    """Apply ``edit`` to the JSON header of the checkpoint at ``path``."""
    data = path.read_bytes()
    header_len = struct.unpack("<Q", data[12:20])[0]
    header = json.loads(data[20:20 + header_len])
    edit(header)
    blob = json.dumps(header).encode()
    path.write_bytes(data[:12] + struct.pack("<Q", len(blob)) + blob
                     + data[20 + header_len:])


# --- the primitive chains that the hand-written passes and backwards stand for

_ACTIVATIONS = {"linear": lambda a: a, "tanh": ad.tanh, "sigmoid": ad.sigmoid,
                "softplus": ad.softplus}


def reference_layer(h, w, b, activation):
    """activation(h @ w + b) as the matmul, add and activation entries."""
    return _ACTIVATIONS[activation](h @ w + b)


def reference_energy(model, x):
    """The energies of node x as the chain of tape primitives that
    ``EnergyModel._energy`` and its backward stand for: one
    ``reference_layer`` per feature layer and one for the experts, then
    ``square``, ``*`` and ``.sum()``. The hand-written pass must match it
    bit for bit."""
    tape = x.tape
    f = reference_features(model, x)
    quadratic = ad.square(x).sum(axis=1) * (1.0 / model.sigma**2)
    mean_term = (x * tape.watch(model.b_vis)).sum(axis=1)
    layer = model.layers[-1]
    experts = reference_layer(f, tape.watch(layer.w), tape.watch(layer.b), "softplus")
    return quadratic - mean_term - experts.sum(axis=1)


def reference_features(model, x):
    """The features of node x as one ``reference_layer`` per feature layer,
    ``model.layers[:-1]``: tanh, then sigmoid at the last."""
    tape = x.tape
    *hidden, last = model.layers[:-1]
    h = x
    for layer in hidden:
        h = reference_layer(h, tape.watch(layer.w), tape.watch(layer.b), "tanh")
    return reference_layer(h, tape.watch(last.w), tape.watch(last.b), "sigmoid")


def reference_generate(gen, z, mode):
    """The samples of node z as the chain of ``reference_layer`` and
    ``ad.batch_norm`` entries, one pair per layer of ``gen.layers``, that
    ``autodiff.stack_forward`` and ``stack_backward`` stand for."""
    tape = z.tape
    h = z
    for layer in gen.layers:
        w, b = tape.watch(layer.w), tape.watch(layer.b)
        if layer.has_batch_norm:
            h = reference_layer(h, w, b, "tanh")
            h = ad.batch_norm(h, tape.watch(layer.bn_shift), tape.watch(layer.bn_scale),
                              layer.bn_state, mode)
        else:
            h = reference_layer(h, w, b, gen.output_activation)
    return h


def reference_dem_loss_gradient(model, x_pos, x_neg):
    """``dem_loss_gradient`` on the primitive chain: the loss, a copy of the
    gradient it leaves in ``model.store.grad``, and the phase means."""
    tape = Tape()
    e_pos = reference_energy(model, tape.constant(x_pos)).mean()
    e_neg = reference_energy(model, tape.constant(x_neg)).mean()
    loss = e_pos - e_neg
    tape.backward(loss)
    return float(loss.values), model.store.grad.copy(), {
        "e_pos": float(e_pos.values), "e_neg": float(e_neg.values)}


def reference_entropy_surrogate(gen, tape):
    """The batch-norm-scale entropy on the tape: each scale watched, then
    ``log``, ``square``, ``+``, ``.sum()`` and ``*``."""
    terms = None
    for p in gen.scale_parameters():
        term = (ad.log(ad.square(tape.watch(p))) + LOG_2PIE).sum() * 0.5
        terms = term if terms is None else terms + term
    return tape.constant(0.0) if terms is None else terms


def reference_nearest_neighbour_entropy(x):
    """The Kozachenko-Leonenko entropy of the rows of node x on the tape,
    with the neighbours picked on its values. The additive constant, which
    no gradient depends on, is the program's own."""
    from scipy.spatial.distance import cdist

    n, d = x.shape
    dist = cdist(x.values, x.values, "sqeuclidean")
    np.fill_diagonal(dist, np.inf)
    pick = np.zeros((n, n))
    pick[np.arange(n), dist.argmin(axis=1)] = 1.0
    diff = x - ad.matmul(pick, x)
    rho_sq = ad.square(diff).sum(axis=1)
    return (ad.log(rho_sq).sum() * (0.5 * d / n)
            + nearest_neighbour_constant(n, d))


def reference_dgm_loss_gradient(gen, dem, z, entropy_weight, estimator):
    """``dgm_loss_gradient`` on the primitive chain: the loss, a copy of the
    gradient it leaves in ``gen.store.grad``, and its terms."""
    tape = Tape()
    tape.freeze(dem.params())
    x = reference_generate(gen, tape.constant(z), "train")
    e_gen = reference_energy(dem, x).mean()
    entropy = (reference_nearest_neighbour_entropy(x) if estimator == "nearest_neighbour"
               else reference_entropy_surrogate(gen, tape))
    loss = e_gen - entropy_weight * entropy
    tape.backward(loss)
    return float(loss.values), gen.store.grad.copy(), {
        "e_gen": float(e_gen.values), "entropy": float(entropy.values)}


# --- the full-array image export that the blocked one replaces ---------------

def reference_image_files(samples):
    """The bytes of the PGM strip and the text of its ``.meta`` sidecar that
    ``export_image_grid`` writes for image rows, computed on the whole array
    at once: one min/max scaling expression, then the tile layout."""
    samples = np.asarray(samples, dtype=np.float64)
    k, width = samples.shape
    side = int(round(np.sqrt(width)))
    vmin, vmax = float(samples.min()), float(samples.max())
    meta = {"vmin": repr(vmin), "vmax": repr(vmax), "tiles": k, "tile_side": side}
    if vmax > vmin:
        scaled = np.round((samples - vmin) / (vmax - vmin) * 255.0)
    else:
        scaled = np.zeros_like(samples)
        meta["degenerate_scale"] = "true"
    strip = (scaled.astype(np.uint8)
             .reshape(k, side, side)
             .transpose(1, 0, 2)
             .reshape(side, k * side))
    pgm = f"P5\n{k * side} {side}\n255\n".encode("ascii") + strip.tobytes()
    return pgm, "".join(f"{key}={value}\n" for key, value in meta.items())
