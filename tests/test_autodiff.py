import math
import os
import threading
import time
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dualebm import autodiff as ad
from dualebm.autodiff import (
    BatchNormState,
    DomainError,
    Parameter,
    ShapeError,
    Tape,
    TapeError,
)
from dualebm.gradcheck import finite_difference

from helpers import assert_grads_match, grads_of, numeric_grads, param, reference_layer


def test_matmul_identity():
    tape = Tape()
    a = tape.constant([[1.0, 2.0], [3.0, 4.0]])
    eye = tape.constant([[1.0, 0.0], [0.0, 1.0]])
    assert_allclose((a @ eye).values, [[1.0, 2.0], [3.0, 4.0]])


def test_matmul_dot_product():
    tape = Tape()
    a = tape.constant([[1.0, 2.0]])
    b = tape.constant([[3.0], [4.0]])
    assert_allclose((a @ b).values, [[11.0]])


def test_matmul_shape_mismatch_names_both_shapes():
    tape = Tape()
    a = tape.constant(np.zeros((2, 3)))
    b = tape.constant(np.zeros((2, 3)))
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        a @ b


@pytest.mark.parametrize("seed", range(5))
def test_matmul_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    a = param(rng.normal(size=(3, 3)), "a")
    b = param(rng.normal(size=(3, 3)), "b")

    def loss():
        tape = Tape()
        out = (tape.watch(a) @ tape.watch(b)).sum()
        tape.backward(out)
        return float(out.values)

    loss()
    analytic = grads_of([a, b])
    numeric = numeric_grads(loss, [a, b])
    assert_grads_match(analytic, numeric, rtol=1e-6)


def test_softplus_values():
    tape = Tape()
    x = tape.constant([0.0, 1000.0, -1000.0])
    out = ad.softplus(x).values
    assert_allclose(out[0], math.log(2.0), rtol=1e-12)
    assert out[1] == 1000.0
    assert out[2] == 0.0


def test_sigmoid_is_overflow_safe():
    tape = Tape()
    x = tape.constant([-1000.0, 0.0, 1000.0])
    out = ad.sigmoid(x).values
    assert_allclose(out, [0.0, 0.5, 1.0], atol=1e-12)
    assert np.all(np.isfinite(out))


def test_sigmoid_is_bit_equal_to_the_two_branch_formula():
    rng = np.random.default_rng(0)
    x = np.concatenate([rng.normal(size=997) * scale for scale in (0.1, 1.0, 30.0, 800.0)])
    x[::17] = 0.0
    x[::29] = -0.0
    expected = np.empty_like(x)
    pos = x >= 0
    expected[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    expected[~pos] = ex / (1.0 + ex)
    for shape in ((x.size,), (4, x.size // 4)):
        out = ad.sigmoid_values(x.reshape(shape)).ravel()
        assert np.array_equal(out.view(np.int64), expected.view(np.int64))


def test_backward_of_sum_is_ones():
    p = param(np.arange(6.0).reshape(2, 3))
    tape = Tape()
    tape.backward(tape.watch(p).sum())
    assert_allclose(p.grad, np.ones((2, 3)))


def test_backward_of_square_sum():
    p = param([1.0, 2.0, 3.0])
    tape = Tape()
    x = tape.watch(p)
    tape.backward(ad.square(x).sum())
    assert_allclose(p.grad, [2.0, 4.0, 6.0])


def test_backward_rejects_nonscalar_root():
    tape = Tape()
    p = tape.watch(param([1.0, 2.0]))
    with pytest.raises(TapeError, match="scalar"):
        tape.backward(p)


def test_unreachable_parameter_gets_zero_gradient():
    used = param([1.0, 2.0], "used")
    unused = param([3.0, 4.0], "unused")
    unused.grad[:] = 99.0  # stale gradient from a previous pass
    tape = Tape()
    x = tape.watch(used)
    tape.watch(unused)
    tape.backward(ad.square(x).sum())
    assert_allclose(used.grad, [2.0, 4.0])
    assert_allclose(unused.grad, [0.0, 0.0])


def test_cross_tape_operands_rejected():
    t1, t2 = Tape(), Tape()
    a = t1.constant([1.0])
    b = t2.constant([2.0])
    with pytest.raises(TapeError):
        a + b


def test_log_domain_error():
    tape = Tape()
    with pytest.raises(DomainError):
        ad.log(tape.constant([1.0, 0.0]))


def test_watch_same_parameter_twice_accumulates_once():
    p = param([1.0, 2.0])
    tape = Tape()
    a = tape.watch(p)
    b = tape.watch(p)
    assert a.idx == b.idx
    tape.backward((a + b).sum())
    assert_allclose(p.grad, [2.0, 2.0])


def test_frozen_parameter_is_a_constant():
    p = param([1.0, 2.0], "frozen")
    q = param([3.0, 4.0], "live")
    p.grad[:] = 7.0
    tape = Tape()
    tape.freeze([p])
    loss = (tape.watch(p) * tape.watch(q)).sum()
    tape.backward(loss)
    assert_allclose(q.grad, [1.0, 2.0])
    assert_allclose(p.grad, [7.0, 7.0])  # untouched: not watched on this tape


# --- per-primitive finite-difference sweep ---------------------------------

def _unary_case(op, transform=None):
    def build(rng):
        raw = rng.normal(size=(3, 4))
        if transform is not None:
            raw = transform(raw)
        x = param(raw, "x")
        r = rng.normal(size=(3, 4))

        def loss():
            tape = Tape()
            out = (op(tape.watch(x)) * r).sum()
            tape.backward(out)
            return float(out.values)

        return [x], loss

    return build


def _binary_case(combine, b_shape):
    def build(rng):
        a = param(rng.normal(size=(3, 4)), "a")
        b = param(rng.normal(size=b_shape), "b")
        r = rng.normal(size=(3, 4))

        def loss():
            tape = Tape()
            out = (combine(tape.watch(a), tape.watch(b)) * r).sum()
            tape.backward(out)
            return float(out.values)

        return [a, b], loss

    return build


def _reduction_case(reducer):
    def build(rng):
        x = param(rng.normal(size=(3, 4)), "x")

        def loss():
            tape = Tape()
            out = reducer(tape.watch(x))
            out = out.sum() if out.shape != () else out
            tape.backward(out)
            return float(out.values)

        return [x], loss

    return build


def _batch_norm_case(mode):
    def build(rng):
        x = param(rng.normal(size=(8, 4)), "x")
        shift = param(rng.normal(size=4), "shift")
        scale = param(rng.normal(size=4) + 2.0, "scale")
        state = BatchNormState(mean=rng.normal(size=4), var=rng.uniform(0.5, 2.0, size=4))
        r = rng.normal(size=(8, 4))

        def loss():
            tape = Tape()
            out = ad.batch_norm(tape.watch(x), tape.watch(shift), tape.watch(scale),
                                state, mode)
            out = (out * r).sum()
            tape.backward(out)
            return float(out.values)

        return [x, shift, scale], loss

    return build


def _layer_case(activation):
    """A dense layer, activation(x @ w + b), as the chain of entries that the
    reference model passes in helpers.py are built from."""
    def build(rng):
        x = param(rng.normal(size=(3, 4)), "x")
        w = param(rng.normal(size=(4, 5)), "w")
        b = param(rng.normal(size=5), "b")
        r = rng.normal(size=(3, 5))

        def loss():
            tape = Tape()
            out = reference_layer(tape.watch(x), tape.watch(w), tape.watch(b), activation)
            out = (out * r).sum()
            tape.backward(out)
            return float(out.values)

        return [x, w, b], loss

    return build


PRIMITIVE_CASES = {
    "add": _binary_case(lambda a, b: a + b, (3, 4)),
    "add_bias_row": _binary_case(lambda a, b: a + b, (4,)),
    "add_scalar": _binary_case(lambda a, b: a + b, ()),
    "sub": _binary_case(lambda a, b: a - b, (3, 4)),
    "sub_bias_row": _binary_case(lambda a, b: a - b, (4,)),
    "mul": _binary_case(lambda a, b: a * b, (3, 4)),
    "mul_row": _binary_case(lambda a, b: a * b, (4,)),
    "scalar_mul": _unary_case(lambda x: 2.5 * x),
    "sigmoid": _unary_case(ad.sigmoid),
    "tanh": _unary_case(ad.tanh),
    "log": _unary_case(ad.log, transform=lambda v: np.abs(v) + 0.5),
    "square": _unary_case(ad.square),
    "softplus": _unary_case(ad.softplus),
    "sum_all": _reduction_case(lambda x: x.sum()),
    "sum_axis0": _reduction_case(lambda x: x.sum(axis=0)),
    "sum_axis1": _reduction_case(lambda x: x.sum(axis=1)),
    "mean_all": _reduction_case(lambda x: x.mean()),
    "mean_axis0": _reduction_case(lambda x: x.mean(axis=0)),
    "mean_axis1": _reduction_case(lambda x: x.mean(axis=1)),
    "batch_norm_train": _batch_norm_case("train"),
    "batch_norm_infer": _batch_norm_case("infer"),
    "dense_linear": _layer_case("linear"),
    "dense_tanh": _layer_case("tanh"),
    "dense_sigmoid": _layer_case("sigmoid"),
    "dense_softplus": _layer_case("softplus"),
}


@pytest.mark.parametrize("name", sorted(PRIMITIVE_CASES))
@pytest.mark.parametrize("seed", range(20))
def test_primitive_gradient_sweep(name, seed):
    """Central differences agree within max(1e-5 abs, 1e-4 rel), >= 20 seeds."""
    params, loss = PRIMITIVE_CASES[name](np.random.default_rng(seed))
    loss()
    analytic = grads_of(params)
    numeric = numeric_grads(loss, params)
    for pname, a in analytic.items():
        f = numeric[pname]
        tol = np.maximum(1e-5, 1e-4 * np.maximum(np.abs(a), np.abs(f)))
        assert np.all(np.abs(a - f) <= tol), (name, pname)


# --- the operand rule ------------------------------------------------------------

# name -> (primitive, operand shapes); operands are drawn from U(0.5, 2)
RULE_CASES = {
    "add": (ad.add, ((3, 4), (4,))),
    "sub": (lambda a, b: ad._binary(a, b, "sub"), ((3, 4), (3, 4))),
    "mul": (lambda a, b: ad._binary(a, b, "mul"), ((3, 4), ())),
    "matmul": (ad.matmul, ((3, 4), (4, 5))),
    "sum_axis1": (lambda a: ad._reduce(a, 1, mean=False), ((3, 4),)),
    "mean_all": (lambda a: ad._reduce(a, None, mean=True), ((3, 4),)),
    "tanh": (ad.tanh, ((3, 4),)),
    "sigmoid": (ad.sigmoid, ((3, 4),)),
    "softplus": (ad.softplus, ((3, 4),)),
    "log": (ad.log, ((3, 4),)),
    "square": (ad.square, ((3, 4),)),
    "batch_norm_train": (lambda x, s, c: ad.batch_norm(
        x, s, c, BatchNormState.initial(4), "train"), ((8, 4), (4,), (4,))),
    "batch_norm_infer": (lambda x, s, c: ad.batch_norm(
        x, s, c, BatchNormState(mean=np.full(4, 0.5), var=np.full(4, 2.0)), "infer"),
        ((8, 4), (4,), (4,))),
}


def _rule_operands(shapes):
    rng = np.random.default_rng(0)
    return [rng.uniform(0.5, 2.0, size=shape) for shape in shapes]


@pytest.mark.parametrize("name", sorted(RULE_CASES))
def test_a_primitive_with_no_node_operand_is_refused(name):
    op, shapes = RULE_CASES[name]
    with pytest.raises(TapeError, match="node operand"):
        op(*_rule_operands(shapes))


def _run_with_one_plain_operand(op, shapes, plain_at, as_constant):
    """The op's value, the entries it added to the tape and the gradients
    of the watched operands, with operand ``plain_at`` passed as a plain
    array (or as a tape constant) and every other one watched."""
    params = [param(v, f"p{i}") for i, v in enumerate(_rule_operands(shapes))]
    tape = Tape()
    operands = [tape.watch(p) if i != plain_at
                else tape.constant(p.values) if as_constant else p.values
                for i, p in enumerate(params)]
    entries = len(tape._values)
    out = op(*operands)
    entries = len(tape._values) - entries
    r = np.random.default_rng(1).normal(size=out.shape)
    tape.backward((out * r).sum())
    grads = [p.grad.copy() for i, p in enumerate(params) if i != plain_at]
    return out.values, entries, grads


@pytest.mark.parametrize("name, plain_at", [
    (name, i) for name, (_, shapes) in sorted(RULE_CASES.items())
    if len(shapes) > 1 for i in range(len(shapes))])
def test_a_plain_operand_beside_a_node_is_never_recorded(name, plain_at):
    """Bit for bit the value and gradients of the same operand as a tape
    constant, with the one entry of the op itself on the tape."""
    op, shapes = RULE_CASES[name]
    value, entries, grads = _run_with_one_plain_operand(op, shapes, plain_at, False)
    expected, _, expected_grads = _run_with_one_plain_operand(op, shapes, plain_at, True)
    assert entries == 1
    assert np.asarray(value).tobytes() == np.asarray(expected).tobytes()
    for g, e in zip(grads, expected_grads):
        assert g.tobytes() == e.tobytes()
        assert np.any(g != 0.0)


def test_numpy_defers_to_a_node():
    """An array on the left of a node gives one recorded entry, not an
    object array of per-element nodes; with no reflected operator (``-``)
    numpy raises TypeError."""
    x = param([1.0, 2.0, 3.0], "x")
    tape = Tape()
    node = tape.watch(x)
    entries = len(tape._values)
    out = np.array([2.0, 3.0, 4.0]) * node
    assert isinstance(out, ad.Node) and out.values.tolist() == [2.0, 6.0, 12.0]
    out = np.array([2.0, 3.0, 4.0]) + node
    assert isinstance(out, ad.Node) and out.values.tolist() == [3.0, 5.0, 7.0]
    assert len(tape._values) == entries + 2
    with pytest.raises(TypeError):
        np.ones(3) - node
    with pytest.raises(TypeError):
        np.ones((2, 3)) @ node


# --- frozen operands and freeing ----------------------------------------------

def test_unwatched_operand_of_a_dense_layer_gets_no_gradient():
    """The frozen weights of a layer (matmul, tanh) fed by a watched input
    get no gradient."""
    rng = np.random.default_rng(1)
    x = param(rng.normal(size=(5, 3)), "x")
    w = param(rng.normal(size=(3, 4)), "w")
    w.grad[:] = 7.0
    tape = Tape()
    tape.freeze([w])
    out = ad.tanh(tape.watch(x) @ tape.watch(w))
    tape.backward(out.sum())
    assert np.all(w.grad == 7.0)
    expected = (1.0 - out.values ** 2) @ w.values.T
    assert_allclose(x.grad, expected, rtol=1e-12)


def test_tape_is_freed_with_its_last_node():
    p = param(np.ones((3, 3)), "p")
    tape = Tape()
    root = ad.tanh(tape.constant(np.ones((2, 3))) @ tape.watch(p)).sum()
    tape.backward(root)
    ref = weakref.ref(tape)
    del tape
    assert ref() is not None
    del root
    assert ref() is None


# --- parameter store ---------------------------------------------------------

def test_parameter_store_views_share_memory():
    a = param(np.arange(6.0).reshape(2, 3), "a")
    b = param([10.0, 11.0], "b")
    b.grad[:] = [1.0, 2.0]
    store = ad.ParameterStore([a, b])
    assert np.array_equal(store.values, [0, 1, 2, 3, 4, 5, 10, 11])
    assert np.array_equal(store.grad, [0, 0, 0, 0, 0, 0, 1, 2])
    a.values[1, 2] = -1.0
    store.grad[0] = 3.0
    assert store.values[5] == -1.0 and a.grad[0, 0] == 3.0
    views = store.views(np.arange(8.0))
    assert list(views) == ["a", "b"]
    assert np.array_equal(views["a"], [[0, 1, 2], [3, 4, 5]])
    grads = store.grad.copy()
    store.grad[:] = 0.0
    assert store.views(grads)["b"].tolist() == [1.0, 2.0] and grads[0] == 3.0
    with pytest.raises(ValueError, match="unique"):
        ad.ParameterStore([param([1.0], "x"), param([2.0], "x")])


def test_parameter_store_takes_its_parameters_dtype():
    store = ad.ParameterStore([ad.Parameter([1.0, 2.0], "a", np.float32),
                               ad.Parameter([[3.0]], "b", np.float32)])
    for flat in (store.values, store.grad, store.acc):
        assert flat.dtype == np.float32
    assert store.dtype == np.float32 and store.params[1].values.dtype == np.float32
    with pytest.raises(ValueError, match="share a dtype"):
        ad.ParameterStore([ad.Parameter([1.0], "a", np.float32), param([2.0], "b")])


# --- the dense-layer stack ---------------------------------------------------

def _stack(seed=7):
    """A stack with every activation, batch norm on its hidden layers, and
    every parameter moved off its initial value."""
    rng = np.random.default_rng(seed)
    layers = ad.dense_stack("s", (3, 6, 5, 4), ["tanh", "sigmoid", "linear"], rng, 1.0,
                            batch_norm=True)
    store = ad.ParameterStore([p for l in layers for p in (l.w, l.b, l.bn_shift, l.bn_scale)
                               if p is not None])
    store.values += 0.1 * rng.standard_normal(store.values.shape)
    return layers, store


@pytest.mark.parametrize("mode, params", [("train", True), ("train", False),
                                          ("infer", None)])
def test_stack_is_bit_equal_to_the_primitive_chain(mode, params):
    """The forward of ``stack_forward`` in either mode and, after a
    train-mode forward, the backward of ``stack_backward`` into the
    parameters or into x, against matmul, add, the activation and
    ``batch_norm`` on a tape. No backward follows an infer-mode forward
    (``params`` None)."""
    rng = np.random.default_rng(8)
    x, dh = rng.normal(size=(8, 3)), rng.normal(size=(8, 4))
    layers, store = _stack()
    store.grad[...] = 0.0
    ws = ad.workspace(None, 8, layers)
    out = ad.stack_forward(layers, x, mode, ws).copy()
    if params is not None:
        dx = ad.stack_backward(layers, x, ws, dh.copy(), params)

    ref_layers, ref_store = _stack()
    tape = Tape()
    xp = param(x, "x")
    h = tape.watch(xp)
    for layer in ref_layers:
        h = reference_layer(h, tape.watch(layer.w), tape.watch(layer.b), layer.activation)
        if layer.has_batch_norm:
            h = ad.batch_norm(h, tape.watch(layer.bn_shift), tape.watch(layer.bn_scale),
                              layer.bn_state, mode)
    tape.backward((h * dh).sum())
    assert np.array_equal(out, h.values)
    if params:
        assert dx is None and np.array_equal(store.grad, ref_store.grad)
    elif params is not None:
        assert dx is ws.x and np.array_equal(dx, xp.grad) and not store.grad.any()
    for layer, ref in zip(layers[:-1], ref_layers[:-1]):
        assert np.array_equal(layer.bn_state.mean, ref.bn_state.mean)
        assert np.array_equal(layer.bn_state.var, ref.bn_state.var)


def test_dense_stack_names_its_parameters_and_draws_weights_in_layer_order():
    layers = ad.dense_stack("m", (2, 3, 1), ["tanh", "linear"], np.random.default_rng(0),
                            2.0, batch_norm=True)
    names = [p.name for l in layers for p in (l.w, l.b, l.bn_shift, l.bn_scale)
             if p is not None]
    assert names == ["m.layer0.w", "m.layer0.b", "m.layer0.bn_shift",
                     "m.layer0.bn_scale", "m.layer1.w", "m.layer1.b"]
    rng = np.random.default_rng(0)
    first = rng.uniform(-2.0 / np.sqrt(2), 2.0 / np.sqrt(2), size=(2, 3))
    assert np.array_equal(layers[0].w.values, first)
    assert np.array_equal(layers[1].w.values,
                          rng.uniform(-2.0 / np.sqrt(3), 2.0 / np.sqrt(3), size=(3, 1)))
    assert [l.has_batch_norm for l in layers] == [True, False]


@pytest.mark.parametrize("widths", [(2, 0, 3), (0, 4), (2, 4, -1)])
def test_dense_stack_rejects_a_width_below_one(widths):
    with pytest.raises(ValueError, match="at least 1"):
        ad.dense_stack("m", widths, ["tanh"] * (len(widths) - 1),
                       np.random.default_rng(0), 1.0, batch_norm=False)


def test_workspace_is_kept_for_its_row_count():
    layers, _ = _stack()
    ws = ad.workspace(None, 8, layers)
    assert ad.workspace(ws, 8, layers) is ws
    assert ws.x.shape == (8, 3)
    assert [a.shape for a in ws.a] == [(8, 6), (8, 5), (8, 4)]
    assert ws.h[-1] is ws.a[-1] and ws.xhat[-1] is None and ws.inv[-1] is None
    assert ad.workspace(ws, 9, layers).rows == 9


def test_a_workspace_without_backward_holds_one_array_per_layer():
    """An infer pass needs no gradients, and batch norm normalizes each
    activation in place."""
    layers, _ = _stack()
    ws = ad.workspace(None, 8, layers, backward=False)
    assert [a.shape for a in ws.a] == [(8, 6), (8, 5), (8, 4)]
    assert ws.ga == ws.dh == ws.dw == [None] * 3
    assert all(h is a for h, a in zip(ws.h, ws.a))
    assert [x is a for x, a in zip(ws.xhat, ws.a)] == [l.has_batch_norm for l in layers]
    x = np.random.default_rng(9).normal(size=(8, 3))
    assert np.array_equal(ad.stack_forward(layers, x, "infer", ws),
                          ad.stack_forward(layers, x, "infer"))


# --- row-block passes on every core ------------------------------------------

def test_usable_cpus_without_an_affinity_call_counts_every_cpu(monkeypatch):
    """A platform with no ``os.sched_getaffinity``, such as macOS, may run on
    every CPU the machine has."""
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert ad.usable_cpus() == (os.cpu_count() or 1)


def _block_index(block):
    return int(block[0, 0]) // ad.ROW_BLOCK


def _wide_layers():
    """One layer 512 wide, whose passes ``by_row_blocks`` cuts into blocks
    of ``ROW_BLOCK`` rows."""
    assert ad.block_rows(512) == ad.ROW_BLOCK
    return ad.dense_stack("w", (1, 512), ["linear"], np.random.default_rng(0), 1.0,
                          batch_norm=False)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_by_row_blocks_gives_share_k_every_nth_block_in_order(monkeypatch, cpus):
    monkeypatch.setattr(ad, "usable_cpus", lambda: cpus)
    rows = 5 * ad.ROW_BLOCK + 3
    x = np.arange(rows, dtype=np.float64)[:, None]
    runs = []     # (block index, thread, workspace); list.append is atomic

    def fn(block, out, ws):
        runs.append((_block_index(block), threading.current_thread(), ws))
        out[...] = 2.0 * block

    out = ad.by_row_blocks(fn, x, (1,), _wide_layers())
    assert np.array_equal(out, 2.0 * x)
    shares = ad.share_count(rows)
    assert shares == min(cpus, 6)
    threads = {index: thread for index, thread, _ in runs}
    assert sorted(threads) == list(range(6))
    assert threads[0] is threading.current_thread()   # the caller runs share 0
    for k in range(shares):
        assert {threads[i] for i in range(k, 6, shares)} == {threads[k]}
        assert [i for i, thread, _ in runs if thread == threads[k]] == list(range(k, 6, shares))
    assert len(set(threads.values())) == shares
    # each share keeps one infer workspace of its own from block to block,
    # with its input-shaped x, and builds another for the shorter last block
    full = {thread: ws for index, thread, ws in runs if index < 5}
    assert all(ws is full[thread] for index, thread, ws in runs if index < 5)
    assert len({id(ws) for ws in full.values()}) == shares
    for ws in full.values():
        assert [a.shape for a in ws.a] == [(ad.ROW_BLOCK, 512)] and ws.dh == [None]
        assert ws.x.shape == (ad.ROW_BLOCK, 1)
    (last,) = [ws for index, _, ws in runs if index == 5]
    assert last.rows == 3 and last.x.shape == (3, 1)
    assert all(last is not ws for ws in full.values())


@pytest.mark.parametrize("failing", [0, 1])
def test_by_row_blocks_raises_a_blocks_error_after_every_share_ends(failing):
    """A block that raises stops its own share; the error reaches the caller
    only once every other share has run all its blocks, so none writes into
    the output after the call."""
    rows = 4 * ad.ROW_BLOCK
    x = np.arange(rows, dtype=np.float64)[:, None]
    done = []

    def fn(block, out, ws):
        index = _block_index(block)
        if index == failing:
            raise ValueError(f"block {index}")
        time.sleep(0.05)
        out[...] = block
        done.append(index)

    with pytest.raises(ValueError, match=f"block {failing}"):
        ad.by_row_blocks(fn, x, (1,), _wide_layers())
    shares = ad.share_count(rows)
    stopped = [i for i in range(4) if i % shares == failing % shares and i > failing]
    assert sorted(done) == [i for i in range(4) if i != failing and i not in stopped]


def test_share_count_is_one_per_usable_cpu_and_at_most_one_per_block(monkeypatch):
    monkeypatch.setattr(ad, "usable_cpus", lambda: 4)
    assert [ad.share_count(rows) for rows in
            (0, 1, ad.ROW_BLOCK, ad.ROW_BLOCK + 1, 3 * ad.ROW_BLOCK, 10 ** 6)] == [
        1, 1, 1, 2, 3, 4]


# --- batch norm specifics ---------------------------------------------------

def test_batch_norm_identity_parameters():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(64, 3))
    x = (x - x.mean(axis=0)) / x.std(axis=0)  # exactly standardized batch
    state = BatchNormState.initial(3)
    tape = Tape()
    out = ad.batch_norm(tape.constant(x), tape.constant(np.zeros(3)),
                        tape.constant(np.ones(3)), state, "train")
    assert_allclose(out.values, x, atol=1e-4)  # eps floor perturbs slightly


def test_batch_norm_zero_scale_returns_shift():
    rng = np.random.default_rng(1)
    shift = np.array([1.0, -2.0, 0.5])
    state = BatchNormState.initial(3)
    tape = Tape()
    out = ad.batch_norm(tape.constant(rng.normal(size=(5, 3))),
                        tape.constant(shift), tape.constant(np.zeros(3)),
                        state, "train")
    assert_allclose(out.values, np.broadcast_to(shift, (5, 3)))


def test_batch_norm_scale_gradient_vs_finite_differences():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(8, 4))
    shift = param(rng.normal(size=4), "shift")
    scale = param(rng.uniform(0.5, 1.5, size=4), "scale")
    state = BatchNormState.initial(4)
    r = rng.normal(size=(8, 4))

    def loss():
        tape = Tape()
        out = ad.batch_norm(tape.constant(x), tape.watch(shift),
                            tape.watch(scale), state, "train")
        out = (out * r).sum()
        tape.backward(out)
        return float(out.values)

    loss()
    analytic = {"scale": scale.grad.copy()}
    numeric = {"scale": finite_difference(loss, scale.values)}
    assert_grads_match(analytic, numeric, rtol=1e-5)


def test_batch_norm_rejects_single_row_training_batch():
    tape = Tape()
    state = BatchNormState.initial(2)
    with pytest.raises(ValueError, match=">= 2"):
        ad.batch_norm(tape.constant(np.zeros((1, 2))), tape.constant(np.zeros(2)),
                      tape.constant(np.ones(2)), state, "train")


def test_batch_norm_running_statistics_ema():
    x = np.array([[0.0, 10.0], [2.0, 14.0]])
    state = BatchNormState.initial(2)
    tape = Tape()
    ad.batch_norm(tape.constant(x), tape.constant(np.zeros(2)),
                  tape.constant(np.ones(2)), state, "train")
    assert_allclose(state.mean, 0.9 * 0.0 + 0.1 * np.array([1.0, 12.0]))
    assert_allclose(state.var, 0.9 * 1.0 + 0.1 * np.array([1.0, 4.0]))


# --- whole-network checks ----------------------------------------------------

def _mlp_loss(params, x):
    w1, b1, w2, b2, w3, b3 = params

    def loss():
        tape = Tape()
        h = ad.tanh(tape.constant(x) @ tape.watch(w1) + tape.watch(b1))
        h = ad.tanh(h @ tape.watch(w2) + tape.watch(b2))
        out = h @ tape.watch(w3) + tape.watch(b3)
        scalar = ad.square(out).mean()
        tape.backward(scalar)
        return float(scalar.values)

    return loss


@pytest.mark.parametrize("seed", range(3))
def test_three_layer_mlp_gradients(seed):
    rng = np.random.default_rng(seed)
    params = [
        param(rng.normal(scale=0.7, size=(3, 8)), "w1"),
        param(rng.normal(scale=0.2, size=8), "b1"),
        param(rng.normal(scale=0.7, size=(8, 8)), "w2"),
        param(rng.normal(scale=0.2, size=8), "b2"),
        param(rng.normal(scale=0.7, size=(8, 1)), "w3"),
        param(rng.normal(scale=0.2, size=1), "b3"),
    ]
    x = rng.normal(size=(5, 3))
    loss = _mlp_loss(params, x)
    loss()
    analytic = grads_of(params)
    numeric = numeric_grads(loss, params)
    assert_grads_match(analytic, numeric, rtol=1e-5)


def test_gradient_linearity():
    """Backward of (loss1 + loss2) equals separate backwards, summed."""
    rng = np.random.default_rng(3)
    p = param(rng.normal(size=(4, 4)))
    x = rng.normal(size=(2, 4))

    def run(which):
        tape = Tape()
        w = tape.watch(p)
        l1 = ad.square(tape.constant(x) @ w).sum()
        l2 = ad.sigmoid(w).sum()
        root = {"l1": l1, "l2": l2, "both": l1 + l2}[which]
        tape.backward(root)
        return p.grad.copy()

    assert_allclose(run("both"), run("l1") + run("l2"), rtol=1e-12, atol=1e-12)


def test_replay_is_bit_identical():
    rng = np.random.default_rng(11)
    p = param(rng.normal(size=(6, 6)))
    x = rng.normal(size=(4, 6))

    def run():
        tape = Tape()
        h = ad.tanh(tape.constant(x) @ tape.watch(p))
        root = ad.softplus(h).mean()
        tape.backward(root)
        return float(root.values), p.grad.copy()

    v1, g1 = run()
    v2, g2 = run()
    assert v1 == v2
    assert np.array_equal(g1, g2)
