"""Reverse-mode automatic differentiation on a flat operation tape, and the
numeric pieces the models' hand-written passes share.

The pieces the program runs are ``ParameterStore``, the dense-layer
stack, ``by_row_blocks``, ``batch_statistics``, ``batch_norm_dx``,
``sigmoid_values`` and ``softplus_values``: the models compute each value
with these expressions, which are the primitives' own, so a pass gives the
bits of the chain of primitives it stands for.

The dense-layer stack is the one network of both models: the energy
model's feature layers (tanh, then sigmoid) followed by its linear expert
layer, and the generator (tanh and batch norm, then a linear or sigmoid
output). A ``Dense`` layer computes activation(h @ w + b), then batch norm
when it has one; ``dense_stack`` builds the layers. ``stack_forward`` runs
them, into a model's ``workspace`` (arrays kept from call to call, rebuilt
when the row count changes, with one scratch array ``x`` of the pass's
input shape) when a backward follows, into fresh arrays when none does;
``stack_backward`` then adds the parameters' gradients, or writes the
input's into the workspace's ``x``. It differentiates batch norm through
the batch statistics, the train-mode backward: the generator, the one
stack with batch norm, runs a backward only after a train-mode forward.
Its expressions, and the order of its sums, are the chain's of
``matmul``, ``add``, the activation and ``batch_norm``, with tanh' = 1 -
out * out and sigmoid' = (1 - out) * out formed from the activation's
output, so its gradients have the chain's bits. ``by_row_blocks`` runs a
model's plain pass over many rows in blocks sized by its widest layer,
each into its share's workspace and straight into its slice of one
output, so its memory does not grow with the row count; ``stack_rows``
casts and checks a pass's input rows; and ``run_in_shares`` spreads a
block loop over every usable core.

The tape is a reference, and no command records on one. The tests build
each model pass and loss as a chain of primitives on a ``Tape``
(``tests/helpers.py``) and compare the hand-written passes and backwards
with it bit for bit; the benchmark times the primitives and counts the
tape's records. A ``Tape`` records every primitive in execution order, so
its backward is one reverse sweep. Each primitive takes at least one
``Node`` operand; any other operand may be a plain array (or number), read
as its values. ``Parameter`` objects are trainable leaves: after
``tape.backward(root)`` each parameter watched by the tape holds
d(root)/d(parameter) in ``.grad`` (zero if unreachable from the root).
A tape computes in float64.

The model passes run in the dtype of their parameters: float32 for every
model a run builds (``config.COMPUTE_DTYPE``, which
``config.build_models`` gives them), float64 for models built so on
purpose (a float64 checkpoint, the tape comparisons, ``gradcheck``). A
``Parameter``, its ``ParameterStore``, a ``BatchNormState``, a workspace
and a ``by_row_blocks`` output all take that one dtype, so no pass mixes
two. Arrays are C order, with the batch as the leading
dimension.

Numerically sensitive primitives use overflow-safe identities:

* softplus(a) = max(a, 0) + log1p(exp(-|a|))
* sigmoid(a)  = 1 / (1 + exp(-a)) for a >= 0, exp(a) / (1 + exp(a)) otherwise

Each primitive family is defined once: ``+``, ``-`` and ``*`` are rows of
``_BINARY``, the elementwise functions (``tanh``, ``sigmoid``,
``softplus``, ``log``, ``square``) rows of ``_UNARY``, and ``.sum()`` and
``.mean()`` one reduction.

``ParameterStore`` lays a model's parameters out in three flat buffers of
one layout: values, gradients and AdaGrad accumulators. Each ``Parameter``
holds views into the first two, so tapes, which work per parameter, and
AdaGrad, finite differences and the hand-written backwards, which work on
the flat buffers, see one state. ``views`` names the parts of a flat
buffer where a name is needed: in a checkpoint, in an error message.

Parameters, whose ``.grad`` a backward writes, and a model's workspace,
which its passes write, are shared by whatever uses the model: one model
must not run passes from two threads at once. ``run_in_shares`` is the one
place that starts threads. It runs the blocks of one plain pass on several
threads at once, one share of the blocks per usable core, and joins them
before it returns; each block reads the model's parameters and writes its
own slice of the output and its share's own workspace, never the model's.
"""

from __future__ import annotations

import functools
import os
import threading
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Optional, Sequence, Union

import numpy as np

BN_EPS = 1e-5         # batch-norm variance floor
BN_MOMENTUM = 0.9     # running-statistics exponential moving average
ROW_BLOCK = 256       # rows per block of a blocked loop; a model pass's fewest
BLOCK_FLOATS = 1 << 17   # a model pass's widest layer's values per block (block_rows)


class ShapeError(ValueError):
    """Operand shapes incompatible with the requested primitive."""


class DomainError(ValueError):
    """Input outside a primitive's documented domain (e.g. log of x <= 0)."""


class TapeError(RuntimeError):
    """Tape misuse: a non-scalar backward root, operands from different
    tapes, or a primitive with no node operand."""


def _as_array(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


class Parameter:
    """Trainable array plus a persistent gradient buffer of the same shape
    and dtype (float64 unless given)."""

    __slots__ = ("values", "grad", "name")

    def __init__(self, values, name: str, dtype=np.float64):
        self.values = np.array(values, dtype=dtype)
        self.grad = np.zeros_like(self.values)
        self.name = name

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.values.shape})"


class ParameterStore:
    """A model's parameters as views into one values buffer and one grad
    buffer, beside one AdaGrad accumulator of the same layout and the
    two rows of AdaGrad's scratch.

    Building the store copies each parameter's values and gradient into
    consecutive slices of ``values`` and ``grad``, in the order given, and
    rebinds ``p.values`` and ``p.grad`` to reshaped views of those slices.
    Writes through either name then reach the same memory. ``acc`` starts
    at zero; ``training.adagrad_step`` updates it in place and overwrites
    ``scratch``, which no checkpoint holds. ``spans`` holds each
    parameter's ``(name, slice, shape)`` in that order. All the buffers
    have the parameters' dtype, which they must share.
    """

    def __init__(self, params: Sequence[Parameter]):
        self.params = list(params)
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            raise ValueError(f"parameter names must be unique, got {names}")
        dtypes = {p.values.dtype for p in self.params} or {np.dtype(np.float64)}
        if len(dtypes) > 1:
            raise ValueError(f"parameters of one store share a dtype, "
                             f"got {sorted(map(str, dtypes))}")
        self.dtype = dtypes.pop()
        size = sum(p.values.size for p in self.params)
        self.values = np.empty(size, self.dtype)
        self.grad = np.empty(size, self.dtype)
        self.acc = np.zeros(size, self.dtype)
        self.spans = []
        offset = 0
        for p in self.params:
            span = slice(offset, offset + p.values.size)
            self.spans.append((p.name, span, p.values.shape))
            self.values[span] = p.values.ravel()
            self.grad[span] = p.grad.ravel()
            p.values = self.values[span].reshape(p.values.shape)
            p.grad = self.grad[span].reshape(p.grad.shape)
            offset = span.stop

    @functools.cached_property
    def scratch(self) -> np.ndarray:
        """AdaGrad's two rows of working space, allocated at the first
        update, so a model that is only evaluated never holds them."""
        return np.empty((2, self.values.size), self.dtype)

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Per-parameter views, by name, of a flat array laid out like
        ``values``."""
        return {name: flat[span].reshape(shape) for name, span, shape in self.spans}


@dataclass
class BatchNormState:
    """Running mean/variance, updated by EMA during train-mode batch norm."""

    mean: np.ndarray
    var: np.ndarray

    @classmethod
    def initial(cls, dim: int, dtype=np.float64) -> "BatchNormState":
        return cls(mean=np.zeros(dim, dtype), var=np.ones(dim, dtype))


class Node:
    """Handle to one tape entry; arithmetic on handles records new entries.

    ``__array_ufunc__ = None`` makes numpy defer to a node: ``array * node``
    calls ``node.__rmul__``, and ``array - node``, which has no reflected
    form here, raises TypeError, where numpy would otherwise build an
    object array holding one node per element.
    """

    __slots__ = ("tape", "idx")
    __array_ufunc__ = None

    def __init__(self, tape: "Tape", idx: int):
        self.tape = tape
        self.idx = idx

    @property
    def values(self) -> np.ndarray:
        return self.tape._values[self.idx]

    @property
    def shape(self) -> tuple:
        return self.tape._values[self.idx].shape

    def __repr__(self) -> str:
        return f"Node(idx={self.idx}, shape={self.shape})"

    def __add__(self, other):
        return _binary(self, other, "add")

    __radd__ = __add__

    def __sub__(self, other):
        return _binary(self, other, "sub")

    def __mul__(self, other):
        return _binary(self, other, "mul")

    __rmul__ = __mul__

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis: Optional[int] = None) -> "Node":
        return _reduce(self, axis, mean=False)

    def mean(self, axis: Optional[int] = None) -> "Node":
        return _reduce(self, axis, mean=True)


Operand = Union[Node, float, int, np.ndarray]


class Tape:
    """Append-only record of primitive operations (a Wengert list).

    Invariant: every entry's operands have smaller indices, so iterating
    in reverse visits consumers before producers. Every primitive's entry
    has a backward closure; a leaf (a constant or a watched parameter) has
    none.
    """

    def __init__(self):
        self._values: list[np.ndarray] = []
        self._backward: list[Optional[Callable]] = []
        self._watched: dict[int, int] = {}          # id(parameter) -> node idx
        self._leaves: list = []     # (node idx, Parameter), watched, not frozen
        self._frozen: set[int] = set()

    def _record(self, values: np.ndarray,
                backward: Optional[Callable]) -> Node:
        idx = len(self._values)
        self._values.append(values)
        self._backward.append(backward)
        return Node(self, idx)

    def constant(self, values) -> Node:
        """Leaf holding a fixed array; no parameter takes its gradient."""
        return self._record(_as_array(values), None)

    def watch(self, param: Parameter) -> Node:
        """Leaf bound to a Parameter; repeated watches return the same node.

        Frozen parameters come back as constants, which is how a loss is cut
        off from one model's parameters while differentiating the other.
        """
        cached = self._watched.get(id(param))
        if cached is not None:
            return Node(self, cached)
        node = self.constant(param.values)
        if id(param) not in self._frozen:
            self._leaves.append((node.idx, param))
        self._watched[id(param)] = node.idx
        return node

    def freeze(self, params: Sequence[Parameter]) -> None:
        """Treat these parameters as constants for this tape."""
        self._frozen.update(id(p) for p in params)

    def backward(self, root: Node) -> None:
        """Sum d(root)/d(node) for every ancestor of a scalar root in one
        reverse sweep.

        Then each watched parameter's ``.grad`` is overwritten with the sum
        at its leaf, or with zero when the root does not reach it.
        """
        if root.tape is not self:
            raise TapeError("backward root belongs to a different tape")
        if root.values.size != 1:
            raise TapeError(
                f"backward root must be scalar, got shape {root.values.shape}")
        grads: list = [None] * len(self._values)
        _acc(grads, root.idx, np.ones_like(self._values[root.idx]))
        for i in range(root.idx, -1, -1):
            g = grads[i]
            fn = self._backward[i]
            if g is not None and fn is not None:
                grads[i] = None
                fn(g, grads)
        for idx, param in self._leaves:
            param.grad[...] = 0.0 if grads[idx] is None else grads[idx]


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:          # no affinity call on this platform
        return os.cpu_count() or 1


def block_rows(width: int) -> int:
    """Rows per block of a model pass (``by_row_blocks``) whose widest layer
    is ``width`` wide: as many as keep that layer's block within
    ``BLOCK_FLOATS`` values, and no fewer than ``ROW_BLOCK`` (1024 rows for
    a 128-wide pass, 256 for a 784-wide one)."""
    return max(ROW_BLOCK, BLOCK_FLOATS // width)


def share_count(rows: int, block: int = ROW_BLOCK) -> int:
    """How many shares ``run_in_shares`` splits ``rows`` rows into: one per
    usable CPU, and no more than there are blocks of ``block`` rows."""
    return max(1, min(usable_cpus(), -(-rows // block)))


def run_in_shares(share: Callable[[range], object], rows: int,
                  block: int = ROW_BLOCK) -> None:
    """Run a loop over the blocks of ``block`` rows of ``rows`` rows on
    every usable core: ``share(starts)`` loops over the first rows
    ``starts`` of its blocks, in order. With n = ``share_count(rows,
    block)``, share k takes blocks k, k + n, k + 2n, ...; the block
    boundaries are the serial loop's, so a pass whose BLAS kernel depends
    on the row count keeps its bits.

    The calling thread runs share 0, so one share is the serial loop on the
    calling thread, and n - 1 threads run the others. Each share runs under
    the caller's numpy error state (which new threads do not inherit).
    Every share runs to its end, or to its exception, before this returns;
    then the exception of the lowest-numbered share that raised one is
    raised, so no share writes into a caller's array after the call.
    ``share`` calls may run at once, so none may write where another reads
    or writes.
    """
    n = share_count(rows, block)
    errstate = np.geterr()
    errors: list[Optional[BaseException]] = [None] * n

    def run(k: int) -> None:
        try:
            with np.errstate(**errstate):
                share(range(k * block, rows, n * block))
        except BaseException as err:
            errors[k] = err

    threads = [threading.Thread(target=run, args=(k,)) for k in range(1, n)]
    started = []
    try:
        for thread in threads:
            thread.start()
            started.append(thread)
        run(0)
    finally:
        for thread in started:
            thread.join()
    for err in errors:
        if err is not None:
            raise err


def by_row_blocks(fn: Callable[[np.ndarray, np.ndarray, SimpleNamespace], object],
                  x: np.ndarray, row_shape: tuple, layers: Sequence[Dense]) -> np.ndarray:
    """A model's plain pass over the rows of x, in which each output row (of
    shape ``row_shape``) depends on its input row alone, run on blocks of
    rows on every usable core (``run_in_shares``).

    A block holds ``block_rows`` of the widest of x's columns, the outputs
    of ``layers`` and ``row_shape``: a narrow pass costs numpy's per-call
    overhead more than arithmetic, which a longer block spreads over more
    rows, while a wide pass is fastest at ``ROW_BLOCK`` rows. Each share
    keeps one infer workspace (``workspace`` of ``layers`` without
    ``backward``, whose ``x`` takes a block of x's shape), built at its
    first block and again for a shorter last one, since block arrays made
    and freed block by block can have their pages faulted in anew for
    every block. ``fn(x_block, out, ws)`` runs the pass on a block into its
    share's workspace and writes the block's rows straight into ``out``,
    their slice of the one output, of x's dtype. So no block's result is
    copied, and peak memory is the output plus one workspace per share,
    whatever the row count.

    The caller checks x's shape first: ``fn`` never runs when x has no
    rows. ``fn`` may run on several threads at once, each call on its own
    block and workspace, so it must write nowhere else. BLAS may pick its
    kernel by the row count, so a row of a pass over more than one block
    can differ from the one-batch pass in the last ulp.
    """
    widest = max(x.shape[1], *row_shape, *(layer.w.values.shape[1] for layer in layers))
    block = block_rows(widest)
    out = np.empty((x.shape[0], *row_shape), x.dtype)

    def share(starts: range) -> None:
        ws = None
        for start in starts:
            ws = workspace(ws, min(block, x.shape[0] - start), layers, backward=False)
            fn(x[start:start + block], out[start:start + block], ws)

    run_in_shares(share, x.shape[0], block)
    return out


def _operands(*xs) -> tuple[Tape, list, list]:
    """The operands of a primitive: at least one is a node, and any other
    may be a plain array (or number), read as its values and never recorded.

    Returns the tape the node operands share, each operand's values, and
    each operand's tape index (None for a plain operand).
    """
    tape = None
    values, idxs = [], []
    for x in xs:
        if isinstance(x, Node):
            if tape is None:
                tape = x.tape
            elif x.tape is not tape:
                raise TapeError("operands were recorded on different tapes")
            values.append(tape._values[x.idx])
            idxs.append(x.idx)
        else:
            values.append(_as_array(x))
            idxs.append(None)
    if tape is None:
        raise TapeError("a primitive needs at least one node operand")
    return tape, values, idxs


def _acc(grads: list, idx: int, g: np.ndarray) -> None:
    # Slots are never mutated in place, so stored gradients may alias
    # upstream arrays.
    current = grads[idx]
    grads[idx] = g if current is None else current + g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient over broadcast axes back down to the operand's shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# name -> (value(a, b), gradient to a, gradient to b); each gradient is a
# function of (g, a, b), taken before it is summed over broadcast axes
_BINARY: dict[str, tuple[Callable, Callable, Callable]] = {
    "add": (np.add, lambda g, a, b: g, lambda g, a, b: g),
    "sub": (np.subtract, lambda g, a, b: g, lambda g, a, b: -g),
    "mul": (np.multiply, lambda g, a, b: g * b, lambda g, a, b: g * a),
}


def _binary(a: Operand, b: Operand, name: str):
    value, grad_a, grad_b = _BINARY[name]
    tape, (av, bv), (ia, ib) = _operands(a, b)
    try:
        out = value(av, bv)
    except ValueError:
        raise ShapeError(f"{name}: shapes {av.shape} and {bv.shape} do not broadcast")

    def backward(g, grads):
        if ia is not None:
            _acc(grads, ia, _unbroadcast(grad_a(g, av, bv), av.shape))
        if ib is not None:
            _acc(grads, ib, _unbroadcast(grad_b(g, av, bv), bv.shape))

    return tape._record(out, backward)


def add(a: Operand, b: Operand):
    return _binary(a, b, "add")


def _check_matmul(av: np.ndarray, bv: np.ndarray) -> None:
    if av.ndim != 2 or bv.ndim != 2:
        raise ShapeError(f"matmul needs 2-d operands, got {av.shape} and {bv.shape}")
    if av.shape[1] != bv.shape[0]:
        raise ShapeError(
            f"matmul: inner dimensions disagree, {av.shape} vs {bv.shape}")


def matmul(a: Operand, b: Operand):
    tape, (av, bv), (ia, ib) = _operands(a, b)
    _check_matmul(av, bv)

    def backward(g, grads):
        if ia is not None:
            _acc(grads, ia, g @ bv.T)
        if ib is not None:
            _acc(grads, ib, av.T @ g)

    return tape._record(av @ bv, backward)


def _reduce(a: Operand, axis: Optional[int], mean: bool):
    """The sum of ``a`` over ``axis`` (every axis when None), or the mean
    when ``mean``. Each input entry's gradient is that of the output entry
    it was reduced into, divided by the count for a mean."""
    tape, (av,), (ia,) = _operands(a)
    out = _as_array(av.mean(axis=axis) if mean else av.sum(axis=axis))

    def backward(g, grads):
        shape = av.shape
        if axis is None:
            kept, count = (), av.size
        else:
            kept = tuple(1 if i == axis % len(shape) else d for i, d in enumerate(shape))
            count = shape[axis]
        spread = np.empty(shape)
        spread[...] = g.reshape(kept)
        _acc(grads, ia, spread / count if mean else spread)

    return tape._record(out, backward)


def _exp_minus_abs(x: np.ndarray) -> np.ndarray:
    e = np.abs(x)
    np.negative(e, out=e)
    return np.exp(e, out=e)


def sigmoid_values(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """The sigmoid of x, into ``out`` when given (which may be x itself)."""
    # Both branches of the overflow-safe form over the whole array, with no
    # boolean indexing (slow on large arrays): e = exp(-|x|) <= 1, so the
    # numerator max(e, x >= 0) is 1 where x >= 0 and e elsewhere.
    e = _exp_minus_abs(x)
    out = np.maximum(e, x >= 0, out=out)
    e += 1.0
    out /= e
    return out


def softplus_values(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """max(x, 0) + log1p(exp(-|x|)), into ``out`` when given."""
    t = _exp_minus_abs(x)
    np.log1p(t, out=t)
    out = np.maximum(x, 0.0, out=out)
    out += t
    return out


def _log_values(a: np.ndarray) -> np.ndarray:
    if np.any(a <= 0):
        raise DomainError("log requires strictly positive inputs")
    return np.log(a)


# name -> (value(a), derivative(g, a, out) = g * d out / d a)
_UNARY: dict[str, tuple[Callable, Callable]] = {
    "tanh": (np.tanh, lambda g, a, out: g * (1.0 - out * out)),
    "sigmoid": (sigmoid_values, lambda g, a, out: g * out * (1.0 - out)),
    "softplus": (softplus_values, lambda g, a, out: g * sigmoid_values(a)),
    "log": (_log_values, lambda g, a, out: g / a),
    "square": (np.square, lambda g, a, out: 2.0 * a * g),
}


def _unary(a: Operand, name: str):
    value, derivative = _UNARY[name]
    tape, (av,), (ia,) = _operands(a)
    out = value(av)

    def backward(g, grads):
        _acc(grads, ia, derivative(g, av, out))

    return tape._record(out, backward)


def sigmoid(a: Operand):
    return _unary(a, "sigmoid")


def tanh(a: Operand):
    return _unary(a, "tanh")


def softplus(a: Operand):
    return _unary(a, "softplus")


def log(a: Operand):
    return _unary(a, "log")


def square(a: Operand):
    return _unary(a, "square")


def batch_norm(x: Operand, shift: Operand, scale: Operand, state: BatchNormState,
               mode: str):
    """Per-dimension normalization with learned shift/scale.

    Train mode normalizes by batch statistics (biased variance plus
    ``BN_EPS``) and updates ``state`` in place by an EMA with momentum
    ``BN_MOMENTUM``. Infer mode normalizes by the running statistics and has
    no side effects. Gradients flow to x, shift and scale in both modes;
    train mode differentiates through the batch statistics.
    """
    tape, (xv, shift_v, scale_v), (ix, ishift, iscale) = _operands(x, shift, scale)
    if xv.ndim != 2:
        raise ShapeError(f"batch_norm expects (batch, dim) input, got {xv.shape}")
    d = xv.shape[1]
    if shift_v.shape != (d,) or scale_v.shape != (d,):
        raise ShapeError(
            f"batch_norm: shift/scale must have shape ({d},), got "
            f"{shift_v.shape} and {scale_v.shape}")
    inv, xhat = batch_statistics(xv, state, mode)
    xhat *= inv
    out = xhat * scale_v + shift_v

    def backward(g, grads):
        if ishift is not None:
            _acc(grads, ishift, g.sum(axis=0))
        if iscale is not None:
            _acc(grads, iscale, (g * xhat).sum(axis=0))
        if ix is not None:
            _acc(grads, ix, batch_norm_dx(g, xhat, scale_v, inv, mode))

    return tape._record(out, backward)


def batch_statistics(xv: np.ndarray, state: BatchNormState, mode: str,
                     out: Optional[np.ndarray] = None,
                     work: Optional[np.ndarray] = None) -> tuple:
    """The 1/sqrt(var + ``BN_EPS``), as an array of its own, that batch norm
    normalizes the rows of xv by, and xv minus the mean (into ``out`` when
    given). Train mode takes the batch's own statistics, with the
    expressions of ``xv.mean(axis=0)`` and ``xv.var(axis=0)``, and moves
    ``state`` toward them; ``work``, an array of xv's shape that may be xv
    itself, then holds the squared deviations. Infer mode takes the running
    statistics of ``state``."""
    if mode == "train":
        n = xv.shape[0]
        if n < 2:
            raise ValueError("batch_norm in train mode needs a batch of >= 2 rows")
        mu = np.add.reduce(xv, axis=0)
        mu /= n
        centered = np.subtract(xv, mu, out=out)
        var = np.add.reduce(np.square(centered, out=work), axis=0)
        var /= n
        inv = 1.0 / np.sqrt(var + BN_EPS)
        state.mean[:] = BN_MOMENTUM * state.mean + (1.0 - BN_MOMENTUM) * mu
        state.var[:] = BN_MOMENTUM * state.var + (1.0 - BN_MOMENTUM) * var
    elif mode == "infer":
        inv = 1.0 / np.sqrt(state.var + BN_EPS)
        centered = np.subtract(xv, state.mean, out=out)
    else:
        raise ValueError(f"batch_norm mode must be 'train' or 'infer', got {mode!r}")
    return inv, centered


def batch_norm_dx(g: np.ndarray, xhat: np.ndarray, scale: np.ndarray,
                  inv: np.ndarray, mode: str, out: Optional[np.ndarray] = None,
                  work: Optional[np.ndarray] = None) -> np.ndarray:
    """Gradient to batch norm's input for the gradient g of its output,
    where xhat is the normalized input and inv the 1/sqrt(var + eps) it was
    divided by; train mode differentiates through the batch statistics.

    The result goes into ``out`` when given; ``work``, an array of g's
    shape that may be g itself, holds an intermediate.
    """
    if mode != "train":
        dx = np.multiply(g, scale, out=out)
        dx *= inv
        return dx
    n = g.shape[0]
    dxhat = np.multiply(g, scale, out=work)
    dxhat_sum = np.add.reduce(dxhat, axis=0)
    dxhat_xhat_sum = np.add.reduce(np.multiply(dxhat, xhat, out=out), axis=0)
    # (inv / n) * (n * dxhat - dxhat_sum - xhat * dxhat_xhat_sum)
    dx = np.multiply(dxhat, n, out=out)
    dx -= dxhat_sum
    dx -= np.multiply(xhat, dxhat_xhat_sum, out=dxhat)
    dx *= inv / n
    return dx


# --- the dense-layer stack of both models ------------------------------------

# activation name -> its value, computed in place in the array it is given
_ACTIVATE: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "linear": lambda a: a,
    "tanh": lambda a: np.tanh(a, out=a),
    "sigmoid": lambda a: sigmoid_values(a, out=a),
}


class Dense:
    """activation(h @ w + b), then batch norm with ``bn_shift``,
    ``bn_scale`` and the running statistics ``bn_state`` when it has them."""

    def __init__(self, w: Parameter, b: Parameter, activation: str):
        self.w, self.b, self.activation = w, b, activation
        self.bn_shift = self.bn_scale = self.bn_state = None

    @property
    def has_batch_norm(self) -> bool:
        return self.bn_scale is not None


def dense_stack(prefix: str, widths: Sequence[int], activations: Sequence[str],
                rng: np.random.Generator, init_scale: float,
                batch_norm: bool, dtype=np.float64) -> list[Dense]:
    """Layers from width ``widths[0]`` to ``widths[-1]``, layer i with
    ``activations[i]`` and parameters ``{prefix}.layer{i}.w``, ``.b``,
    ``.bn_shift`` and ``.bn_scale``; with ``batch_norm`` every layer but the
    last has batch norm. Weights are uniform in +/- init_scale /
    sqrt(fan_in), drawn from rng layer by layer as float64 whatever
    ``dtype``, the parameters' and batch-norm statistics' dtype, so every
    dtype consumes rng alike; biases and shifts start at zero, scales at
    one."""
    if any(width < 1 for width in widths):
        raise ValueError(f"layer widths must be at least 1, got {list(widths)}")
    layers = []
    for i, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:])):
        name = f"{prefix}.layer{i}"
        bound = init_scale / np.sqrt(fan_in)
        layer = Dense(Parameter(rng.uniform(-bound, bound, size=(fan_in, fan_out)),
                                f"{name}.w", dtype),
                      Parameter(np.zeros(fan_out), f"{name}.b", dtype), activations[i])
        if batch_norm and i < len(widths) - 2:
            layer.bn_shift = Parameter(np.zeros(fan_out), f"{name}.bn_shift", dtype)
            layer.bn_scale = Parameter(np.ones(fan_out), f"{name}.bn_scale", dtype)
            layer.bn_state = BatchNormState.initial(fan_out, dtype)
        layers.append(layer)
    return layers


def stack_rows(layers: Sequence[Dense], x, what: str) -> np.ndarray:
    """x as input rows of the stack: cast to the layers' dtype, and of
    shape (batch, the first layer's input width), else a ShapeError that
    calls it ``what``."""
    w = layers[0].w.values
    x = np.asarray(x, dtype=w.dtype)
    if x.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ShapeError(f"expected {what} of shape (batch, {w.shape[0]}), got {x.shape}")
    return x


def workspace(ws: Optional[SimpleNamespace], rows: int, layers: Sequence[Dense],
              backward: bool = True) -> SimpleNamespace:
    """``ws`` when it was built for ``rows`` rows, else a new one: ``x``, an
    array of the pass's input shape (``rows`` by the first layer's input
    width), which the pass may use as scratch and into which
    ``stack_backward`` writes x's gradient; per layer the activation ``a``,
    the gradients ``ga`` of the activation's input and ``dh`` of the
    layer's output, and the weight gradient ``dw``; per batch-norm layer
    ``xhat``, ``inv`` and the layer's output ``h`` (elsewhere None, None
    and ``a``); and ``rows``. Every array has the layers' dtype.

    Without ``backward``, for an infer-mode pass that no backward follows,
    only ``x``, ``a`` and ``inv`` are made: ``xhat`` and ``h`` are ``a``,
    which batch norm then normalizes in place, and ``ga``, ``dh`` and
    ``dw`` are None."""
    if ws is not None and ws.rows == rows:
        return ws

    def empty(shape):
        return np.empty(shape, layers[0].w.values.dtype)

    ws = SimpleNamespace(rows=rows, x=empty((rows, layers[0].w.values.shape[0])),
                         a=[], ga=[], dh=[], dw=[], xhat=[], inv=[], h=[])
    for layer in layers:
        shape = (rows, layer.w.values.shape[1])
        norm = layer.has_batch_norm
        a = empty(shape)
        ws.a.append(a)
        ws.ga.append(empty(shape) if backward else None)
        ws.dh.append(empty(shape) if backward else None)
        ws.dw.append(empty(layer.w.values.shape) if backward else None)
        ws.xhat.append((empty(shape) if backward else a) if norm else None)
        ws.inv.append(empty(shape[1]) if norm else None)
        ws.h.append(empty(shape) if norm and backward else a)
    return ws


def stack_forward(layers: Sequence[Dense], x: np.ndarray, mode: str, ws=None,
                  out: Optional[np.ndarray] = None) -> np.ndarray:
    """The stack's output for the rows of x, ``mode`` picking the batch-norm
    statistics. A workspace takes what the backward reads, the output
    included; the last layer writes into ``out`` when given, so a
    workspace for the other layers will do.

    Without a workspace the arrays are fresh. That path stays for a
    forward that no backward follows, such as a train-mode ``generate``:
    it frees each layer's arrays as the next layer's are made, where a
    workspace holds every layer's, which keeps a 20 000-row train-mode
    ``generate`` under 4 activation units of peak memory."""
    h = x
    last = len(layers) - 1
    for i, layer in enumerate(layers):
        into = out if i == last and out is not None else ws.a[i] if ws else None
        a = np.matmul(h, layer.w.values, out=into)
        a += layer.b.values
        h = _ACTIVATE[layer.activation](a)
        if layer.has_batch_norm:
            inv, xhat = batch_statistics(a, layer.bn_state, mode,
                                         out=ws.xhat[i] if ws else None,
                                         work=ws.h[i] if ws else a)
            if ws:
                ws.inv[i][...] = inv
            xhat *= inv
            h = np.multiply(xhat, layer.bn_scale.values, out=ws.h[i] if ws else xhat)
            h += layer.bn_shift.values
    return h


def stack_backward(layers: Sequence[Dense], x: np.ndarray, ws, dh: np.ndarray,
                   params: bool) -> Optional[np.ndarray]:
    """Backward of the ``stack_forward`` pass over x that wrote ``ws``, from
    the gradient dh of its output, which it may overwrite. Batch norm is
    differentiated through the batch statistics, as a train-mode forward
    uses them; the one stack with batch norm, the generator's, runs a
    backward only after a train-mode forward. With ``params`` it adds the
    parameters' gradients into their ``.grad`` and returns None; without,
    it writes x's gradient into ``ws.x`` and returns that."""
    for i in range(len(layers) - 1, -1, -1):
        layer, a, ga = layers[i], ws.a[i], ws.ga[i]
        if layer.has_batch_norm:   # dh becomes the gradient to the activation
            if params:
                layer.bn_shift.grad += np.add.reduce(dh, axis=0)
                layer.bn_scale.grad += np.add.reduce(np.multiply(dh, ws.xhat[i], out=ga),
                                                     axis=0)
            batch_norm_dx(dh, ws.xhat[i], layer.bn_scale.values, ws.inv[i], "train",
                          out=dh, work=ga)
        if layer.activation == "linear":
            ga = dh
        else:
            if layer.activation == "tanh":   # (1 - a * a) * dh
                np.multiply(a, a, out=ga)
                np.subtract(1.0, ga, out=ga)
            else:                            # sigmoid: (1 - a) * (dh * a)
                np.subtract(1.0, a, out=ga)
                dh *= a
            ga *= dh
        if params:
            layer.w.grad += np.matmul(ws.h[i - 1].T if i else x.T, ga, out=ws.dw[i])
            layer.b.grad += np.add.reduce(ga, axis=0)
        if i:
            dh = np.matmul(ga, layer.w.values.T, out=ws.dh[i - 1])
        elif not params:
            return np.matmul(ga, layer.w.values.T, out=ws.x)
    return None
