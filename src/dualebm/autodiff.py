"""Reverse-mode automatic differentiation on a flat operation tape, and the
numeric pieces the models' hand-written passes share.

No command records on a tape. The tape and its primitives are the
reference that the tests compare the models' hand-written passes and loss
backwards with, bit for bit (``tests/helpers.py``), and the target of the
benchmark's per-primitive timings. The pieces the program runs are
``ParameterStore``, the dense-layer stack, ``by_row_blocks``,
``batch_statistics``, ``batch_norm_dx``, ``sigmoid_values`` and
``softplus_values``: the models compute each value with these
expressions, which are the primitives' own, so a pass gives the bits of
the chain of primitives it stands for.

The dense-layer stack is the one network of both models: the energy
model's feature layers (tanh, then sigmoid) and the generator (tanh and
batch norm, then a linear or sigmoid output). A ``Dense`` layer computes
activation(h @ w + b), then batch norm when it has one; ``dense_stack``
builds the layers. ``stack_forward`` runs them, into a model's
``workspace`` (arrays kept from call to call, rebuilt when the row count
changes) when a backward follows; ``stack_backward`` then adds the
parameters' gradients or returns the input's. Its expressions, and the
order of its sums, are the chain's of ``matmul``, ``add``, the activation
and ``batch_norm``, with tanh' = 1 - out * out and sigmoid' = (1 - out) *
out formed from the activation's output, so its gradients have the
chain's bits.

Runtime values are numpy float64 arrays (C order, batch as the leading
dimension). A ``Tape`` records every primitive in execution order, so the
node list is topologically sorted by construction and the backward pass is
a single reverse sweep. ``Parameter`` objects are trainable leaves: after
``tape.backward(root)`` each parameter watched by the tape holds
d(root)/d(parameter) in ``.grad`` (zero if unreachable from the root).

Numerically sensitive primitives use overflow-safe identities:

* softplus(a) = max(a, 0) + log1p(exp(-|a|))
* sigmoid(a)  = 1 / (1 + exp(-a)) for a >= 0, exp(a) / (1 + exp(a)) otherwise

Each primitive family is defined once: ``+``, ``-`` and ``*`` are rows of
``_BINARY``, the elementwise functions (``tanh``, ``sigmoid``,
``softplus``, ``log``, ``square``) rows of ``_UNARY``, and ``.sum()`` and
``.mean()`` one reduction.

Gradient pruning: each tape entry records whether it depends on a watched
parameter. An entry built only from constants and frozen parameters gets no
backward closure, and a closure computes no gradient for an operand that no
parameter depends on.

Closures capture operand indices and arrays, never ``Node`` handles, so a
tape holds no reference back to its nodes. Nodes refer to their tape, not
the other way round: a tape is freed by reference counting as soon as its
last node goes, without waiting for the cycle collector.

Every primitive follows one operand rule (``_operands``): any operand may
be a node or a plain array, a plain operand is read as its values and is
never recorded as a tape entry, and when no operand is a node the result
is a plain array, computed with the same numpy expression as the
recorded value. ``by_row_blocks`` runs a plain pass over many rows in
blocks of ``ROW_BLOCK`` rows, each written straight into its slice of one
output, so its memory does not grow with the row count.

``ParameterStore`` lays a model's parameters out in three flat buffers of
one layout: values, gradients and AdaGrad accumulators. Each ``Parameter``
holds views into the first two, so tapes, which work per parameter, and
AdaGrad, finite differences and the hand-written backwards, which work on
the flat buffers, see one state. ``views`` names the parts of a flat
buffer where a name is needed: in a checkpoint, in an error message.

Nothing here is thread-shared except Parameters, whose ``.grad`` a
backward writes, and a model's workspace, which its passes write: one
model must not run passes from two threads at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Optional, Sequence, Union

import numpy as np

BN_EPS = 1e-5         # batch-norm variance floor
BN_MOMENTUM = 0.9     # running-statistics exponential moving average
ROW_BLOCK = 256       # rows per block of a plain pass (see by_row_blocks)


class ShapeError(ValueError):
    """Operand shapes incompatible with the requested primitive."""


class DomainError(ValueError):
    """Input outside a primitive's documented domain (e.g. log of x <= 0)."""


class TapeError(RuntimeError):
    """Tape misuse: a non-scalar backward root, or operands from different
    tapes."""


def _as_array(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


class Parameter:
    """Trainable array plus a persistent gradient buffer of the same shape."""

    __slots__ = ("values", "grad", "name")

    def __init__(self, values, name: str):
        self.values = np.array(values, dtype=np.float64)
        self.grad = np.zeros_like(self.values)
        self.name = name

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.values.shape})"


class ParameterStore:
    """A model's parameters as views into one values buffer and one grad
    buffer, beside one AdaGrad accumulator of the same layout.

    Building the store copies each parameter's values and gradient into
    consecutive slices of ``values`` and ``grad``, in the order given, and
    rebinds ``p.values`` and ``p.grad`` to reshaped views of those slices.
    Writes through either name then reach the same memory. ``acc`` starts
    at zero; ``training.adagrad_step`` updates it in place. ``spans`` holds
    each parameter's ``(name, slice, shape)`` in that order.
    """

    def __init__(self, params: Sequence[Parameter]):
        self.params = list(params)
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            raise ValueError(f"parameter names must be unique, got {names}")
        size = sum(p.values.size for p in self.params)
        self.values = np.empty(size)
        self.grad = np.empty(size)
        self.acc = np.zeros(size)
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

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Per-parameter views, by name, of a flat array laid out like
        ``values``."""
        if flat.shape != self.values.shape:
            raise ShapeError(
                f"flat array of shape {flat.shape}, store holds {self.values.shape}")
        return {name: flat[span].reshape(shape) for name, span, shape in self.spans}

    def first_nonfinite(self, flat: np.ndarray) -> Optional[str]:
        """Name of the first parameter whose part of ``flat`` holds NaN or
        +/-inf, or None when every entry is finite."""
        if np.isfinite(flat).all():
            return None
        for name, span, _ in self.spans:
            if not np.isfinite(flat[span]).all():
                return name
        return None


@dataclass
class BatchNormState:
    """Running mean/variance, updated by EMA during train-mode batch norm."""

    mean: np.ndarray
    var: np.ndarray

    @classmethod
    def initial(cls, dim: int) -> "BatchNormState":
        return cls(mean=np.zeros(dim), var=np.ones(dim))


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
    in reverse visits consumers before producers. An entry has a backward
    closure exactly when it depends on a watched parameter. During
    ``backward`` each contribution to a watched parameter's leaf is added
    in place into ``param.grad``, so no per-leaf sum is allocated.
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
        """Leaf holding a fixed array; no gradient is tracked for it."""
        return self._record(_as_array(values), None)

    def watch(self, param: Parameter) -> Node:
        """Leaf bound to a Parameter; repeated watches return the same node.

        Frozen parameters come back as constants, which is how a loss is cut
        off from one model's parameters while differentiating the other.
        """
        cached = self._watched.get(id(param))
        if cached is not None:
            return Node(self, cached)
        if id(param) in self._frozen:
            node = self.constant(param.values)
        else:
            node = self._record(param.values, _watched_leaf)
            self._leaves.append((node.idx, param))
        self._watched[id(param)] = node.idx
        return node

    def freeze(self, params: Sequence[Parameter]) -> None:
        """Treat these parameters as constants for this tape."""
        self._frozen.update(id(p) for p in params)

    def backward(self, root: Node) -> None:
        """Accumulate d(root)/d(node) for every ancestor of a scalar root.

        Watched parameters get their ``.grad`` overwritten: zero first, then
        the summed contributions of every tape node bound to them. Parameters
        never reached from the root therefore hold exactly zero.
        """
        if root.tape is not self:
            raise TapeError("backward root belongs to a different tape")
        if root.values.size != 1:
            raise TapeError(
                f"backward root must be scalar, got shape {root.values.shape}")
        grads: list = [None] * len(self._values)
        for idx, param in self._leaves:
            param.grad[...] = 0.0
            grads[idx] = param
        _acc(grads, root.idx, np.ones_like(self._values[root.idx]))
        for i in range(root.idx, -1, -1):
            g = grads[i]
            fn = self._backward[i]
            if g is not None and fn is not None:
                grads[i] = None
                fn(g, grads)


def by_row_blocks(fn: Callable[[np.ndarray, np.ndarray], object],
                  x: np.ndarray, row_shape: tuple) -> np.ndarray:
    """A plain-array pass over the rows of x, in which each output row (of
    shape ``row_shape``) depends on its input row alone, run on blocks of
    ``ROW_BLOCK`` rows.

    The float64 output is allocated once; ``fn(block, out)`` writes the
    block's rows straight into ``out``, their slice of it, so no block's
    result is copied. The caller checks x's shape first: ``fn`` never runs
    when x has no rows.

    Peak memory is the output plus a few block activations, whatever the
    row count. A block's 128-wide float64 activation is 256 KiB: it stays in
    L2 cache, and glibc serves it from heap memory the previous block freed,
    so no page is faulted in anew; a 784-wide output layer writes into the
    output, whose pages are faulted in once. BLAS may pick its kernel by the
    row count, so a row of a pass over more than ``ROW_BLOCK`` rows can
    differ from the one-batch pass in the last ulp.
    """
    out = np.empty((x.shape[0], *row_shape))
    for start in range(0, x.shape[0], ROW_BLOCK):
        fn(x[start:start + ROW_BLOCK], out[start:start + ROW_BLOCK])
    return out


def _operands(*xs) -> tuple[Optional[Tape], list, list]:
    """The operand rule of every primitive: any operand may be a node or a
    plain array (or number), and a plain operand is read as its values and
    never recorded.

    Returns the tape the node operands share (None when no operand is a
    node), each operand's values, and each operand's index where some
    watched parameter reaches it (None elsewhere, plain operands included).
    """
    tape = None
    values, needs = [], []
    for x in xs:
        if isinstance(x, Node):
            if tape is None:
                tape = x.tape
            elif x.tape is not tape:
                raise TapeError("operands were recorded on different tapes")
            values.append(tape._values[x.idx])
            needs.append(x.idx if tape._backward[x.idx] is not None else None)
        else:
            values.append(_as_array(x))
            needs.append(None)
    return tape, values, needs


def _watched_leaf(g, grads) -> None:
    """Backward of a watched parameter's leaf: nothing to pass on, since
    ``_acc`` has summed its gradient into ``param.grad`` already."""


def _record_op(tape: Optional[Tape], out: np.ndarray, backward: Callable,
               needs: list):
    """A primitive's result: ``out`` itself when no operand is a node (no
    tape); otherwise a tape entry, with ``backward`` when some operand index
    in ``needs`` is set and with none when no watched parameter reaches any
    operand."""
    if tape is None:
        return out
    return tape._record(out, None if needs.count(None) == len(needs) else backward)


def _acc(grads: list, idx: int, g: np.ndarray) -> None:
    # A watched leaf's slot holds its Parameter, whose zeroed .grad takes
    # each contribution in place. Other slots are never mutated in place,
    # so stored gradients may alias upstream arrays.
    current = grads[idx]
    if current is None:
        grads[idx] = g
    elif isinstance(current, Parameter):
        current.grad += g
    else:
        grads[idx] = current + g


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
    tape, (av, bv), needs = _operands(a, b)
    ia, ib = needs
    try:
        out = value(av, bv)
    except ValueError:
        raise ShapeError(f"{name}: shapes {av.shape} and {bv.shape} do not broadcast")

    def backward(g, grads):
        if ia is not None:
            _acc(grads, ia, _unbroadcast(grad_a(g, av, bv), av.shape))
        if ib is not None:
            _acc(grads, ib, _unbroadcast(grad_b(g, av, bv), bv.shape))

    return _record_op(tape, out, backward, needs)


def add(a: Operand, b: Operand):
    return _binary(a, b, "add")


def _check_matmul(av: np.ndarray, bv: np.ndarray) -> None:
    if av.ndim != 2 or bv.ndim != 2:
        raise ShapeError(f"matmul needs 2-d operands, got {av.shape} and {bv.shape}")
    if av.shape[1] != bv.shape[0]:
        raise ShapeError(
            f"matmul: inner dimensions disagree, {av.shape} vs {bv.shape}")


def matmul(a: Operand, b: Operand):
    tape, (av, bv), needs = _operands(a, b)
    ia, ib = needs
    _check_matmul(av, bv)

    def backward(g, grads):
        if ia is not None:
            _acc(grads, ia, g @ bv.T)
        if ib is not None:
            _acc(grads, ib, av.T @ g)

    return _record_op(tape, av @ bv, backward, needs)


def _reduce(a: Operand, axis: Optional[int], mean: bool):
    """The sum of ``a`` over ``axis`` (every axis when None), or the mean
    when ``mean``. Each input entry's gradient is that of the output entry
    it was reduced into, divided by the count for a mean."""
    tape, (av,), needs = _operands(a)
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
        _acc(grads, needs[0], spread / count if mean else spread)

    return _record_op(tape, out, backward, needs)


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
    tape, (av,), needs = _operands(a)
    out = value(av)

    def backward(g, grads):
        _acc(grads, needs[0], derivative(g, av, out))

    return _record_op(tape, out, backward, needs)


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
    train mode differentiates through the batch statistics. With no node
    among x, shift and scale the result is a plain array, computed in one
    fresh buffer.
    """
    tape, (xv, shift_v, scale_v), needs = _operands(x, shift, scale)
    ix, ishift, iscale = needs
    if xv.ndim != 2:
        raise ShapeError(f"batch_norm expects (batch, dim) input, got {xv.shape}")
    d = xv.shape[1]
    if shift_v.shape != (d,) or scale_v.shape != (d,):
        raise ShapeError(
            f"batch_norm: shift/scale must have shape ({d},), got "
            f"{shift_v.shape} and {scale_v.shape}")
    _, inv, xhat = batch_statistics(xv, state, mode)
    xhat *= inv
    if tape is None:
        xhat *= scale_v
        xhat += shift_v
        return xhat

    out = xhat * scale_v + shift_v

    def backward(g, grads):
        if ishift is not None:
            _acc(grads, ishift, g.sum(axis=0))
        if iscale is not None:
            _acc(grads, iscale, (g * xhat).sum(axis=0))
        if ix is not None:
            _acc(grads, ix, batch_norm_dx(g, xhat, scale_v, inv, mode))

    return _record_op(tape, out, backward, needs)


def batch_statistics(xv: np.ndarray, state: BatchNormState, mode: str,
                     out: Optional[np.ndarray] = None,
                     work: Optional[np.ndarray] = None) -> tuple:
    """The mean and 1/sqrt(var + ``BN_EPS``), as arrays of their own, that
    batch norm normalizes the rows of xv by, and xv minus that mean (into
    ``out`` when given). Train mode takes the batch's own statistics, with
    the expressions of ``xv.mean(axis=0)`` and ``xv.var(axis=0)``, and moves
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
        mu = state.mean.copy()   # a later train-mode pass moves state.mean
        inv = 1.0 / np.sqrt(state.var + BN_EPS)
        centered = np.subtract(xv, mu, out=out)
    else:
        raise ValueError(f"batch_norm mode must be 'train' or 'infer', got {mode!r}")
    return mu, inv, centered


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
                batch_norm: bool) -> list[Dense]:
    """Layers from width ``widths[0]`` to ``widths[-1]``, layer i with
    ``activations[i]`` and parameters ``{prefix}.layer{i}.w``, ``.b``,
    ``.bn_shift`` and ``.bn_scale``; with ``batch_norm`` every layer but the
    last has batch norm. Weights are uniform in +/- init_scale /
    sqrt(fan_in), drawn from rng layer by layer; biases and shifts start at
    zero, scales at one."""
    if any(width < 1 for width in widths):
        raise ValueError(f"layer widths must be at least 1, got {list(widths)}")
    layers = []
    for i, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:])):
        name = f"{prefix}.layer{i}"
        bound = init_scale / np.sqrt(fan_in)
        layer = Dense(Parameter(rng.uniform(-bound, bound, size=(fan_in, fan_out)),
                                f"{name}.w"),
                      Parameter(np.zeros(fan_out), f"{name}.b"), activations[i])
        if batch_norm and i < len(widths) - 2:
            layer.bn_shift = Parameter(np.zeros(fan_out), f"{name}.bn_shift")
            layer.bn_scale = Parameter(np.ones(fan_out), f"{name}.bn_scale")
            layer.bn_state = BatchNormState.initial(fan_out)
        layers.append(layer)
    return layers


def workspace(ws: Optional[SimpleNamespace], rows: int, layers: Sequence[Dense],
              **extra) -> SimpleNamespace:
    """``ws`` when it was built for ``rows`` rows, else a new one: per layer
    the activation ``a``, the gradients ``ga`` of the activation's input and
    ``dh`` of the layer's output, and the weight gradient ``dw``; per
    batch-norm layer ``xhat``, ``inv`` and the layer's output ``h``
    (elsewhere None, None and ``a``); an array of each shape in ``extra``;
    and ``rows``."""
    if ws is not None and ws.rows == rows:
        return ws
    ws = SimpleNamespace(rows=rows, a=[], ga=[], dh=[], dw=[], xhat=[], inv=[], h=[],
                         **{name: np.empty(shape) for name, shape in extra.items()})
    for layer in layers:
        shape = (rows, layer.w.values.shape[1])
        norm = layer.has_batch_norm
        ws.a.append(np.empty(shape))
        ws.ga.append(np.empty(shape))
        ws.dh.append(np.empty(shape))
        ws.dw.append(np.empty(layer.w.values.shape))
        ws.xhat.append(np.empty(shape) if norm else None)
        ws.inv.append(np.empty(shape[1]) if norm else None)
        ws.h.append(np.empty(shape) if norm else ws.a[-1])
    return ws


def stack_forward(layers: Sequence[Dense], x: np.ndarray, mode: str, ws=None,
                  out: Optional[np.ndarray] = None) -> np.ndarray:
    """The stack's output for the rows of x, ``mode`` picking the batch-norm
    statistics. A workspace takes what the backward reads, the output
    included; without one, the arrays are fresh, and the last layer writes
    into ``out`` when given."""
    h = x
    last = len(layers) - 1
    for i, layer in enumerate(layers):
        a = np.matmul(h, layer.w.values,
                      out=ws.a[i] if ws else out if i == last else None)
        a += layer.b.values
        h = _ACTIVATE[layer.activation](a)
        if layer.has_batch_norm:
            _, inv, xhat = batch_statistics(a, layer.bn_state, mode,
                                            out=ws.xhat[i] if ws else None,
                                            work=ws.h[i] if ws else a)
            if ws:
                ws.inv[i][...] = inv
            xhat *= inv
            h = np.multiply(xhat, layer.bn_scale.values, out=ws.h[i] if ws else xhat)
            h += layer.bn_shift.values
    return h


def stack_backward(layers: Sequence[Dense], x: np.ndarray, ws, dh: np.ndarray,
                   mode: str, params: bool,
                   dx_out: Optional[np.ndarray] = None) -> Optional[np.ndarray]:
    """Backward of the ``stack_forward`` pass over x that wrote ``ws``, from
    the gradient dh of its output, which it may overwrite. With ``params``
    it adds the parameters' gradients into their ``.grad``; without, it
    returns x's gradient, into ``dx_out`` when given."""
    for i in range(len(layers) - 1, -1, -1):
        layer, a, ga = layers[i], ws.a[i], ws.ga[i]
        if layer.has_batch_norm:   # dh becomes the gradient to the activation
            if params:
                layer.bn_shift.grad += np.add.reduce(dh, axis=0)
                layer.bn_scale.grad += np.add.reduce(np.multiply(dh, ws.xhat[i], out=ga),
                                                     axis=0)
            batch_norm_dx(dh, ws.xhat[i], layer.bn_scale.values, ws.inv[i], mode,
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
            return np.matmul(ga, layer.w.values.T, out=dx_out)
    return None
