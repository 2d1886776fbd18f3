"""Reverse-mode automatic differentiation on a flat operation tape.

Runtime values are numpy float64 arrays (C order, batch as the leading
dimension). A ``Tape`` records every primitive in execution order, so the
node list is topologically sorted by construction and the backward pass is
a single reverse sweep. ``Parameter`` objects are trainable leaves: after
``tape.backward(root)`` each parameter watched by the tape holds
d(root)/d(parameter) in ``.grad`` (zero if unreachable from the root).

Numerically sensitive primitives use overflow-safe identities:

* softplus(a) = max(a, 0) + log1p(exp(-|a|))
* sigmoid(a)  = 1 / (1 + exp(-a)) for a >= 0, exp(a) / (1 + exp(a)) otherwise

``tanh``, ``sigmoid``, ``softplus``, ``square`` and ``batch_norm`` also take
a plain array in place of a node: they then return a plain array and
record nothing. Since ``+``, ``*``, ``@`` and ``.sum()`` work on arrays as
they do on nodes, and ``leaf`` looks a parameter up as a tape leaf or as
its values, a forward pass written once runs on a tape when a gradient is
wanted and as plain numpy otherwise. Both paths compute each value with
the same numpy expression, so they give the same bits.

The tape is rebuilt per training step; nothing here is thread-shared
except Parameters, which only ``Tape.backward`` mutates (their ``.grad``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

BN_EPS = 1e-5         # batch-norm variance floor
BN_MOMENTUM = 0.9     # running-statistics exponential moving average


class ShapeError(ValueError):
    """Operand shapes incompatible with the requested primitive."""


class DomainError(ValueError):
    """Input outside a primitive's documented domain (e.g. log of x <= 0)."""


class TapeError(RuntimeError):
    """Tape misuse: non-scalar backward root or operands from different tapes."""


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


@dataclass
class BatchNormState:
    """Running mean/variance, updated by EMA during train-mode batch norm."""

    mean: np.ndarray
    var: np.ndarray

    @classmethod
    def initial(cls, dim: int) -> "BatchNormState":
        return cls(mean=np.zeros(dim), var=np.ones(dim))


class Node:
    """Handle to one tape entry; arithmetic on handles records new entries."""

    __slots__ = ("tape", "idx")

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
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(self.tape.constant(other), self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis: Optional[int] = None) -> "Node":
        return nsum(self, axis)

    def mean(self, axis: Optional[int] = None) -> "Node":
        return nmean(self, axis)


Operand = Union[Node, float, int, np.ndarray]


class Tape:
    """Append-only record of primitive operations (a Wengert list).

    Invariant: every entry's operands have smaller indices, so iterating
    in reverse visits consumers before producers. ``backward`` writes
    parameter gradients into the watched ``Parameter`` objects.
    """

    def __init__(self):
        self._values: list[np.ndarray] = []
        self._backward: list[Optional[Callable]] = []
        self._param_at: dict[int, Parameter] = {}   # node idx -> Parameter
        self._watched: dict[int, int] = {}          # id(Parameter) -> node idx
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
        if id(param) in self._frozen:
            return self.constant(param.values)
        cached = self._watched.get(id(param))
        if cached is not None:
            return Node(self, cached)
        node = self._record(param.values, None)
        self._watched[id(param)] = node.idx
        self._param_at[node.idx] = param
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
        grads[root.idx] = np.ones_like(self._values[root.idx])
        for p in self._param_at.values():
            p.grad[...] = 0.0
        for i in range(root.idx, -1, -1):
            g = grads[i]
            if g is None:
                continue
            fn = self._backward[i]
            if fn is not None:
                fn(g, grads)
            param = self._param_at.get(i)
            if param is not None:
                param.grad += g


def _values_of(x) -> np.ndarray:
    """The values of a node, or the operand itself as a float64 array."""
    return x.values if isinstance(x, Node) else _as_array(x)


def leaf(x, param: Parameter):
    """``param`` as an operand for a pass over ``x``: a leaf watched on
    ``x``'s tape when ``x`` is a node, the plain values otherwise."""
    return x.tape.watch(param) if isinstance(x, Node) else param.values


def _coerce(tape: Tape, x: Operand) -> Node:
    if isinstance(x, Node):
        if x.tape is not tape:
            raise TapeError("operands were recorded on different tapes")
        return x
    return tape.constant(x)


def _binary_operands(a: Operand, b: Operand) -> tuple[Tape, Node, Node]:
    tape = a.tape if isinstance(a, Node) else b.tape
    return tape, _coerce(tape, a), _coerce(tape, b)


def _acc(grads: list, idx: int, g: np.ndarray) -> None:
    # Never mutates in place, so stored gradients may alias upstream arrays.
    if grads[idx] is None:
        grads[idx] = g
    else:
        grads[idx] = grads[idx] + g


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


def add(a: Operand, b: Operand) -> Node:
    tape, a, b = _binary_operands(a, b)
    av, bv = a.values, b.values
    try:
        out = av + bv
    except ValueError:
        raise ShapeError(f"add: shapes {av.shape} and {bv.shape} do not broadcast")

    def backward(g, grads):
        _acc(grads, a.idx, _unbroadcast(g, av.shape))
        _acc(grads, b.idx, _unbroadcast(g, bv.shape))

    return tape._record(out, backward)


def sub(a: Operand, b: Operand) -> Node:
    tape, a, b = _binary_operands(a, b)
    av, bv = a.values, b.values
    try:
        out = av - bv
    except ValueError:
        raise ShapeError(f"sub: shapes {av.shape} and {bv.shape} do not broadcast")

    def backward(g, grads):
        _acc(grads, a.idx, _unbroadcast(g, av.shape))
        _acc(grads, b.idx, _unbroadcast(-g, bv.shape))

    return tape._record(out, backward)


def mul(a: Operand, b: Operand) -> Node:
    tape, a, b = _binary_operands(a, b)
    av, bv = a.values, b.values
    try:
        out = av * bv
    except ValueError:
        raise ShapeError(f"mul: shapes {av.shape} and {bv.shape} do not broadcast")

    def backward(g, grads):
        _acc(grads, a.idx, _unbroadcast(g * bv, av.shape))
        _acc(grads, b.idx, _unbroadcast(g * av, bv.shape))

    return tape._record(out, backward)


def neg(a: Node) -> Node:
    def backward(g, grads):
        _acc(grads, a.idx, -g)

    return a.tape._record(-a.values, backward)


def matmul(a: Node, b: Node) -> Node:
    tape, a, b = _binary_operands(a, b)
    av, bv = a.values, b.values
    if av.ndim != 2 or bv.ndim != 2:
        raise ShapeError(f"matmul needs 2-d operands, got {av.shape} and {bv.shape}")
    if av.shape[1] != bv.shape[0]:
        raise ShapeError(
            f"matmul: inner dimensions disagree, {av.shape} vs {bv.shape}")

    def backward(g, grads):
        _acc(grads, a.idx, g @ bv.T)
        _acc(grads, b.idx, av.T @ g)

    return tape._record(av @ bv, backward)


def nsum(a: Node, axis: Optional[int] = None) -> Node:
    av = a.values
    out = _as_array(av.sum(axis=axis))

    def backward(g, grads):
        if axis is None:
            gg = np.broadcast_to(g, av.shape)
        else:
            gg = np.broadcast_to(np.expand_dims(g, axis), av.shape)
        _acc(grads, a.idx, gg)

    return a.tape._record(out, backward)


def nmean(a: Node, axis: Optional[int] = None) -> Node:
    av = a.values
    count = av.size if axis is None else av.shape[axis]
    out = _as_array(av.mean(axis=axis))

    def backward(g, grads):
        if axis is None:
            gg = np.broadcast_to(g, av.shape)
        else:
            gg = np.broadcast_to(np.expand_dims(g, axis), av.shape)
        _acc(grads, a.idx, gg / count)

    return a.tape._record(out, backward)


def _sigmoid_values(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(a):
    out = _sigmoid_values(_values_of(a))
    if not isinstance(a, Node):
        return out

    def backward(g, grads):
        _acc(grads, a.idx, g * out * (1.0 - out))

    return a.tape._record(out, backward)


def tanh(a):
    out = np.tanh(_values_of(a))
    if not isinstance(a, Node):
        return out

    def backward(g, grads):
        _acc(grads, a.idx, g * (1.0 - out * out))

    return a.tape._record(out, backward)


def exp(a: Node) -> Node:
    out = np.exp(a.values)

    def backward(g, grads):
        _acc(grads, a.idx, g * out)

    return a.tape._record(out, backward)


def log(a: Node) -> Node:
    av = a.values
    if np.any(av <= 0):
        raise DomainError("log requires strictly positive inputs")
    out = np.log(av)

    def backward(g, grads):
        _acc(grads, a.idx, g / av)

    return a.tape._record(out, backward)


def square(a):
    av = _values_of(a)
    out = av * av
    if not isinstance(a, Node):
        return out

    def backward(g, grads):
        _acc(grads, a.idx, 2.0 * av * g)

    return a.tape._record(out, backward)


def softplus(a):
    av = _values_of(a)
    out = np.maximum(av, 0.0) + np.log1p(np.exp(-np.abs(av)))
    if not isinstance(a, Node):
        return out

    def backward(g, grads):
        _acc(grads, a.idx, g * _sigmoid_values(av))

    return a.tape._record(out, backward)


def batch_norm(x, shift: Operand, scale: Operand, state: BatchNormState,
               mode: str):
    """Per-dimension normalization with learned shift/scale.

    Train mode normalizes by batch statistics (biased variance plus
    ``BN_EPS``) and updates ``state`` in place by an EMA with momentum
    ``BN_MOMENTUM``. Infer mode normalizes by the running statistics and has
    no side effects. Gradients flow to x, shift and scale in both modes;
    train mode differentiates through the batch statistics. A plain-array
    ``x`` gives a plain array, computed in one fresh buffer.
    """
    if isinstance(x, Node):
        shift = _coerce(x.tape, shift)
        scale = _coerce(x.tape, scale)
    xv, shift_v, scale_v = _values_of(x), _values_of(shift), _values_of(scale)
    if xv.ndim != 2:
        raise ShapeError(f"batch_norm expects (batch, dim) input, got {xv.shape}")
    n, d = xv.shape
    if shift_v.shape != (d,) or scale_v.shape != (d,):
        raise ShapeError(
            f"batch_norm: shift/scale must have shape ({d},), got "
            f"{shift_v.shape} and {scale_v.shape}")
    if mode == "train":
        if n < 2:
            raise ValueError("batch_norm in train mode needs a batch of >= 2 rows")
        mu = xv.mean(axis=0)
        var = xv.var(axis=0)
        inv = 1.0 / np.sqrt(var + BN_EPS)
        state.mean[:] = BN_MOMENTUM * state.mean + (1.0 - BN_MOMENTUM) * mu
        state.var[:] = BN_MOMENTUM * state.var + (1.0 - BN_MOMENTUM) * var
    elif mode == "infer":
        mu = state.mean
        inv = 1.0 / np.sqrt(state.var + BN_EPS)
    else:
        raise ValueError(f"batch_norm mode must be 'train' or 'infer', got {mode!r}")
    if not isinstance(x, Node):
        out = xv - mu
        out *= inv
        out *= scale_v
        out += shift_v
        return out

    xhat = (xv - mu) * inv
    if mode == "train":
        def backward(g, grads):
            _acc(grads, shift.idx, g.sum(axis=0))
            _acc(grads, scale.idx, (g * xhat).sum(axis=0))
            dxhat = g * scale_v
            dx = (inv / n) * (n * dxhat - dxhat.sum(axis=0)
                              - xhat * (dxhat * xhat).sum(axis=0))
            _acc(grads, x.idx, dx)
    else:
        def backward(g, grads):
            _acc(grads, shift.idx, g.sum(axis=0))
            _acc(grads, scale.idx, (g * xhat).sum(axis=0))
            _acc(grads, x.idx, g * scale_v * inv)

    return x.tape._record(xhat * scale_v + shift_v, backward)


ACTIVATIONS: dict[str, Optional[Callable]] = {
    "linear": None,
    "sigmoid": sigmoid,
}


def apply_activation(name: str, x):
    try:
        fn = ACTIVATIONS[name]
    except KeyError:
        raise ValueError(f"unknown activation {name!r}") from None
    return x if fn is None else fn(x)
