"""Deep generative model: deterministic network over a uniform latent prior.

Sampling is ancestral and non-iterative: draw z ~ U(-1,1)^d_z, push it
through the network, done. The conditional P(x|z) is a Dirac delta, so all
sample variability comes from the prior and from how much the network
stretches it. Every hidden layer is tanh followed by batch normalization.

The generator is trained to minimize mean energy minus an entropy estimate;
with the exact entropy this is KL(generator || model) up to the
log-partition constant. Two estimators are available:

* ``"nearest_neighbour"``: the Kozachenko-Leonenko estimate of the
  entropy of the generated batch, from each row's distance to its nearest
  other row. It measures the spread of the samples themselves, so it
  pushes apart samples that crowd onto a few energy minima and stops
  pushing once they are as spread as the energy allows. It is a batch
  estimate: it says nothing about structure finer than the typical
  neighbour distance, and its bias grows with the dimension relative to
  the batch size (64 rows of 784 pixels are far from the regime where it
  is accurate).
* ``"batch_norm_scale"`` (the paper's surrogate, and the default of
  ``config.RunConfig``, the one run configuration): treating each
  normalized hidden activation as Gaussian with scale sigma_a, the summed
  entropy 0.5*log(2*e*pi*sigma_a^2). It measures the scale parameters, not
  the samples: its gradient 1/sigma_a never changes sign, so the scales
  grow without limit while the next linear layer can shrink to cancel
  them, and the samples may still collapse.

The forward pass is written once (``_forward``, one numpy expression per
value) and serves plain sampling and the tape alike. On a tape node,
``generate_node`` records the whole pass as one tape entry
(``autodiff.model_entry``). Its hand-written backward adds the gradient of
every weight, bias and batch-norm parameter into the model's
``ParameterStore`` and passes z's gradient on when z needs one. Its
batch-norm backward is ``autodiff.batch_norm_dx``, the one that
``autodiff.batch_norm`` uses, so gradients keep the bits of the primitive
chain. A recorded pass writes its intermediates, the batch statistics its
backward divides by included, into a slot of the model's
``autodiff.Workspace``, kept for one batch size and rebuilt when the size
changes; ``dgm_loss`` records one pass, so the workspace holds one slot.

Plain infer-mode sampling (``generate``, behind ``sample`` and
``interpolate``) runs ``_forward`` on blocks of ``autodiff.ROW_BLOCK`` rows
through ``autodiff.by_row_blocks``. The output layer's matmul, bias and
sigmoid write each block straight into its slice of the one output array,
so a 784-wide (mnist) call makes no block-sized copy of its result and its
peak memory is the output plus a few block arrays.

scipy is imported inside ``nearest_neighbour_entropy_node``, the one
function here that uses it, not with the module: importing
``scipy.spatial.distance`` and ``scipy.special`` takes ~0.24 s (2-core
Xeon, after numpy), which every command would pay, including ``train``
with the surrogate, which never calls it. A module-level scipy import
fails ``test_commands_that_need_no_scipy_never_import_it`` in
tests/test_cli.py.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import (
    BatchNormState,
    Node,
    Parameter,
    ParameterStore,
    ShapeError,
    Tape,
)

LOG_2PIE = math.log(2.0 * math.pi * math.e)
ENTROPY_ESTIMATORS = ("nearest_neighbour", "batch_norm_scale")
OUTPUT_ACTIVATIONS = ("linear", "sigmoid")


class SingularEntropyError(ValueError):
    """An entropy estimate is undefined: a zero batch-norm scale, or two
    generated rows that coincide."""


class GenLayer:
    def __init__(self, w, b, bn_shift=None, bn_scale=None, bn_state=None):
        self.w = w
        self.b = b
        self.bn_shift = bn_shift
        self.bn_scale = bn_scale
        self.bn_state = bn_state

    @property
    def has_batch_norm(self) -> bool:
        return self.bn_scale is not None


class GeneratorModel:
    def __init__(self, layers, d_z, widths, output_activation):
        self.layers = list(layers)
        self.d_z = int(d_z)
        self.widths = tuple(widths)
        self.output_activation = output_activation
        self.store = ParameterStore(self.params())
        self._workspace = None

    @classmethod
    def build(cls, widths, rng, output_activation="linear", init_scale=1.0):
        """widths runs latent -> hidden... -> data, e.g. (4, 128, 128, 2).

        Each hidden layer is affine, tanh, then batch norm; its batch-norm
        scales carry the ``"batch_norm_scale"`` entropy. The output layer is
        affine then ``output_activation``, with no batch norm.
        """
        if len(widths) < 2:
            raise ValueError("need at least a latent and an output width")
        if output_activation not in OUTPUT_ACTIVATIONS:
            raise ValueError(f"unknown activation {output_activation!r}")
        layers = []
        for i, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:])):
            bound = init_scale / np.sqrt(fan_in)
            w = Parameter(rng.uniform(-bound, bound, size=(fan_in, fan_out)),
                          f"gen.layer{i}.w")
            b = Parameter(np.zeros(fan_out), f"gen.layer{i}.b")
            if i == len(widths) - 2:
                layers.append(GenLayer(w, b))
            else:
                layers.append(GenLayer(
                    w, b,
                    bn_shift=Parameter(np.zeros(fan_out), f"gen.layer{i}.bn_shift"),
                    bn_scale=Parameter(np.ones(fan_out), f"gen.layer{i}.bn_scale"),
                    bn_state=BatchNormState.initial(fan_out)))
        return cls(layers, widths[0], widths, output_activation)

    def params(self) -> list[Parameter]:
        out = []
        for layer in self.layers:
            out.append(layer.w)
            out.append(layer.b)
            if layer.has_batch_norm:
                out.append(layer.bn_shift)
                out.append(layer.bn_scale)
        return out

    def scale_parameters(self) -> list[Parameter]:
        return [l.bn_scale for l in self.layers if l.has_batch_norm]

    def generate_node(self, z, mode: str):
        """Forward pass; mode picks batch-norm statistics.

        z is a tape node (the pass is then one entry on its tape, whose
        backward adds the parameter gradient and passes z's gradient on) or
        a plain array (the samples come back as a plain array and nothing
        is recorded). Train mode moves the running statistics either way.

        Batch norm runs after the bounded activation, so each scale
        parameter multiplies a hidden feature directly. A scale pushed up
        by the entropy term then actually widens the sample distribution
        instead of disappearing into a saturated nonlinearity.
        """
        self._check_latents(z)
        if not isinstance(z, Node):
            return self._forward(np.asarray(z, dtype=np.float64), mode)

        def backward(zv, x, slot, g, grads, iz, want_params):
            self._backward(zv, x, slot, mode, g, grads, iz, want_params)

        return ad.model_entry(z, self.store, self._workspace_for(z.shape[0]),
                              lambda zv, slot: self._forward(zv, mode, slot), backward)

    def generate(self, z: np.ndarray, mode: str = "infer") -> np.ndarray:
        """Samples as a plain array, from ``generate_node`` on plain values:
        no tape is built, and each layer's input is freed once the next
        layer has it. Infer mode is free of side effects and row by row, so
        it runs on blocks of ``autodiff.ROW_BLOCK`` rows, whose output layer
        writes into the one output array and whose peak memory does not
        grow with the row count (see ``autodiff.by_row_blocks``). Train
        mode is one batch: batch norm needs whole-batch statistics."""
        z = np.asarray(z, dtype=np.float64)
        if mode == "train":
            return self.generate_node(z, mode)
        self._check_latents(z)
        return ad.by_row_blocks(lambda block, out: self._forward(block, mode, out=out),
                                z, (self.widths[-1],))

    def _check_latents(self, z) -> None:
        if len(z.shape) != 2 or z.shape[1] != self.d_z:
            raise ShapeError(
                f"expected latents of shape (batch, {self.d_z}), got {z.shape}")

    # --- the one forward and backward of a pass ------------------------------

    def _workspace_for(self, rows: int) -> ad.Workspace:
        """The workspace for recorded passes over ``rows`` rows, rebuilt
        when the row count changes."""
        ws = self._workspace
        if ws is None or ws.rows != rows:
            hidden = [(rows, layer.w.values.shape[1]) for layer in self.layers[:-1]]
            out = (rows, self.widths[-1])
            ws = self._workspace = ad.Workspace(
                rows, slot={"a": hidden, "xhat": hidden, "h": hidden, "pre": out,
                            "inv": [(w,) for _, w in hidden]},
                scratch={"ga": hidden, "dh": hidden,
                         "dw": [layer.w.values.shape for layer in self.layers],
                         "ga_out": out, "g_out": out})
        return ws

    def _forward(self, z: np.ndarray, mode: str, slot=None, out=None) -> np.ndarray:
        """Samples for the rows of z, as a fresh array, or written into
        ``out`` when given (a plain pass only).

        With a workspace slot, each intermediate the backward reads goes
        into it, the 1/sqrt(var + eps) each batch norm divided by included;
        without one, each layer's arrays are fresh and freed once the next
        layer has them.
        """
        h = z
        for i, layer in enumerate(self.layers[:-1]):
            a = np.matmul(h, layer.w.values, out=slot.a[i] if slot else None)
            a += layer.b.values
            np.tanh(a, out=a)
            _, inv, xhat = ad.batch_statistics(a, layer.bn_state, mode,
                                               out=slot.xhat[i] if slot else None,
                                               work=slot.h[i] if slot else a)
            if slot:
                slot.inv[i][...] = inv
            xhat *= inv
            h = np.multiply(xhat, layer.bn_scale.values, out=slot.h[i] if slot else xhat)
            h += layer.bn_shift.values
        w, b = self.layers[-1].w, self.layers[-1].b
        if self.output_activation == "linear":
            x = np.matmul(h, w.values, out=out)
            x += b.values
            return x
        pre = np.matmul(h, w.values, out=slot.pre if slot else out)
        pre += b.values
        return ad.sigmoid_values(pre, out=None if slot else pre)

    def _backward(self, z, x, slot, mode, g, grads, iz, want_params) -> None:
        """Backward of a recorded ``_forward`` for the gradient g of the
        samples x, with the expressions of the primitive chain (per layer
        ``@``, ``+``, the activation and ``autodiff.batch_norm``): the
        parameter gradient is added into ``self.store.grad`` when
        ``want_params``, and z's gradient is passed on when ``iz`` is set."""
        sc = slot.scratch
        last = len(self.layers) - 1
        if self.output_activation == "sigmoid":   # g * x * (1 - x)
            ga = np.subtract(1.0, x, out=sc.ga_out)
            ga *= np.multiply(g, x, out=sc.g_out)
        else:
            ga = g
        for i in range(last, -1, -1):
            layer = self.layers[i]
            if i < last:
                # dh, the gradient to the batch norm's output, becomes the
                # gradient to the tanh output, then to the layer's pre-activation
                dh = np.matmul(ga, self.layers[i + 1].w.values.T, out=sc.dh[i])
                xhat, a, ga = slot.xhat[i], slot.a[i], sc.ga[i]
                if want_params:
                    layer.bn_shift.grad += np.add.reduce(dh, axis=0)
                    layer.bn_scale.grad += np.add.reduce(np.multiply(dh, xhat, out=ga),
                                                         axis=0)
                ad.batch_norm_dx(dh, xhat, layer.bn_scale.values, slot.inv[i], mode,
                                 out=ga, work=dh)
                np.multiply(a, a, out=dh)   # tanh: * (1 - a * a)
                np.subtract(1.0, dh, out=dh)
                ga *= dh
            if want_params:
                h = slot.h[i - 1] if i else z
                layer.w.grad += np.matmul(h.T, ga, out=sc.dw[i])
                layer.b.grad += np.add.reduce(ga, axis=0)
        if iz is not None:
            ad._acc(grads, iz, ga @ self.layers[0].w.values.T)


def sample_prior(n: int, d_z: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. uniform(-1, 1) latent rows, reproducible from the generator."""
    if n < 1:
        raise ValueError(f"need at least one sample, got n={n}")
    return rng.uniform(-1.0, 1.0, size=(n, d_z))


def _check_scales(model: GeneratorModel) -> list[Parameter]:
    scales = model.scale_parameters()
    for p in scales:
        if np.any(p.values == 0.0):
            raise SingularEntropyError(
                f"entropy surrogate is singular: {p.name} contains a zero scale")
    return scales


def entropy_surrogate_node(model: GeneratorModel, tape: Tape) -> Node:
    """Sum of 0.5*log(2*e*pi*sigma_a^2) over all batch-norm scale entries;
    its gradient w.r.t. each scale is 1/scale."""
    terms = None
    for p in _check_scales(model):
        s = tape.watch(p)
        term = (ad.log(ad.square(s)) + LOG_2PIE).sum() * 0.5
        terms = term if terms is None else terms + term
    if terms is None:
        return tape.constant(0.0)
    return terms


def nearest_neighbour_entropy_node(x: Node) -> Node:
    """Kozachenko-Leonenko entropy estimate of the rows of x, in nats.

    H = (d/n) * sum_i log(rho_i) + digamma(n) - digamma(1) + log(V_d), where
    rho_i is the distance from row i to its nearest other row and V_d the
    volume of the unit d-ball. The neighbour is chosen on plain values (no
    gradient flows through the choice); the distance is differentiated
    through both rows.
    """
    from scipy.spatial.distance import cdist
    from scipy.special import digamma

    xv = x.values
    if xv.ndim != 2 or xv.shape[0] < 2:
        raise ShapeError(
            f"nearest-neighbour entropy needs a (batch >= 2, dim) input, got {xv.shape}")
    n, d = xv.shape
    dist = cdist(xv, xv, "sqeuclidean")
    np.fill_diagonal(dist, np.inf)
    pick = np.zeros((n, n))
    pick[np.arange(n), dist.argmin(axis=1)] = 1.0
    diff = x - ad.matmul(pick, x)
    rho_sq = ad.square(diff).sum(axis=1)
    if np.any(rho_sq.values == 0.0):
        raise SingularEntropyError(
            "nearest-neighbour entropy is singular: two generated rows coincide")
    log_unit_ball = 0.5 * d * math.log(math.pi) - math.lgamma(0.5 * d + 1.0)
    constant = float(digamma(n) - digamma(1)) + log_unit_ball
    return ad.log(rho_sq).sum() * (0.5 * d / n) + constant


def _entropy_node(gen: GeneratorModel, x: Node, estimator: str) -> Node:
    if estimator == "nearest_neighbour":
        return nearest_neighbour_entropy_node(x)
    if estimator == "batch_norm_scale":
        return entropy_surrogate_node(gen, x.tape)
    raise ValueError(
        f"entropy_estimator must be one of {ENTROPY_ESTIMATORS}, got {estimator!r}")


def dgm_loss(gen: GeneratorModel, dem, z: np.ndarray, entropy_weight: float,
             entropy_estimator: str) -> tuple[Node, Node, Node]:
    """The generator loss mean(E(G(z))) - entropy_weight * H on a new tape.

    Returns the (loss, mean energy, entropy estimate) nodes. The energy
    model's parameters are frozen on that tape, so it sees only values,
    never gradient; the loss back-propagates through the energy function
    into the generator.
    """
    if entropy_weight < 0:
        raise ValueError(f"entropy_weight must be >= 0, got {entropy_weight}")
    tape = Tape()
    tape.freeze(dem.params())
    x = gen.generate_node(tape.constant(z), "train")
    e_gen = dem.energy(x).mean()
    entropy = _entropy_node(gen, x, entropy_estimator)
    loss = e_gen - entropy_weight * entropy if entropy_weight > 0 else e_gen
    return loss, e_gen, entropy


def dgm_loss_gradient(gen: GeneratorModel, dem, z: np.ndarray,
                      entropy_weight: float,
                      entropy_estimator: str) -> tuple[np.ndarray, dict]:
    """Gradient of ``dgm_loss`` over the generator parameters.

    ``entropy_estimator`` picks H (see the module docstring). With
    ``"nearest_neighbour"`` the loss is, up to the log-partition constant,
    a batch estimate of KL(generator || model), so its minimum is a
    generator that samples the energy model; with ``"batch_norm_scale"``,
    the paper's surrogate and ``RunConfig``'s default, H rewards growing
    batch-norm scales whether or not the samples spread. The gradient comes
    as a flat copy laid out like ``gen.store.values``; the stats hold the
    mean energy and the entropy estimate the loss used.
    """
    loss, e_gen, entropy = dgm_loss(gen, dem, z, entropy_weight, entropy_estimator)
    loss.tape.backward(loss)
    stats = {"e_gen": float(e_gen.values), "entropy": float(entropy.values)}
    return gen.store.grad.copy(), stats
