"""Deep generative model: deterministic network over a uniform latent prior.

Sampling is ancestral and non-iterative: draw z ~ U(-1,1)^d_z, push it
through the network, done. The conditional P(x|z) is a Dirac delta, so all
sample variability comes from the prior and from how much the network
stretches it. Every hidden layer is tanh followed by batch normalization.

The generator is trained to minimize mean energy minus an entropy estimate;
with the exact entropy this is KL(generator || model) up to the
log-partition constant. Two estimators are available:

* ``"nearest_neighbour"`` (the default of ``training.TrainConfig``): the
  Kozachenko-Leonenko estimate of the entropy of the generated batch, from
  each row's distance to its nearest other row. It measures the spread of
  the samples themselves, so it pushes apart samples that crowd onto a few
  energy minima and stops pushing once they are as spread as the energy
  allows. It is a batch estimate: it says nothing about structure finer
  than the typical neighbour distance, and its bias grows with the
  dimension relative to the batch size (64 rows of 784 pixels are far
  from the regime where it is accurate).
* ``"batch_norm_scale"`` (the paper's surrogate, and the default of the
  command line's ``RunConfig``): treating each normalized hidden
  activation as Gaussian with scale sigma_a, the summed entropy
  0.5*log(2*e*pi*sigma_a^2). It measures the scale parameters, not the
  samples: its gradient 1/sigma_a never changes sign, so the scales grow
  without limit while the next linear layer can shrink to cancel them, and
  the samples may still collapse.

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

        z is a tape node (the pass is then recorded on its tape) or a plain
        array (the samples come back as a plain array and nothing is
        recorded). Train mode moves the running statistics either way.

        Batch norm runs after the bounded activation, so each scale
        parameter multiplies a hidden feature directly. A scale pushed up
        by the entropy term then actually widens the sample distribution
        instead of disappearing into a saturated nonlinearity.
        """
        if len(z.shape) != 2 or z.shape[1] != self.d_z:
            raise ShapeError(
                f"expected latents of shape (batch, {self.d_z}), got {z.shape}")
        h = z
        for layer in self.layers:
            w, b = ad.leaf(z, layer.w), ad.leaf(z, layer.b)
            if layer.has_batch_norm:
                h = ad.dense(h, w, b, "tanh")
                h = ad.batch_norm(h, ad.leaf(z, layer.bn_shift),
                                  ad.leaf(z, layer.bn_scale), layer.bn_state, mode)
            else:
                h = ad.dense(h, w, b, self.output_activation)
        return h

    def generate(self, z: np.ndarray, mode: str = "infer") -> np.ndarray:
        """Samples as a plain array, from ``generate_node`` on plain values:
        no tape is built, and each layer's input is freed once the next
        layer has it. Infer mode is free of side effects."""
        return self.generate_node(np.asarray(z, dtype=np.float64), mode)


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
    diff = x - x.tape.constant(pick) @ x
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
             entropy_estimator: str = "batch_norm_scale") -> tuple[Node, Node, Node]:
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
                      entropy_estimator: str = "batch_norm_scale") -> tuple[dict, dict]:
    """Gradient of ``dgm_loss`` over the generator parameters.

    ``entropy_estimator`` picks H (see the module docstring). With
    ``"nearest_neighbour"`` the loss is, up to the log-partition constant,
    a batch estimate of KL(generator || model), so its minimum is a
    generator that samples the energy model; with the default
    ``"batch_norm_scale"``, the paper's surrogate, H rewards growing
    batch-norm scales whether or not the samples spread. The gradients
    come as ``Gradients`` (views into one flat copy); the stats hold the
    mean energy and the entropy estimate the loss used.
    """
    loss, e_gen, entropy = dgm_loss(gen, dem, z, entropy_weight, entropy_estimator)
    loss.tape.backward(loss)
    grads = gen.store.gradients()
    stats = {"e_gen": float(e_gen.values), "entropy": float(entropy.values)}
    return grads, stats
