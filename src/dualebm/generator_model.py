"""Deep generative model: deterministic network over a uniform latent prior.

Sampling is ancestral and non-iterative: draw z ~ U(-1,1)^d_z, push it
through the network, done. The conditional P(x|z) is a Dirac delta, so all
sample variability comes from the prior and from how much the network
stretches it. Every hidden layer is tanh followed by batch normalization.

The generator is trained to minimize mean energy minus an entropy estimate;
with the exact entropy this is KL(generator || model) up to the
log-partition constant. Two estimators are available, the entries of
``ENTROPY_ESTIMATORS``:

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

The network is an ``autodiff`` dense-layer stack (see there), which serves
sampling and training alike. ``dgm_loss_gradient`` runs it in train mode
into the model's workspace, where the samples stay, then the energy of the
samples, then the loss's backwards, all written by hand: the entropy's
gradient in closed form, ∇ₓE through the energy model with its parameters
left alone, and the stack's backward, which adds the gradient of every
weight, bias and batch-norm parameter into the model's ``ParameterStore``,
where training and gradcheck read it in place. Each uses
the expressions, and sums in the order, of the tape's primitive chain, so
gradients keep the chain's bits.

Plain infer-mode sampling (``generate``, behind ``sample`` and
``interpolate``) runs the stack on blocks of rows on every usable core,
each written into its slice of one output (``autodiff.by_row_blocks``,
with a workspace of the hidden layers' block arrays per share).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, ParameterStore

LOG_2PIE = math.log(2.0 * math.pi * math.e)
OUTPUT_ACTIVATIONS = ("linear", "sigmoid")


class SingularEntropyError(ValueError):
    """An entropy estimate is undefined: a zero batch-norm scale, or two
    generated rows that coincide."""


class GeneratorModel:
    def __init__(self, layers, widths):
        self.layers = list(layers)
        self.widths = tuple(widths)
        self.d_z = int(self.widths[0])
        self.output_activation = self.layers[-1].activation
        self.store = ParameterStore(self.params())
        self._workspace = None

    @classmethod
    def build(cls, widths, rng, output_activation="linear", init_scale=1.0,
              dtype=np.float64):
        """widths runs latent -> hidden... -> data, e.g. (4, 128, 128, 2).

        Each hidden layer is affine, tanh, then batch norm; its batch-norm
        scales carry the ``"batch_norm_scale"`` entropy. The output layer is
        affine then ``output_activation``, with no batch norm. The model
        computes in ``dtype``.
        """
        if len(widths) < 2:
            raise ValueError("need at least a latent and an output width")
        if output_activation not in OUTPUT_ACTIVATIONS:
            raise ValueError(f"unknown activation {output_activation!r}")
        activations = ["tanh"] * (len(widths) - 2) + [output_activation]
        return cls(ad.dense_stack("gen", widths, activations, rng, init_scale,
                                  batch_norm=True, dtype=dtype), widths)

    @property
    def dtype(self) -> np.dtype:
        """The dtype of the parameters, and of the samples."""
        return self.store.dtype

    def params(self) -> list[Parameter]:
        return [p for l in self.layers for p in (l.w, l.b, l.bn_shift, l.bn_scale)
                if p is not None]

    def scale_parameters(self) -> list[Parameter]:
        return [l.bn_scale for l in self.layers if l.has_batch_norm]

    def generate(self, z: np.ndarray, mode: str = "infer") -> np.ndarray:
        """Samples as a plain array of the model's dtype, into which z is
        cast first; mode picks batch-norm statistics.

        Infer mode is free of side effects and row by row, so it runs on
        blocks of rows, on every usable core, whose output layer writes
        into the one output array (``autodiff.by_row_blocks``). Train mode
        is one batch, since batch norm needs whole-batch statistics, and
        moves the running statistics.

        Batch norm runs after the bounded activation, so each scale
        parameter multiplies a hidden feature directly. A scale pushed up
        by the entropy term then actually widens the sample distribution
        instead of disappearing into a saturated nonlinearity.
        """
        z = ad.stack_rows(self.layers, z, "latents")
        if mode == "train":
            return ad.stack_forward(self.layers, z, mode)
        # the output layer writes into out, so only the hidden layers need
        # workspace arrays
        return ad.by_row_blocks(
            lambda block, out, ws: ad.stack_forward(self.layers, block, mode, ws, out=out),
            z, (self.widths[-1],), self.layers[:-1])


def sample_prior(n: int, d_z: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. uniform(-1, 1) latent rows, reproducible from the generator;
    float64 whatever the model's dtype, so each dtype draws the same
    stream."""
    return rng.uniform(-1.0, 1.0, size=(n, d_z))


def entropy_surrogate(model: GeneratorModel, g: Optional[float] = None) -> float:
    """Sum of 0.5*log(2*e*pi*sigma_a^2) over all batch-norm scale entries.

    With g, the gradient of g * H, g / scale, is added into each scale's
    ``.grad``. A zero scale raises ``SingularEntropyError``; every scale is
    checked before any gradient is added.
    """
    scales = model.scale_parameters()
    for p in scales:
        if np.any(p.values == 0.0):
            raise SingularEntropyError(
                f"entropy surrogate is singular: {p.name} contains a zero scale")
    entropy = 0.0
    for p in scales:
        entropy += float((np.log(np.square(p.values)) + LOG_2PIE).sum()) * 0.5
        if g is not None:
            # the chain's log and square backwards, from the term's * 0.5
            p.grad += 2.0 * p.values * ((g * 0.5) / np.square(p.values))
    return entropy


def nearest_neighbour_entropy(x: np.ndarray, g: Optional[float] = None):
    """Kozachenko-Leonenko entropy estimate H of the rows of x, in nats, and
    with g the gradient of g * H in x (else None).

    H = (d/n) * sum_i log(rho_i) + H_(n-1) + log(V_d), where rho_i is the
    distance from row i to its nearest other row, H_(n-1) = digamma(n) -
    digamma(1) the (n-1)-th harmonic number and V_d the volume of the unit
    d-ball. The neighbour is chosen on the values (no gradient flows
    through the choice); the distance is differentiated through both rows.
    The work, and the gradient, are in x's dtype; a lone row is singular.
    """
    n, d = x.shape
    dist = np.empty((n, n), x.dtype)
    squared_distances(x, x, dist, np.empty_like(dist))
    np.fill_diagonal(dist, np.inf)
    pick = np.zeros((n, n), x.dtype)
    pick[np.arange(n), dist.argmin(axis=1)] = 1.0
    diff = x - pick @ x
    # coinciding rows leave a zero row of diff, found before the square,
    # which overflows on huge rows; rho_sq == 0 then catches a tiny row
    # whose square underflows
    singular = not diff.any(axis=1).all()
    if not singular:
        rho_sq = np.square(diff).sum(axis=1)
        singular = bool(np.any(rho_sq == 0.0))
    if singular:
        raise SingularEntropyError(
            "nearest-neighbour entropy is singular: two generated rows coincide")
    entropy = float(np.log(rho_sq).sum() * (0.5 * d / n)
                    + nearest_neighbour_constant(n, d))
    if g is None:
        return entropy, None
    # the chain's backwards: the log, the square, then diff = x - pick @ x
    g_diff = 2.0 * diff * ((g * (0.5 * d / n)) / rho_sq)[:, None]
    return entropy, g_diff + pick.T @ -g_diff


def nearest_neighbour_constant(n: int, d: int) -> float:
    """The additive constant H_(n-1) + log(V_d) of the Kozachenko-Leonenko
    estimate of n rows in d dimensions. The terms 1/k of the harmonic
    number are summed exactly and rounded once (``math.fsum``)."""
    harmonic = math.fsum(1.0 / k for k in range(1, n))
    log_unit_ball = 0.5 * d * math.log(math.pi) - math.lgamma(0.5 * d + 1.0)
    return harmonic + log_unit_ball


def squared_distances(a: np.ndarray, b: np.ndarray, out: np.ndarray,
                      scratch: np.ndarray) -> np.ndarray:
    """The squared distances between the rows of a and the rows of b, into
    the (len(a), len(b)) array out, with scratch a second array of its
    shape: squares of exact differences, summed column by column in order.
    So no (len(a), len(b), d) temporary is made, and these are the bits of
    scipy's ``cdist(a, b, "sqeuclidean")`` and ``cKDTree``. As there, a
    square that overflows is inf, silently; callers find such rows."""
    b_columns = np.ascontiguousarray(b.T)
    with np.errstate(over="ignore", invalid="ignore"):
        np.square(np.subtract(a[:, :1], b_columns[0], out=out), out=out)
        for k in range(1, a.shape[1]):
            out += np.square(np.subtract(a[:, k:k + 1], b_columns[k], out=scratch),
                             out=scratch)
    return out


# name -> the entropy term of the generator loss: term(gen, x, g) is the
# estimate H for the generator gen and its samples x and, with g, the
# gradient of g * H in x, or None when the term adds its gradient into
# gen's parameters itself
ENTROPY_ESTIMATORS = {
    "nearest_neighbour": lambda gen, x, g: nearest_neighbour_entropy(x, g),
    "batch_norm_scale": lambda gen, x, g: (entropy_surrogate(gen, g), None),
}


def dgm_loss_gradient(gen: GeneratorModel, dem, z: np.ndarray,
                      entropy_weight: float,
                      entropy_estimator: str) -> tuple[float, dict]:
    """The generator loss mean(E(G(z))) - entropy_weight * H, and its terms
    ``{"e_gen", "entropy"}``; the loss's gradient over the generator's
    parameters is left in ``gen.store.grad``.

    ``entropy_estimator`` picks H (see the module docstring). With
    ``"nearest_neighbour"`` the loss is, up to the log-partition constant,
    a batch estimate of KL(generator || model), so its minimum is a
    generator that samples the energy model; with ``"batch_norm_scale"``,
    the paper's surrogate and ``RunConfig``'s default, H rewards growing
    batch-norm scales whether or not the samples spread. The samples come
    from a train-mode pass, which moves the running statistics. The energy
    model passes the gradient on to its input, the samples, and its
    parameters' gradients stay untouched. z is cast to the generator's
    dtype, which the energy model must share.
    """
    z = ad.stack_rows(gen.layers, z, "latents")
    ws = gen._workspace = ad.workspace(gen._workspace, z.shape[0], gen.layers)
    x = ad.stack_forward(gen.layers, z, "train", ws)
    gen.store.grad[...] = 0.0
    g = -entropy_weight if entropy_weight > 0 else None   # d loss / d H
    entropy, dx = ENTROPY_ESTIMATORS[entropy_estimator](gen, x, g)
    n = x.shape[0]
    energies, dx = dem.energy_gradient(x, np.full(n, 1.0, x.dtype) / n, params=False,
                                       onto=dx)
    ad.stack_backward(gen.layers, z, ws, dx, params=True)
    e_gen = float(energies.mean())
    loss = e_gen - entropy_weight * entropy if entropy_weight > 0 else e_gen
    return loss, {"e_gen": e_gen, "entropy": entropy}
