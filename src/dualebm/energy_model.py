"""Deep energy model: bounded feature extractor feeding expert energies.

The energy of a configuration x is

    (1/sigma^2) x.x  -  b_vis.x  -  sum_i softplus(w_i . f(x) + b_i)

where f is a deterministic multilayer net with tanh hidden layers and a
sigmoid final layer, so every feature is bounded. Each expert term grows at
most linearly in ||x|| while the quadratic term dominates, so exp(-energy)
is integrable and the model defines a proper unnormalized density. sigma
is a fixed hyperparameter, not trained.

scipy is imported inside ``grid_log_density``, the one function here that
uses it, not with the module: importing ``scipy.special`` takes ~0.15 s
(2-core Xeon, after numpy), which ``train``, ``sample``, ``energy-map`` and
``interpolate`` would pay without calling it. A module-level scipy import
fails ``test_commands_that_need_no_scipy_never_import_it`` in
tests/test_cli.py.
"""

from __future__ import annotations

import functools

import numpy as np

from . import autodiff as ad
from .autodiff import Node, Parameter, ParameterStore, ShapeError, Tape

ENERGY_CHUNK = 8192  # rows per pass in energy_values, which bounds its memory


class EnergyModel:
    def __init__(self, weights, biases, expert_w, expert_b, b_vis, sigma,
                 widths):
        self.weights = list(weights)
        self.biases = list(biases)
        self.expert_w = expert_w
        self.expert_b = expert_b
        self.b_vis = b_vis
        if sigma <= 0:
            raise ValueError(f"sigma must be positive, got {sigma}")
        self.sigma = float(sigma)
        self.widths = tuple(widths)
        self.store = ParameterStore(self.params())

    @classmethod
    def build(cls, widths, n_experts, rng, sigma=1.0, init_scale=1.0):
        """Random model: fan-in uniform feature weights, small uniform experts.

        widths runs input -> hidden... -> feature dimension, e.g. (2, 128,
        128, 4).
        """
        if len(widths) < 2:
            raise ValueError("need at least an input and a feature width")
        weights, biases = [], []
        for i, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:])):
            bound = init_scale / np.sqrt(fan_in)
            weights.append(Parameter(
                rng.uniform(-bound, bound, size=(fan_in, fan_out)),
                f"dem.layer{i}.w"))
            biases.append(Parameter(np.zeros(fan_out), f"dem.layer{i}.b"))
        d_feat = widths[-1]
        expert_w = Parameter(
            rng.uniform(-0.1 * init_scale, 0.1 * init_scale, size=(d_feat, n_experts)),
            "dem.expert_w")
        expert_b = Parameter(np.zeros(n_experts), "dem.expert_b")
        b_vis = Parameter(np.zeros(widths[0]), "dem.b_vis")
        return cls(weights, biases, expert_w, expert_b, b_vis, sigma, widths)

    @property
    def d_in(self) -> int:
        return self.widths[0]

    @property
    def n_experts(self) -> int:
        return self.expert_w.values.shape[1]

    def params(self) -> list[Parameter]:
        return (self.weights + self.biases
                + [self.expert_w, self.expert_b, self.b_vis])

    def _check_width(self, x) -> None:
        if len(x.shape) != 2 or x.shape[1] != self.d_in:
            raise ShapeError(
                f"expected input of shape (batch, {self.d_in}), got {x.shape}")

    def features(self, x):
        """Deterministic forward pass: tanh hidden layers, sigmoid output.

        x is a tape node (the features are then recorded on its tape) or a
        plain array (they come back as a plain array; nothing is recorded).
        """
        self._check_width(x)
        h = x
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            h = ad.dense(h, ad.leaf(x, w), ad.leaf(x, b), "tanh")
        return ad.dense(h, ad.leaf(x, self.weights[-1]),
                        ad.leaf(x, self.biases[-1]), "sigmoid")

    def energy(self, x):
        """Per-row energy; low values mark configurations the model favors.

        A node or a plain array, as x is (see ``features``).
        """
        self._check_width(x)
        f = self.features(x)
        quadratic = ad.square(x).sum(axis=1) * (1.0 / self.sigma**2)
        mean_term = (x * ad.leaf(x, self.b_vis)).sum(axis=1)
        experts = ad.dense(f, ad.leaf(x, self.expert_w),
                           ad.leaf(x, self.expert_b), "softplus")
        return quadratic - mean_term - experts.sum(axis=1)

    def energy_values(self, x: np.ndarray) -> np.ndarray:
        """Energies of a plain array, by ``energy`` on plain chunks of
        ``ENERGY_CHUNK`` rows; no tape is built."""
        x = np.asarray(x, dtype=np.float64)
        out = np.empty(x.shape[0])
        for start in range(0, x.shape[0], ENERGY_CHUNK):
            out[start:start + ENERGY_CHUNK] = self.energy(x[start:start + ENERGY_CHUNK])
        return out


def dem_loss(model: EnergyModel, x_pos: np.ndarray,
             x_neg: np.ndarray) -> tuple[Node, Node, Node]:
    """The energy-model loss mean(E(x_pos)) - mean(E(x_neg)) on a new tape.

    Returns the (loss, positive-phase mean, negative-phase mean) nodes.
    x_neg must arrive as a plain array (generated samples are detached: the
    generator that produced them gets no gradient from this loss).
    """
    x_pos = np.asarray(x_pos, dtype=np.float64)
    x_neg = np.asarray(x_neg, dtype=np.float64)
    if x_pos.shape[0] != x_neg.shape[0]:
        raise ValueError(
            f"positive and negative batch sizes differ: {x_pos.shape[0]} vs "
            f"{x_neg.shape[0]}")
    tape = Tape()
    e_pos = model.energy(tape.constant(x_pos)).mean()
    e_neg = model.energy(tape.constant(x_neg)).mean()
    return e_pos - e_neg, e_pos, e_neg


def dem_loss_gradient(model: EnergyModel, x_pos: np.ndarray,
                      x_neg: np.ndarray) -> tuple[dict, dict]:
    """Gradient of ``dem_loss`` over the model parameters.

    Returns the per-parameter gradients (``Gradients``, views into one
    flat copy) and the phase statistics for metrics.
    """
    loss, e_pos, e_neg = dem_loss(model, x_pos, x_neg)
    loss.tape.backward(loss)
    grads = model.store.gradients()
    stats = {"e_pos": float(e_pos.values), "e_neg": float(e_neg.values)}
    return grads, stats


def trapezoid_grid(bounds, grid_n: int):
    """Quadrature nodes and per-node log-weights of the trapezoid rule.

    bounds is one (lo, hi) pair per dimension, at most two dimensions; the
    nodes run with the first coordinate slowest.
    """
    bounds = [tuple(map(float, b)) for b in bounds]
    if not 1 <= len(bounds) <= 2:
        raise ValueError(
            f"quadrature supports 1 or 2 dimensions, got {len(bounds)}")
    if grid_n < 2:
        raise ValueError("grid_n must be at least 2")
    axes, log_weights = [], []
    for lo, hi in bounds:
        axes.append(np.linspace(lo, hi, grid_n))
        w = np.full(grid_n, (hi - lo) / (grid_n - 1))
        w[0] *= 0.5
        w[-1] *= 0.5
        log_weights.append(np.log(w))
    grids = np.meshgrid(*axes, indexing="ij")
    points = np.column_stack([g.ravel() for g in grids])
    log_w = functools.reduce(np.add.outer, log_weights).ravel()
    return points, log_w


def grid_log_density(energy_fn, bounds, grid_n: int):
    """Grid points, normalized log-probability mass per node, log Z, and
    the per-node log-weights.

    The masses include the quadrature weights, so they sum to one over the
    grid and behave like a discrete distribution. Summation happens in log
    space, so arbitrarily large energies are safe.
    """
    from scipy.special import logsumexp

    points, log_w = trapezoid_grid(bounds, grid_n)
    energies = np.asarray(energy_fn(points), dtype=np.float64)
    log_unnorm = -energies + log_w
    log_z = float(logsumexp(log_unnorm))
    return points, log_unnorm - log_z, log_z, log_w

