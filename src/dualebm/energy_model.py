"""Deep energy model: bounded feature extractor feeding expert energies.

The energy of a configuration x is

    (1/sigma^2) x.x  -  b_vis.x  -  sum_i softplus(w_i . f(x) + b_i)

where f is a deterministic multilayer net with tanh hidden layers and a
sigmoid final layer, so every feature is bounded. Each expert term grows at
most linearly in ||x|| while the quadratic term dominates, so exp(-energy)
is integrable and the model defines a proper unnormalized density. sigma
is a fixed hyperparameter, not trained.

f is an ``autodiff`` dense-layer stack (see there). ``_energy`` adds the
expert, quadratic and visible-bias terms to its pass, and
``energy_gradient`` runs that into the model's workspace, then the
backward for given per-row weights w, the gradient of sum_i w_i E(x_i):
into the parameters' gradients for the energy-model loss, or in x, the
plain ∇ₓE, for the generator loss, which reaches the generator through the
energy of its samples. The terms' backward uses the expressions, and sums
in the order, of the tape's ``square``, ``*`` and ``.sum()``, so
gradients keep the chain's bits. ``dem_loss_gradient`` runs the negative
phase's pass and backward before the positive phase's, the order of the
chain's reverse sweep, so one workspace serves both.

``energy_values`` and ``GeneratorModel.generate(z, "infer")`` are the two
passes over many rows (energy grids, held-out sets, ``sample``). Both run
in blocks of ``autodiff.ROW_BLOCK`` = 256 rows through
``autodiff.by_row_blocks``, which allocates the output once: the last
expression of each block's pass (here the final subtraction, in the
generator the output layer's matmul, bias and sigmoid) writes into the
block's slice of it, so no block result is copied and a call's peak memory
is the output plus a few block arrays, whatever the row count. A 256-row,
128-wide float64 activation is 256 KiB, which stays in L2 cache and reuses
the heap memory the previous block freed, so no page is faulted in anew. A
train-mode ``generate`` stays one batch, since batch norm normalizes by
whole-batch statistics; no training step calls a blocked pass.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, ParameterStore, ShapeError


def inverse_sigma_sq(sigma) -> float:
    """1/sigma^2, the weight of the quadratic term that makes exp(-energy)
    integrable; ValueError unless sigma > 0 and this is a finite positive float."""
    try:
        inv = 1.0 / float(sigma) ** 2
    except (OverflowError, ZeroDivisionError):  # sigma^2 leaves float range
        inv = math.nan
    if not (sigma > 0 and 0 < inv < math.inf):
        raise ValueError(f"sigma must be positive and finite, with 1/sigma^2 "
                         f"in float range, got {sigma}")
    return inv


class EnergyModel:
    def __init__(self, layers, expert_w, expert_b, b_vis, sigma, widths):
        self.layers = list(layers)
        self.expert_w = expert_w
        self.expert_b = expert_b
        self.b_vis = b_vis
        self._inv_sigma_sq = inverse_sigma_sq(sigma)
        self.sigma = float(sigma)
        self.widths = tuple(widths)
        self.store = ParameterStore(self.params())
        self._workspace = None

    @classmethod
    def build(cls, widths, n_experts, rng, sigma=1.0, init_scale=1.0):
        """Random model: fan-in uniform feature weights, small uniform experts.

        widths runs input -> hidden... -> feature dimension, e.g. (2, 128,
        128, 4).
        """
        if len(widths) < 2:
            raise ValueError("need at least an input and a feature width")
        activations = ["tanh"] * (len(widths) - 2) + ["sigmoid"]
        layers = ad.dense_stack("dem", widths, activations, rng, init_scale,
                                batch_norm=False)
        d_feat = widths[-1]
        expert_w = Parameter(
            rng.uniform(-0.1 * init_scale, 0.1 * init_scale, size=(d_feat, n_experts)),
            "dem.expert_w")
        expert_b = Parameter(np.zeros(n_experts), "dem.expert_b")
        b_vis = Parameter(np.zeros(widths[0]), "dem.b_vis")
        return cls(layers, expert_w, expert_b, b_vis, sigma, widths)

    @property
    def d_in(self) -> int:
        return self.widths[0]

    @property
    def n_experts(self) -> int:
        return self.expert_w.values.shape[1]

    def params(self) -> list[Parameter]:
        return ([layer.w for layer in self.layers] + [layer.b for layer in self.layers]
                + [self.expert_w, self.expert_b, self.b_vis])

    def _check_width(self, x) -> None:
        if len(x.shape) != 2 or x.shape[1] != self.d_in:
            raise ShapeError(
                f"expected input of shape (batch, {self.d_in}), got {x.shape}")

    def energy_values(self, x: np.ndarray) -> np.ndarray:
        """Per-row energies of a plain array; low values mark configurations
        the model favors. Runs ``_energy`` on blocks of
        ``autodiff.ROW_BLOCK`` rows (see the module docstring). Each row's
        energy depends on that row alone, so blocking changes no value
        beyond the last ulp of BLAS products."""
        x = np.asarray(x, dtype=np.float64)
        self._check_width(x)
        return ad.by_row_blocks(lambda block, out: self._energy(block, out=out), x, ())

    def energy_gradient(self, x: np.ndarray, weights: np.ndarray, params: bool,
                        onto=None):
        """The energies of the rows of x, a fresh array, and the gradient of
        sum_i weights[i] * E(x[i]), from one pass over x as one batch.

        With ``params`` the gradient over the parameters is added into
        ``self.store.grad`` and None comes back in place of the gradient in
        x. Without it the parameters' gradients are untouched and the
        gradient in x, each row's ∇ₓE times its weight, comes back: a fresh
        array, or, when ``onto`` (an array of x's shape) is given, added
        into ``onto`` in place, first of all the terms.
        """
        x = np.asarray(x, dtype=np.float64)
        self._check_width(x)
        rows = x.shape[0]
        ws = self._workspace = ad.workspace(
            self._workspace, rows, self.layers, pre_e=(rows, self.n_experts),
            ga_e=(rows, self.n_experts), dw_e=self.expert_w.values.shape,
            x=(rows, self.d_in))
        return self._energy(x, ws), self._energy_backward(x, ws, weights, params, onto)

    # --- the one forward and backward of a pass ------------------------------

    def _energy(self, x: np.ndarray, ws=None, out=None) -> np.ndarray:
        """(1/sigma^2) x.x - b_vis.x - sum softplus(f(x) @ expert_w +
        expert_b), as a fresh array or into ``out`` when given; a workspace
        takes the intermediates."""
        f = ad.stack_forward(self.layers, x, "infer", ws)
        pre_e = np.matmul(f, self.expert_w.values, out=ws.pre_e if ws else None)
        pre_e += self.expert_b.values
        tmp = ws.x if ws else None
        quadratic = np.add.reduce(np.square(x, out=tmp), axis=1) * self._inv_sigma_sq
        mean_term = np.add.reduce(np.multiply(x, self.b_vis.values, out=tmp), axis=1)
        quadratic -= mean_term
        return np.subtract(quadratic, np.add.reduce(ad.softplus_values(pre_e), axis=1),
                           out=out)

    def _energy_backward(self, x, ws, g, params: bool, onto):
        """Backward of the ``_energy`` pass over x that wrote ``ws``, for
        the weight g of each row's energy (see ``energy_gradient``)."""
        minus_g = (-g)[:, None]
        ga = np.multiply(minus_g, ad.sigmoid_values(ws.pre_e), out=ws.ga_e)
        dh = np.matmul(ga, self.expert_w.values.T, out=ws.dh[-1])
        if params:
            self.expert_w.grad += np.matmul(ws.h[-1].T, ga, out=ws.dw_e)
            self.expert_b.grad += np.add.reduce(ga, axis=0)
            self.b_vis.grad += np.add.reduce(np.multiply(minus_g, x, out=ws.x), axis=0)
            ad.stack_backward(self.layers, x, ws, dh, "infer", params)
            return None
        # in the chain's order: -g b_vis (onto ``onto``), 2 g x / sigma^2,
        # then the first layer's part
        dx = np.multiply(minus_g, self.b_vis.values)
        if onto is not None:
            dx = np.add(onto, dx, out=onto)
        quadratic = np.multiply(x, 2.0, out=ws.x)
        quadratic *= (g * self._inv_sigma_sq)[:, None]
        dx += quadratic
        dx += ad.stack_backward(self.layers, x, ws, dh, "infer", params, dx_out=ws.x)
        return dx


def dem_loss_gradient(model: EnergyModel, x_pos: np.ndarray,
                      x_neg: np.ndarray) -> tuple[float, dict]:
    """The energy-model loss mean(E(x_pos)) - mean(E(x_neg)) and its phase
    means ``{"e_pos", "e_neg"}``; the loss's gradient over the model
    parameters is left in ``model.store.grad``, which training and
    gradcheck read in place.

    x_neg is read as plain values: the generator that produced them gets no
    gradient from this loss.
    """
    x_pos = np.asarray(x_pos, dtype=np.float64)
    x_neg = np.asarray(x_neg, dtype=np.float64)
    n = x_pos.shape[0]
    if n != x_neg.shape[0]:
        raise ValueError(
            f"positive and negative batch sizes differ: {n} vs {x_neg.shape[0]}")
    model.store.grad[...] = 0.0
    means = {}
    for key, x, sign in (("e_neg", x_neg, -1.0), ("e_pos", x_pos, 1.0)):
        energies, _ = model.energy_gradient(x, np.full(n, sign) / n, params=True)
        means[key] = float(energies.mean())
    return means["e_pos"] - means["e_neg"], means


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


def logsumexp(a) -> float:
    """log(sum(exp(a))) over every entry of a, shifted by the max so that
    no exponential overflows; -inf for no entries or all -inf, +inf when
    an entry is +inf.

    The largest entries are taken out of the sum and counted, m of them:
    log1p(s / m) + log(m) + max, with s the sum of the other entries'
    exp(a - max). This is the arithmetic, and so the bits, of
    ``scipy.special.logsumexp``.
    """
    a = np.asarray(a, dtype=np.float64).ravel()
    a_max = a.max(initial=-math.inf)
    if not math.isfinite(a_max):   # -inf, +inf or NaN is the result itself
        return float(a_max)
    is_max = a == a_max
    shifted = np.exp(a - a_max)
    shifted[is_max] = 0.0
    m = float(np.count_nonzero(is_max))
    s = shifted.sum() / m
    return float(np.log1p(s) + math.log(m) + a_max)


def grid_log_density(energy_fn, bounds, grid_n: int):
    """Grid points, normalized log-probability mass per node, log Z, and
    the per-node log-weights.

    The masses include the quadrature weights, so they sum to one over the
    grid and behave like a discrete distribution. Summation happens in log
    space, so arbitrarily large energies are safe.
    """
    points, log_w = trapezoid_grid(bounds, grid_n)
    energies = np.asarray(energy_fn(points), dtype=np.float64)
    log_unnorm = -energies + log_w
    log_z = logsumexp(log_unnorm)
    return points, log_unnorm - log_z, log_z, log_w

