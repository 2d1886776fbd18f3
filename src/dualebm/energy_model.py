"""Deep energy model: bounded feature extractor feeding expert energies.

The energy of a configuration x is

    (1/sigma^2) x.x  -  b_vis.x  -  sum_i softplus(w_i . f(x) + b_i)

where f is a deterministic multilayer net with tanh hidden layers and a
sigmoid final layer, so every feature is bounded. Each expert term grows at
most linearly in ||x|| while the quadratic term dominates, so exp(-energy)
is integrable and the model defines a proper unnormalized density. sigma
is a fixed hyperparameter, not trained.

The forward pass is written once (``_energy``, one numpy expression per
value) and serves every caller. On a tape node, ``energy`` records the
whole pass as one tape entry (``autodiff.model_entry``). Its hand-written
backward adds the parameter gradient into the model's ``ParameterStore``
when the tape watches the store, and passes the gradient of the energy
with respect to x, ∇ₓE, on to x when x needs one. That is how the
generator loss reaches the generator through the frozen energy model. The
backward uses the expressions, and sums in the order, of the primitive
chain it replaces (per layer ``@``, ``+`` and the activation, then
``square``, ``*`` and ``.sum()``), so gradients keep their bits. A recorded
pass writes its intermediates into a slot of the model's
``autodiff.Workspace``, kept for one batch size and rebuilt when the size
changes: ``dem_loss`` records both phases on one tape before its one
backward, so the workspace holds two slots.

``energy_values`` and ``GeneratorModel.generate(z, "infer")`` are the two
tape-free passes over many rows (energy grids, held-out sets, ``sample``).
Both run in blocks of ``autodiff.ROW_BLOCK`` = 256 rows through
``autodiff.by_row_blocks``, which allocates the output once: the last
expression of each block's pass (here the final subtraction, in the
generator the output layer's matmul, bias and sigmoid) writes into the
block's slice of it, so no block result is copied and a call's peak memory
is the output plus a few block arrays, whatever the row count. A 256-row,
128-wide float64 activation is 256 KiB, which stays in L2 cache and reuses
the heap memory the previous block freed, so no page is faulted in anew. A
train-mode ``generate`` stays one batch, since batch norm normalizes by
whole-batch statistics; no training step calls a blocked pass.

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
        self._workspace = None

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

    def energy(self, x):
        """Per-row energy; low values mark configurations the model favors.

        x is a tape node or a plain array (the energies then come back as a
        plain array; nothing is recorded). On a node the whole pass is one
        tape entry whose backward adds the parameter gradient, when the
        parameters are watched, and passes the gradient of the energy with
        respect to x on to x, when x needs one.
        """
        self._check_width(x)
        if not isinstance(x, Node):
            return self._energy(np.asarray(x, dtype=np.float64))
        return ad.model_entry(x, self.store, self._workspace_for(x.shape[0]),
                              self._energy, self._energy_backward)

    def energy_values(self, x: np.ndarray) -> np.ndarray:
        """Energies of a plain array, by ``energy`` on plain blocks of
        ``autodiff.ROW_BLOCK`` rows (see the module docstring); no tape is
        built. Each row's energy depends on that row alone, so blocking
        changes no value beyond the last ulp of BLAS products."""
        x = np.asarray(x, dtype=np.float64)
        self._check_width(x)
        return ad.by_row_blocks(lambda block, out: self._energy(block, out=out), x, ())

    # --- the one forward and backward of a pass ------------------------------

    def _workspace_for(self, rows: int) -> ad.Workspace:
        """The workspace for recorded passes over ``rows`` rows, rebuilt
        when the row count changes. Both phases of ``dem_loss`` are
        recorded on one tape, so it holds two slots."""
        ws = self._workspace
        if ws is None or ws.rows != rows:
            fan = list(zip(self.widths[:-1], self.widths[1:]))
            hidden = [(rows, o) for _, o in fan]
            experts = (rows, self.n_experts)
            ws = self._workspace = ad.Workspace(
                rows, slot={"h": hidden, "pre_e": experts},
                scratch={"ga": hidden, "dh": hidden, "dw": fan, "ga_e": experts,
                         "dw_e": self.expert_w.values.shape, "x": (rows, self.d_in)})
        return ws

    def _features(self, x: np.ndarray, slot=None) -> np.ndarray:
        """Features of the rows of x; with a workspace slot, each layer's
        output goes into ``slot.h``, else into a fresh array."""
        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            pre = np.matmul(h, w.values, out=slot.h[i] if slot else None)
            pre += b.values
            h = np.tanh(pre, out=pre) if i < last else ad.sigmoid_values(pre, out=pre)
        return h

    def _energy(self, x: np.ndarray, slot=None, out=None) -> np.ndarray:
        """(1/sigma^2) x.x - b_vis.x - sum softplus(f(x) @ expert_w +
        expert_b), as a fresh array or into ``out`` when given; a slot
        takes the intermediates."""
        f = self._features(x, slot)
        pre_e = np.matmul(f, self.expert_w.values, out=slot.pre_e if slot else None)
        pre_e += self.expert_b.values
        tmp = slot.scratch.x if slot else None
        quadratic = np.add.reduce(np.square(x, out=tmp), axis=1) * (1.0 / self.sigma**2)
        mean_term = np.add.reduce(np.multiply(x, self.b_vis.values, out=tmp), axis=1)
        quadratic -= mean_term
        return np.subtract(quadratic, np.add.reduce(ad.softplus_values(pre_e), axis=1),
                           out=out)

    def _energy_backward(self, x, out, slot, g, grads, ix, want_params) -> None:
        """Backward of a recorded ``_energy`` for the gradient g of each
        row's energy: adds the parameter gradient into ``self.store.grad``
        when ``want_params``, and passes g times ∇ₓE (2 x / sigma^2 - b_vis
        - the experts' term through the features) on to x when ``ix`` is
        set."""
        sc = slot.scratch
        minus_g = (-g)[:, None]
        ga = np.multiply(minus_g, ad.sigmoid_values(slot.pre_e), out=sc.ga_e)
        if want_params:
            self.expert_w.grad += np.matmul(slot.h[-1].T, ga, out=sc.dw_e)
            self.expert_b.grad += np.add.reduce(ga, axis=0)
            self.b_vis.grad += np.add.reduce(np.multiply(minus_g, x, out=sc.x), axis=0)
        dh = np.matmul(ga, self.expert_w.values.T, out=sc.dh[-1])
        if ix is not None:
            # onto what x holds already (the nearest-neighbour entropy's
            # part), in the chain's order: -g b_vis, 2 g x / sigma^2, then
            # the first layer's part
            prior = grads[ix]
            dx = np.multiply(minus_g, self.b_vis.values)
            if isinstance(prior, np.ndarray):
                np.add(prior, dx, out=dx)
            quadratic = np.multiply(x, 2.0, out=sc.x)
            quadratic *= (g * (1.0 / self.sigma**2))[:, None]
            dx += quadratic
        first = self._features_backward(x, slot, dh, want_params, ix is not None)
        if ix is not None:
            dx += first
            if isinstance(prior, np.ndarray):
                grads[ix] = dx
            else:
                ad._acc(grads, ix, dx)

    def _features_backward(self, x, slot, dh, want_params: bool,
                           want_x: bool):
        """Backward through the feature layers from the gradient dh of the
        features, a scratch array it overwrites. Adds the layers' parameter
        gradient when ``want_params``; returns x's gradient through the
        first layer, in scratch, when ``want_x`` (else None)."""
        sc = slot.scratch
        for i in range(len(self.weights) - 1, -1, -1):
            out, ga = slot.h[i], sc.ga[i]
            if i == len(self.weights) - 1:   # sigmoid: dh * out * (1 - out)
                np.subtract(1.0, out, out=ga)
                dh *= out
            else:                            # tanh: dh * (1 - out * out)
                np.multiply(out, out, out=ga)
                np.subtract(1.0, ga, out=ga)
            ga *= dh
            w = self.weights[i]
            if want_params:
                w.grad += np.matmul(slot.h[i - 1].T if i else x.T, ga, out=sc.dw[i])
                self.biases[i].grad += np.add.reduce(ga, axis=0)
            if i:
                dh = np.matmul(ga, w.values.T, out=sc.dh[i - 1])
            elif want_x:
                return np.matmul(ga, w.values.T, out=sc.x)
        return None


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
                      x_neg: np.ndarray) -> tuple[np.ndarray, dict]:
    """Gradient of ``dem_loss`` over the model parameters.

    Returns the gradient, a flat copy laid out like ``model.store.values``,
    and the phase statistics for metrics.
    """
    loss, e_pos, e_neg = dem_loss(model, x_pos, x_neg)
    loss.tape.backward(loss)
    stats = {"e_pos": float(e_pos.values), "e_neg": float(e_neg.values)}
    return model.store.grad.copy(), stats


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

