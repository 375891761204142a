"""Brute-force dynamic-programming oracle.

Backward value iteration on a rectangular state lattice over the constraint
set, a bounded control grid, and a second-order semi-Lagrangian time step
(after Falcone & Ferretti, *Semi-Lagrangian Approximation Schemes for
Linear and Hamilton-Jacobi Equations*, SIAM 2013):

    V(s_i, x) = min over u of [ dt/2 (l(s_i, x, u) + l(s_{i+1}, x', u))
                                + V(s_{i+1}, x') ],
    x' = x + dt/2 (f(s_i, x, u) + f(s_{i+1}, x + dt f(s_i, x, u), u)),

a Heun foot and a trapezoid running cost, with multilinear interpolation
for off-grid feet, which convex weights keep stable at any Courant number.
Any transition whose interpolation cell touches the complement of Omega is
poisoned to +inf, so feasibility is never certified through
boundary-crossing cells.  The min runs over the control grid plus one
candidate per point, the Hamiltonian's minimizer
``u = clip(-B(s_i)^T grad_h(x)^{-T} grad V)`` with ``grad V`` the central
difference of the layer V(s_{i+1}); where a neighbor holds +inf that
difference is not finite, and the point keeps its grid minimum.  The
candidate does what a finer control grid would, at O(1) cost per point.
The table is an upper bound on the same scheme's value over the whole
control box, not on the true value: the trapezoid cost can fall on either
side of it.  It serves as the independent ground truth for the
Riccati-based value W(t, x) at desk scale (state dimension <= 2).  The
product is the one layer V(t, .) at the window's start: the later layers
are finite-horizon values of the truncated window, so the iteration keeps
only the layer it reads and the layer it writes.

Each backward step treats all grid controls at once, and only the lattice
points inside Omega, as every other point holds +inf: the feet of every
(control, inside point) pair are located on the lattice as one
interpolation operator (each foot's 2**n cell corners as flat indices and
weights, stored corner-major), applied to the whole layer V(s_{i+1}) as
one gather per corner, and reduced by one min over controls.  With
constant A and B the feet, their operator and |h|^2 at them are built
once per run, otherwise once per step.  The cost block of a step depends
on time only through the scalars q and b at s_i and s_{i+1} (alpha's
values there), or K there in sup mode, so it is built again only when
their bits or the feet change.  The candidate stage then costs O(points)
per step: one gradient, one Heun foot and one interpolation row per
inside point.  The oracle needs numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .model import AlphaPolicy, ProblemSpec, _sup_alpha_gain
from .numerics import matvec

_INF = np.inf


@dataclass(frozen=True, eq=False)
class DPProblem:
    """Discretization of the control problem for value iteration.

    cost_mode "fixed" evaluates the alpha-parametrized rate along ``alpha``;
    "sup" evaluates the marginal-function rate (the adversarial supremum).
    """

    spec: ProblemSpec
    t: float
    T: float
    n_steps: int
    state_axes: tuple[np.ndarray, ...]
    controls: np.ndarray          # (n_u, m)
    cost_mode: str = "sup"
    alpha: AlphaPolicy | None = None

    @property
    def dt(self) -> float:
        return (self.T - self.t) / self.n_steps

    @property
    def state_shape(self) -> tuple[int, ...]:
        return tuple(len(ax) for ax in self.state_axes)

    @cached_property
    def control_box(self) -> tuple[np.ndarray, np.ndarray]:
        """The per-axis bounds (lo, hi) of the box the control grid spans."""
        return self.controls.min(axis=0), self.controls.max(axis=0)

    def state_points(self) -> np.ndarray:
        mesh = np.meshgrid(*self.state_axes, indexing="ij")
        return np.stack([g.ravel() for g in mesh], axis=1)


def build_dp(spec: ProblemSpec, t: float, T: float, n_steps: int,
             state_res: int, u_max: float, control_res: int,
             cost_mode: str = "sup",
             alpha: AlphaPolicy | None = None) -> DPProblem:
    """Uniform lattice over the bounding box of Omega with a box control grid."""
    n = spec.dim_state
    if n > 2:
        raise ValueError("the oracle supports state dimension <= 2")
    if cost_mode not in ("sup", "fixed"):
        raise ValueError("cost_mode must be 'sup' or 'fixed'")
    if cost_mode == "fixed" and alpha is None:
        raise ValueError("fixed cost mode needs an alpha policy")
    if not T > t:                                               # NaN-proof
        raise ValueError("the window needs T > t")
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    if state_res < 2:
        raise ValueError("state_res must be at least 2 (a cell per axis)")
    if control_res < 1:
        raise ValueError("control_res must be at least 1")
    if not 0.0 <= u_max < np.inf:                               # NaN-proof
        raise ValueError("u_max must be finite and nonnegative")
    m = spec.dim_control
    # the iteration keeps two layers; its interpolation operator holds
    # 2**n corners per (control, lattice point) pair, 16 B each (an intp
    # index and a float64 weight)
    if control_res**m * state_res**n * 2**n > 50_000_000:
        raise ValueError(
            "interpolation operator would exceed the 5e7-entry budget")
    lo, hi = spec.omega.bounding_box()
    axes = tuple(np.linspace(lo[i], hi[i], state_res) for i in range(n))
    per_axis = [np.linspace(-u_max, u_max, control_res)] * m
    mesh = np.meshgrid(*per_axis, indexing="ij")
    controls = np.stack([g.ravel() for g in mesh], axis=1)
    return DPProblem(spec=spec, t=t, T=T, n_steps=n_steps, state_axes=axes,
                     controls=controls, cost_mode=cost_mode, alpha=alpha)


def _locate(axes: tuple[np.ndarray, ...], points: np.ndarray):
    """Multilinear interpolation at ``points`` (N, n) as one operator.

    A pair ``(flat, weight)`` of corner-major arrays, each (2**n, N): row c
    holds corner c of every point's cell (bit d of c steps along axis d)
    as an index into ``[V, 0.0, inf]`` and its weight, and :func:`_apply`
    sums the corners in that order.  The two trailing entries are
    sentinels: zero-weight corners (and snapped on-node neighbors) point at
    0.0 so they cannot poison, and off-lattice queries (a non-finite
    coordinate among them) point at +inf with weight 1.
    """
    n, n_pts = len(axes), points.shape[0]
    size = int(np.prod([len(ax) for ax in axes]))
    outside = np.zeros(n_pts, dtype=bool)
    snap = 1e-9
    # per axis, last axis first: weights and flat offsets of its two sides
    sides = []
    stride = 1
    for d in reversed(range(n)):
        ax = axes[d]
        pos = (points[:, d] - ax[0]) / (ax[1] - ax[0])
        off = ~((pos >= -snap) & (pos <= len(ax) - 1 + snap))  # NaN-proof
        outside |= off
        pos[off] = 0.0      # a NaN coordinate would not cast to an index
        i = np.clip(np.floor(pos), 0, len(ax) - 2)
        f = np.clip(pos - i, 0.0, 1.0)
        f[f < snap] = 0.0
        f[f > 1.0 - snap] = 1.0
        # intp, as np.take would cast any other index type on every call
        lo = i.astype(np.intp) * stride
        sides.append((d, (1.0 - f, f), (lo, lo + stride)))
        stride *= len(ax)
    weight = np.empty((1 << n, n_pts))
    flat = np.empty((1 << n, n_pts), dtype=np.intp)
    for corner in range(1 << n):
        picks = [(w[(corner >> d) & 1], c[(corner >> d) & 1])
                 for d, w, c in sides]
        weight[corner] = reduce(np.multiply, [w for w, _ in picks])
        flat[corner] = reduce(np.add, [c for _, c in picks])
    flat[~(weight > 0.0)] = size
    np.copyto(flat, size + 1, where=outside)
    np.copyto(weight, 1.0, where=outside)
    return flat, weight


def _apply(values: np.ndarray, op) -> np.ndarray:
    """Interpolate ``values`` through a :func:`_locate` operator; +inf off
    the lattice or where a corner of positive weight is non-finite."""
    flat, weight = op
    ext = np.concatenate([values.ravel(), [0.0, _INF]])
    # NaN and -inf read as +inf; positive weights then keep every sum
    # finite or +inf, and zero-weight corners read the 0.0 sentinel
    ext[~(ext > -_INF)] = _INF
    # the indices lie in range by construction, so "clip" changes nothing
    # but spares take the bounds check and output buffering of "raise"
    out = ext.take(flat[0], mode="clip")
    out *= weight[0]
    term = np.empty_like(out)
    for c in range(1, len(flat)):
        ext.take(flat[c], out=term, mode="clip")
        term *= weight[c]
        out += term
    return out


@dataclass(frozen=True, eq=False)
class ValueTable:
    """Backward-iteration output: V is the table at time ``dp.t``."""

    dp: DPProblem
    V: np.ndarray          # state_shape

    def value_at(self, x: np.ndarray) -> float:
        pt = np.asarray(x, dtype=float)[None, :]
        op = _locate(self.dp.state_axes, pt)
        return float(_apply(self.V, op)[0])

    def csv_rows(self) -> tuple[list[str], list[list[float]]]:
        """Header and one ``(s, x_*, V)`` row per lattice point, s = dp.t."""
        pts = self.dp.state_points()
        header = ["s"] + [f"x_{i + 1}" for i in range(pts.shape[1])] + ["V"]
        return header, np.column_stack(
            [np.full(len(pts), self.dp.t), pts, self.V.ravel()]).tolist()


def _heun_feet(spec: ProblemSpec, s0: float, s1: float, dt: float,
               x: np.ndarray, a_hx: np.ndarray, u: np.ndarray):
    """Heun feet ``x + dt/2 (f(s0, x, u) + f(s1, x + dt f(s0, x, u), u))``
    of points x (N, n) under controls u that broadcast against them, given
    ``a_hx = A(s0) h(x)``, and ``|h|^2`` at the feet.  The second slope is
    the dynamics at s1, with a constant B's product reused."""
    bu = matvec(spec.B.value(s0), u)
    f0 = spec.h.apply_jacobian_inv(x, a_hx + bu)
    y = x + dt * f0
    if not spec.B.is_constant():
        bu = matvec(spec.B.value(s1), u)
    f1 = spec.h.apply_jacobian_inv(
        y, matvec(spec.A.value(s1), spec.h.forward(y)) + bu)
    feet = x + 0.5 * dt * (f0 + f1)
    h_feet = spec.h.forward(feet)
    return feet, np.vecdot(h_feet, h_feet)


def _gradient_controls(dp: DPProblem, s: float, V: np.ndarray,
                       inside: np.ndarray, kept: np.ndarray):
    """The Hamiltonian's minimizer ``-B(s)^T grad_h(x)^{-T} grad V`` at the
    points ``kept`` (the lattice points where ``inside``), clipped to the
    box the control grid spans, with ``grad V`` the central difference of
    the layer V (state_shape); and a mask of the points where that
    difference is finite.  Elsewhere (a neighbor at +inf) the control is 0.
    """
    spacing = [ax[1] - ax[0] for ax in dp.state_axes]
    with np.errstate(invalid="ignore"):
        grads = np.gradient(V.reshape(dp.state_shape), *spacing)
    grad = np.stack([grads] if len(spacing) == 1 else grads, axis=-1)
    grad = grad.reshape(-1, len(spacing))[inside]
    ok = np.isfinite(grad).all(axis=-1)
    grad[~ok] = 0.0
    u = -matvec(dp.spec.B.value(s).T,
                dp.spec.h.apply_jacobian_inv_t(kept, grad))
    return np.clip(u, *dp.control_box), ok


def brute_force_value(dp: DPProblem) -> ValueTable:
    """Backward value iteration; transitions leaving Omega score +inf."""
    spec, dt, controls = dp.spec, dp.dt, dp.controls
    states = dp.state_points()
    inside = spec.omega.contains(states)
    kept = states[inside]
    hx = spec.h.forward(kept)
    g = np.vecdot(hx, hx)
    u_sq = 0.5 * np.vecdot(controls, controls)[:, None]

    # the running cost at a time depends on it only through these scalars
    def scalars(s):
        if dp.cost_mode == "sup":
            return (spec.K.value(s),)
        alpha_val = dp.alpha.value(s)
        return spec.q_coeff(s, alpha_val), float(spec.b(alpha_val))

    def rate(c, g, u_sq):
        """Running cost for the scalars c of a time, |h|^2 = g and
        |u|^2 / 2 = u_sq."""
        if dp.cost_mode == "sup":
            return (0.5 * c[0] * g + u_sq
                    + _sup_alpha_gain(spec.a, spec.b, g)[1])
        return c[0] * g + u_sq - c[1]

    autonomous = spec.A.is_constant() and spec.B.is_constant()
    V = np.where(inside, 0.0, _INF)
    op = None
    for i in range(dp.n_steps - 1, -1, -1):
        s0, s1 = dp.t + dt * i, dp.t + dt * (i + 1)
        if op is None or not autonomous:
            # the feet of every (control, kept point) pair, stacked (n_u,
            # n_kept, n), located as one operator
            a_hx = matvec(spec.A.value(s0), hx)
            feet, g_feet = _heun_feet(spec, s0, s1, dt, kept, a_hx,
                                      controls[:, None, :])
            op = _locate(dp.state_axes, feet.reshape(-1, kept.shape[1]))
            key_seen = None
        c0, c1 = scalars(s0), scalars(s1)
        # trapezoid cost block (n_u, n_kept); equal scalars and feet give
        # the same block, so it is built again only when either changes
        if (key := np.array(c0 + c1, dtype=float).tobytes()) != key_seen:
            key_seen = key
            step_cost = 0.5 * dt * (rate(c0, g, u_sq)
                                    + rate(c1, g_feet, u_sq))
        best = np.min(step_cost + _apply(V, op).reshape(len(controls), -1),
                      axis=0)
        # one more control per point: the layer's gradient minimizer
        u, ok = _gradient_controls(dp, s0, V, inside, kept)
        u_feet, g_u = _heun_feet(spec, s0, s1, dt, kept, a_hx, u)
        cand_u_sq = 0.5 * np.vecdot(u, u)
        cand = (0.5 * dt * (rate(c0, g, cand_u_sq) + rate(c1, g_u, cand_u_sq))
                + _apply(V, _locate(dp.state_axes, u_feet)))
        V[inside] = np.minimum(best, np.where(ok, cand, _INF))
    return ValueTable(dp=dp, V=V.reshape(dp.state_shape))
