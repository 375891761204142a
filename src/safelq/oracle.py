"""Brute-force dynamic-programming oracle.

Backward value iteration on a rectangular state lattice over the constraint
set, a bounded control grid, and an explicit-Euler time discretization:

    V(s_i, x) = min over u of [ cost(s_i, x, u) dt + V(s_{i+1}, x + f dt) ]

with multilinear interpolation for off-grid next states, a semi-Lagrangian
step that convex weights keep stable at any Courant number.  Any transition
whose interpolation cell touches the complement of Omega is poisoned to
+inf, so feasibility is never certified through boundary-crossing cells.
Restricting controls to a finite grid makes the table an upper bound on the
true value; it serves as the independent ground truth for the Riccati-based
value W(t, x) at desk scale (state dimension <= 2).  The product is the one
layer V(t, .) at the window's start: the later layers are finite-horizon
values of the truncated window, so the iteration keeps only the layer it
reads and the layer it writes.

Each backward step treats all controls at once, and only the lattice
points inside Omega, as every other point holds +inf: the Euler successors
of every (control, inside point) pair are located on the lattice as one
sparse interpolation operator (a CSR matrix holding each successor's 2**n
cell corners and weights), applied to the whole layer V(s_{i+1}) as one
sparse product, and reduced by one min over controls into the inside
entries of V(s_i).  With constant A and B the operator is built once per
run, otherwise once per step.  The cost block of a step depends on time
only through the scalars q(s, alpha(s)) and b(alpha(s)), or K(s) in sup
mode, so it is built again only when their bits change.  ``scipy.sparse``
is imported on the first build, not with the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

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
    m = spec.dim_control
    # the iteration keeps two layers; its interpolation operator holds
    # 2**n corners per (control, lattice point) pair
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
    """Multilinear interpolation at ``points`` (N, n) as one sparse operator.

    A CSR matrix of shape (N, lattice + 2): row p holds the 2**n cell
    corners of point p in corner order (bit d of a corner steps along axis
    d), so ``op @ [V, 0.0, inf]`` sums them in that order.  The two trailing
    columns are sentinels: zero-weight corners (and snapped on-node
    neighbors) point at 0.0 so they cannot poison, and off-lattice queries
    point at +inf with weight 1.
    """
    from scipy.sparse import csr_matrix

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
        outside |= (pos < -snap) | (pos > len(ax) - 1 + snap)
        i = np.clip(np.floor(pos), 0, len(ax) - 2)
        f = np.clip(pos - i, 0.0, 1.0)
        f[f < snap] = 0.0
        f[f > 1.0 - snap] = 1.0
        lo = i.astype(np.int32) * np.int32(stride)
        sides.append((d, (1.0 - f, f), (lo, lo + np.int32(stride))))
        stride *= len(ax)
    # rows of 2**n corners, built in the layout and dtype the matrix stores
    weight = np.empty((n_pts, 1 << n))
    flat = np.empty((n_pts, 1 << n), dtype=np.int32)
    for corner in range(1 << n):
        picks = [(w[(corner >> d) & 1], c[(corner >> d) & 1])
                 for d, w, c in sides]
        weight[:, corner] = reduce(np.multiply, [w for w, _ in picks])
        flat[:, corner] = reduce(np.add, [c for _, c in picks])
    flat[~(weight > 0.0)] = size
    flat[outside] = size + 1
    weight[outside] = 1.0
    indptr = np.arange(0, flat.size + 1, flat.shape[1], dtype=np.int32)
    return csr_matrix((weight.ravel(), flat.ravel(), indptr),
                      shape=(n_pts, size + 2))


def _apply(values: np.ndarray, op) -> np.ndarray:
    """Interpolate ``values`` through a :func:`_locate` operator; +inf off
    the lattice or where a corner of positive weight is non-finite."""
    out = op @ np.concatenate([values.ravel(), [0.0, _INF]])
    out[~np.isfinite(out)] = _INF
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
        return header, [[self.dp.t, *x, v] for x, v
                        in zip(pts.tolist(), self.V.ravel().tolist())]


def brute_force_value(dp: DPProblem) -> ValueTable:
    """Backward value iteration; transitions leaving Omega score +inf."""
    spec = dp.spec
    states = dp.state_points()
    dt = dp.dt

    inside = spec.omega.contains(states)
    kept = states[inside]

    # time-free parts of cost[u, x] at the kept points: |h(x)|^2, |u|^2 / 2
    # and the sup gains
    hx = spec.h.forward(kept)
    g = np.sum(hx * hx, axis=1)
    u_sq = 0.5 * np.vecdot(dp.controls, dp.controls)[:, None]
    if dp.cost_mode == "sup":
        gains = _sup_alpha_gain(spec.a, spec.b, g)[1]

    # Euler successors of every (control, kept point) pair, stacked (n_u,
    # n_kept, n); kept + dt * f is formed in place on the map's fresh
    # result, so one such array is alive when _locate runs
    def locate(s: float):
        successors = spec.h.apply_jacobian_inv(
            kept, matvec(spec.A.value(s), hx)
            + matvec(spec.B.value(s), dp.controls)[:, None, :])
        successors *= dt
        successors += kept
        return _locate(dp.state_axes, successors.reshape(-1, kept.shape[1]))

    autonomous = spec.A.is_constant() and spec.B.is_constant()
    op = locate(dp.t) if autonomous else None

    V = np.where(inside, 0.0, _INF)
    coeffs_seen = None
    for i in range(dp.n_steps - 1, -1, -1):
        s = dp.t + dt * i
        if not autonomous:
            op = locate(s)
        cont = _apply(V, op).reshape(len(dp.controls), -1)
        # the cost block depends on s only through these scalars; equal bits
        # give the same block, so it is built again only when they change
        if dp.cost_mode == "fixed":
            alpha_val = dp.alpha.value(s)
            coeffs = (spec.q_coeff(s, alpha_val), float(spec.b(alpha_val)))
        else:
            coeffs = (spec.K.value(s),)
        if (key := np.array(coeffs, dtype=float).tobytes()) != coeffs_seen:
            coeffs_seen = key
            if dp.cost_mode == "fixed":
                step_cost = (coeffs[0] * g + u_sq - coeffs[1]) * dt
            else:
                step_cost = (0.5 * coeffs[0] * g + u_sq + gains) * dt
        V[inside] = np.min(step_cost + cont, axis=0)
    return ValueTable(dp=dp, V=V.reshape(dp.state_shape))
