"""Closed-loop synthesis and value evaluation.

The feedback law is u(s) = -R^{-1} B(s)^T P(s) h(xi(s)) and the closed loop

    xi'(s) = grad_h(xi)^{-1} Gamma(s) h(xi),
    Gamma(s) = A(s) - B(s) R^{-1} B(s)^T P(s),

which is exactly the field obtained by minimizing the Hamiltonian at the
gradient 2 grad_h^T P h of the quadratic value candidate.  Values come from

    W(t, x) = <h(x), P(t) h(x)> - integral of b(alpha) over [t, inf)

and the verification residual |dV/ds + H(s, x, grad_x V)| is measured with
central differences of P in time.

A simulation integrates a stack of starts with RK4 on the grid of
``numerics.stage_times``, reading Gamma at each stage index from one
precomputed array, then builds the controls and running costs of all nodes
and starts at once with stacked matmul and vecdot, so each start's
trajectory is bit for bit the one it gets alone.  A single start (n,)
with a non-identity h takes the same stacked field.  With the identity h
the field is ``Gamma.dot(x)``: ndarray.dot rounds like the stacked matmul
and skips its per-call dispatch and h's copies.  A scalar state then runs
on Python floats, ``0.0 + g x``: a float product rounds like the 1x1
matmul, and the +0.0 it is added to gives a zero product matmul's sign.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OutOfGrid
from .model import AlphaPolicy, ProblemSpec, eval_lagrangian
from .numerics import integrate_ode, matvec, simpson_samples, stage_times
from .riccati import RiccatiSolution


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Closed-loop (or open-loop) runs sampled on one uniform grid.

    ``states``, ``controls``, ``running_cost``, ``cum_cost`` and ``margins``
    carry the starts' batch dims in front of the node axis: states are
    (..., nodes, n).  ``margins`` holds the signed constraint margin of each
    state (<= 0 inside), ``cum_cost`` the trapezoid running integral of the
    cost rate; the authoritative cost functional is Simpson over
    ``running_cost``.  Constraint violation is flagged, never aborted:
    post-exit samples stay recorded for diagnosis.  ``exit_index`` is the
    first node outside Omega and ``exit_time`` the interpolated crossing,
    per start; -1 and NaN where the start stays inside.
    """

    nodes: np.ndarray
    states: np.ndarray
    controls: np.ndarray
    running_cost: np.ndarray
    cum_cost: np.ndarray
    margins: np.ndarray
    exit_index: np.ndarray
    exit_time: np.ndarray

    @property
    def exited(self) -> np.ndarray:
        return self.exit_index >= 0

    @property
    def dt(self) -> float:
        return float(self.nodes[1] - self.nodes[0])

    def final_state(self) -> np.ndarray:
        return self.states[..., -1, :]

    def csv_rows(self) -> tuple[list[str], list[list[float]]]:
        """Header and rows of a single-start run."""
        n = self.states.shape[1]
        m = self.controls.shape[1]
        header = (["s"] + [f"xi_{i + 1}" for i in range(n)]
                  + [f"u_{j + 1}" for j in range(m)]
                  + ["running_cost", "cum_cost", "omega_margin"])
        return header, np.column_stack(
            [self.nodes, self.states, self.controls, self.running_cost,
             self.cum_cost, self.margins]).tolist()


def feedback_control(spec: ProblemSpec, P: RiccatiSolution, s,
                     x: np.ndarray) -> np.ndarray:
    """Optimal feedback -R^{-1} B(s)^T P(s) h(x), per time of s and stacked
    state of x."""
    # P.at raises OutOfGrid beyond the solution span
    return matvec(spec.feedback_gain(s),
                  matvec(P.at(s), spec.h.forward(x)))


def gamma_matrices(spec: ProblemSpec, P: RiccatiSolution, s: np.ndarray
                   ) -> np.ndarray:
    """A(s) - B(s) R^{-1} B(s)^T P(s), stacked over the given times."""
    return spec.A.value(s) - np.matmul(spec.control_gram(s), P.at(s))


def _trajectory(spec: ProblemSpec, nodes: np.ndarray, states: np.ndarray,
                controls: np.ndarray, alpha: AlphaPolicy) -> Trajectory:
    """Costs, margins and first exits of states (..., nodes, n) under given
    node controls (..., nodes, m)."""
    running = eval_lagrangian(spec, nodes, states, controls,
                              alpha.value(nodes))
    cum = np.concatenate([np.zeros_like(running[..., :1]), np.cumsum(
        0.5 * (running[..., 1:] + running[..., :-1]) * np.diff(nodes),
        axis=-1)], axis=-1)
    margins = spec.omega.boundary_margin(states)

    tol_exit = 1e-9 * (1.0 + spec.omega.bounding_radius())
    outside = margins > tol_exit
    k = np.where(outside.any(axis=-1), np.argmax(outside, axis=-1), -1)
    j = np.maximum(k - 1, 0)
    m1 = np.take_along_axis(margins, k[..., None], -1)[..., 0]
    m0 = np.take_along_axis(margins, j[..., None], -1)[..., 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        # linear interpolation of the zero crossing of the margin
        crossing = nodes[j] + (0.0 - m0) / (m1 - m0) * (nodes[k] - nodes[j])
    exit_time = np.where((k > 0) & (m1 > m0), crossing, nodes[k])
    return Trajectory(nodes=nodes, states=states, controls=controls,
                      running_cost=running, cum_cost=cum, margins=margins,
                      exit_index=k[()],
                      exit_time=np.where(k < 0, np.nan, exit_time)[()])


def simulate_closed_loop(spec: ProblemSpec, P: RiccatiSolution,
                         alpha: AlphaPolicy, t: float, x0: np.ndarray,
                         T_sim: float) -> Trajectory:
    """Integrate the Riccati feedback loop over [t, T_sim] from each start
    of x0 (..., n), on the problem's time grid.

    Every start must lie in Omega; later exits are flagged on the returned
    trajectory with the interpolated first-exit time.
    """
    x0 = np.asarray(x0, dtype=float)
    if not np.all(spec.omega.contains(x0, tol=1e-9)):
        raise ValueError("initial state is outside the constraint set")
    dt = spec.grid.dt
    gammas = gamma_matrices(spec, P, stage_times(t, T_sim, dt))

    forward, jacobian_inv = spec.h.forward, spec.h.apply_jacobian_inv
    start = x0

    if x0.ndim != 1 or spec.h.variant != "identity":
        def field(j, x):
            # matvec less its conversion: h(x) is a float array already
            return jacobian_inv(
                x, np.matmul(gammas[j], forward(x)[..., None])[..., 0])
    elif len(x0) == 1:
        # a 1x1 product rounds once, as a float product does; matmul sums
        # it onto +0.0, which turns a -0.0 product (from a start at -0.0)
        # into +0.0, where dot keeps -0.0
        g, start = gammas[:, 0, 0].tolist(), float(x0[0])

        def field(j, x):
            return 0.0 + g[j] * x
    else:
        def field(j, x):
            return gammas[j].dot(x)

    path = integrate_ode(field, t, T_sim, start, dt)
    states = np.moveaxis(path.values.reshape(path.nodes.shape + x0.shape),
                         0, -2)
    controls = feedback_control(spec, P, path.nodes, states)
    return _trajectory(spec, path.nodes, states, controls, alpha)


def value_from_riccati(spec: ProblemSpec, P: RiccatiSolution,
                       alpha: AlphaPolicy, t: float, x: np.ndarray) -> float:
    """Infinite-horizon value <h(x), P(t) h(x)> minus the b-integral tail."""
    if P.certificate is None:
        raise ValueError("infinite-horizon value needs a stabilizing solution")
    hx = spec.h.forward(np.asarray(x, dtype=float))
    quad = float(hx @ (P.at(t) @ hx))
    return quad - alpha.piecewise_integral(spec.b, t, None)


def hamiltonian(spec: ProblemSpec, s, x: np.ndarray, p: np.ndarray,
                alpha_val):
    """inf over u of <p, f(s,x,u)> + l(s,x,u,alpha), in closed form, per
    stacked row of x and p.

    The minimizing control is u = -B^T grad_h^{-T} p, giving

        H = <p, grad_h^{-1} A h> - |B^T grad_h^{-T} p|^2 / 2
            + q(s, alpha) |h|^2 - b(alpha).
    """
    p = np.asarray(p, dtype=float)
    hx = spec.h.forward(x)
    drift = np.vecdot(p, spec.h.apply_jacobian_inv(
        x, matvec(spec.A.value(s), hx)))
    bt_p = matvec(np.swapaxes(spec.B.value(s), -1, -2),
                  spec.h.apply_jacobian_inv_t(x, p))
    return (drift - 0.5 * np.vecdot(bt_p, bt_p)
            + spec.q_coeff(s, alpha_val) * np.vecdot(hx, hx)
            - spec.b(alpha_val))[()]


def hjb_residual(spec: ProblemSpec, P: RiccatiSolution, alpha: AlphaPolicy,
                 s: float, x: np.ndarray):
    """|dV/ds + H(s, x, grad_x V)| at the grid node nearest to s, per
    stacked state.

    V(s, x) = <h(x), P(s) h(x)> - integral of b(alpha) from s to the horizon;
    the time derivative of the quadratic part uses central differences over
    P's grid (hence O(dt^2)), the rest is exact.
    """
    k = P.node_index(s)
    if k == 0 or k == len(P.nodes) - 1:
        raise OutOfGrid("central differences need an interior grid node")
    hx = spec.h.forward(x)
    quad_prev = np.vecdot(hx, matvec(P.P[k - 1], hx))
    quad_next = np.vecdot(hx, matvec(P.P[k + 1], hx))
    s_k = float(P.nodes[k])
    alpha_k = alpha.value(s_k)
    dv_ds = (quad_next - quad_prev) / (2.0 * P.dt) + spec.b(alpha_k)
    grad_v = 2.0 * spec.h.apply_jacobian_t(x, matvec(P.P[k], hx))
    return np.abs(dv_ds + hamiltonian(spec, s_k, x, grad_v, alpha_k))


@dataclass(frozen=True)
class CostBreakdown:
    """Accumulated trajectory cost split into the simulated part and the
    model-based tail beyond the simulation horizon."""

    truncated: float
    tail: float

    @property
    def total(self) -> float:
        return self.truncated + self.tail


def cost_of_trajectory(spec: ProblemSpec, traj: Trajectory,
                       alpha: AlphaPolicy,
                       tail_P: RiccatiSolution | None = None) -> CostBreakdown:
    """Simpson quadrature of the running cost, plus an optional tail.

    With a stabilizing ``tail_P`` the remainder beyond the simulated horizon
    is estimated by the value at the final state:
    <h(xi_end), P(s_end) h(xi_end)> minus the remaining b-integral.
    """
    truncated = simpson_samples(traj.running_cost, traj.dt)
    tail = 0.0
    if tail_P is not None:
        s_end = float(traj.nodes[-1])
        hx = spec.h.forward(traj.final_state())
        tail = float(hx @ (tail_P.at(min(s_end, tail_P.t_end)) @ hx))
        tail -= alpha.piecewise_integral(spec.b, s_end, None)
    return CostBreakdown(truncated=float(truncated), tail=float(tail))

