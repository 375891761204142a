"""Closed-loop synthesis and value evaluation.

The feedback law is u(s) = -R^{-1} B(s)^T P(s) h(xi(s)) and the closed loop

    xi'(s) = grad_h(xi)^{-1} Gamma(s) h(xi),
    Gamma(s) = A(s) - B(s) R^{-1} B(s)^T P(s),

which is exactly the field obtained by minimizing the Hamiltonian at the
gradient 2 grad_h^T P h of the quadratic value candidate.  Values come from

    W(t, x)   = <h(x), P(t) h(x)> - integral of b(alpha) over [t, inf)
    W_T(t, x) = <h(x), P_T(t) h(x)> - integral of b(alpha) over [t, T]

and the verification residual |dV/ds + H(s, x, grad_x V)| is measured with
central differences of P in time.

A simulation integrates the state with RK4, reading Gamma at each stage
time from one precomputed array, then builds the controls and running costs
of all nodes at once with stacked matmul and vecdot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import OutOfGrid
from .model import AlphaPolicy, ProblemSpec, eval_dynamics, eval_lagrangian
from .numerics import integrate_ode, matvec, simpson_samples
from .riccati import RiccatiSolution


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Closed-loop (or open-loop) run sampled on a uniform grid.

    ``margins`` holds the signed constraint margin of each state (<= 0
    inside), ``cum_cost`` the trapezoid running integral of the cost rate;
    the authoritative cost functional is Simpson over ``running_cost``.
    Constraint violation is flagged, never aborted: post-exit samples stay
    recorded for diagnosis.
    """

    nodes: np.ndarray
    states: np.ndarray
    controls: np.ndarray
    running_cost: np.ndarray
    cum_cost: np.ndarray
    margins: np.ndarray
    exited: bool = False
    exit_time: float | None = None
    exit_index: int | None = None

    @property
    def dt(self) -> float:
        return float(self.nodes[1] - self.nodes[0])

    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def csv_rows(self) -> tuple[list[str], list[list[float]]]:
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
    gain = -spec.Rinv @ np.swapaxes(spec.B.value(s), -1, -2)
    # P.at raises OutOfGrid beyond the solution span
    return matvec(gain, matvec(P.at(s), spec.h.forward(x)))


def gamma_matrices(spec: ProblemSpec, P: RiccatiSolution, s: np.ndarray
                   ) -> np.ndarray:
    """A(s) - B(s) R^{-1} B(s)^T P(s), stacked over the given times."""
    a = spec.A.value(s)
    b = spec.B.value(s)
    return a - np.einsum("kij,jl,kml,kmo->kio", b, spec.Rinv, b, P.at(s))


def _trajectory(spec: ProblemSpec, path, controls: np.ndarray,
                alpha: AlphaPolicy) -> Trajectory:
    """Costs, margins and first exit of a path with given node controls."""
    nodes = path.nodes
    states = path.values
    running = eval_lagrangian(spec, nodes, states, controls,
                              alpha.value(nodes))
    cum = np.concatenate([[0.0], np.cumsum(
        0.5 * (running[1:] + running[:-1]) * np.diff(nodes))])
    margins = spec.omega.boundary_margin(states)

    tol_exit = 1e-9 * (1.0 + spec.omega.bounding_radius())
    outside = np.flatnonzero(margins > tol_exit)
    exit_time = exit_index = None
    if len(outside):
        k = exit_index = int(outside[0])
        exit_time = float(nodes[k])
        if k > 0 and margins[k] > margins[k - 1]:
            # linear interpolation of the zero crossing of the margin
            frac = (0.0 - margins[k - 1]) / (margins[k] - margins[k - 1])
            exit_time = float(nodes[k - 1] + frac * (nodes[k] - nodes[k - 1]))
    return Trajectory(nodes=nodes, states=states, controls=controls,
                      running_cost=running, cum_cost=cum, margins=margins,
                      exited=exit_index is not None, exit_time=exit_time,
                      exit_index=exit_index)


def simulate_closed_loop(spec: ProblemSpec, P: RiccatiSolution,
                         alpha: AlphaPolicy, t: float, x0: np.ndarray,
                         T_sim: float, dt: float | None = None) -> Trajectory:
    """Integrate the Riccati feedback loop from x0 over [t, T_sim].

    The initial state must lie in Omega; later exits are flagged on the
    returned trajectory with the interpolated first-exit time.
    """
    x0 = np.asarray(x0, dtype=float)
    if not spec.omega.contains(x0, tol=1e-9):
        raise ValueError("initial state is outside the constraint set")
    dt = spec.grid.dt if dt is None else dt

    # Gamma at every node and midpoint the RK4 stages touch: stage time
    # t + j * step / 2 reads gammas[j]
    n_steps = max(1, int(round((T_sim - t) / dt)))
    step = (T_sim - t) / n_steps
    gammas = gamma_matrices(spec, P,
                            t + 0.5 * step * np.arange(2 * n_steps + 1))

    def field(s, x):
        gamma = gammas[round((s - t) / (0.5 * step))]
        return spec.h.apply_jacobian_inv(x, gamma @ spec.h.forward(x))

    path = integrate_ode(field, t, T_sim, x0, dt)
    controls = feedback_control(spec, P, path.nodes, path.values)
    return _trajectory(spec, path, controls, alpha)


def simulate_open_loop(spec: ProblemSpec, control: Callable[[float], np.ndarray],
                       alpha: AlphaPolicy, t: float, x0: np.ndarray,
                       T_sim: float, dt: float | None = None) -> Trajectory:
    """Integrate the dynamics under an explicit control signal."""
    dt = spec.grid.dt if dt is None else dt
    path = integrate_ode(lambda s, x: eval_dynamics(spec, s, x, control(s)),
                         t, T_sim, np.asarray(x0, dtype=float), dt)
    controls = np.array([np.asarray(control(s), dtype=float)
                         for s in path.nodes])
    return _trajectory(spec, path, controls, alpha)


def value_from_riccati(spec: ProblemSpec, P: RiccatiSolution,
                       alpha: AlphaPolicy, t: float, x: np.ndarray) -> float:
    """Infinite-horizon value <h(x), P(t) h(x)> minus the b-integral tail."""
    if P.kind != "stabilizing":
        raise ValueError("infinite-horizon value needs a stabilizing solution")
    hx = spec.h.forward(np.asarray(x, dtype=float))
    quad = float(hx @ (P.at(t) @ hx))
    return quad - alpha.piecewise_integral(spec.b, t, None)


def finite_value_from_riccati(spec: ProblemSpec, P_T: RiccatiSolution,
                              alpha: AlphaPolicy, t: float, T: float,
                              x: np.ndarray) -> float:
    """Finite-horizon value <h(x), P_T(t) h(x)> minus the b-integral on [t, T]."""
    hx = spec.h.forward(np.asarray(x, dtype=float))
    quad = float(hx @ (P_T.at(t) @ hx))
    return quad - alpha.piecewise_integral(spec.b, t, T)


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

