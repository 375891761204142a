"""The adversarial weight player.

The pointwise best response to a state x is the argmax map

    Lambda(s, x) = argmax over beta >= 0 of a(beta) |h(x)|^2 - b(beta),

single valued for the power catalog with ties broken by the smallest
maximizer.  The game value sup over policies alpha of W^alpha(t, x) is
approached from below by constant-policy sweeps and computed by an
Anderson-accelerated relaxed Picard iteration on the coupled (P, xi, alpha)
system: each pass solves the stabilizing Riccati equation for the current
alpha, simulates its closed loop, and re-samples alpha from Lambda along the
trajectory.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import SafeLQError
from .model import AlphaPolicy, ProblemSpec, _sup_alpha_gain
from .numerics import stage_times
from .riccati import RiccatiSolution, _stabilizing_lanes, solve_stabilizing
from .synthesis import Trajectory, simulate_closed_loop, value_from_riccati

_TINY = np.finfo(float).tiny
# residual differences per Anderson step: the step mixes the last
# _ANDERSON_MEMORY + 1 values of the relaxed map
_ANDERSON_MEMORY = 3


def lambda_map(spec: ProblemSpec, s, x: np.ndarray):
    """Smallest maximizer of a(beta) |h(x)|^2 - b(beta) over beta >= 0, per
    stacked state (..., n); the power catalog makes it independent of s."""
    hx = spec.h.forward(x)
    alpha_star, _ = _sup_alpha_gain(spec.a, spec.b, np.vecdot(hx, hx))
    return alpha_star


def lambda_map_numeric(spec: ProblemSpec, s: float, x: np.ndarray) -> float:
    """Golden-section fallback for the argmax; cross-checks the closed form.

    The bracket closes to 1e-12 relative to its upper end, and zero wins
    ties within 1e-12 relative to the maximal gain.
    """
    tol = 1e-12
    hx = spec.h.forward(np.asarray(x, dtype=float))
    g = float(hx @ hx)

    def gain(beta):
        return float(spec.a(beta)) * g - float(spec.b(beta))

    # beyond hi the penalty surely dominates the gain
    p, q = spec.a.exponent, spec.b.exponent
    c, d = max(spec.a.coeff, 1e-30), max(spec.b.coeff, 1e-30)
    lo, hi = 0.0, max(1.0, (2.0 * c * max(g, 1.0) / d) ** (1.0 / (q - p)))
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - inv_phi * (hi - lo)
    x2 = lo + inv_phi * (hi - lo)
    f1, f2 = gain(x1), gain(x2)
    # the floor ends a bracket closing on zero before it turns subnormal
    while hi - lo > tol * hi + _TINY:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv_phi * (hi - lo)
            f2 = gain(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv_phi * (hi - lo)
            f1 = gain(x1)
    best = 0.5 * (lo + hi)
    g_best = gain(best)
    if gain(0.0) >= g_best - tol * abs(g_best):
        return 0.0
    return float(best)


@dataclass(frozen=True, eq=False)
class ConstantAlphaSweep:
    """Lower bound on the game value from constant-on-window policies."""

    w_lower: float
    best_alpha: float
    table: tuple[tuple[float, float], ...]  # (alpha, value); -inf when skipped

    def to_dict(self) -> dict:
        return {"w_lower": self.w_lower, "best_alpha": self.best_alpha,
                "table": [[a, v] for a, v in self.table]}


def sup_over_constant_alpha(spec: ProblemSpec, t: float, x: np.ndarray,
                            alpha_grid, support_horizon: float | None = None
                            ) -> ConstantAlphaSweep:
    """Evaluate W^alpha for each constant policy on the grid and keep the max.

    Each policy holds its value on [t, t + support window] and is zero
    afterwards, so the b-integral stays finite.  The max is a certified lower
    bound on the supremum over all measurable policies.  Policies whose
    stabilizing solve fails (no convergence, or a sweep that escapes) are
    skipped with a warning and scored -inf.
    """
    support = (spec.grid.t_max - t if support_horizon is None
               else support_horizon)
    policies = [AlphaPolicy.constant(float(val), t, t + support)
                for val in alpha_grid]
    solutions = _stabilizing_lanes(spec, policies, t, t)
    table = []
    for val, policy, sol in zip(alpha_grid, policies, solutions):
        if isinstance(sol, SafeLQError):
            warnings.warn(f"constant alpha={val}: {sol}")
            w = -np.inf
        else:
            w = value_from_riccati(spec, sol, policy, t, x)
        table.append((float(val), float(w)))
    # the first of the best policies; the first policy when all are skipped
    best_alpha, w_lower = max(table, key=lambda row: row[1])
    return ConstantAlphaSweep(w_lower=w_lower, best_alpha=best_alpha,
                              table=tuple(table))


def _json_norm(value: float) -> float | None:
    # strict JSON: a norm is null when no update was made or it overflowed
    return value if math.isfinite(value) else None


@dataclass(frozen=True, eq=False)
class GameSolution:
    """Fixed point of the coupled weight/Riccati/trajectory system."""

    alpha_star: AlphaPolicy
    P_star: RiccatiSolution
    xi_star: Trajectory
    W: float
    iterations: int
    alpha_update_norm: float
    converged: bool
    update_norm_history: tuple[float, ...]
    mixed_steps: int

    def to_dict(self) -> dict:
        return {"W": self.W, "iterations": self.iterations,
                "alpha_update_norm": _json_norm(self.alpha_update_norm),
                "update_norm_history": [_json_norm(v)
                                        for v in self.update_norm_history],
                "mixed_steps": self.mixed_steps,
                "converged": self.converged,
                "constraint_violated": bool(self.xi_star.exited),
                "exit_time": (float(self.xi_star.exit_time)
                              if self.xi_star.exited else None),
                "alpha_star": [float(v) for v in self.alpha_star.values]}


def _anderson_step(history: list, g: np.ndarray, f: np.ndarray
                   ) -> tuple[np.ndarray, bool]:
    """Next iterate after a pass whose relaxed map value is g with residual
    f = g - alpha; and whether it is the mixed step.

    Type-II Anderson mixing (Walker & Ni 2011) over ``history``, the (g, f)
    pairs of earlier passes, oldest first, which is updated in place: it
    restarts empty when the sup norm of f grew over the previous pass's, and
    keeps the last _ANDERSON_MEMORY + 1 pairs.  The mixed iterate minimizes
    the linearized residual over the affine span of the kept map values and
    is projected onto alpha >= 0; the plain step g is taken when there is
    nothing to mix or the mixed iterate is not finite.
    """
    if history and np.max(np.abs(f)) > np.max(np.abs(history[-1][1])):
        history.clear()
    history.append((g, f))
    del history[:-_ANDERSON_MEMORY - 1]
    if len(history) < 2:
        return g, False
    gs, fs = (np.stack(column, axis=1) for column in zip(*history))
    # an overflow is caught by the finiteness test below
    with np.errstate(over="ignore", invalid="ignore"):
        d_g, d_f = np.diff(gs, axis=1), np.diff(fs, axis=1)
        gamma = np.linalg.lstsq(d_f, f, rcond=None)[0]
        mixed = g - d_g @ gamma
    if not np.all(np.isfinite(mixed)):
        return g, False
    return np.maximum(mixed, 0.0), True


def solve_coupled(spec: ProblemSpec, t: float, x0: np.ndarray,
                  tol: float = 1e-6, max_iter: int = 50,
                  relaxation: float = 0.5) -> GameSolution:
    """Anderson-accelerated relaxed Picard iteration for the coupled
    (P*, xi*, alpha*) system.

    Starting from alpha = 0 (the pure quadratic solve), each pass computes
    the stabilizing P for the current policy, simulates the closed loop from
    x0 over [t, t + min(16, t_max - t)], and evaluates the relaxed map
    G(alpha) = (1 - relaxation) alpha + relaxation Lambda(xi) sampled along
    the trajectory.  The next policy mixes the latest map values
    (:func:`_anderson_step`).  Stops when the sup-norm residual
    max|G(alpha) - alpha| drops below ``tol`` and returns that plain step
    G(alpha); on max_iter the last iterate is returned with ``converged``
    False.  The reported value W re-solves P for the final policy so all
    pieces are consistent.
    """
    if not 0.0 < relaxation <= 1.0:
        raise ValueError("relaxation must lie in (0, 1]")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    x0 = np.asarray(x0, dtype=float)
    if not spec.omega.contains(x0, tol=1e-9):
        raise ValueError("initial state is outside the constraint set")
    T_sim = t + min(16.0, spec.grid.t_max - t)
    riccati_tol = min(1e-8, 0.01 * tol)

    nodes = stage_times(t, T_sim, spec.grid.dt)[::2]
    alpha = AlphaPolicy(nodes, np.zeros_like(nodes))

    update_norm = np.inf
    norms: list[float] = []
    history: list = []
    mixed_steps = 0
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        sol = solve_stabilizing(spec, alpha, t, T_sim, tol=riccati_tol)
        traj = simulate_closed_loop(spec, sol, alpha, t, x0, T_sim)
        target = lambda_map(spec, nodes, traj.states)
        relaxed = (1.0 - relaxation) * alpha.values + relaxation * target
        residual = relaxed - alpha.values
        update_norm = float(np.max(np.abs(residual)))
        norms.append(update_norm)
        if update_norm < tol:
            alpha = AlphaPolicy(nodes, relaxed)
            converged = True
            break
        new_values, mixed = _anderson_step(history, relaxed, residual)
        mixed_steps += mixed
        alpha = AlphaPolicy(nodes, new_values)

    p_star = solve_stabilizing(spec, alpha, t, T_sim, tol=riccati_tol)
    xi_star = simulate_closed_loop(spec, p_star, alpha, t, x0, T_sim)
    w = value_from_riccati(spec, p_star, alpha, t, x0)
    return GameSolution(alpha_star=alpha, P_star=p_star, xi_star=xi_star,
                        W=float(w), iterations=iterations,
                        alpha_update_norm=update_norm, converged=converged,
                        update_norm_history=tuple(norms),
                        mixed_steps=mixed_steps)
