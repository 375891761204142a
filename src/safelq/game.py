"""The adversarial weight player.

The pointwise best response to a state x is the argmax map

    Lambda(s, x) = argmax over beta >= 0 of a(beta) |h(x)|^2 - b(beta),

single valued for the power catalog with ties broken by the smallest
maximizer.  The game value sup over policies alpha of W^alpha(t, x) is
approached from below by constant-policy sweeps and computed by an
Anderson-accelerated relaxed Picard iteration on the coupled (P, xi, alpha)
system: each pass solves the stabilizing Riccati equation for the current
alpha, simulates its closed loop, and re-samples alpha from Lambda along the
trajectory.  Every policy of the iteration, and every constant one, is zero
beyond the simulation window, so the stabilizing P there is the same for all
of them: it is solved once, by horizon doubling, and each policy sweeps only
the window back from it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteState
from .model import AlphaPolicy, ProblemSpec, _sup_alpha_gain
from .numerics import stage_times
from .riccati import RiccatiSolution, solve_from_tail, solve_stabilizing
from .synthesis import Trajectory, simulate_closed_loop, value_from_riccati

# residual differences per Anderson step: the step mixes the last
# _ANDERSON_MEMORY + 1 values of the relaxed map
_ANDERSON_MEMORY = 3


def lambda_map(spec: ProblemSpec, s, x: np.ndarray):
    """Smallest maximizer of a(beta) |h(x)|^2 - b(beta) over beta >= 0, per
    stacked state (..., n); the power catalog makes it independent of s."""
    hx = spec.h.forward(x)
    alpha_star, _ = _sup_alpha_gain(spec.a, spec.b, np.vecdot(hx, hx))
    return alpha_star


@dataclass(frozen=True, eq=False)
class ConstantAlphaSweep:
    """Lower bound on the game value from constant-on-window policies."""

    w_lower: float
    best_alpha: float
    table: tuple[tuple[float, float], ...]  # (alpha, value); -inf when skipped
    skipped: tuple[tuple[float, str], ...]  # (alpha, why its solve failed)


def _game_window(spec: ProblemSpec, t: float, riccati_tol: float = 1e-8
                 ) -> tuple[float, np.ndarray, RiccatiSolution]:
    """The window's end T_sim = t + 16, its policy nodes, and the
    stabilizing P at T_seed = T_sim + h: every policy on the nodes is zero
    from T_seed on (the step that ends at T_sim still reads alpha there),
    so this one tail serves them all."""
    T_sim = t + 16.0
    nodes = stage_times(t, T_sim, spec.grid.dt)[::2]
    T_seed = T_sim + (T_sim - t) / (len(nodes) - 1)
    tail = solve_stabilizing(spec, AlphaPolicy.zero(t, T_seed), T_seed, T_seed,
                             tol=riccati_tol)
    return T_sim, nodes, tail


def sup_over_constant_alpha(spec: ProblemSpec, t: float, x: np.ndarray,
                            alpha_grid, tail: RiccatiSolution | None = None,
                            zero: RiccatiSolution | None = None
                            ) -> ConstantAlphaSweep:
    """Evaluate W^alpha for each constant policy on the grid and keep the max.

    Each policy holds its value on [t, T_sim], T_sim the node one step before
    ``tail.t_start`` (by default the game window's tail), and is zero
    afterwards, as the coupled iteration's policies are; each is swept back
    from the tail's P.  ``zero``, the sweep of the zero policy back from the
    same tail from t (a game's ``GameSolution.zero``), serves the rows of
    alpha = 0 in place of their sweep.  The max is a certified lower bound
    on the supremum over all measurable policies.  Policies whose sweep
    escapes are skipped with a warning and scored -inf.
    """
    if tail is None:
        _, _, tail = _game_window(spec, t)
    T_sim = stage_times(t, tail.t_start, spec.grid.dt)[-3]
    table, skipped = [], []
    for val in alpha_grid:
        policy = AlphaPolicy.constant(float(val), t, T_sim)
        try:
            sol = (zero if zero is not None and val == 0.0 else
                   solve_from_tail(spec, policy, t, tail))
        except NonFiniteState as exc:
            warnings.warn(f"constant alpha={val}: {exc}")
            skipped.append((float(val), str(exc)))
            w = -np.inf
        else:
            w = value_from_riccati(spec, sol, policy, t, x)
        table.append((float(val), float(w)))
    # the first of the best policies; the first policy when all are skipped
    best_alpha, w_lower = max(table, key=lambda row: row[1])
    return ConstantAlphaSweep(w_lower=w_lower, best_alpha=best_alpha,
                              table=tuple(table), skipped=tuple(skipped))


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
    tail: RiccatiSolution   # the policy-free tail all policies sweep back from
    zero: RiccatiSolution   # the zero policy's sweep back from the tail

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
                "alpha_star": [float(v) for v in self.alpha_star.values],
                "tail_certificate": self.tail.certificate.to_dict()}


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

    Starting from alpha = 0 (the pure quadratic solve, kept as ``zero``),
    each pass computes the stabilizing P for the current policy (one sweep
    back from the policy-free tail, :func:`solve_from_tail`), simulates the
    closed loop from x0 over [t, t + 16], and evaluates the relaxed map
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
    if not tol > 0.0:                                           # NaN-proof
        raise ValueError("tol must be positive")
    x0 = np.asarray(x0, dtype=float)
    if not spec.omega.contains(x0, tol=1e-9):
        raise ValueError("initial state is outside the constraint set")
    T_sim, nodes, tail = _game_window(spec, t, min(1e-8, 0.01 * tol))
    alpha = AlphaPolicy(nodes, np.zeros_like(nodes))
    # the zero policy's sweep serves pass 1 and the constant table's
    # alpha = 0 row
    zero = solve_from_tail(spec, alpha, t, tail)

    update_norm = np.inf
    norms: list[float] = []
    history: list = []
    mixed_steps = 0
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        sol = zero if iterations == 1 else solve_from_tail(spec, alpha, t,
                                                            tail)
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

    p_star = solve_from_tail(spec, alpha, t, tail)
    xi_star = simulate_closed_loop(spec, p_star, alpha, t, x0, T_sim)
    w = value_from_riccati(spec, p_star, alpha, t, x0)
    return GameSolution(alpha_star=alpha, P_star=p_star, xi_star=xi_star,
                        W=float(w), iterations=iterations,
                        alpha_update_norm=update_norm, converged=converged,
                        update_norm_history=tuple(norms),
                        mixed_steps=mixed_steps, tail=tail, zero=zero)
