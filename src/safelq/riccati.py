"""Riccati sweeps and stabilizing solutions.

The finite-horizon terminal-value problem

    -P'(s) = A(s)^T P + P A(s) - P B(s) R^{-1} B(s)^T P + Q^alpha(s),
     P(T)  = 0,     Q^alpha(s) = (K(s)/2 + a(alpha(s))) I,

is integrated backward by the package's one RK4 loop (``numerics._rk4``,
step -h, symmetrizing after every step) on the stage grid of
``numerics.stage_times``, read in descending order; its right-hand side
reads the stage data, A, S and q, by stage index, all built once per sweep.
One sweep integrates one policy and returns its solution on the ascending
grid.  A sweep that escapes runs on as inf/NaN; one scan of the nodes
afterwards raises NonFiniteState at the first non-finite one it reached.
The stabilizing (minimal) infinite-horizon solution is obtained
constructively as the limit, at the window's end T_eval, of finite-horizon
sweeps over geometrically growing horizons, compared there until the gap
drops below tolerance (relative to |P| once |P| exceeds 1); one sweep back
from that limit covers the window, as the stabilizing solution attracts the
backward flow.  A Newton-Kleinman algebraic solve provides an independent
cross-check for constant coefficients.

A sweep may also start from a given terminal value (:func:`solve_from_tail`):
the game solves the policy-free tail beyond its simulation window once, by
doubling, and sweeps each policy back from it.

States of n <= 2 skip numpy in the loop: on such small matrices its cost is
per-call overhead, not arithmetic.  The sweep runs on Python floats, one
float for n = 1 and the four entries (p00, p01, p10, p11) of the 2x2 for
n = 2, its products written out entry by entry in matmul's operand order.
A 1x1 product rounds once, like a float product, so n = 1 keeps the bits of
matmul.  A 2x2 product entry is a sum of two products, which BLAS may fuse
into one multiply-add: on full 2x2 data the float sweep agrees with matmul
to rounding, not bit for bit, and its bits do not depend on the machine's
BLAS; where every such sum has one non-zero term, as with the shipped
diagonal A and B, they are matmul's bits.  States of n >= 3 step (n, n)
arrays with matmul.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from .errors import (ConfigError, NoConvergence, NonFiniteState,
                     NotStabilizable, OutOfGrid)
from .model import AlphaPolicy, ProblemSpec
from .numerics import SampledPath, _rk4, stage_times, sym


@dataclass(frozen=True)
class ConvergenceCertificate:
    """Horizon-doubling record: the horizons tried and the gaps achieved."""

    horizons: tuple[float, ...]
    gaps: tuple[float, ...]
    tol: float
    converged: bool

    def to_dict(self) -> dict:
        return {"horizons": list(self.horizons), "gaps": list(self.gaps),
                "tol": self.tol, "converged": self.converged}


@dataclass(frozen=True, eq=False)
class RiccatiSolution:
    """Symmetric P(s) on a uniform ascending grid with dense output.

    A stabilizing solution (the converged limit restricted to the evaluation
    window) carries its ``certificate``; a finite-horizon one, whose P
    vanishes at the terminal node, carries None.  ``dP`` stores the exact
    time derivative at each node so dense output is cubic Hermite.
    """

    nodes: np.ndarray
    P: np.ndarray
    dP: np.ndarray
    certificate: ConvergenceCertificate | None = None

    @property
    def t_start(self) -> float:
        return float(self.nodes[0])

    @property
    def t_end(self) -> float:
        return float(self.nodes[-1])

    @property
    def dt(self) -> float:
        if len(self.nodes) < 2:
            return 0.0
        return float(self.nodes[1] - self.nodes[0])

    def _path(self) -> SampledPath:
        return SampledPath(nodes=self.nodes, values=self.P, derivs=self.dP)

    def at(self, s) -> np.ndarray:
        """P(s), stacked (..., n, n) over an array of times."""
        return sym(self._path().at(s))

    def node_index(self, s: float) -> int:
        """Index of the grid node nearest to s."""
        if len(self.nodes) == 1:
            if abs(s - self.nodes[0]) > 1e-9:
                raise OutOfGrid(f"time {s} not on the solution grid")
            return 0
        i = int(round((s - self.t_start) / self.dt))
        if i < 0 or i >= len(self.nodes):
            raise OutOfGrid(f"time {s} outside [{self.t_start}, {self.t_end}]")
        return i

    def csv_rows(self) -> tuple[list[str], list[list[float]]]:
        """Header and rows: s plus the upper triangle of P, row-major."""
        rows, cols = np.triu_indices(self.P.shape[1])
        header = ["s"] + [f"P_{i + 1}{j + 1}" for i, j in zip(rows, cols)]
        return header, np.column_stack(
            [self.nodes, self.P[:, rows, cols]]).tolist()


def _stage_data(spec: ProblemSpec, alpha: AlphaPolicy, times: np.ndarray):
    """Per-time A(s), S(s) = B R^{-1} B^T and q(s)."""
    return (spec.A.value(times), spec.control_gram(times),
            spec.q_coeff(times, alpha.value(times)))


def _scalar_field(a_f, s_f, q_f):
    """The right-hand side of the backward equation for a 1x1 state, a
    Python float, from per-stage lists of A, S and q: a 1x1 product rounds
    once, as a float product does."""

    def rhs(j, p):
        return -(a_f[j] * p + p * a_f[j] - p * s_f[j] * p + q_f[j])
    return rhs


def _pair_field(stages):
    """The right-hand side of the backward equation for a 2x2 state, the
    floats (p00, p01, p10, p11), from one list of per-stage tuples
    (a00, a01, a10, a11, s00, s01, s10, s11, q) of A, S and q.

    Each entry is -(((A^T P + P A) - (P S) P) + q I) written out, every
    product entry the sum of its two float products in matmul's order, and
    q I off the diagonal q * 0.0, as ``q * np.eye(2)`` gives it.
    """

    def rhs(j, p):
        p00, p01, p10, p11 = p
        a00, a01, a10, a11, s00, s01, s10, s11, q = stages[j]
        q_off = q * 0.0
        ps00 = p00 * s00 + p01 * s10
        ps01 = p00 * s01 + p01 * s11
        ps10 = p10 * s00 + p11 * s10
        ps11 = p10 * s01 + p11 * s11
        return (-((a00 * p00 + a10 * p10) + (p00 * a00 + p01 * a10)
                  - (ps00 * p00 + ps01 * p10) + q),
                -((a00 * p01 + a10 * p11) + (p00 * a01 + p01 * a11)
                  - (ps00 * p01 + ps01 * p11) + q_off),
                -((a01 * p00 + a11 * p10) + (p10 * a00 + p11 * a10)
                  - (ps10 * p00 + ps11 * p10) + q_off),
                -((a01 * p01 + a11 * p11) + (p10 * a01 + p11 * a11)
                  - (ps10 * p01 + ps11 * p11) + q))
    return rhs


def _sweep(spec: ProblemSpec, alpha: AlphaPolicy, t: float, T: float,
           dt: float, p_end: np.ndarray | float = 0.0) -> RiccatiSolution:
    """Backward RK4 sweep from P(T) = p_end over [t, T]: the solution on the
    ascending grid, without a certificate.  Raises the NonFiniteState of the
    first non-finite node the sweep reaches.

    For n <= 2 the sweep integrates Python floats, a float or the 2x2 tuple
    of :func:`_pair_field`; for n >= 3 it integrates (n, n) arrays with
    matmul.
    """
    n = spec.dim_state
    if T < t:
        raise ValueError("terminal time must not precede the start time")
    # anchored at t, so sweeps with different horizons evaluate the (possibly
    # discontinuous) coefficients at bit-identical times
    times = stage_times(t, T, dt)
    nodes = times[::2].copy()
    steps = len(nodes) - 1
    h = (T - t) / steps if steps else 0.0
    a, s, q = _stage_data(spec, alpha, times[::-1])     # descending
    p_end = np.full((n, n), p_end, dtype=float)

    # backward equation: P' = -(A^T P + P A - P S P + q I); the negation
    # stays outermost, as it fixes the sign of a zero; an escaping sweep
    # runs on as inf/NaN: reported below, not warned
    if n <= 2:
        # A, S and q read once per sweep into Python floats: flat stage
        # lists for n = 1, one list of per-stage tuples for n = 2
        if n == 1:
            rhs = _scalar_field(a.ravel().tolist(), s.ravel().tolist(),
                                q.tolist())
        else:
            rhs = _pair_field(list(zip(*a.reshape(-1, 4).T.tolist(),
                                       *s.reshape(-1, 4).T.tolist(),
                                       q.tolist())))
        p0 = p_end.ravel().tolist()
        runs = _rk4(rhs, p0[0] if n == 1 else tuple(p0), steps, -h,
                    postprocess=sym)
        # node floats or 2x2 tuples, reversed in C, as ascending (nodes, n, n)
        p, dp = (np.fromiter(reversed(run) if n == 1 else
                             chain.from_iterable(reversed(run)), float,
                             len(run) * n * n).reshape(-1, n, n)
                 for run in runs)
    else:
        # per stage: the A^T view and q I, built once
        a_t = a.swapaxes(-1, -2)
        qi = q[:, None, None] * np.eye(n)

        def rhs(j, p):
            return -(a_t[j] @ p + p @ a[j] - p @ s[j] @ p + qi[j])

        p, dp = (np.array(run[::-1])
                 for run in _rk4(rhs, p_end, steps, -h, postprocess=sym))

    # no step turns a non-finite entry finite again: the first node shows
    # whether the sweep escaped, the last non-finite one where
    finite = np.isfinite(p).all(axis=(1, 2))
    if not finite[0]:
        s_esc = float(nodes[np.flatnonzero(~finite)[-1]])
        raise NonFiniteState(f"Riccati sweep escaped at s={s_esc}",
                             time=s_esc)
    return RiccatiSolution(nodes=nodes, P=p, dP=dp)


def solve_finite_horizon(spec: ProblemSpec, alpha: AlphaPolicy, t: float,
                         T: float, dt: float | None = None) -> RiccatiSolution:
    """Finite-horizon sweep with zero terminal condition on [t, T]."""
    return _sweep(spec, alpha, t, T, spec.grid.dt if dt is None else dt)


def solve_from_tail(spec: ProblemSpec, alpha: AlphaPolicy, t: float,
                    tail: RiccatiSolution) -> RiccatiSolution:
    """Stabilizing solution on [t, tail.t_start] for a policy that agrees
    with the tail's from tail.t_start on: one sweep back from the tail's
    P(tail.t_start), carrying the tail's certificate."""
    return replace(_sweep(spec, alpha, t, tail.t_start, spec.grid.dt,
                          p_end=tail.P[0]), certificate=tail.certificate)


def _gap_tol(tol: float, p: np.ndarray) -> float:
    # relative above |P| = 1: the sweeps' rounding floor grows with |P|, so
    # an absolute test never passes for a large root
    return tol * max(1.0, float(np.max(np.linalg.norm(p, axis=(-2, -1)))))


def solve_stabilizing(spec: ProblemSpec, alpha: AlphaPolicy, t: float,
                      T_eval: float, tol: float = 1e-8,
                      dt: float | None = None) -> RiccatiSolution:
    """Stabilizing solution on [t, T_eval]: the limit of growing horizons
    at T_eval, swept back over the window.

    Horizons T_eval + 1, + 2, + 4, ... grow until consecutive sweeps agree
    at T_eval to within ``tol`` times max(1, |P(T_eval)|) (Frobenius norm);
    one sweep carries that P back to t, and the result holds the
    certificate.  Raises NoConvergence, holding the unconverged certificate,
    when the horizon cap ``grid.t_max`` is reached first, NonFiniteState
    when a sweep escapes, and ConfigError when T_eval + 1 does not lie below
    the cap.
    """
    if not tol > 0.0:                                           # NaN-proof
        raise ValueError("tol must be positive")
    dt = spec.grid.dt if dt is None else dt
    if T_eval < t:
        raise ValueError("T_eval must be >= t")

    # near its own terminal node a finite-horizon sweep is nowhere near the
    # limit: the first horizon lies one time unit beyond T_eval
    steps = max(int(math.ceil(1.0 / dt)), 1)
    cap_steps = int(round((spec.grid.t_max - T_eval) / dt))
    if steps >= cap_steps:
        raise ConfigError(f"stabilizing limit at {T_eval:g} needs a first "
                          f"horizon {T_eval + steps * dt:g} strictly below "
                          f"the horizon cap {spec.grid.t_max:g}")

    horizons, gaps, prev = [], [], None
    while True:
        horizons.append(T_eval + steps * dt)
        # only P(T_eval) outlives the horizon
        p = _sweep(spec, alpha, T_eval, horizons[-1], dt).P[0].copy()
        if prev is not None:
            gaps.append(float(np.linalg.norm(p - prev, axis=(-2, -1))))
            if gaps[-1] < _gap_tol(tol, p):
                break
            if steps >= cap_steps:
                raise NoConvergence(
                    f"stabilizing limit gap {gaps[-1]} not below "
                    f"{_gap_tol(tol, p)} at horizon cap {horizons[-1]}",
                    certificate=ConvergenceCertificate(
                        tuple(horizons), tuple(gaps), tol, False))
        prev = p
        steps = min(cap_steps, 2 * steps)

    return replace(_sweep(spec, alpha, t, T_eval, dt, p_end=p),
                   certificate=ConvergenceCertificate(
                       tuple(horizons), tuple(gaps), tol, True))


def solve_are_constant(A: np.ndarray, B: np.ndarray, R: np.ndarray,
                       Q: np.ndarray) -> np.ndarray:
    """Stabilizing root of A^T P + P A - P B R^{-1} B^T P + Q = 0.

    Newton-Kleinman iteration from a stabilizing initial gain (zero when A is
    already Hurwitz, otherwise a Bass-type gain from a shifted Lyapunov
    solve).  Each iterate solves one Lyapunov equation; convergence is
    quadratic; it stops once a step moves P by at most 1e-9 relative to
    max(1, |P|), or after 60 iterates.  Raises NotStabilizable when no
    stabilizing gain exists or the residual does not drop below 1e-8.
    """
    import scipy.linalg     # slow import: only the algebraic cross-check
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    R = np.asarray(R, dtype=float)
    Q = np.asarray(Q, dtype=float)
    n = A.shape[0]
    r_inv = np.linalg.inv(R)
    tol = 1e-9

    def abscissa(m):
        return float(np.max(np.linalg.eigvals(m).real))

    if abscissa(A) < 0.0:
        gain = np.zeros((B.shape[1], n))
    else:
        beta = float(np.linalg.norm(A, "fro")) + 1.0
        try:
            z = scipy.linalg.solve_continuous_lyapunov(
                -(A + beta * np.eye(n)), -2.0 * B @ B.T)
            gain = B.T @ np.linalg.inv(z)
        except np.linalg.LinAlgError as exc:
            raise NotStabilizable("Bass initialization failed") from exc
        if abscissa(A - B @ gain) >= 0.0:
            raise NotStabilizable("no stabilizing initial gain found")

    p = np.zeros((n, n))
    for _ in range(60):
        a_cl = A - B @ gain
        if abscissa(a_cl) >= 0.0:
            raise NotStabilizable("closed loop lost stability during iteration")
        p_new = scipy.linalg.solve_continuous_lyapunov(
            a_cl.T, -(Q + gain.T @ R @ gain))
        p_new = sym(p_new)
        gain = r_inv @ B.T @ p_new
        if np.linalg.norm(p_new - p, "fro") <= tol * max(1.0, np.linalg.norm(p_new, "fro")):
            p = p_new
            break
        p = p_new

    residual = A.T @ p + p @ A - p @ B @ r_inv @ B.T @ p + Q
    if np.linalg.norm(residual, "fro") >= tol * 10.0:
        raise NotStabilizable(
            f"Riccati residual {np.linalg.norm(residual, 'fro'):.3e} not below tolerance")
    if abscissa(A - B @ r_inv @ B.T @ p) >= 0.0:
        raise NotStabilizable("candidate solution is not stabilizing")
    return p


@dataclass(frozen=True)
class MonotoneReport:
    ok: bool
    lambda_min: float

    @classmethod
    def between(cls, short: RiccatiSolution, long: RiccatiSolution,
                s_probe: float) -> "MonotoneReport":
        """Smallest eigenvalue of P_long(s) - P_short(s) at the probe time:
        ok when it stays above -1e-9."""
        diff = sym(long.at(s_probe) - short.at(s_probe))
        lam = float(np.linalg.eigvalsh(diff)[0])
        return cls(ok=lam >= -1e-9, lambda_min=lam)


def check_monotone_in_T(spec: ProblemSpec, alpha: AlphaPolicy, t: float,
                        s_probe: float, T1: float, T2: float) -> MonotoneReport:
    """Smallest eigenvalue of P_{T2}(s) - P_{T1}(s) at the probe time.

    Growing the horizon must not shrink the solution: the report is ok when
    the eigenvalue stays above -1e-9.
    """
    if T2 < T1:
        raise ValueError("T2 must be >= T1")
    return MonotoneReport.between(solve_finite_horizon(spec, alpha, t, T1),
                                  solve_finite_horizon(spec, alpha, t, T2),
                                  s_probe)
