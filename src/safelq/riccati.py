"""Riccati sweeps and stabilizing solutions.

The finite-horizon terminal-value problem

    -P'(s) = A(s)^T P + P A(s) - P B(s) R^{-1} B(s)^T P + Q^alpha(s),
     P(T)  = 0,     Q^alpha(s) = (K(s)/2 + a(alpha(s))) I,

is integrated backward by the package's one RK4 loop (``numerics._rk4``,
step -h, symmetrizing after every step) on the stage grid of
``numerics.stage_times``, read in descending order; its right-hand side
reads the stage data, A, S and q, by stage index, all built once per sweep.
One sweep integrates one policy and returns its solution on the ascending
grid, P and dP at each node, which ``RiccatiSolution.at`` interpolates as
a cubic Hermite.  A sweep that escapes runs on as inf/NaN; one scan of the
nodes afterwards raises NonFiniteState at the first non-finite one it reached.
The stabilizing (minimal) infinite-horizon solution is obtained
constructively as the limit, at the window's end T_eval, of finite-horizon
sweeps over geometrically growing horizons, compared there until the gap
drops below tolerance (relative to |P| once |P| exceeds 1); one sweep back
from that limit covers the window, as the stabilizing solution attracts the
backward flow.  For constant coefficients the algebraic root gives an
independent cross-check: read off the stable invariant subspace of the
Hamiltonian and polished by Newton-Kleinman steps, with numpy alone.

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
from .numerics import _rk4, stage_times, sym


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
    time derivative at each node so dense output, :meth:`at`, is cubic
    Hermite.
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

    def at(self, s) -> np.ndarray:
        """P(s), stacked (..., n, n) over an array of times; a time more
        than 1e-9 (1 + span) outside the nodes raises OutOfGrid."""
        s = np.asarray(s, dtype=float)
        nodes, p, dp = self.nodes, self.P, self.dP
        tol = 1e-9 * (1.0 + abs(nodes[-1] - nodes[0]))
        outside = (s < nodes[0] - tol) | (s > nodes[-1] + tol)
        if np.any(outside):
            raise OutOfGrid(f"time {s[outside].flat[0]} outside "
                            f"[{nodes[0]}, {nodes[-1]}]")
        if len(nodes) == 1:
            return sym(np.broadcast_to(p[0], s.shape + p[0].shape))
        dt = nodes[1] - nodes[0]
        i = np.clip(np.floor((s - nodes[0]) / dt).astype(int), 0,
                    len(nodes) - 2)
        theta = np.clip((s - nodes[i]) / dt, 0.0, 1.0)[..., None, None]
        t2 = theta * theta
        t3 = t2 * theta
        h00 = 2.0 * t3 - 3.0 * t2 + 1.0
        h10 = t3 - 2.0 * t2 + theta
        h01 = -2.0 * t3 + 3.0 * t2
        h11 = t3 - t2
        return sym(h00 * p[i] + (dt * h10) * dp[i] + h01 * p[i + 1]
                   + (dt * h11) * dp[i + 1])

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

    With S = B R^{-1} B^T, the n eigenvectors [X; Y] of the Hamiltonian
    [[A, -S], [-Q, -A^T]] with eigenvalues of negative real part span the
    graph of the root, P = Y X^{-1} (Laub, 1979).  Three Newton-Kleinman
    steps polish it, P += D with (A - S P)^T D + D (A - S P) = -res(P), each
    Lyapunov equation solved as its n^2 x n^2 Kronecker system.  res(P) is
    formed in long double: in double, near a large root it sits at its
    rounding floor, about eps |P|^2 |S|.  Raises NotStabilizable when that
    graph does not exist, a solve is singular, the residual is not below
    1e-8 or the root is not stabilizing.
    """
    A, B, R, Q = (np.asarray(m, dtype=float) for m in (A, B, R, Q))
    n = A.shape[0]
    eye = np.eye(n)
    try:
        s = B @ np.linalg.inv(R) @ B.T
        a_l, s_l, q_l = (m.astype(np.longdouble) for m in (A, s, Q))

        def res(p):
            p = p.astype(np.longdouble)
            return (a_l.T @ p + p @ a_l - p @ s_l @ p + q_l).astype(float)

        eigs, vecs = np.linalg.eig(np.block([[A, -s], [-Q, -A.T]]))
        graph = vecs[:, eigs.real < 0.0]
        if graph.shape[1] != n:
            raise NotStabilizable(f"Hamiltonian has {graph.shape[1]} stable "
                                  f"eigenvalues, not {n}")
        # Y X^{-1} = (X^{-T} Y^T)^T
        p = sym(np.linalg.solve(graph[:n].T, graph[n:].T).T.real)
        for _ in range(3):
            a_cl_t = (A - s @ p).T
            lyap = np.kron(a_cl_t, eye) + np.kron(eye, a_cl_t)
            p = sym(p + np.linalg.solve(lyap, -res(p).ravel()).reshape(n, n))
        residual = float(np.linalg.norm(res(p), "fro"))
        closed_loop = np.linalg.eigvals(A - s @ p)
    except np.linalg.LinAlgError as exc:
        raise NotStabilizable(f"algebraic Riccati solve failed: {exc}") from exc
    if not residual < 1e-8:                                     # NaN-proof
        raise NotStabilizable(
            f"Riccati residual {residual:.3e} not below tolerance")
    if np.max(closed_loop.real) >= 0.0:
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
