"""Riccati sweeps and stabilizing solutions.

The finite-horizon terminal-value problem

    -P'(s) = A(s)^T P + P A(s) - P B(s) R^{-1} B(s)^T P + Q^alpha(s),
     P(T)  = 0,     Q^alpha(s) = (K(s)/2 + a(alpha(s))) I,

is integrated backward by the package's one RK4 loop (``numerics._rk4``,
step -h, symmetrizing after every step) on the stage grid of
``numerics.stage_times``, read in descending order; its right-hand side
reads the stage data by stage index: A, its transpose view, S and each
lane's q I, all built once per sweep.  A lane that escapes runs on as inf/NaN
and is found by one scan of the stored nodes afterwards.
The stabilizing (minimal) infinite-horizon solution is obtained
constructively as the limit, at the window's end T_eval, of finite-horizon
sweeps over geometrically growing horizons, compared there until the gap
drops below tolerance (relative to |P| once |P| exceeds 1); one sweep back
from that limit covers the window, as the stabilizing solution attracts the
backward flow.  A Newton-Kleinman algebraic solve provides an independent
cross-check for constant coefficients.

A sweep may also start from a given terminal value (:func:`solve_from_tail`):
the game solves the policy-free tail beyond its simulation window once, by
doubling, and sweeps each policy back from it, several policies as lanes of
stacked (lanes, n, n) states sharing A and S = B R^{-1} B^T.  Stacked matmul
works per matrix, so each lane is bit for bit a sweep of its own, and the
one-policy doubling is the reference the tail's lanes are tested against.
A sweep of one lane, as in the doubling and each Picard pass, integrates the
2-D (n, n) views of its arrays with ndarray.dot instead: on such small
matrices the cost is per-call overhead, most of it matmul's dispatch, and
dot rounds like matmul, so both paths give the same bits.  A scalar state
(n = 1) skips numpy in the loop altogether: each lane runs on Python floats,
as a 1x1 product rounds once, like a float product, and its symmetric part
is 0.5 (y + y) either way.  For n >= 2 this does not hold (a 2x2 product
may fuse a multiply-add), so those states keep the dot and matmul paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def _stage_data(spec: ProblemSpec, alphas, times: np.ndarray):
    """Per-time A(s), S(s) = B R^{-1} B^T and q(s), one q column per policy."""
    a_arr = spec.A.value(times)
    b_arr = spec.B.value(times)
    s_arr = 2.0 * np.einsum("kij,klj->kil", b_arr, b_arr)
    q_arr = np.stack([spec.q_coeff(times, alpha.value(times))
                      for alpha in alphas], axis=1)
    return a_arr, s_arr, q_arr


def _sweep(spec: ProblemSpec, alphas, t: float, T: float, dt: float,
           p_end: np.ndarray | float = 0.0):
    """Backward RK4 sweeps from P(T) = p_end, one lane per policy: descending
    node times, P and dP (nodes, lanes, n, n), and per lane None or the
    NonFiniteState the lane ended in.

    For n >= 2, several lanes integrate stacked states with matmul and one
    lane integrates the 2-D views ``p[:, 0]`` with ndarray.dot, bit for bit
    the same; for n = 1 each lane integrates a Python float, bit for bit
    the 1x1 products, and is stored into ``p[:, lane, 0, 0]``.
    """
    n = spec.dim_state
    if T < t:
        raise ValueError("terminal time must not precede the start time")
    # anchored at t, so sweeps with different horizons evaluate the (possibly
    # discontinuous) coefficients at bit-identical times
    times = stage_times(t, T, dt)[::-1]                 # descending
    node_times = times[::2]
    steps = len(node_times) - 1
    h = (T - t) / steps if steps else 0.0
    a, s, q = _stage_data(spec, alphas, times)
    p_desc = np.empty((steps + 1, len(alphas), n, n))
    dp_desc = np.empty_like(p_desc)
    p_desc[0] = p_end

    # backward equation: P' = -(A^T P + P A - P S P + q I), per lane of p;
    # the negation stays outermost, as it fixes the sign of a zero; an
    # escaped lane runs on as inf/NaN: reported below, not warned
    if n == 1:
        # a 1x1 product rounds once, as a float product does: each lane
        # runs alone on Python floats, read from per-stage lists; one lane's
        # q list at a time keeps the peak memory flat in the lanes
        a_f, s_f = a[:, 0, 0].tolist(), s[:, 0, 0].tolist()
        for lane, p0 in enumerate(p_desc[0, :, 0, 0].tolist()):
            q_f = q[:, lane].tolist()

            def rhs(j, p, q_f=q_f):
                return -(a_f[j] * p + p * a_f[j] - p * s_f[j] * p + q_f[j])

            p_run, dp_run = [p0] * (steps + 1), [0.0] * (steps + 1)
            _rk4(rhs, p_run, dp_run, -h, postprocess=sym)
            p_desc[:, lane, 0, 0], dp_desc[:, lane, 0, 0] = p_run, dp_run
    else:
        # per stage: the A^T view and the (lanes, n, n) stack q I, built once
        a_t = a.swapaxes(-1, -2)
        qi = q[:, :, None, None] * np.eye(n)
        if len(alphas) == 1:
            # ndarray.dot rounds like matmul and skips its gufunc dispatch
            p_run, dp_run, qi = p_desc[:, 0], dp_desc[:, 0], qi[:, 0]

            def rhs(j, p):
                return -(a_t[j].dot(p) + p.dot(a[j]) - p.dot(s[j]).dot(p)
                         + qi[j])
        else:
            p_run, dp_run = p_desc, dp_desc

            def rhs(j, p):
                return -(a_t[j] @ p + p @ a[j] - p @ s[j] @ p + qi[j])

        _rk4(rhs, p_run, dp_run, -h, postprocess=sym)

    # no step turns a non-finite entry finite again: the last state shows
    # which lanes escaped, the first non-finite one where
    finite = np.isfinite(p_desc).all(axis=(2, 3))
    errors = [None if finite[-1, lane] else NonFiniteState(
        f"Riccati sweep escaped at s={node_times[k]}", time=float(node_times[k]))
        for lane, k in enumerate(np.argmin(finite, axis=0))]
    return node_times, p_desc, dp_desc, errors


def _ascending(node_times, p, dp, lane: int,
               certificate=None) -> RiccatiSolution:
    """One lane of descending :func:`_sweep` arrays, on the ascending grid."""
    return RiccatiSolution(nodes=node_times[::-1].copy(),
                           P=p[::-1, lane].copy(), dP=dp[::-1, lane].copy(),
                           certificate=certificate)


def solve_finite_horizon(spec: ProblemSpec, alpha: AlphaPolicy, t: float,
                         T: float, dt: float | None = None) -> RiccatiSolution:
    """Finite-horizon sweep with zero terminal condition on [t, T]."""
    dt = spec.grid.dt if dt is None else dt
    nodes, p, dp, (error,) = _sweep(spec, [alpha], t, T, dt)
    if error is not None:
        raise error
    return _ascending(nodes, p, dp, 0)


# lanes per sweep back from a tail: the game's 11 default constant policies
# fit one sweep, and a step of 12 lanes costs little more than a step of one,
# as per-call overhead dominates on small matrices; a sweep's (nodes, lanes,
# n, n) arrays are freed before the next chunk's sweep starts, so the peak
# memory does not grow with the number of policies
_TAIL_LANES = 12


def _sweep_from_tail(spec: ProblemSpec, alphas, t: float,
                     tail: RiccatiSolution):
    """Per policy, in order, :func:`solve_from_tail`'s solution or the
    NonFiniteState its lane ended in; each is copied out of the sweep when
    asked for."""
    for lo in range(0, len(alphas), _TAIL_LANES):
        chunk = alphas[lo:lo + _TAIL_LANES]
        node_times, p, dp, errors = _sweep(spec, chunk, t, tail.t_start,
                                           spec.grid.dt, p_end=tail.P[0])
        for lane, error in enumerate(errors):
            yield error or _ascending(node_times, p, dp, lane,
                                      tail.certificate)
        del p, dp


def solve_from_tail(spec: ProblemSpec, alpha: AlphaPolicy, t: float,
                    tail: RiccatiSolution) -> RiccatiSolution:
    """Stabilizing solution on [t, tail.t_start] for a policy that agrees
    with the tail's from tail.t_start on: one sweep back from the tail's
    P(tail.t_start), carrying the tail's certificate."""
    (result,) = _sweep_from_tail(spec, [alpha], t, tail)
    if isinstance(result, NonFiniteState):
        raise result
    return result


def _gap_tol(tol: float, p: np.ndarray) -> float:
    # relative above |P| = 1: the sweeps' rounding floor grows with |P|, so
    # an absolute test never passes for a large root
    return tol * max(1.0, float(np.max(np.linalg.norm(p, axis=(1, 2)))))


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
    if tol <= 0.0:
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
        node_times, p, dp, (error,) = _sweep(spec, [alpha], T_eval,
                                             horizons[-1], dt)
        if error is not None:
            raise error
        if prev is not None:
            gaps.append(float(np.linalg.norm(p[-1] - prev, axis=(1, 2)).max()))
            if gaps[-1] < _gap_tol(tol, p[-1]):
                break
            if steps >= cap_steps:
                raise NoConvergence(
                    f"stabilizing limit gap {gaps[-1]} not below "
                    f"{_gap_tol(tol, p[-1])} at horizon cap {horizons[-1]}",
                    certificate=ConvergenceCertificate(
                        tuple(horizons), tuple(gaps), tol, False))
        prev = p[-1].copy()
        del p, dp           # only P(T_eval) outlives the horizon
        steps = min(cap_steps, 2 * steps)

    node_times, p, dp, (error,) = _sweep(spec, [alpha], t, T_eval, dt,
                                         p_end=p[-1, 0])
    if error is not None:
        raise error
    return _ascending(node_times, p, dp, 0, ConvergenceCertificate(
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
