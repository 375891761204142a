"""Riccati sweeps and stabilizing solutions.

The finite-horizon terminal-value problem

    -P'(s) = A(s)^T P + P A(s) - P B(s) R^{-1} B(s)^T P + Q^alpha(s),
     P(T)  = 0,     Q^alpha(s) = (K(s)/2 + a(alpha(s))) I,

is integrated backward by the package's one RK4 loop (``numerics._rk4``,
step -h, symmetrizing after every step) on the stage grid of
``numerics.stage_times``, read in descending order; its right-hand side
reads the stage data by stage index.  A lane that escapes runs on as inf/NaN
and is found by one scan of the stored nodes afterwards.
The stabilizing (minimal) infinite-horizon solution is obtained
constructively as the limit of finite-horizon sweeps over geometrically
growing horizons, compared on the evaluation window until the gap drops
below tolerance (relative to |P| once |P| exceeds 1).  A Newton-Kleinman
algebraic solve provides an independent cross-check for constant
coefficients.

A sweep integrates several weight policies at once, as lanes of stacked
(lanes, n, n) states sharing A and S = B R^{-1} B^T; stacked matmul works
per matrix, so each lane is bit for bit a sweep of its own.  The game's
constant policies share every sweep: horizons do not depend on the policy.

Sweeps resume from the longest tail they share with the previous sweep of
the same length and lane count.  Starting from P(T) = 0, the state after k
backward steps depends only on the step h and on the stage data (A, S, q at
the 2k + 1 stages) of those k steps.  A small memo, keyed by the state
dimension, the step count, h and the lane count, keeps the stage data and
states of the last successful sweeps; a new sweep copies the states over
the longest descending prefix of stages whose data match bit for bit and
integrates only the rest.  The comparison is on bit patterns, so the result
is the one a fresh sweep would give, whatever problem or policy produced the
entry.  The coupled game profits: its weight policies differ only on the
simulation window, and every Picard pass re-sweeps the same policy-free
tail.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, NoConvergence, NonFiniteState,
                     NotStabilizable, OutOfGrid, SafeLQError)
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

    ``kind`` is "finite_horizon" (P vanishes at the terminal node) or
    "stabilizing" (converged limit restricted to the evaluation window, with
    a certificate).  ``dP`` stores the exact time derivative at each node so
    dense output is cubic Hermite.
    """

    nodes: np.ndarray
    P: np.ndarray
    dP: np.ndarray
    kind: str
    alpha: AlphaPolicy
    horizon: float | None = None
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

    def node_index(self, s: float, tol: float = 1e-9) -> int:
        """Index of the grid node nearest to s."""
        if len(self.nodes) == 1:
            if abs(s - self.nodes[0]) > tol:
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


def _riccati_rhs(p, a, s, q, eye):
    # backward equation: P' = -(A^T P + P A - P S P + q I), per lane of p
    return -(a.T @ p + p @ a - p @ s @ p + q[:, None, None] * eye)


# (n, steps, h, lanes) -> (stage data, descending P, descending dP) of the
# latest successful sweep with that key; insertion order is recency order
_SWEEP_MEMO_CAP = 4
_sweep_memo: dict[tuple, tuple] = {}
_sweep_memo_lock = threading.Lock()


def _bits(arr: np.ndarray) -> np.ndarray:
    # one row of raw 64-bit patterns per time: -0.0 differs from +0.0 and a
    # NaN equals only the same NaN
    return np.ascontiguousarray(arr).reshape(len(arr), -1).view(np.uint64)


def _shared_steps(stage, old_stage) -> int:
    """Backward steps whose states two sweeps share: the largest k such that
    stage data 0..2k (descending) match bit for bit."""
    same = np.ones(len(stage[0]), dtype=bool)
    for new, old in zip(stage, old_stage):
        same &= np.all(_bits(new) == _bits(old), axis=1)
    lead = len(same) if same.all() else int(np.argmin(same))
    return max(lead - 1, 0) // 2


def _sweep(spec: ProblemSpec, alphas, t: float, T: float, dt: float):
    """Backward RK4 sweeps from P(T) = 0, one lane per policy: descending
    node times, P and dP (nodes, lanes, n, n), and per lane None or the
    NonFiniteState the lane ended in."""
    n = spec.dim_state
    eye = np.eye(n)
    if T < t:
        raise ValueError("terminal time must not precede the start time")
    # anchored at t, so sweeps with different horizons evaluate the (possibly
    # discontinuous) coefficients at bit-identical times
    times = stage_times(t, T, dt)[::-1]                 # descending
    node_times = times[::2]
    steps = len(node_times) - 1
    h = (T - t) / steps if steps else 0.0
    stage = _stage_data(spec, alphas, times)

    key = (n, steps, h, len(alphas))
    with _sweep_memo_lock:
        entry = _sweep_memo.get(key)
    p_desc = np.empty((steps + 1, len(alphas), n, n))
    dp_desc = np.empty_like(p_desc)
    start = 0
    p_desc[0] = 0.0
    if entry is not None:
        # reused states passed the finiteness check when first computed
        start = _shared_steps(stage, entry[0])
        p_desc[: start + 1] = entry[1][: start + 1]
        dp_desc[:start] = entry[2][:start]

    a, s, q = stage
    # an escaped lane runs on as inf/NaN: reported below, not warned
    _rk4(lambda j, p: _riccati_rhs(p, a[j], s[j], q[j], eye),
         p_desc, dp_desc, -h, start=start, postprocess=sym)

    # no step turns a non-finite entry finite again: the last state shows
    # which lanes escaped, the first non-finite one where
    finite = np.isfinite(p_desc).all(axis=(2, 3))
    errors = [None if finite[-1, lane] else NonFiniteState(
        f"Riccati sweep escaped at s={node_times[k]}", time=float(node_times[k]))
        for lane, k in enumerate(np.argmin(finite, axis=0))]
    if finite[-1].all():
        with _sweep_memo_lock:
            _sweep_memo.pop(key, None)
            _sweep_memo[key] = (stage, p_desc, dp_desc)
            while len(_sweep_memo) > _SWEEP_MEMO_CAP:
                del _sweep_memo[next(iter(_sweep_memo))]
    return node_times, p_desc, dp_desc, errors


def solve_finite_horizon(spec: ProblemSpec, alpha: AlphaPolicy, t: float,
                         T: float, dt: float | None = None) -> RiccatiSolution:
    """Finite-horizon sweep with zero terminal condition on [t, T]."""
    dt = spec.grid.dt if dt is None else dt
    nodes, p, dp, (error,) = _sweep(spec, [alpha], t, T, dt)
    if error is not None:
        raise error
    return RiccatiSolution(nodes=nodes[::-1].copy(), P=p[::-1, 0].copy(),
                           dP=dp[::-1, 0].copy(), kind="finite_horizon",
                           alpha=alpha, horizon=T)


def solve_stabilizing(spec: ProblemSpec, alpha: AlphaPolicy, t: float,
                      T_eval: float, tol: float = 1e-8,
                      dt: float | None = None) -> RiccatiSolution:
    """Stabilizing solution as the limit of growing finite horizons.

    Horizons double until consecutive sweeps agree on [t, T_eval] to within
    ``tol`` times max(1, largest |P| on the window) (Frobenius norm per
    node); the converged sweep restricted to the window is returned together
    with the certificate.  Raises NoConvergence when the horizon cap
    ``grid.t_max`` is reached first, NonFiniteState when a sweep escapes,
    and ConfigError when the window leaves no room below the cap for the two
    horizons a gap needs.
    """
    (result,) = _stabilizing_lanes(spec, [alpha], t, T_eval, tol, dt)
    if isinstance(result, SafeLQError):
        raise result
    return result


def _gap_tol(tol: float, p_win: np.ndarray) -> float:
    # relative above |P| = 1: the sweeps' rounding floor grows with |P|, so
    # an absolute test never passes for a large root
    return tol * max(1.0, float(np.max(np.linalg.norm(p_win, axis=(1, 2)))))


def _stabilizing_lanes(spec: ProblemSpec, alphas, t: float, T_eval: float,
                       tol: float = 1e-8, dt: float | None = None
                       ) -> list[RiccatiSolution | SafeLQError]:
    """:func:`solve_stabilizing` for several policies, all lanes of one
    sweep per horizon; per lane a solution or the error that ended it."""
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    dt = spec.grid.dt if dt is None else dt
    if T_eval < t:
        raise ValueError("T_eval must be >= t")

    m_eval = int(round((T_eval - t) / dt))
    # first horizon strictly beyond the window: near its own terminal node a
    # finite-horizon sweep is nowhere near the limit
    steps = m_eval + max(int(math.ceil(max(1.0, T_eval - t) / dt)), 1)
    cap_steps = int(round((spec.grid.t_max - t) / dt))
    if steps >= cap_steps:
        raise ConfigError(
            f"stabilizing window [{t:g}, {T_eval:g}] needs a first horizon of "
            f"{t + steps * dt:g} strictly below the horizon cap "
            f"{spec.grid.t_max:g}")

    results: list = [None] * len(alphas)
    horizons: list[float] = []
    gaps: dict[int, list[float]] = {i: [] for i in range(len(alphas))}
    prev: dict[int, np.ndarray] = {}
    while gaps:                         # one entry per lane still sweeping
        T_k = t + steps * dt
        horizons.append(T_k)
        active = list(gaps)
        node_times, p, dp, errors = _sweep(spec, [alphas[i] for i in active],
                                           t, T_k, dt)
        # [t, T_eval] as the tail of the descending arrays
        window = slice(len(node_times) - 1 - m_eval, None)
        for lane, i in enumerate(active):
            p_win = p[window, lane][::-1].copy()
            if errors[lane] is None and i in prev:
                gaps[i].append(float(np.max(
                    np.linalg.norm(p_win - prev[i], axis=(1, 2)))))
            if errors[lane] is not None:
                results[i] = errors[lane]
            elif gaps[i] and gaps[i][-1] < _gap_tol(tol, p_win):
                results[i] = RiccatiSolution(
                    nodes=node_times[window][::-1].copy(), P=p_win,
                    dP=dp[window, lane][::-1].copy(), kind="stabilizing",
                    alpha=alphas[i], certificate=ConvergenceCertificate(
                        tuple(horizons), tuple(gaps[i]), tol, True))
            elif steps >= cap_steps:
                results[i] = NoConvergence(
                    f"stabilizing limit gap {gaps[i][-1]} not below "
                    f"{_gap_tol(tol, p_win)} at horizon cap {T_k}",
                    attempts=tuple(zip(horizons, [float("nan")] + gaps[i])))
            else:
                prev[i] = p_win
                continue
            del gaps[i]
        del p, dp           # only the window rows outlive the horizon
        steps = min(cap_steps, 2 * steps)
    return results


def solve_are_constant(A: np.ndarray, B: np.ndarray, R: np.ndarray,
                       Q: np.ndarray, tol: float = 1e-9,
                       max_iter: int = 60) -> np.ndarray:
    """Stabilizing root of A^T P + P A - P B R^{-1} B^T P + Q = 0.

    Newton-Kleinman iteration from a stabilizing initial gain (zero when A is
    already Hurwitz, otherwise a Bass-type gain from a shifted Lyapunov
    solve).  Each iterate solves one Lyapunov equation; convergence is
    quadratic.  Raises NotStabilizable when no stabilizing gain exists or the
    residual does not drop below tolerance.
    """
    import scipy.linalg     # slow import: only the algebraic cross-check
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    R = np.asarray(R, dtype=float)
    Q = np.asarray(Q, dtype=float)
    n = A.shape[0]
    r_inv = np.linalg.inv(R)

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
    for _ in range(max_iter):
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


def check_monotone_in_T(spec: ProblemSpec, alpha: AlphaPolicy, t: float,
                        s_probe: float, T1: float, T2: float) -> MonotoneReport:
    """Smallest eigenvalue of P_{T2}(s) - P_{T1}(s) at the probe time.

    Growing the horizon must not shrink the solution: the report is ok when
    the eigenvalue stays above -1e-9.
    """
    if T2 < T1:
        raise ValueError("T2 must be >= T1")
    p1 = solve_finite_horizon(spec, alpha, t, T1)
    p2 = solve_finite_horizon(spec, alpha, t, T2)
    diff = sym(p2.at(s_probe) - p1.at(s_probe))
    lam = float(np.linalg.eigvalsh(diff)[0])
    return MonotoneReport(ok=lam >= -1e-9, lambda_min=lam)
