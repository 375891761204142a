"""Shared numerical kernels.

One grid rule, :func:`stage_times`, fixes the steps and stage times of
every integration in the package, and one fixed-step classical Runge-Kutta
loop, :func:`_rk4`, runs them and returns the node states and right-hand
sides it computed.  Its right-hand side reads stage data by stage index, in
the backward Riccati sweeps and in :func:`integrate_ode`, the forward
integrator of the closed and open loops; both can step a scalar state as a
Python float, and the sweeps a 2x2 state as a tuple of four.
Also here: cubic-Hermite dense output, composite Simpson weights, stacked
matrix-vector products, and symmetric eigenvalue extremes.  Everything is
deterministic: uniform grids, fixed evaluation order, no adaptivity.
Finiteness is checked once, after the loop, over the returned nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonFiniteState, OutOfGrid


def sym(m: np.ndarray) -> np.ndarray:
    """Symmetrized copy (M + M^T)/2 of a matrix or of each in a stack; a
    float is taken as a 1x1 matrix, 0.5 (m + m), and a 4-tuple as the
    entries (m00, m01, m10, m11) of a 2x2, overflow to inf included."""
    # type(), not isinstance: an array fails isinstance only after a
    # __class__ lookup that costs more than a 2x2 sym's other checks
    if type(m) is float:
        return 0.5 * (m + m)
    if type(m) is tuple:
        m00, m01, m10, m11 = m
        off = 0.5 * (m01 + m10)
        return (0.5 * (m00 + m00), off, off, 0.5 * (m11 + m11))
    return 0.5 * (m + m.swapaxes(-1, -2))


def matvec(m: np.ndarray, x) -> np.ndarray:
    """M x for stacked vectors x (..., k) and a matrix or stack M (..., n, k).

    Stacked matmul rounds each row exactly like the 1-D ``M @ x``; the row
    forms ``x @ M.T``, vecdot and einsum may not.
    """
    return np.matmul(m, np.asarray(x, dtype=float)[..., None])[..., 0]


def _hermite(theta: np.ndarray, dt: float, y0, y1, f0, f1):
    """Cubic Hermite combination at fractions ``theta`` of one interval."""
    t2 = theta * theta
    t3 = t2 * theta
    h00 = 2.0 * t3 - 3.0 * t2 + 1.0
    h10 = t3 - 2.0 * t2 + theta
    h01 = -2.0 * t3 + 3.0 * t2
    h11 = t3 - t2
    return h00 * y0 + (dt * h10) * f0 + h01 * y1 + (dt * h11) * f1


@dataclass(frozen=True, eq=False)
class SampledPath:
    """ODE solution on a uniform ascending grid with dense output.

    ``values[i]`` is the state at ``nodes[i]`` and ``derivs[i]`` the RHS
    there; dense output is cubic Hermite on each interval.  States may be
    scalars (N,), vectors (N, d) or matrices (N, n, n).
    """

    nodes: np.ndarray
    values: np.ndarray
    derivs: np.ndarray

    def at(self, s) -> np.ndarray:
        """Dense output at a time or at each of an array of times; a time
        more than 1e-9 (1 + span) outside the nodes raises OutOfGrid."""
        s = np.asarray(s, dtype=float)
        nodes = self.nodes
        tol = 1e-9 * (1.0 + abs(nodes[-1] - nodes[0]))
        outside = (s < nodes[0] - tol) | (s > nodes[-1] + tol)
        if np.any(outside):
            raise OutOfGrid(f"time {s[outside].flat[0]} outside "
                            f"[{nodes[0]}, {nodes[-1]}]")
        if len(nodes) == 1:
            return np.broadcast_to(self.values[0],
                                   s.shape + self.values[0].shape).copy()
        dt = nodes[1] - nodes[0]
        idx = np.clip(np.floor((s - nodes[0]) / dt).astype(int), 0, len(nodes) - 2)
        theta = np.clip((s - nodes[idx]) / dt, 0.0, 1.0)
        extra = (1,) * (self.values.ndim - 1)
        theta = theta.reshape(theta.shape + extra)
        return _hermite(theta, dt, self.values[idx], self.values[idx + 1],
                        self.derivs[idx], self.derivs[idx + 1])


def stage_times(t_start: float, t_end: float, dt: float) -> np.ndarray:
    """The RK4 stage times on [t_start, t_end], ascending or descending.

    The span takes n = max(1, round(|span| / dt)) steps of h = span / n, none
    when it is zero.  Stage j lies at t_start + (h/2) j, so there are 2n + 1
    stages and the even ones are the nodes: h * (2k / 2) is h * k exactly,
    where (h / 2) * 2k is not once h / 2 is subnormal.
    """
    span = t_end - t_start
    n = max(1, int(round(abs(span) / dt))) if span else 0
    h = span / n if n else 0.0
    return t_start + h * (0.5 * np.arange(2 * n + 1))


def _rk4(field: Callable[[int, np.ndarray], np.ndarray], y, steps: int,
         h: float,
         postprocess: Callable[[np.ndarray], np.ndarray] | None = None
         ) -> tuple[list, list]:
    """Fixed-step classical RK4 from ``y``: the lists of the ``steps + 1``
    node states and of the right-hand side at each.

    ``field(j, y)`` is the right-hand side at stage j of
    :func:`stage_times`: step k reads stages 2k, 2k+1, 2k+1 and 2k+2.
    ``postprocess`` is applied to the state after every step.  Overflow and
    NaN are not checked here: no step turns a non-finite entry finite again,
    so callers scan the returned nodes once afterwards.

    ``y`` is an array, a Python float, or a 2x2 state held as the tuple of
    floats (y00, y01, y10, y11), which :func:`_axpy` and :func:`_rk4_sum`
    step entry by entry with the inline forms' operations.  The step factors
    h/2, h and h/6 are 0-d float64 arrays for an array state, which numpy
    multiplies without converting a Python float on every product, and
    floats otherwise, which 0-d factors would turn into np.float64; 2 k is
    written k + k.  All give the same values as the textbook
    ``(h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)``.
    """
    # a tuple has no entrywise arithmetic; a branch costs a float state
    # less than a helper call per stage would
    pair = type(y) is tuple
    factor = np.array if isinstance(y, np.ndarray) else float
    half, full, sixth = (factor(c) for c in (0.5 * h, h, h / 6.0))
    values, derivs = [y], []
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            k1 = field(2 * k, y)
            derivs.append(k1)
            k2 = field(2 * k + 1,
                       _axpy(y, half, k1) if pair else y + half * k1)
            k3 = field(2 * k + 1,
                       _axpy(y, half, k2) if pair else y + half * k2)
            k4 = field(2 * k + 2,
                       _axpy(y, full, k3) if pair else y + full * k3)
            y = (_rk4_sum(y, sixth, k1, k2, k3, k4) if pair else
                 y + sixth * (k1 + (k2 + k2) + (k3 + k3) + k4))
            if postprocess is not None:
                y = postprocess(y)
            values.append(y)
        derivs.append(field(2 * steps, y))
    return values, derivs


def _axpy(y: tuple, c: float, k: tuple) -> tuple:
    """y + c k for the 2x2 tuple state of :func:`_rk4`, entry by entry."""
    y0, y1, y2, y3 = y
    k0, k1, k2, k3 = k
    return (y0 + c * k0, y1 + c * k1, y2 + c * k2, y3 + c * k3)


def _rk4_sum(y: tuple, c: float, k1: tuple, k2: tuple, k3: tuple,
             k4: tuple) -> tuple:
    """y + c (k1 + (k2 + k2) + (k3 + k3) + k4) for the 2x2 tuple state of
    :func:`_rk4`, entry by entry."""
    y0, y1, y2, y3 = y
    a0, a1, a2, a3 = k1
    b0, b1, b2, b3 = k2
    d0, d1, d2, d3 = k3
    e0, e1, e2, e3 = k4
    return (y0 + c * (a0 + (b0 + b0) + (d0 + d0) + e0),
            y1 + c * (a1 + (b1 + b1) + (d1 + d1) + e1),
            y2 + c * (a2 + (b2 + b2) + (d2 + d2) + e2),
            y3 + c * (a3 + (b3 + b3) + (d3 + d3) + e3))


def integrate_ode(field: Callable[[int, np.ndarray], np.ndarray],
                  t_start: float, t_end: float, y0: np.ndarray | float,
                  dt: float) -> SampledPath:
    """Classical RK4 forward over [t_start, t_end] on the grid of
    :func:`stage_times`; ``field(j, y)`` is the right-hand side at stage j.

    A Python float ``y0`` runs on floats, bit for bit a one-element array
    start, and gives values and derivs of shape (nodes,); a float field
    should use only * and +, as float ** and / raise where numpy gives inf.
    Raises NonFiniteState naming the first node whose state is not finite.
    """
    if not t_end > t_start:
        raise ValueError("t_end must exceed t_start")
    nodes = stage_times(t_start, t_end, dt)[::2].copy()
    n = len(nodes) - 1
    if type(y0) is not float:
        y0 = np.asarray(y0, dtype=float)
    values, derivs = (np.array(run) for run in
                      _rk4(field, y0, n, (t_end - t_start) / n))

    finite = np.isfinite(values.reshape(n + 1, -1)).all(axis=1)
    if not finite[-1]:
        s = float(nodes[np.argmin(finite)])
        raise NonFiniteState(f"state not finite at t={s}", time=s)
    return SampledPath(nodes=nodes, values=values, derivs=derivs)


def _simpson_weights(n_intervals: int, dt: float) -> np.ndarray:
    """Composite Simpson weights, closing odd interval counts with a 3/8 tail.

    Both pieces are exact on cubics.  A single interval falls back to the
    trapezoid rule.
    """
    n = n_intervals
    if n < 1:
        raise ValueError("need at least one interval")
    w = np.zeros(n + 1)
    if n == 1:
        w[:] = 0.5 * dt
        return w
    m = n if n % 2 == 0 else n - 3
    if m > 0:
        w13 = np.ones(m + 1)
        w13[1:m:2] = 4.0
        w13[2:m:2] = 2.0
        w[: m + 1] += w13 * (dt / 3.0)
    if m < n:
        w[m: n + 1] += np.array([1.0, 3.0, 3.0, 1.0]) * (3.0 * dt / 8.0)
    return w


def simpson_samples(y: np.ndarray, dt: float) -> float:
    """Composite Simpson integral of uniformly sampled values."""
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y)):
        raise NonFiniteState("non-finite sample in quadrature")
    if len(y) < 2:
        return 0.0
    return float(_simpson_weights(len(y) - 1, dt) @ y)


def eig_sym_extremes(m: np.ndarray) -> tuple[float, float]:
    """Extreme eigenvalues (min, max) of the symmetric part of ``m``."""
    w = np.linalg.eigvalsh(sym(np.asarray(m, dtype=float)))
    return float(w[0]), float(w[-1])
