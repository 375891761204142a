"""Shared numerical kernels.

Fixed-step classical Runge-Kutta integration for vector- and matrix-valued
states with cubic-Hermite dense output, composite Simpson quadrature,
stacked matrix-vector products, and symmetric eigenvalue extremes.
Everything is deterministic: uniform grids, fixed evaluation order, no
adaptivity.  Matrix states are re-symmetrized after every step so Riccati
sweeps cannot drift off the symmetric manifold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonFiniteState, OutOfGrid


def sym(m: np.ndarray) -> np.ndarray:
    """Symmetrized copy (M + M^T)/2 of a matrix or of each in a stack."""
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def matvec(m: np.ndarray, x) -> np.ndarray:
    """M x for stacked vectors x (..., k) and a matrix or stack M (..., n, k).

    Stacked matmul rounds each row exactly like the 1-D ``M @ x``; the row
    forms ``x @ M.T``, vecdot and einsum may not.
    """
    return np.matmul(m, np.asarray(x, dtype=float)[..., None])[..., 0]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t0 + i*dt for i = 0..n_steps."""

    t0: float
    dt: float
    n_steps: int

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.n_steps < 0:
            raise ValueError("n_steps must be nonnegative")

    @classmethod
    def from_span(cls, t0: float, t1: float, dt: float) -> "TimeGrid":
        """Grid covering [t0, t1], spacing nearest to dt that lands on t1."""
        span = t1 - t0
        if span < 0:
            raise ValueError("t1 must be >= t0")
        if span == 0.0:
            return cls(t0, dt, 0)
        n = max(1, int(round(span / dt)))
        return cls(t0, span / n, n)

    @property
    def t_end(self) -> float:
        return self.t0 + self.dt * self.n_steps

    def nodes(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_steps + 1)


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
    vectors (N, d) or matrices (N, n, n).
    """

    nodes: np.ndarray
    values: np.ndarray
    derivs: np.ndarray

    @property
    def t_start(self) -> float:
        return float(self.nodes[0])

    @property
    def t_end(self) -> float:
        return float(self.nodes[-1])

    def at(self, s) -> np.ndarray:
        """Dense output at a time or at each of an array of times."""
        s = np.asarray(s, dtype=float)
        if len(self.nodes) == 1:
            return np.broadcast_to(self.values[0], s.shape + self.values[0].shape).copy()
        nodes = self.nodes
        dt = nodes[1] - nodes[0]
        tol = 1e-9 * (1.0 + abs(nodes[-1] - nodes[0]))
        outside = (s < nodes[0] - tol) | (s > nodes[-1] + tol)
        if np.any(outside):
            raise OutOfGrid(f"time {s[outside].flat[0]} outside "
                            f"[{nodes[0]}, {nodes[-1]}]")
        idx = np.clip(np.floor((s - nodes[0]) / dt).astype(int), 0, len(nodes) - 2)
        theta = np.clip((s - nodes[idx]) / dt, 0.0, 1.0)
        extra = (1,) * (self.values.ndim - 1)
        theta = theta.reshape(theta.shape + extra)
        return _hermite(theta, dt, self.values[idx], self.values[idx + 1],
                        self.derivs[idx], self.derivs[idx + 1])


def integrate_ode(rhs: Callable[[float, np.ndarray], np.ndarray],
                  t_start: float, t_end: float, y0: np.ndarray, dt: float,
                  postprocess: Callable[[np.ndarray], np.ndarray] | None = None,
                  ) -> SampledPath:
    """Classical 4th-order Runge-Kutta with a fixed step on a uniform grid.

    Backward integration (t_end < t_start) runs with a negative step; the
    returned path is always node-ascending.  ``postprocess`` is applied to the
    state after every step (used to re-symmetrize matrix states).

    Raises NonFiniteState as soon as the state stops being finite.
    """
    span = t_end - t_start
    if span == 0.0:
        raise ValueError("t_start and t_end must differ")
    n = max(1, int(round(abs(span) / dt)))
    h = span / n

    y = np.array(y0, dtype=float)
    values = np.empty((n + 1,) + y.shape)
    derivs = np.empty_like(values)
    values[0] = y
    t = t_start
    for k in range(n):
        k1 = rhs(t, y)
        derivs[k] = k1
        k2 = rhs(t + 0.5 * h, y + (0.5 * h) * k1)
        k3 = rhs(t + 0.5 * h, y + (0.5 * h) * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if postprocess is not None:
            y = postprocess(y)
        if not np.all(np.isfinite(y)):
            raise NonFiniteState(f"state not finite at t={t + h}", time=t + h)
        t = t_start + (k + 1) * h
        values[k + 1] = y
    derivs[n] = rhs(t_end, y)

    nodes = t_start + h * np.arange(n + 1)
    if h < 0:
        nodes = nodes[::-1].copy()
        values = values[::-1].copy()
        derivs = derivs[::-1].copy()
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


def quadrature(f: Callable[[float], float], t_start: float, t_end: float,
               dt: float) -> float:
    """Composite Simpson integral of f over [t_start, t_end] on a uniform grid."""
    if t_end == t_start:
        return 0.0
    sign = 1.0
    if t_end < t_start:
        t_start, t_end = t_end, t_start
        sign = -1.0
    grid = TimeGrid.from_span(t_start, t_end, dt)
    n = max(2, grid.n_steps)
    step = (t_end - t_start) / n
    nodes = t_start + step * np.arange(n + 1)
    y = np.array([f(s) for s in nodes], dtype=float)
    return sign * simpson_samples(y, step)


def eig_sym_extremes(m: np.ndarray) -> tuple[float, float]:
    """Extreme eigenvalues (min, max) of the symmetric part of ``m``."""
    w = np.linalg.eigvalsh(sym(np.asarray(m, dtype=float)))
    return float(w[0]), float(w[-1])
