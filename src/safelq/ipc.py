"""Inward-pointing condition (IPC) verifiers.

Three layers of viability checking over sampled boundary points:

* base controllability check: some bounded control makes the velocity point
  strictly into the tangent cone;
* closed-loop check for a Riccati solution: membership of Gamma(s) h(x) in
  grad_h(x)^{-T} (int T_Omega(x)), tested equivalently as the interior-tangent
  margin of grad_h(x)^T Gamma(s) h(x) (applying grad_h^T to both sides keeps
  the test exact and well conditioned);
* a geometric sufficient condition with constants (rho, theta) and the derived
  threshold gamma_bar: any constant A whose symmetric part is -gamma-definite
  with gamma > gamma_bar certifies the closed-loop check in advance.

Quantifiers over the boundary are discretized; every report carries the
worst-case witness so a user can refine locally.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .geometry import ConeQuery, sample_boundary
from .model import AlphaPolicy, ProblemSpec, eval_dynamics
from .numerics import eig_sym_extremes, matvec
from .riccati import RiccatiSolution
from .synthesis import gamma_matrices


def _control_grid(m: int) -> np.ndarray:
    """The controls |u_i| <= 4 the base check tries: 41 values per axis for
    one control, 9 per axis for more."""
    axes = [np.linspace(-4.0, 4.0, 41 if m == 1 else 9)] * m
    return np.array(list(itertools.product(*axes)))


def check_base_ipc(spec: ProblemSpec, s: float, points: np.ndarray):
    """Best interior-tangent margin of f(s, x, u) over the control grid of
    :func:`_control_grid`, one per boundary point of the stack ``points``
    (..., n).

    Positive means some admissible velocity points strictly inward at that
    point; nonpositive is a valid negative answer.
    """
    x = np.asarray(points, dtype=float)
    omega = spec.omega
    # not (|margin| <= tol), so that a NaN point fails too
    if not np.all(np.abs(omega.boundary_margin(x))
                  <= 1e-6 * (1.0 + omega.bounding_radius())):
        raise ValueError("base IPC must be queried on the boundary")
    controls = _control_grid(spec.dim_control)
    # velocities[control, ..., point]: every control at every point
    velocities = eval_dynamics(
        spec, s, x, np.expand_dims(controls, tuple(range(1, x.ndim))))
    return np.max(omega.cone_query(x).margin(velocities), axis=0)[()]


@dataclass(frozen=True, eq=False)
class IPCReport:
    """Worst interior-tangent margin over (time, boundary) samples."""

    worst_margin: float
    witness_s: float
    witness_x: np.ndarray
    n_samples: int

    @property
    def holds(self) -> bool:
        return self.worst_margin > 0.0

    def to_dict(self) -> dict:
        return {"worst_margin": self.worst_margin,
                "witness_s": self.witness_s,
                "witness_x": [float(v) for v in self.witness_x],
                "n_samples": self.n_samples}


def check_ipc_riccati(spec: ProblemSpec, P: RiccatiSolution,
                      time_samples: np.ndarray,
                      boundary_samples: ConeQuery) -> IPCReport:
    """Closed-loop inward-pointing margins for the feedback Gamma(s).

    For each sample, the tested vector is v = grad_h(x)^T Gamma(s) h(x); its
    interior-tangent margin is positive exactly when Gamma(s) h(x) lies in
    grad_h(x)^{-T}(int T_Omega(x)).
    """
    time_samples = np.asarray(time_samples, dtype=float)
    gammas = gamma_matrices(spec, P, time_samples)
    x = boundary_samples.points
    # margins[time, point]
    margins = boundary_samples.margin(spec.h.apply_jacobian_t(
        x, matvec(gammas[:, None], spec.h.forward(x))))
    # the first worst sample in time-major order
    k_s, k_x = np.unravel_index(np.argmin(margins), margins.shape)
    return IPCReport(worst_margin=float(margins[k_s, k_x]),
                     witness_s=float(time_samples[k_s]), witness_x=x[k_x],
                     n_samples=margins.size)


@dataclass(frozen=True)
class GeometricReport:
    """Outcome of the geometric inclusion test with proof constants.

    ``raw_holds`` is the inclusion h(x) - delta grad_h^{-T} n in
    delta grad_h^{-T}(int B) at every sample; (rho, theta) are computed on the
    rescaled map sqrt(delta) h.  ``consistent`` flags agreement between the
    raw inclusion and rho > 0 (they can disagree away from delta = 1; both are
    reported rather than reconciled).
    """

    holds: bool
    rho: float
    theta: float
    raw_holds: bool
    raw_worst_slack: float
    delta: float
    n_samples: int

    @property
    def consistent(self) -> bool:
        return self.raw_holds == (self.rho > 0.0)


def geometric_condition(spec: ProblemSpec, delta: float,
                        density: int = 64) -> GeometricReport:
    """Test h(x) - delta grad_h^{-T}(N^1(x)) in delta grad_h^{-T}(int B).

    Applying grad_h(x)^T turns the membership into |grad_h^T h(x) - delta n|
    < delta.  The constants of the sufficient-condition proof are evaluated
    on the rescaled map sqrt(delta) h:

        q(x, n)  = |w| |h~(x) - w| - |w|^2,   w = grad_h~(x)^{-T} n,
        rho      = -max q   (positive means the rescaled inclusion is strict),
        theta    =  max |w| |h~(x) - w|.
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    samples = sample_boundary(spec.omega, density)
    # [point, generator]; a padded generator repeats its point's first one
    x = samples.points[:, None, :]
    hx = spec.h.forward(x)
    d = spec.h.apply_jacobian_t(x, hx) - delta * samples.normals
    raw_worst = np.min(delta - np.sqrt(np.vecdot(d, d)))
    w = spec.h.apply_jacobian_inv_t(x, samples.normals) / np.sqrt(delta)
    w_norm = np.sqrt(np.vecdot(w, w))
    gap = np.sqrt(delta) * hx - w
    product = w_norm * np.sqrt(np.vecdot(gap, gap))
    rho = -np.max(product - w_norm**2)
    raw_holds = raw_worst > 0.0
    return GeometricReport(holds=bool(raw_holds and rho > 0.0), rho=float(rho),
                           theta=float(np.max(product)),
                           raw_holds=bool(raw_holds),
                           raw_worst_slack=float(raw_worst), delta=delta,
                           n_samples=len(samples.points))


def gamma_bar(spec: ProblemSpec, alpha: AlphaPolicy, rho: float,
              theta: float) -> float:
    """Contraction-rate threshold theta |B|_inf^2 int_0^inf q(s, alpha) ds / rho.

    The integrand q = K/2 + a(alpha) integrates in closed form per catalog
    variant.
    """
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    weight_part = 0.5 * spec.K.integral(0.0, None)
    alpha_part = alpha.piecewise_integral(spec.a, 0.0, None)
    return float(theta * spec.b_norm_bound() ** 2 * (weight_part + alpha_part)
                 / rho)


def check_negative_definite(a_matrix: np.ndarray, gamma: float) -> bool:
    """True when <A x, x> <= -gamma |x|^2 for all x (symmetric part test)."""
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    _, lam_max = eig_sym_extremes(np.asarray(a_matrix, dtype=float))
    return bool(lam_max <= -gamma)


@dataclass(frozen=True)
class GeometricCertificate:
    """End-to-end record of the sufficient-condition chain."""

    geometric: GeometricReport
    gamma_bar: float | None
    gamma_a: float
    certified: bool


def geometric_certificate(spec: ProblemSpec, alpha: AlphaPolicy, delta: float,
                          density: int = 64) -> GeometricCertificate:
    """Certify the closed-loop IPC in advance, when the chain applies.

    certified = geometric condition holds, A is constant, and the largest
    gamma with A gamma-negative-definite exceeds gamma_bar.  A certificate of
    False is not a refutation; it only means the sufficient condition does
    not apply.
    """
    geom = geometric_condition(spec, delta, density=density)
    _, lam_max = eig_sym_extremes(spec.A.value(0.0))
    gamma_a = -lam_max
    gbar = None
    certified = False
    if geom.holds and spec.A.is_constant():
        gbar = gamma_bar(spec, alpha, geom.rho, geom.theta)
        certified = gamma_a > gbar
    return GeometricCertificate(geometric=geom, gamma_bar=gbar,
                                gamma_a=float(gamma_a), certified=certified)
