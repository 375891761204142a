"""Problem definition.

A problem couples structured dynamics

    xi'(s) = grad_h(xi)^{-1} A(s) h(xi) + grad_h(xi)^{-1} B(s) u

with a marginal-function running cost

    L(s, x, u) = sup_{alpha >= 0} l(s, x, u, alpha),
    l(s, x, u, alpha) = (K(s)/2 + a(alpha)) |h(x)|^2 + |u|^2 / 2 - b(alpha),

a compact constraint set Omega, and a time grid.  The control weight is fixed
to R = I/2, and b must grow strictly faster than a (q > p) so the supremum is
finite with argmax ((p c g)/(q d))^{1/(q-p)} at g = |h(x)|^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import catalog, geometry
from .errors import (ConfigError, DimensionMismatch, GrowthViolation,
                     IntegrabilityMismatch, NegativeAlpha, NonconformingWeight,
                     UnboundedSup)
from .numerics import matvec


@dataclass(frozen=True)
class TimeGridSpec:
    """Default grid parameters: start time, step, and maximum horizon."""

    t0: float
    dt: float
    t_max: float

    def __post_init__(self):
        if not 0.0 < self.dt < np.inf:                          # NaN-proof
            raise ConfigError("grid.dt must be finite and positive")
        if not -np.inf < self.t0 < self.t_max < np.inf:         # NaN-proof
            raise ConfigError("grid.t0 and grid.t_max must be finite, with "
                              "grid.t_max above grid.t0")


@dataclass(frozen=True, eq=False)
class AlphaPolicy:
    """Adversarial weight policy sampled on a time grid.

    Piecewise constant: alpha(s) = values[i] on [nodes[i], nodes[i+1]); after
    the last node the policy is zero, which keeps b(alpha(.)) integrable on
    the infinite horizon.  Queries before the first node clamp to values[0].
    A time within rounding of a node (16 ulps of the largest node, at most a
    quarter of the smallest gap) reads that node's value, from either side: a
    step grid that does not divide the window puts its node times an ulp off
    the policy's nodes.
    """

    nodes: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)
        if nodes.ndim != 1 or nodes.shape != values.shape:
            raise ValueError("alpha policy nodes/values mismatch")
        if len(nodes) < 1:
            raise ValueError("alpha policy needs at least one node")
        gaps = np.diff(nodes)
        if not np.all(gaps > 0.0):     # NaN-proof
            raise ValueError("alpha policy grid must be strictly increasing")
        snap = 16.0 * np.spacing(np.max(np.abs(nodes)))
        object.__setattr__(self, "_snap", float(
            min(snap, 0.25 * np.min(gaps)) if len(gaps) else snap))
        if not np.all(values >= 0.0):                           # NaN-proof
            raise NegativeAlpha("alpha policy values must be nonnegative")

    @classmethod
    def constant(cls, value: float, t0: float, t1: float) -> "AlphaPolicy":
        """value on [t0, t1], zero afterwards."""
        return cls(np.array([t0, t1]), np.array([value, value]))

    @classmethod
    def zero(cls, t0: float, t1: float) -> "AlphaPolicy":
        return cls.constant(0.0, t0, t1)

    def value(self, s):
        """alpha(s); an array of times gives an array of weights."""
        s = np.asarray(s, dtype=float)
        idx = np.clip(np.searchsorted(self.nodes, s + self._snap, side="right")
                      - 1, 0, len(self.nodes) - 1)
        return np.where(s > self.nodes[-1] + self._snap, 0.0,
                        self.values[idx])[()]

    def piecewise_integral(self, fn: Callable[[float], float], t_from: float,
                           t_to: float | None = None) -> float:
        """Exact integral of fn(alpha(s)) over [t_from, t_to] (None -> inf),
        for an fn with fn(0) = 0, as past the last node alpha is 0."""
        nodes, values = self.nodes, self.values
        total = 0.0
        # region before the grid clamps to values[0]
        if t_from < nodes[0]:
            hi = nodes[0] if t_to is None else min(t_to, nodes[0])
            total += float(fn(values[0])) * max(0.0, hi - t_from)
        for i in range(len(nodes) - 1):
            lo = max(t_from, nodes[i])
            hi = nodes[i + 1] if t_to is None else min(t_to, nodes[i + 1])
            if hi > lo:
                total += float(fn(values[i])) * (hi - lo)
        return total


def _sup_alpha_gain(a: catalog.PowerLaw, b: catalog.PowerLaw, g):
    """(argmax, max) of a(alpha)*g - b(alpha) over alpha >= 0, per entry of g.

    Power catalog closed form; ties broken by the smallest maximizer
    (alpha = 0 whenever the gain there is zero).
    """
    if b.exponent <= a.exponent:
        raise UnboundedSup("b must grow strictly faster than a")
    g = np.asarray(g, dtype=float)
    if a.coeff == 0.0:
        return np.zeros_like(g)[()], np.zeros_like(g)[()]
    positive = g > 0.0
    if b.coeff <= 0.0 and np.any(positive):
        raise UnboundedSup("b must be strictly increasing for alpha > 0")
    p, q = a.exponent, b.exponent
    g = np.where(positive, g, 0.0)
    # np.power, not **: on numpy scalars ** rounds like Python's float pow
    alpha_star = np.power(p * a.coeff * g / (q * b.coeff), 1.0 / (q - p))
    gain = (a.coeff * g * np.power(alpha_star, p)
            - b.coeff * np.power(alpha_star, q))
    return alpha_star[()], gain[()]


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """Validated problem data; immutable and safe to share across threads."""

    dim_state: int
    dim_control: int
    A: catalog.TimeMatrix
    B: catalog.TimeMatrix
    K: catalog.StateWeight
    a: catalog.PowerLaw
    b: catalog.PowerLaw
    h: catalog.DiffeoMap
    omega: geometry.ConstraintSet
    grid: TimeGridSpec
    R: np.ndarray = field(init=False)
    Rinv: np.ndarray = field(init=False)

    def __post_init__(self):
        m = self.dim_control
        object.__setattr__(self, "R", 0.5 * np.eye(m))
        object.__setattr__(self, "Rinv", 2.0 * np.eye(m))

    def q_coeff(self, s, alpha):
        """Scalar multiplier of the identity in Q(s, alpha), per time."""
        return 0.5 * self.K.value(s) + self.a(alpha)

    def b_norm_bound(self) -> float:
        """Declared sup-norm bound of B (falls back to the derived one)."""
        return self.B.bound if self.B.bound is not None else self.B.norm_bound()


def eval_dynamics(spec: ProblemSpec, s: float, x: np.ndarray, u: np.ndarray
                  ) -> np.ndarray:
    """State derivative grad_h(x)^{-1} (A(s) h(x) + B(s) u), for stacked
    states (..., n) and controls (..., m) that broadcast."""
    rhs = (matvec(spec.A.value(s), spec.h.forward(x))
           + matvec(spec.B.value(s), u))
    return spec.h.apply_jacobian_inv(x, rhs)


def eval_lagrangian(spec: ProblemSpec, s, x: np.ndarray, u: np.ndarray,
                    alpha):
    """(K(s)/2 + a(alpha)) |h(x)|^2 + |u|^2/2 - b(alpha), per stacked row."""
    if not np.all(np.asarray(alpha) >= 0.0):                    # NaN-proof
        raise NegativeAlpha("alpha must be nonnegative")
    hx = spec.h.forward(x)
    u = np.asarray(u, dtype=float)
    return (spec.q_coeff(s, alpha) * np.vecdot(hx, hx)
            + 0.5 * np.vecdot(u, u) - spec.b(alpha))[()]


def _validate_r(entry: dict, m: int) -> None:
    if entry is None:
        return
    variant = entry.get("variant")
    if variant == "half_identity":
        return
    if variant is not None:
        raise NonconformingWeight(
            f"control weight must be I/2, got variant {variant!r}")
    value = entry.get("value")
    if value is None:
        raise NonconformingWeight("control weight entry carries no data")
    r = np.asarray(value, dtype=float)
    if r.shape != (m, m) or not np.allclose(r, 0.5 * np.eye(m), atol=1e-12):
        raise NonconformingWeight("control weight must be one half identity")


def _verify_weight_tags(entry: dict, weight: catalog.StateWeight) -> None:
    tags = entry.get("tags", {})
    for key, attr in (("l1", weight.is_l1), ("l2", weight.is_l2)):
        if key in tags and bool(tags[key]) != attr:
            raise IntegrabilityMismatch(
                f"K declared {key}={tags[key]} but variant gives {attr}")
    if not weight.is_l1:
        raise IntegrabilityMismatch("state weight K must be integrable")


def _verify_diffeo(h: catalog.DiffeoMap) -> None:
    """Spot-check the map identities at deterministic sample points."""
    rng = np.random.default_rng(7)
    for _ in range(8):
        x = rng.uniform(-1.5, 1.5, size=h.dim)
        jac = h.jacobian(x)
        if np.max(np.abs(jac @ h.jacobian_inv(x) - np.eye(h.dim))) > 1e-10:
            raise ConfigError("h: jacobian inverse identity fails")
        if np.max(np.abs(h.inverse(h.forward(x)) - x)) > 1e-9:
            raise ConfigError("h: inverse round trip fails")


def _verify_b_bound(b_mat: catalog.TimeMatrix, grid: TimeGridSpec) -> None:
    if b_mat.bound is None:
        return
    samples = np.linspace(grid.t0, grid.t_max, 201)
    worst = float(np.max(np.linalg.norm(b_mat.value(samples), 2,
                                        axis=(-2, -1))))
    if b_mat.bound < worst - 1e-12:
        raise ConfigError(
            f"declared |B| bound {b_mat.bound} below observed {worst}")


def build_problem(config: dict) -> ProblemSpec:
    """Validate a parsed configuration document and build the problem.

    See ``config_schema.json`` for field names.  Raises subclasses of
    ConfigError naming the offending key.
    """
    dims = config.get("dims", {})
    try:
        n = int(dims["state"])
        m = int(dims["control"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DimensionMismatch("dims.state and dims.control required") from exc
    if n < 1 or m < 1:
        raise DimensionMismatch("dimensions must be >= 1")

    for key in ("A", "B", "K", "a", "b", "h", "omega", "grid"):
        if key not in config:
            raise ConfigError(f"missing config key {key!r}")

    a_mat = catalog.time_matrix_from_config(config["A"], (n, n), "A")
    b_mat = catalog.time_matrix_from_config(config["B"], (n, m), "B")
    k_weight = catalog.state_weight_from_config(config["K"])
    _verify_weight_tags(config["K"], k_weight)
    a_fn = catalog.power_law_from_config(config["a"], "a")
    b_fn = catalog.power_law_from_config(config["b"], "b")
    if b_fn.exponent <= a_fn.exponent:
        raise GrowthViolation(
            f"b exponent {b_fn.exponent} must exceed a exponent {a_fn.exponent}")
    if a_fn.coeff > 0.0 and b_fn.coeff <= 0.0:
        raise GrowthViolation("b must be strictly positive for alpha > 0")
    _validate_r(config.get("R"), m)
    h = catalog.diffeo_from_config(config["h"], n)
    _verify_diffeo(h)
    omega = geometry.constraint_from_config(config["omega"], n)

    grid_entry = config["grid"]
    if not isinstance(grid_entry, dict):
        raise ConfigError("grid must be an object with keys t0, dt, t_max")
    times = {}
    for key in ("t0", "dt", "t_max"):
        try:
            times[key] = float(grid_entry[key])
        except KeyError as exc:
            raise ConfigError(f"grid missing key {exc}") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"grid.{key} must be a number, got "
                              f"{grid_entry[key]!r}") from exc
    grid = TimeGridSpec(**times)
    _verify_b_bound(b_mat, grid)

    return ProblemSpec(dim_state=n, dim_control=m, A=a_mat, B=b_mat,
                       K=k_weight, a=a_fn, b=b_fn, h=h, omega=omega, grid=grid)
