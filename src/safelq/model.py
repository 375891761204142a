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

import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import catalog, geometry
from .errors import ConfigError, NegativeAlpha, UnboundedSup
from .numerics import matvec


# steps of grid.dt over [t0, t_max]: every integration lies in that span,
# and holds stage data and nodes for each step, about 1 kB for n = 2
MAX_GRID_STEPS = 10**6


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
        steps = (self.t_max - self.t0) / self.dt    # inf past the float range
        if not steps <= MAX_GRID_STEPS:
            raise ConfigError(f"grid.dt {self.dt!r} takes {steps:.3g} steps "
                              f"over [grid.t0, grid.t_max], above the budget "
                              f"of {MAX_GRID_STEPS}")


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

    def __post_init__(self):
        object.__setattr__(self, "R", 0.5 * np.eye(self.dim_control))

    def control_gram(self, s) -> np.ndarray:
        """B(s) R^{-1} B(s)^T = 2 B B^T, stacked (..., n, n) over times."""
        return 2.0 * self.B.gram(s)

    def feedback_gain(self, s) -> np.ndarray:
        """-R^{-1} B(s)^T = -2 B^T, stacked (..., m, n) over times."""
        return -2.0 * np.swapaxes(self.B.value(s), -1, -2)

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


def _has_type(node, kind: str) -> bool:
    """JSON value types (bool is no number, 2.0 is an integer, no inf/NaN)."""
    number = (isinstance(node, (int, float)) and not isinstance(node, bool)
              and abs(node) <= sys.float_info.max)              # NaN-proof
    return {"object": isinstance(node, dict), "array": isinstance(node, list),
            "boolean": isinstance(node, bool), "string": isinstance(node, str),
            "number": number, "integer": number and (
                isinstance(node, int) or node.is_integer())}[kind]


def _check(node, schema: dict, defs: dict, path: str = "") -> None:
    """Raise on the first way node breaks schema, for the keywords that
    config_schema.json uses; the message starts with node's JSON path."""
    if "$ref" in schema:
        _check(node, defs[schema["$ref"].rpartition("/")[2]], defs, path)
    where, kind = path or "config", schema.get("type")
    if kind is not None and not _has_type(node, kind):
        raise ConfigError(f"{where} must be {'an' if kind[0] in 'aeio' else 'a'}"
                          f" {kind}, got {node!r:.60}")
    if "enum" in schema and node not in schema["enum"]:
        raise ConfigError(f"{where} must be one of {schema['enum']}, "
                          f"got {node!r:.60}")
    for key, sign in (("minimum", ">="), ("exclusiveMinimum", ">")):
        low = schema.get(key)
        if low is not None and _has_type(node, "number") and not (
                node >= low if sign == ">=" else node > low):
            raise ConfigError(f"{where} must be {sign} {low}, got {node!r}")
    if isinstance(node, dict):
        prefix = f"{path}." if path else ""
        props = schema.get("properties", {})
        missing = [key for key in schema.get("required", ()) if key not in node]
        if missing:
            raise ConfigError(f"{prefix}{missing[0]} is required")
        for key, value in node.items():
            if key in props:
                _check(value, props[key], defs, f"{prefix}{key}")
            elif schema.get("additionalProperties") is False:
                raise ConfigError(f"{prefix}{key} is not a known key")
    if isinstance(node, list) and len(node) < schema.get("minItems", 0):
        raise ConfigError(f"{where} must have at least {schema['minItems']} "
                          f"entries, got {len(node)}")
    for i, item in enumerate(node if isinstance(node, list) else ()):
        _check(item, schema.get("items", {}), defs, f"{path}[{i}]")


def _validate_r(entry: dict | None, m: int) -> None:
    """R declares the schema's one variant, I/2, or carries that value."""
    if entry is None or "variant" in entry:
        return
    if "value" not in entry:
        raise ConfigError("R declares neither a variant nor a value")
    r = catalog.config_array(entry["value"], (m, m), "R.value")
    if not np.allclose(r, 0.5 * np.eye(m), atol=1e-12):
        raise ConfigError("R.value must be one half times the identity")


def _verify_weight_tags(entry: dict, weight: catalog.StateWeight) -> None:
    for key, holds in (("l1", weight.is_l1), ("l2", weight.is_l2)):
        if entry.get("tags", {}).get(key, holds) != holds:
            raise ConfigError(f"K.tags.{key} is {not holds}, but the variant "
                              f"gives {holds}")


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
        raise ConfigError(f"B.params.bound {b_mat.bound} is below the "
                          f"observed sup of |B(s)|, {worst}")


def build_problem(config: dict) -> ProblemSpec:
    """Validate a parsed configuration document and build the problem.

    Checks ``config_schema.json`` first, then what it cannot state (shapes
    against ``dims``, growth, tags, the |B| bound, t0 < t_max, the grid's
    step budget).  A failure raises one ConfigError whose message starts
    with its JSON path.
    """
    schema = json.loads(Path(__file__).with_name("config_schema.json").read_text())
    _check(config, schema, schema["$defs"])
    n, m = int(config["dims"]["state"]), int(config["dims"]["control"])
    a_mat = catalog.time_matrix_from_config(config["A"], (n, n), "A")
    b_mat = catalog.time_matrix_from_config(config["B"], (n, m), "B")
    k_weight = catalog.state_weight_from_config(config["K"])
    _verify_weight_tags(config["K"], k_weight)
    a_fn = catalog.power_law_from_config(config["a"])
    b_fn = catalog.power_law_from_config(config["b"])
    if b_fn.exponent <= a_fn.exponent:
        raise ConfigError(f"b.params.exponent {b_fn.exponent} must exceed "
                          f"a's exponent {a_fn.exponent}")
    if a_fn.coeff > 0.0 and b_fn.coeff <= 0.0:
        raise ConfigError("b.params.coeff must be positive when a's is")
    _validate_r(config.get("R"), m)
    h = catalog.diffeo_from_config(config["h"], n)
    _verify_diffeo(h)
    omega = geometry.constraint_from_config(config["omega"], n)
    grid = TimeGridSpec(*(float(config["grid"][key])
                          for key in ("t0", "dt", "t_max")))
    _verify_b_bound(b_mat, grid)

    return ProblemSpec(dim_state=n, dim_control=m, A=a_mat, B=b_mat,
                       K=k_weight, a=a_fn, b=b_fn, h=h, omega=omega, grid=grid)
