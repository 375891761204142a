"""Function catalogs for problem data.

Every time-dependent coefficient, scalar weight, and coordinate map is a
tagged, parameter-complete value: configurations serialize to JSON and
integrability is decided symbolically per variant instead of by quadrature
to infinity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .numerics import matvec


def config_array(value, shape: tuple, path: str) -> np.ndarray:
    """value as a float array of shape, where None matches any length;
    ConfigError names path if value is missing, ragged or misshapen."""
    if value is None:
        raise ConfigError(f"{path} is required")
    try:
        arr = np.asarray(value, dtype=float)
    except ValueError:                  # ragged rows: the schema admits them
        arr = None
    if arr is None or arr.ndim != len(shape) or any(
            want not in (None, got) for want, got in zip(shape, arr.shape)):
        got = "ragged rows" if arr is None else f"shape {arr.shape}"
        want = str(shape).replace("None", "k")
        raise ConfigError(f"{path} must have shape {want}, got {got}")
    return arr


@dataclass(frozen=True, eq=False)
class TimeMatrix:
    """Matrix-valued function of time.

    constant:  M(s) = base
    sinusoid:  M(s) = base + amplitude * sin(omega * s)

    ``bound`` is the declared sup-norm bound (required for input matrices,
    where the geometric sufficient condition consumes it).
    """

    variant: str
    base: np.ndarray
    amplitude: np.ndarray | None = None
    omega: float = 0.0
    bound: float | None = None

    def is_constant(self) -> bool:
        return self.variant == "constant" or (
            self.amplitude is not None and not np.any(self.amplitude))

    def value(self, s) -> np.ndarray:
        """M(s), stacked (..., rows, cols) over an array of times."""
        s = np.asarray(s, dtype=float)
        if self.variant == "constant":
            return np.broadcast_to(self.base, s.shape + self.base.shape)
        wave = np.sin(self.omega * s)[..., None, None]
        return self.base + wave * self.amplitude

    def gram(self, s) -> np.ndarray:
        """M(s) M(s)^T, stacked (..., rows, rows) over an array of times;
        formed once for a constant M."""
        m = self.base if self.variant == "constant" else self.value(s)
        mmt = np.einsum("...ij,...kj->...ik", m, m)
        return np.broadcast_to(mmt, np.shape(s) + mmt.shape[-2:])

    def norm_bound(self) -> float:
        """Exact sup-norm bound derived from the parameters."""
        b = float(np.linalg.norm(self.base, 2))
        if self.variant == "sinusoid":
            b += float(np.linalg.norm(self.amplitude, 2))
        return b


def time_matrix_from_config(entry: dict, shape: tuple[int, int],
                            name: str) -> TimeMatrix:
    params = entry["params"]

    def _matrix(key):
        return config_array(params.get(key), shape, f"{name}.params.{key}")

    bound = params.get("bound")
    if entry["variant"] == "constant":
        return TimeMatrix("constant", _matrix("value"), bound=bound)
    return TimeMatrix("sinusoid", _matrix("base"), _matrix("amplitude"),
                      omega=float(params.get("omega", 1.0)), bound=bound)


@dataclass(frozen=True)
class StateWeight:
    """Scalar state weight K(s) >= 0 on s >= 0.

    truncated_constant:  level on [0, t_cut], zero after
    exponential:         level * exp(-rate * s), rate > 0

    Both variants are L1 and L2 on [0, inf) by construction, which is exactly
    what the symbolic integrability tags certify.
    """

    variant: str
    level: float
    t_cut: float = 0.0
    rate: float = 0.0

    def value(self, s):
        """K(s); an array of times gives an array of weights."""
        s = np.asarray(s, dtype=float)
        if self.variant == "truncated_constant":
            out = np.where((s >= 0.0) & (s <= self.t_cut), self.level, 0.0)
        else:
            out = np.where(s >= 0.0, self.level * np.exp(-self.rate * s), 0.0)
        return out[()]

    def integral(self, t0: float, t1: float | None = None) -> float:
        """Closed-form integral of K over [max(t0,0), t1] (t1=None -> inf)."""
        t0 = max(t0, 0.0)
        if self.variant == "truncated_constant":
            hi = self.t_cut if t1 is None else min(t1, self.t_cut)
            return self.level * max(0.0, hi - t0)
        if self.rate <= 0.0:
            raise ConfigError("exponential weight needs a positive rate")
        upper = 0.0 if t1 is None else np.exp(-self.rate * t1)
        return self.level / self.rate * (np.exp(-self.rate * t0) - upper)

    @property
    def is_l1(self) -> bool:
        return self.variant == "truncated_constant" or self.rate > 0.0

    @property
    def is_l2(self) -> bool:
        return self.is_l1


def state_weight_from_config(entry: dict) -> StateWeight:
    variant, params = entry["variant"], entry["params"]
    level = float(params.get("level", 0.0))
    if variant == "truncated_constant":
        return StateWeight(variant, level, t_cut=float(params.get("t_cut", 0.0)))
    if "rate" not in params:
        raise ConfigError("K.params.rate is required for exponential K")
    return StateWeight(variant, level, rate=float(params["rate"]))


@dataclass(frozen=True)
class PowerLaw:
    """coeff * alpha**exponent on alpha >= 0 (linear when exponent == 1)."""

    coeff: float
    exponent: float

    def __call__(self, alpha):
        return self.coeff * np.power(alpha, self.exponent)


def power_law_from_config(entry: dict) -> PowerLaw:
    params = entry["params"]
    exponent = (1.0 if entry["variant"] == "linear"
                else float(params.get("exponent", 1.0)))
    return PowerLaw(float(params.get("coeff", 1.0)), exponent)


def _cubic_inverse(y: np.ndarray, beta: float) -> np.ndarray:
    """Unique real root of beta*x^3 + x = y for beta > 0 (Cardano + one
    Newton polish step)."""
    p = 1.0 / beta
    q = -y / beta
    disc = np.sqrt(0.25 * q * q + (p / 3.0) ** 3)
    x = np.cbrt(-0.5 * q + disc) + np.cbrt(-0.5 * q - disc)
    return x - (beta * x**3 + x - y) / (3.0 * beta * x * x + 1.0)


@dataclass(frozen=True, eq=False)
class DiffeoMap:
    """Coordinate diffeomorphism of R^n from the catalog.

    identity:   h(x) = x
    linear:     h(x) = M x, M invertible
    odd_cubic:  h_i(x) = x_i + beta * x_i**3, beta >= 0

    Every method takes stacked states and vectors (..., n).  Identity and
    odd_cubic have diagonal Jacobians, applied without forming a matrix.
    """

    variant: str
    dim: int
    matrix: np.ndarray | None = None
    matrix_inv: np.ndarray | None = None
    beta: float = 0.0

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.variant == "identity":
            return x.copy()
        if self.variant == "linear":
            return matvec(self.matrix, x)
        return x + self.beta * x**3

    def inverse(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if self.variant == "identity":
            return y.copy()
        if self.variant == "linear":
            return matvec(self.matrix_inv, y)
        if self.beta == 0.0:
            return y.copy()
        return _cubic_inverse(y, self.beta)

    def _diag_jacobian(self, x: np.ndarray) -> np.ndarray:
        return 1.0 + 3.0 * self.beta * np.asarray(x, dtype=float) ** 2

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        if self.variant == "identity":
            return np.eye(self.dim)
        if self.variant == "linear":
            return self.matrix.copy()
        return np.diag(self._diag_jacobian(x))

    def jacobian_inv(self, x: np.ndarray) -> np.ndarray:
        if self.variant == "identity":
            return np.eye(self.dim)
        if self.variant == "linear":
            return self.matrix_inv.copy()
        return np.diag(1.0 / self._diag_jacobian(x))

    def apply_jacobian_inv(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """grad h(x)^{-1} v without forming the inverse for diagonal maps."""
        if self.variant == "identity":
            return np.array(v, dtype=float)
        if self.variant == "linear":
            return matvec(self.matrix_inv, v)
        return v / self._diag_jacobian(x)

    def apply_jacobian_inv_t(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """grad h(x)^{-T} v (inverse transpose applied to a vector)."""
        if self.variant == "identity":
            return np.array(v, dtype=float)
        if self.variant == "linear":
            return matvec(self.matrix_inv.T, v)
        return v / self._diag_jacobian(x)

    def apply_jacobian_t(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """grad h(x)^T v."""
        if self.variant == "identity":
            return np.array(v, dtype=float)
        if self.variant == "linear":
            return matvec(self.matrix.T, v)
        return v * self._diag_jacobian(x)


def diffeo_from_config(entry: dict, dim: int) -> DiffeoMap:
    variant = entry["variant"]
    params = entry.get("params", {})
    if variant == "linear":
        m = config_array(params.get("matrix"), (dim, dim), "h.params.matrix")
        try:
            m_inv = np.linalg.inv(m)
        except np.linalg.LinAlgError as exc:
            raise ConfigError("h.params.matrix is singular") from exc
        if not np.all(np.isfinite(m_inv)) or np.linalg.cond(m) > 1e12:
            raise ConfigError("h.params.matrix is numerically singular")
        return DiffeoMap("linear", dim, matrix=m, matrix_inv=m_inv)
    # identity ignores beta
    return DiffeoMap(variant, dim, beta=float(params.get("beta", 0.0)))
