"""Constraint-set geometry.

Membership, signed boundary margins, normal-cone generators, and
deterministic quasi-uniform boundary sampling for the supported compact set
variants: ball, box, polytope (unit outward rows), and smooth sublevel sets
(ellipsoid).  All "for every boundary point" quantifiers elsewhere in the
package are discretized through :func:`sample_boundary`, which returns one
stacked :class:`ConeQuery`: every check over the boundary is one array
expression over its points ``(k, n)`` and their generators ``(k, g, n)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import config_array
from .errors import ConfigError, UnsupportedVariant
from .numerics import matvec

_DIRECTIONS_SEED = 20240917


@dataclass(frozen=True, eq=False)
class ConeQuery:
    """Normal-cone data at boundary points ``points`` (k, n), or (n,).

    ``normals`` (k, g, n), or (g, n), holds unit generators of each point's
    normal cone: one at smooth points, one per active constraint at corners,
    g the largest count.  A point with fewer generators repeats its first
    one, which leaves every minimum over generators unchanged.  ``margin(v)``
    for v (..., k, n) is positive iff v points strictly inward at its point.
    """

    points: np.ndarray
    normals: np.ndarray

    def margin(self, v: np.ndarray):
        return np.min(matvec(-self.normals, v), axis=-1)[()]


class ConstraintSet:
    """Compact constraint set with nonempty interior."""

    variant = "abstract"
    dim: int

    # -- membership ------------------------------------------------------
    def boundary_margin(self, x):
        """Signed margin: zero on the boundary, negative inside, positive
        outside.  Euclidean distance for balls/boxes/polytopes; for smooth
        sublevel sets a monotone surrogate with the same zero level set.
        Stacked states (..., n) give one margin each."""
        raise NotImplementedError

    def contains(self, x, tol: float = 1e-12):
        return self.boundary_margin(x) <= tol

    # -- geometry --------------------------------------------------------
    def bounding_radius(self) -> float:
        raise NotImplementedError

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def interior_point(self) -> np.ndarray:
        raise NotImplementedError

    @property
    def tol_active(self) -> float:
        return 1e-9 * self.bounding_radius()

    def normal_generators(self, x) -> np.ndarray:
        """Unit generators (..., g, n) at points (..., n), padded as in
        :class:`ConeQuery`."""
        raise NotImplementedError

    def cone_query(self, x) -> ConeQuery:
        x = np.asarray(x, dtype=float)
        return ConeQuery(points=x, normals=self.normal_generators(x))

    def sample_boundary(self, density: int) -> ConeQuery:
        raise NotImplementedError


def _unit_rows(d: np.ndarray, where: str) -> np.ndarray:
    """Rows of d (..., n) scaled to unit length, as one-generator cones."""
    nrm = np.sqrt(np.vecdot(d, d))
    if np.any(nrm == 0.0):
        raise ValueError(f"normal cone queried at the {where} center")
    return (d / nrm[..., None])[..., None, :]


def _first_unique(points: np.ndarray) -> np.ndarray:
    """Rows of points (k, n) in order, without the later ones that equal an
    earlier row after rounding to 12 decimals."""
    _, first = np.unique(np.round(points, 12), axis=0, return_index=True)
    return points[np.sort(first)]


def _unit_directions(dim: int, count: int) -> np.ndarray:
    """Deterministic quasi-uniform directions on the unit sphere."""
    if dim == 1:
        return np.array([[-1.0], [1.0]])
    if dim == 2:
        angles = 2.0 * np.pi * np.arange(count) / count
        return np.column_stack([np.cos(angles), np.sin(angles)])
    if dim == 3:
        # Fibonacci lattice
        golden = (1.0 + np.sqrt(5.0)) / 2.0
        k = np.arange(count) + 0.5
        phi = 2.0 * np.pi * k / golden
        z = 1.0 - 2.0 * k / count
        rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        return np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])
    rng = np.random.default_rng(_DIRECTIONS_SEED)
    dirs = rng.standard_normal((count, dim))
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


class Ball(ConstraintSet):
    variant = "ball"

    def __init__(self, center, radius: float):
        self.center = np.asarray(center, dtype=float)
        self.radius = float(radius)
        self.dim = len(self.center)
        if self.radius <= 0.0:
            raise ConfigError("ball radius must be positive")

    def boundary_margin(self, x):
        d = np.asarray(x, dtype=float) - self.center
        # rounds like the 1-D np.linalg.norm; norm(..., axis=-1) does not
        return (np.sqrt(np.vecdot(d, d)) - self.radius)[()]

    def bounding_radius(self):
        return float(np.linalg.norm(self.center) + self.radius)

    def bounding_box(self):
        return self.center - self.radius, self.center + self.radius

    def interior_point(self):
        return self.center.copy()

    def normal_generators(self, x):
        return _unit_rows(np.asarray(x, dtype=float) - self.center, "ball")

    def sample_boundary(self, density):
        dirs = _unit_directions(self.dim, density)
        return self.cone_query(self.center + self.radius * dirs)


class Polytope(ConstraintSet):
    """{x : <a_i, x> <= c_i} with unit rows a_i; compact with interior."""

    variant = "polytope"

    def __init__(self, normals, offsets, interior=None):
        a = np.asarray(normals, dtype=float)
        c = np.asarray(offsets, dtype=float)
        if a.ndim != 2 or c.shape != (len(a),):
            raise ConfigError("polytope rows/offsets mismatch")
        norms = np.linalg.norm(a, axis=1)
        if np.any(norms == 0.0):
            raise ConfigError("polytope has a zero normal row")
        self.a = a / norms[:, None]
        self.c = c / norms
        self.dim = a.shape[1]
        self._bbox = self._compute_bbox()
        self._interior = (np.asarray(interior, dtype=float)
                          if interior is not None else self._chebyshev_center())
        if (self._interior.shape != (self.dim,)
                or self.boundary_margin(self._interior) >= -1e-12):
            raise ConfigError("polytope interior witness is not strictly inside")

    def _support(self, d: np.ndarray) -> float:
        from scipy.optimize import linprog   # slow import: polytopes only
        res = linprog(-d, A_ub=self.a, b_ub=self.c,
                      bounds=[(None, None)] * self.dim, method="highs")
        if res.status == 3:
            raise ConfigError("polytope is unbounded")
        if not res.success:
            raise ConfigError(f"polytope support LP failed: {res.message}")
        return float(d @ res.x)

    def _compute_bbox(self):
        lo = np.empty(self.dim)
        hi = np.empty(self.dim)
        for i in range(self.dim):
            e = np.zeros(self.dim)
            e[i] = 1.0
            hi[i] = self._support(e)
            lo[i] = -self._support(-e)
        return lo, hi

    def _chebyshev_center(self) -> np.ndarray:
        # maximize r subject to a_i x + r <= c_i
        from scipy.optimize import linprog
        k = len(self.c)
        cost = np.zeros(self.dim + 1)
        cost[-1] = -1.0
        a_ub = np.hstack([self.a, np.ones((k, 1))])
        res = linprog(cost, A_ub=a_ub, b_ub=self.c,
                      bounds=[(None, None)] * self.dim + [(0.0, None)],
                      method="highs")
        if not res.success or res.x[-1] <= 1e-12:
            raise ConfigError("polytope has empty interior")
        return res.x[:-1]

    def boundary_margin(self, x):
        return np.max(matvec(self.a, x) - self.c, axis=-1)[()]

    def bounding_radius(self):
        lo, hi = self._bbox
        return float(np.linalg.norm(np.maximum(np.abs(lo), np.abs(hi))))

    def bounding_box(self):
        lo, hi = self._bbox
        return lo.copy(), hi.copy()

    def interior_point(self):
        return self._interior.copy()

    def normal_generators(self, x):
        active = matvec(self.a, x) - self.c >= -self.tol_active
        count = np.count_nonzero(active, axis=-1)
        if np.any(count == 0):
            raise ValueError("normal cone queried at an interior point")
        # active rows first, in index order; pad with the first one
        rows = np.argsort(~active, axis=-1, kind="stable")[..., :np.max(count)]
        rows = np.where(np.arange(rows.shape[-1]) < count[..., None],
                        rows, rows[..., :1])
        return self.a[rows]

    def _vertices_2d(self) -> np.ndarray:
        # the feasible intersections of all pairs of lines, in pair order
        i, j = np.triu_indices(len(self.c), 1)
        m = np.stack([self.a[i], self.a[j]], axis=1)
        ok = np.abs(np.linalg.det(m)) >= 1e-12
        pts = np.linalg.solve(m[ok], np.stack([self.c[i], self.c[j]],
                                              axis=1)[ok, :, None])[..., 0]
        verts = _first_unique(
            pts[np.max(matvec(self.a, pts) - self.c, axis=-1) <= 1e-9])
        center = self._interior
        order = np.argsort(np.arctan2(verts[:, 1] - center[1],
                                      verts[:, 0] - center[0]))
        return verts[order]

    def sample_boundary(self, density):
        if self.dim == 1:
            # one-dimensional polytope is an interval
            return self.cone_query(np.array(self._bbox))
        if self.dim != 2:
            raise UnsupportedVariant(
                "polytope boundary sampling implemented for dim <= 2")
        v0 = self._vertices_2d()[:, None, :]
        v1 = np.roll(v0, -1, axis=0)
        theta = np.linspace(0.0, 1.0, max(2, int(density)),
                            endpoint=False)[:, None]
        # edge by edge, each from its first vertex on
        points = (1.0 - theta) * v0 + theta * v1
        return self.cone_query(points.reshape(-1, 2))


class Box(Polytope):
    """Axis-aligned box as a polytope with rows ±e_i."""

    variant = "box"

    def __init__(self, lo, hi):
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ConfigError("box lo/hi mismatch")
        if np.any(hi <= lo):
            raise ConfigError("box needs lo < hi per axis")
        self.lo = lo
        self.hi = hi
        eye = np.eye(len(lo))
        super().__init__(np.vstack([eye, -eye]),
                         np.concatenate([hi, -lo]),
                         interior=0.5 * (lo + hi))

    def _compute_bbox(self):
        return self.lo, self.hi

    def sample_boundary(self, density):
        n = self.dim
        if n == 1:
            return self.cone_query(np.array([self.lo, self.hi]))
        axes = [np.linspace(self.lo[i], self.hi[i], max(2, int(density)))
                for i in range(n)]
        faces = []
        for face_axis in range(n):
            rest = [i for i in range(n) if i != face_axis]
            mesh = np.meshgrid(*(axes[i] for i in rest), indexing="ij")
            for bound in (self.lo[face_axis], self.hi[face_axis]):
                face = np.empty((mesh[0].size, n))
                face[:, face_axis] = bound
                face[:, rest] = np.stack([g.ravel() for g in mesh], axis=1)
                faces.append(face)
        # faces share their edges; keep each point where it first appears
        return self.cone_query(_first_unique(np.concatenate(faces)))


class Ellipsoid(ConstraintSet):
    """Smooth sublevel set {x : sum_i w_i (x_i - c_i)^2 <= 1}, w_i > 0."""

    variant = "ellipsoid"

    def __init__(self, center, weights):
        self.center = np.asarray(center, dtype=float)
        self.weights = np.asarray(weights, dtype=float)
        self.dim = len(self.center)
        if self.weights.shape != self.center.shape or np.any(self.weights <= 0):
            raise ConfigError("ellipsoid needs positive per-axis weights")
        self.semi_axes = 1.0 / np.sqrt(self.weights)

    def boundary_margin(self, x):
        d = np.asarray(x, dtype=float) - self.center
        return (np.sqrt(np.sum(self.weights * d * d, axis=-1)) - 1.0)[()]

    def bounding_radius(self):
        return float(np.linalg.norm(self.center) + np.max(self.semi_axes))

    def bounding_box(self):
        return self.center - self.semi_axes, self.center + self.semi_axes

    def interior_point(self):
        return self.center.copy()

    def normal_generators(self, x):
        # gradient of the defining function, normalized
        return _unit_rows(self.weights * (np.asarray(x, dtype=float)
                                          - self.center), "ellipsoid")

    def sample_boundary(self, density):
        dirs = _unit_directions(self.dim, density)
        return self.cone_query(self.center + self.semi_axes * dirs)


def sample_boundary(omega: ConstraintSet, density: int) -> ConeQuery:
    """Deterministic quasi-uniform boundary sample, one stacked ConeQuery."""
    if density <= 0:
        raise ValueError("density must be positive")
    return omega.sample_boundary(density)


def constraint_from_config(entry: dict, dim: int) -> ConstraintSet:
    variant, p = entry["variant"], entry.get("params", {})
    if variant == "polytope":
        normals = config_array(p.get("normals"), (None, dim), "omega.params.normals")
    try:
        if variant == "ball":
            omega = Ball(p.get("center", np.zeros(dim)), p.get("radius", 1.0))
        elif variant == "box":
            omega = Box(p.get("lo"), p.get("hi"))
        elif variant == "polytope":
            omega = Polytope(normals, p.get("offsets"),
                             interior=p.get("interior_point"))
        else:
            omega = Ellipsoid(p.get("center", np.zeros(dim)), p.get("weights"))
    except ConfigError as exc:
        raise ConfigError(f"omega: {exc}") from exc
    if omega.dim != dim:
        raise ConfigError(f"omega has dimension {omega.dim}, state has {dim}")
    return omega
