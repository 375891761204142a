import numpy as np
import pytest

from safelq.errors import ConfigError
from safelq.geometry import (Ball, Box, Ellipsoid, Polytope, _unit_directions,
                             constraint_from_config, sample_boundary)


class TestBall:
    def test_circle_sample_count_and_normals(self):
        ball = Ball([0.0, 0.0], 1.0)
        samples = sample_boundary(ball, 8)
        assert samples.points.shape == (8, 2)
        assert samples.normals.shape == (8, 1, 2)
        np.testing.assert_allclose(samples.normals[:, 0], samples.points,
                                   atol=1e-12)
        assert np.all(np.abs(ball.boundary_margin(samples.points)) <= 1e-12)

    def test_margin_sign(self):
        ball = Ball([1.0, 0.0], 2.0)
        assert ball.boundary_margin([1.0, 0.0]) == -2.0
        assert ball.boundary_margin([4.0, 0.0]) == 1.0
        assert ball.contains([2.9, 0.0])

    def test_interval_endpoints(self):
        ball = Ball([0.0], 1.0)
        pts = sample_boundary(ball, 4).points
        assert sorted(pts[:, 0]) == [-1.0, 1.0]

    def test_sphere_fibonacci(self):
        ball = Ball([0.0, 0.0, 0.0], 1.0)
        samples = sample_boundary(ball, 50)
        assert samples.points.shape == (50, 3)
        np.testing.assert_allclose(np.linalg.norm(samples.points, axis=1),
                                   1.0, rtol=0.0, atol=1e-12)


class TestBox:
    def test_corner_normal_generators(self):
        box = Box([-1.0, -1.0], [1.0, 1.0])
        cq = box.cone_query(np.array([1.0, 1.0]))
        rows = {tuple(r) for r in cq.normals}
        assert rows == {(1.0, 0.0), (0.0, 1.0)}

    def test_face_point_single_normal(self):
        box = Box([-1.0, -1.0], [1.0, 1.0])
        cq = box.cone_query(np.array([1.0, 0.3]))
        assert cq.normals.shape == (1, 2)
        np.testing.assert_array_equal(cq.normals[0], [1.0, 0.0])

    def test_margin_is_signed_distance_inside(self):
        box = Box([-1.0], [1.0])
        assert box.boundary_margin([0.25]) == -0.75
        assert box.boundary_margin([1.5]) == 0.5

    def test_samples_include_corners(self):
        box = Box([-1.0, -1.0], [1.0, 1.0])
        samples = sample_boundary(box, 3)
        pts = {tuple(p) for p in samples.points}
        assert (1.0, 1.0) in pts and (-1.0, -1.0) in pts
        assert len(pts) == len(samples.points) == 8
        assert np.all(np.abs(box.boundary_margin(samples.points)) <= 1e-12)

    def test_interior_tangent_margin(self):
        box = Box([-1.0, -1.0], [1.0, 1.0])
        cq = box.cone_query(np.array([1.0, 1.0]))
        assert cq.margin(np.array([-1.0, -1.0])) > 0.0   # inward at a corner
        assert cq.margin(np.array([-1.0, 0.5])) < 0.0    # violates one face

    def test_bounding_box_is_lo_hi_and_matches_the_support_lps(self):
        lo, hi = np.array([-1.5, -0.3, 0.2]), np.array([2.0, 0.7, 0.25])
        box = Box(lo, hi)
        got = box.bounding_box()
        np.testing.assert_array_equal(got[0], lo)
        np.testing.assert_array_equal(got[1], hi)
        eye = np.eye(3)
        poly = Polytope(np.vstack([eye, -eye]), np.concatenate([hi, -lo]),
                        interior=0.5 * (lo + hi))
        np.testing.assert_allclose(poly.bounding_box(), got, rtol=0.0,
                                   atol=1e-12)
        assert box.bounding_radius() == poly.bounding_radius()


class TestPolytope:
    def simplex(self):
        # x >= 0, y >= 0, x + y <= 1
        s = np.sqrt(0.5)
        return Polytope([[-1.0, 0.0], [0.0, -1.0], [s, s]],
                        [0.0, 0.0, s])

    def test_vertex_generators(self):
        poly = self.simplex()
        cq = poly.cone_query(np.array([0.0, 0.0]))
        rows = {tuple(r) for r in cq.normals}
        assert rows == {(-1.0, 0.0), (0.0, -1.0)}

    def test_samples_on_boundary(self):
        poly = self.simplex()
        samples = sample_boundary(poly, 5)
        assert np.all(np.abs(poly.boundary_margin(samples.points)) <= 1e-12)

    def test_polar_duality_on_samples(self):
        # every sampled generator points away from the interior point
        poly = self.simplex()
        samples = sample_boundary(poly, 5)
        toward_interior = poly.interior_point() - samples.points
        assert np.all(samples.margin(toward_interior) > 0.0)
        assert np.all(samples.normals @ toward_interior[:, :, None] < 0.0)

    def test_unbounded_rejected(self):
        with pytest.raises(ConfigError):
            Polytope([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])  # open quadrant

    def test_3d_sampling_unsupported(self):
        eye = np.eye(3)
        poly = Polytope(np.vstack([eye, -eye]), np.ones(6))
        with pytest.raises(ConfigError, match=r"^omega: "):
            sample_boundary(poly, 4)

    def test_rows_are_normalized(self):
        poly = Polytope([[2.0, 0.0], [-2.0, 0.0], [0.0, 2.0], [0.0, -2.0]],
                        [2.0, 2.0, 2.0, 2.0])
        np.testing.assert_allclose(np.linalg.norm(poly.a, axis=1), 1.0)
        assert poly.boundary_margin([1.0, 0.0]) == 0.0


class TestEllipsoid:
    def test_boundary_and_normals(self):
        ell = Ellipsoid([0.0, 0.0], [4.0, 1.0])  # semi-axes 0.5 and 1
        samples = sample_boundary(ell, 16)
        assert np.all(np.abs(ell.boundary_margin(samples.points)) <= 1e-12)
        np.testing.assert_allclose(np.linalg.norm(samples.normals, axis=-1),
                                   1.0)
        assert ell.boundary_margin([0.0, 0.0]) == -1.0
        assert ell.contains([0.49, 0.0])
        assert not ell.contains([0.51, 0.0])


class TestConfigParsing:
    def test_dimension_checked(self):
        with pytest.raises(ConfigError,
                           match=r"^omega has dimension 1, state has 2$"):
            constraint_from_config(
                {"variant": "ball", "params": {"center": [0.0], "radius": 1.0}}, 2)

    def test_tol_active_scales_with_radius(self):
        ball = Ball([0.0, 0.0], 100.0)
        assert ball.tol_active == pytest.approx(1e-7)


# Reference: the per-point sampling the stacked one replaced (the box's
# triple loop and one cone query per point), kept to pin the order and the
# bits of every sample.

def reference_normals(omega, x):
    if isinstance(omega, Polytope):
        resid = omega.a @ x - omega.c
        return omega.a[np.nonzero(resid >= -omega.tol_active)[0]]
    d = x - omega.center
    if isinstance(omega, Ellipsoid):
        d = omega.weights * d
    return (d / np.linalg.norm(d))[None, :]


def reference_vertices_2d(poly):
    pts = []
    k = len(poly.c)
    for i in range(k):
        for j in range(i + 1, k):
            m = np.array([poly.a[i], poly.a[j]])
            if abs(np.linalg.det(m)) < 1e-12:
                continue
            v = np.linalg.solve(m, np.array([poly.c[i], poly.c[j]]))
            if np.max(poly.a @ v - poly.c) <= 1e-9:
                pts.append(v)
    uniq = {}
    for v in pts:
        uniq[tuple(np.round(v, 12))] = v
    verts = np.array(list(uniq.values()))
    center = poly.interior_point()
    order = np.argsort(np.arctan2(verts[:, 1] - center[1],
                                  verts[:, 0] - center[0]))
    return verts[order]


def reference_points(omega, density):
    n = omega.dim
    if isinstance(omega, Polytope) and n == 1:
        lo, hi = omega.bounding_box()
        return [np.array([lo[0]]), np.array([hi[0]])]
    if isinstance(omega, Box):
        m = max(2, int(density))
        axes = [np.linspace(omega.lo[i], omega.hi[i], m) for i in range(n)]
        pts_map = {}
        for face_axis in range(n):
            rest = [axes[i] for i in range(n) if i != face_axis]
            mesh = np.meshgrid(*rest, indexing="ij")
            coords = np.stack([g.ravel() for g in mesh], axis=1)
            for bound in (omega.lo[face_axis], omega.hi[face_axis]):
                for row in coords:
                    p = np.empty(n)
                    p[face_axis] = bound
                    p[[i for i in range(n) if i != face_axis]] = row
                    pts_map[tuple(np.round(p, 12))] = p
        return list(pts_map.values())
    if isinstance(omega, Polytope):
        verts = reference_vertices_2d(omega)
        points = []
        for i in range(len(verts)):
            v0, v1 = verts[i], verts[(i + 1) % len(verts)]
            for theta in np.linspace(0.0, 1.0, max(2, int(density)),
                                     endpoint=False):
                points.append((1.0 - theta) * v0 + theta * v1)
        return points
    scale = omega.radius if isinstance(omega, Ball) else omega.semi_axes
    return [omega.center + scale * d for d in _unit_directions(n, density)]


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


HALF = np.sqrt(0.5)


class TestAgainstPerPointSampling:
    OMEGAS = {
        "box1": Box([-1.0], [0.7]),
        "box2": Box([-1.0, -0.5], [0.8, 1.3]),
        "box3": Box([-1.0, -0.5, 0.2], [0.8, 1.3, 0.9]),
        "interval": Polytope([[2.0], [-1.0]], [1.0, 0.5]),
        "simplex": Polytope([[-1.0, 0.0], [0.0, -1.0], [HALF, HALF]],
                            [0.0, 0.0, HALF]),
        "oblique": Polytope([[1.0, 0.3], [-0.4, 1.0], [-1.0, -0.7],
                             [0.2, -1.0]], [1.0, 1.2, 0.9, 1.1]),
        "ellipsoid": Ellipsoid([0.1, -0.2], [1.5, 0.6]),
        "ball3": Ball([0.1, -0.2, 0.3], 1.2),
    }

    @pytest.mark.parametrize("name", list(OMEGAS))
    @pytest.mark.parametrize("density", [3, 7])
    def test_points_and_normals_bitwise_in_order(self, name, density):
        omega = self.OMEGAS[name]
        samples = sample_boundary(omega, density)
        ref = reference_points(omega, density)
        np.testing.assert_array_equal(bits(samples.points), bits(ref))
        assert samples.normals.shape[:2] == (len(ref), max(
            len(reference_normals(omega, x)) for x in ref))
        for x, normals in zip(ref, samples.normals):
            want = reference_normals(omega, x)
            # a point with fewer generators repeats its first one
            padded = np.vstack([want, np.repeat(want[:1], len(normals)
                                                - len(want), axis=0)])
            np.testing.assert_array_equal(bits(normals), bits(padded))

    def test_corners_carry_two_generators(self):
        samples = sample_boundary(self.OMEGAS["simplex"], 4)
        distinct = [len({tuple(r) for r in n}) for n in samples.normals]
        assert distinct.count(2) == 3 and distinct.count(1) == 9


class TestStackedCone:
    def test_single_point_keeps_its_own_generators(self):
        poly = TestAgainstPerPointSampling.OMEGAS["oblique"]
        samples = sample_boundary(poly, 4)
        for x in samples.points:
            cq = poly.cone_query(x)
            np.testing.assert_array_equal(cq.normals,
                                          reference_normals(poly, x))

    def test_margin_per_point(self):
        box = Box([-1.0, -1.0], [1.0, 1.0])
        cq = box.cone_query(np.array([[1.0, 1.0], [1.0, 0.3]]))
        assert cq.normals.shape == (2, 2, 2)
        v = np.array([[-1.0, 0.5], [-1.0, 0.5]])
        np.testing.assert_array_equal(cq.margin(v), [-0.5, 1.0])
        np.testing.assert_array_equal(cq.margin(np.stack([v, -v])),
                                      [[-0.5, 1.0], [-1.0, -1.0]])

    @pytest.mark.parametrize("omega, on_boundary", [
        (Ball([0.0, 0.0], 1.0), [1.0, 0.0]),
        (Ellipsoid([0.0, 0.0], [4.0, 1.0]), [0.5, 0.0]),
        (Box([-1.0, -1.0], [1.0, 1.0]), [1.0, 0.0])])
    def test_interior_point_in_a_stack_rejected(self, omega, on_boundary):
        x = np.array([on_boundary, omega.interior_point()])
        with pytest.raises(ValueError):
            omega.cone_query(x)
