import numpy as np
import pytest

from safelq.errors import ConfigError, UnsupportedVariant
from safelq.geometry import (Ball, Box, Ellipsoid, Polytope,
                             constraint_from_config, sample_boundary)


class TestBall:
    def test_circle_sample_count_and_normals(self):
        ball = Ball([0.0, 0.0], 1.0)
        samples = sample_boundary(ball, 8)
        assert len(samples) == 8
        for cq in samples:
            np.testing.assert_allclose(cq.normals[0], cq.point, atol=1e-12)
            assert abs(ball.boundary_margin(cq.point)) <= 1e-12

    def test_margin_sign(self):
        ball = Ball([1.0, 0.0], 2.0)
        assert ball.boundary_margin([1.0, 0.0]) == -2.0
        assert ball.boundary_margin([4.0, 0.0]) == 1.0
        assert ball.contains([2.9, 0.0])

    def test_interval_endpoints(self):
        ball = Ball([0.0], 1.0)
        pts = sorted(cq.point[0] for cq in sample_boundary(ball, 4))
        assert pts == [-1.0, 1.0]

    def test_sphere_fibonacci(self):
        ball = Ball([0.0, 0.0, 0.0], 1.0)
        samples = sample_boundary(ball, 50)
        assert len(samples) == 50
        for cq in samples:
            assert abs(np.linalg.norm(cq.point) - 1.0) <= 1e-12


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
        pts = {tuple(cq.point) for cq in sample_boundary(box, 3)}
        assert (1.0, 1.0) in pts and (-1.0, -1.0) in pts
        for cq in sample_boundary(box, 3):
            assert abs(box.boundary_margin(cq.point)) <= 1e-12

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
        for cq in sample_boundary(poly, 5):
            assert abs(poly.boundary_margin(cq.point)) <= 1e-12

    def test_polar_duality_on_samples(self):
        poly = self.simplex()
        interior = poly.interior_point()
        for cq in sample_boundary(poly, 5):
            v = interior - cq.point
            if cq.margin(v) > 0.0:
                assert float(np.max(cq.normals @ v)) < 0.0

    def test_unbounded_rejected(self):
        with pytest.raises(ConfigError):
            Polytope([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])  # open quadrant

    def test_3d_sampling_unsupported(self):
        eye = np.eye(3)
        poly = Polytope(np.vstack([eye, -eye]), np.ones(6))
        with pytest.raises(UnsupportedVariant):
            sample_boundary(poly, 4)

    def test_rows_are_normalized(self):
        poly = Polytope([[2.0, 0.0], [-2.0, 0.0], [0.0, 2.0], [0.0, -2.0]],
                        [2.0, 2.0, 2.0, 2.0])
        np.testing.assert_allclose(np.linalg.norm(poly.a, axis=1), 1.0)
        assert poly.boundary_margin([1.0, 0.0]) == 0.0


class TestEllipsoid:
    def test_boundary_and_normals(self):
        ell = Ellipsoid([0.0, 0.0], [4.0, 1.0])  # semi-axes 0.5 and 1
        for cq in sample_boundary(ell, 16):
            assert abs(ell.boundary_margin(cq.point)) <= 1e-12
            assert np.linalg.norm(cq.normals[0]) == pytest.approx(1.0)
        assert ell.boundary_margin([0.0, 0.0]) == -1.0
        assert ell.contains([0.49, 0.0])
        assert not ell.contains([0.51, 0.0])


class TestConfigParsing:
    def test_dimension_checked(self):
        from safelq.errors import DimensionMismatch
        with pytest.raises(DimensionMismatch):
            constraint_from_config(
                {"variant": "ball", "params": {"center": [0.0], "radius": 1.0}}, 2)

    def test_tol_active_scales_with_radius(self):
        ball = Ball([0.0, 0.0], 100.0)
        assert ball.tol_active == pytest.approx(1e-7)
