import math

import numpy as np
import pytest

from safelq.errors import NonFiniteState, OutOfGrid
from safelq.numerics import (TimeGrid, eig_sym_extremes, integrate_ode,
                             quadrature, simpson_samples, sym)


class TestTimeGrid:
    def test_nodes_uniform(self):
        grid = TimeGrid(0.0, 0.25, 4)
        np.testing.assert_allclose(grid.nodes(), [0.0, 0.25, 0.5, 0.75, 1.0])
        assert grid.t_end == 1.0

    def test_from_span_lands_on_endpoint(self):
        grid = TimeGrid.from_span(0.0, 1.0, 0.3)
        assert grid.t_end == 1.0
        assert grid.n_steps == 3

    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, -0.1, 3)


class TestIntegrator:
    def test_exponential_decay(self):
        # y' = -y, y(0) = 1 -> y(1) = 1/e
        path = integrate_ode(lambda t, y: -y, 0.0, 1.0, np.array([1.0]), 0.01)
        assert abs(path.values[-1][0] - math.exp(-1.0)) <= 1e-8

    def test_constant_rhs_zero(self):
        path = integrate_ode(lambda t, y: 0.0 * y, 0.0, 1.0,
                             np.array([3.0, -2.0]), 0.1)
        np.testing.assert_array_equal(path.values[-1], [3.0, -2.0])

    def test_backward_integration(self):
        # y' = y, y(1) = e, integrate back to 0 -> 1
        path = integrate_ode(lambda t, y: y, 1.0, 0.0,
                             np.array([math.e]), 0.01)
        assert path.nodes[0] == 0.0  # ascending output
        assert abs(path.values[0][0] - 1.0) <= 1e-8

    def test_fourth_order_convergence(self):
        def err(dt):
            path = integrate_ode(lambda t, y: -y, 0.0, 1.0,
                                 np.array([1.0]), dt)
            return abs(path.values[-1][0] - math.exp(-1.0))

        # halving dt must reduce the error by at least 2^3
        assert err(0.02) / err(0.01) >= 8.0

    def test_dense_output_matches_analytic(self):
        path = integrate_ode(lambda t, y: -y, 0.0, 1.0, np.array([1.0]), 0.05)
        for s in (0.123, 0.5, 0.987):
            assert abs(path.at(s)[0] - math.exp(-s)) <= 1e-7

    def test_dense_output_out_of_range(self):
        path = integrate_ode(lambda t, y: -y, 0.0, 1.0, np.array([1.0]), 0.1)
        with pytest.raises(OutOfGrid):
            path.at(1.5)

    def test_nonfinite_detected(self):
        with pytest.raises(NonFiniteState):
            integrate_ode(lambda t, y: y**3, 0.0, 2.0, np.array([10.0]), 0.01)

    def test_matrix_ode_stays_symmetric(self):
        a = np.array([[-1.0, 0.3], [0.0, -2.0]])

        def rhs(t, p):
            return a.T @ p + p @ a + np.eye(2)

        path = integrate_ode(rhs, 0.0, 2.0, np.zeros((2, 2)), 0.01,
                             postprocess=sym)
        for p in path.values:
            np.testing.assert_array_equal(p, p.T)


class TestQuadrature:
    def test_linear_exact(self):
        # exact up to one ulp of weight summation
        assert quadrature(lambda s: s, 0.0, 1.0, 0.1) == pytest.approx(0.5, abs=1e-15)

    def test_exponential(self):
        val = quadrature(lambda s: math.exp(-s), 0.0, 1.0, 0.01)
        assert abs(val - (1.0 - math.exp(-1.0))) <= 1e-9

    def test_zero_function(self):
        assert quadrature(lambda s: 0.0, 0.0, 5.0, 0.1) == 0.0

    @pytest.mark.parametrize("n_samples", [3, 4, 5, 8, 9])
    def test_exact_on_cubics(self, n_samples):
        # includes odd interval counts closed by the 3/8 tail
        nodes = np.linspace(0.0, 2.0, n_samples)
        dt = nodes[1] - nodes[0]
        y = nodes**3 - 2.0 * nodes**2 + nodes - 4.0
        exact = (2.0**4 / 4 - 2 * 2.0**3 / 3 + 2.0**2 / 2 - 4 * 2.0)
        assert simpson_samples(y, dt) == pytest.approx(exact, abs=1e-12)

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFiniteState):
            simpson_samples(np.array([0.0, np.nan, 1.0]), 0.5)


class TestEigExtremes:
    def test_diagonal(self):
        assert eig_sym_extremes(np.diag([1.0, 3.0])) == (1.0, 3.0)

    def test_offdiagonal(self):
        # eigenvalues of [[0,1],[1,0]] are -1 and 1
        lo, hi = eig_sym_extremes(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert lo == pytest.approx(-1.0, abs=1e-12)
        assert hi == pytest.approx(1.0, abs=1e-12)

    def test_identity(self):
        lo, hi = eig_sym_extremes(np.eye(3))
        assert (lo, hi) == (1.0, 1.0)

    def test_rayleigh_quotients_bracketed(self):
        rng = np.random.default_rng(3)
        m = sym(rng.standard_normal((5, 5)))
        lo, hi = eig_sym_extremes(m)
        for _ in range(100):
            v = rng.standard_normal(5)
            q = (v @ m @ v) / (v @ v)
            assert lo - 1e-10 <= q <= hi + 1e-10
