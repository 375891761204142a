import math

import numpy as np
import pytest

from safelq.errors import NonFiniteState, OutOfGrid
from safelq.numerics import (eig_sym_extremes, integrate_ode, simpson_samples,
                             sym)


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

    def test_nonfinite_names_first_node_in_integration_order(self):
        # backward from 1 with step -0.1: the rhs is inf below s = 0.43, so
        # the step from 0.5 to 0.4 is the first to leave the finite states;
        # in ascending order the first non-finite node would be 0
        def rhs(t, y):
            return -y if t > 0.43 else np.full_like(y, np.inf)

        with pytest.raises(NonFiniteState) as exc:
            integrate_ode(rhs, 1.0, 0.0, np.array([1.0, 2.0]), 0.1)
        assert exc.value.time == 1.0 + -0.1 * 6
        assert str(exc.value) == f"state not finite at t={1.0 + -0.1 * 6}"

    def test_stacked_start_matches_one_row_runs(self):
        # rows of a (k, n) state integrate like k separate (n,) runs, bit
        # for bit, both in the stored states and in the derivatives
        m = np.array([[-0.5, 1.0, 0.0], [-1.0, -0.2, 0.3], [0.1, 0.0, -0.7]])

        def rhs(t, y):
            return np.matmul(m, y[..., None])[..., 0] + np.sin(t) * y**2

        y0 = np.random.default_rng(4).uniform(-1.0, 1.0, (5, 3))
        stacked = integrate_ode(rhs, 0.0, 1.3, y0, 0.01)
        for i, row in enumerate(y0):
            single = integrate_ode(rhs, 0.0, 1.3, row, 0.01)
            assert np.array_equal(stacked.nodes, single.nodes)
            for got, ref in ((stacked.values[:, i], single.values),
                             (stacked.derivs[:, i], single.derivs)):
                assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))

    def test_matrix_ode_stays_symmetric(self):
        a = np.array([[-1.0, 0.3], [0.0, -2.0]])

        def rhs(t, p):
            return a.T @ p + p @ a + np.eye(2)

        path = integrate_ode(rhs, 0.0, 2.0, np.zeros((2, 2)), 0.01,
                             postprocess=sym)
        for p in path.values:
            np.testing.assert_array_equal(p, p.T)


class TestQuadrature:
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
