import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from safelq.errors import NonFiniteState, OutOfGrid
from safelq.numerics import (_rk4, eig_sym_extremes, integrate_ode,
                             simpson_samples, stage_times, sym)


class TestStageTimes:
    @settings(max_examples=200, deadline=None)
    @given(t=st.floats(-100.0, 100.0), span=st.floats(-50.0, 50.0),
           dt=st.floats(1e-3, 10.0))
    def test_grid(self, t, span, dt):
        t_end = t + span
        times = stage_times(t, t_end, dt)
        if t_end == t:
            assert times.tolist() == [t]
            return
        n = max(1, int(round(abs(t_end - t) / dt)))
        h = (t_end - t) / n
        assert len(times) == 2 * n + 1
        # the even stages are the nodes t + h k, bit for bit
        assert np.array_equal(times[::2].view(np.uint64),
                              (t + h * np.arange(n + 1)).view(np.uint64))
        assert times[-1] == pytest.approx(t_end, rel=1e-12, abs=1e-12)


class TestIntegrator:
    def test_exponential_decay(self):
        # y' = -y, y(0) = 1 -> y(1) = 1/e
        path = integrate_ode(lambda j, y: -y, 0.0, 1.0, np.array([1.0]), 0.01)
        assert abs(path.values[-1][0] - math.exp(-1.0)) <= 1e-8

    def test_constant_rhs_zero(self):
        path = integrate_ode(lambda j, y: 0.0 * y, 0.0, 1.0,
                             np.array([3.0, -2.0]), 0.1)
        np.testing.assert_array_equal(path.values[-1], [3.0, -2.0])

    @pytest.mark.parametrize("t_end", [1.0, 0.5])
    def test_forward_only(self, t_end):
        with pytest.raises(ValueError):
            integrate_ode(lambda j, y: y, 1.0, t_end, np.array([1.0]), 0.01)

    def test_field_gets_the_stage_index(self):
        # y' = s on [0, 1] is y(1) = 1/2, exact under RK4 when the field
        # reads the stage times through its index
        times = stage_times(0.0, 1.0, 0.1)
        seen = []

        def field(j, y):
            seen.append(j)
            return np.array([times[j]])

        path = integrate_ode(field, 0.0, 1.0, np.array([0.0]), 0.1)
        assert np.array_equal(path.nodes, times[::2])
        assert seen[:5] == [0, 1, 1, 2, 2] and seen[-1] == 20
        assert path.values[-1][0] == pytest.approx(0.5, abs=1e-15)

    def test_fourth_order_convergence(self):
        def err(dt):
            path = integrate_ode(lambda j, y: -y, 0.0, 1.0,
                                 np.array([1.0]), dt)
            return abs(path.values[-1][0] - math.exp(-1.0))

        # halving dt must reduce the error by at least 2^3
        assert err(0.02) / err(0.01) >= 8.0

    def test_dense_output_matches_analytic(self):
        path = integrate_ode(lambda j, y: -y, 0.0, 1.0, np.array([1.0]), 0.05)
        for s in (0.123, 0.5, 0.987):
            assert abs(path.at(s)[0] - math.exp(-s)) <= 1e-7

    def test_dense_output_out_of_range(self):
        path = integrate_ode(lambda j, y: -y, 0.0, 1.0, np.array([1.0]), 0.1)
        with pytest.raises(OutOfGrid):
            path.at(1.5)

    def test_nonfinite_detected(self):
        with pytest.raises(NonFiniteState):
            integrate_ode(lambda j, y: y**3, 0.0, 2.0, np.array([10.0]), 0.01)

    def test_nonfinite_names_first_node_in_integration_order(self):
        # forward from 0 with step 0.1: the rhs is inf above s = 0.57, so
        # the step from 0.5 to 0.6 is the first to leave the finite states,
        # while the last node, which is not finite either, lies at 1
        times = stage_times(0.0, 1.0, 0.1)

        def field(j, y):
            return -y if times[j] < 0.57 else np.full_like(y, np.inf)

        with pytest.raises(NonFiniteState) as exc:
            integrate_ode(field, 0.0, 1.0, np.array([1.0, 2.0]), 0.1)
        assert exc.value.time == times[12] == pytest.approx(0.6)
        assert str(exc.value) == f"state not finite at t={times[12]}"

    def test_stacked_start_matches_one_row_runs(self):
        # rows of a (k, n) state integrate like k separate (n,) runs, bit
        # for bit, both in the stored states and in the derivatives
        m = np.array([[-0.5, 1.0, 0.0], [-1.0, -0.2, 0.3], [0.1, 0.0, -0.7]])
        sines = np.sin(stage_times(0.0, 1.3, 0.01))

        def rhs(j, y):
            return np.matmul(m, y[..., None])[..., 0] + sines[j] * y**2

        y0 = np.random.default_rng(4).uniform(-1.0, 1.0, (5, 3))
        stacked = integrate_ode(rhs, 0.0, 1.3, y0, 0.01)
        for i, row in enumerate(y0):
            single = integrate_ode(rhs, 0.0, 1.3, row, 0.01)
            assert np.array_equal(stacked.nodes, single.nodes)
            for got, ref in ((stacked.values[:, i], single.values),
                             (stacked.derivs[:, i], single.derivs)):
                assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


def _textbook_rk4(field, t_start, t_end, y0, dt):
    """The plain RK4 loop: Python-float step factors and 2.0 * k, stored
    nodes and derivatives, no finiteness check."""
    n = len(stage_times(t_start, t_end, dt)) // 2
    h = (t_end - t_start) / n
    y = np.asarray(y0, dtype=float)
    values, derivs = [y], []
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n):
            k1 = field(2 * k, y)
            derivs.append(k1)
            k2 = field(2 * k + 1, y + (0.5 * h) * k1)
            k3 = field(2 * k + 1, y + (0.5 * h) * k2)
            k4 = field(2 * k + 2, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            values.append(y)
        derivs.append(field(2 * n, y))
    return np.array(values), np.array(derivs)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a).view(np.uint64),
        np.ascontiguousarray(b).view(np.uint64))


class TestTextbookStep:
    # the kernel's 0-d step factors and k + k must not move a bit against
    # the textbook form of the step
    @pytest.mark.parametrize("y0", [
        np.array([0.7, -0.3]),
        np.random.default_rng(7).uniform(-1.0, 1.0, (6, 2)),
    ], ids=["vector", "stacked"])
    def test_matches_integrate_ode(self, y0):
        m = np.array([[-0.5, 1.0], [-1.0, -0.2]])
        sines = np.sin(3.0 * stage_times(0.0, 1.3, 0.01))

        def field(j, y):
            return np.matmul(m, y[..., None])[..., 0] + sines[j] * y**2

        path = integrate_ode(field, 0.0, 1.3, y0, 0.01)
        values, derivs = _textbook_rk4(field, 0.0, 1.3, y0, 0.01)
        assert _same_bits(path.values, values)
        assert _same_bits(path.derivs, derivs)

    def test_matches_an_escaping_state(self):
        # y' = y^2 - s y: the first row escapes (its entry 3 by s = 0.37),
        # to inf and then NaN from inf - inf; the second row stays finite
        times = stage_times(0.0, 2.0, 0.01)

        def field(j, y):
            return y * y - times[j] * y

        y0 = np.array([[1.0, 3.0], [-0.5, 0.2]])
        values, derivs = _textbook_rk4(field, 0.0, 2.0, y0, 0.01)
        assert not np.all(np.isfinite(values[-1, 0]))
        assert np.all(np.isfinite(values[:, 1]))
        got_values, got_derivs = _rk4(field, y0, len(values) - 1,
                                      2.0 / (len(values) - 1))
        assert _same_bits(np.array(got_values), values)
        assert _same_bits(np.array(got_derivs), derivs)
        first = np.argmin(np.isfinite(values.reshape(len(values), -1)).all(1))
        with pytest.raises(NonFiniteState) as exc:
            integrate_ode(field, 0.0, 2.0, y0, 0.01)
        assert exc.value.time == times[2 * first]

    # a float state steps with float factors: the same bits as a 1-element
    # array, and every stored node and derivative stays a Python float
    @pytest.mark.parametrize("y0", [0.7, -0.3, 3.0])
    @pytest.mark.parametrize("case", ["sines", "escape"])
    def test_float_state_matches_a_one_element_array(self, case, y0):
        # the two fields above on one entry (m = -0.5 for "sines"); both
        # take 3.0 to inf and then NaN and keep 0.7 and -0.3 finite
        t_end = 1.3 if case == "sines" else 2.0
        times = stage_times(0.0, t_end, 0.01)
        if case == "sines":
            coeffs = np.sin(3.0 * times).tolist()

            def field(j, y):
                return -0.5 * y + coeffs[j] * (y * y)
        else:
            coeffs = times.tolist()

            def field(j, y):
                return y * y - coeffs[j] * y

        values, derivs = _textbook_rk4(field, 0.0, t_end, np.array([y0]), 0.01)
        assert np.isfinite(values[-1, 0]) == (y0 < 3.0)
        got_values, got_derivs = _rk4(field, y0, len(values) - 1,
                                      t_end / (len(values) - 1))
        assert all(type(v) is float for v in got_values + got_derivs)
        assert _same_bits(np.array(got_values), values[:, 0])
        assert _same_bits(np.array(got_derivs), derivs[:, 0])

    # integrate_ode from a Python float: values and derivs (nodes,), the
    # bits of a (1,) start; the fields use only * and +, as float ** and /
    # raise where numpy gives inf
    @pytest.mark.parametrize("y0", [0.7, -0.0, 3.0])
    @pytest.mark.parametrize("case", ["linear", "escape"])
    def test_float_start_matches_a_one_element_start(self, case, y0):
        times = stage_times(0.0, 2.0, 0.01)
        coeffs = (-1.5 + np.sin(3.0 * times)).tolist()
        if case == "linear":
            def field(j, y):
                return coeffs[j] * y
        else:
            def field(j, y):
                return y * y + coeffs[j] * y

        def run(start):
            try:
                return integrate_ode(field, 0.0, 2.0, start, 0.01)
            except NonFiniteState as exc:
                return exc

        got, ref = run(y0), run(np.array([y0]))
        if case == "escape" and y0 == 3.0:
            assert isinstance(got, NonFiniteState)
            assert isinstance(ref, NonFiniteState)
            assert (got.time, str(got)) == (ref.time, str(ref))
            return
        assert np.array_equal(got.nodes, ref.nodes)
        assert _same_bits(got.values, ref.values[:, 0])
        assert _same_bits(got.derivs, ref.derivs[:, 0])

    @pytest.mark.parametrize("x", [0.3, -0.0, 1e308, math.inf, math.nan])
    def test_sym_of_a_float_is_that_of_a_1x1_matrix(self, x):
        # 1e308 + 1e308 overflows to inf on both paths
        with np.errstate(over="ignore"):
            got, ref = sym(x), sym(np.array([[x]]))[0, 0]
        assert type(got) is float
        assert _same_bits(np.array(got), ref)

    # a 2x2 state as the tuple (y00, y01, y10, y11) steps entry by entry:
    # the bits of a (2, 2) array under an entrywise field
    @pytest.mark.parametrize("case", ["sines", "escape"])
    def test_tuple_state_matches_a_2x2_array(self, case):
        # the fields above, per entry: 3.0 goes to inf and then NaN, the
        # other entries, a negative zero among them, stay finite
        t_end = 1.3 if case == "sines" else 2.0
        times = stage_times(0.0, t_end, 0.01)
        y0 = (0.7, -0.3, -0.0, 3.0)
        if case == "sines":
            coeffs = np.sin(3.0 * times).tolist()

            def field(j, y):
                c = coeffs[j]
                return tuple([-0.5 * u + c * (u * u) for u in y])
        else:
            coeffs = times.tolist()

            def field(j, y):
                c = coeffs[j]
                return tuple([u * u - c * u for u in y])

        def array_field(j, y):
            return np.reshape(field(j, tuple(y.ravel().tolist())), (2, 2))

        values, derivs = _textbook_rk4(array_field, 0.0, t_end,
                                       np.reshape(y0, (2, 2)), 0.01)
        assert np.isfinite(values[-1]).tolist() == [[True, True],
                                                    [True, False]]
        got_values, got_derivs = _rk4(field, y0, len(values) - 1,
                                      t_end / (len(values) - 1))
        assert all(type(v) is tuple and len(v) == 4
                   for v in got_values + got_derivs)
        assert _same_bits(np.reshape(got_values, values.shape), values)
        assert _same_bits(np.reshape(got_derivs, derivs.shape), derivs)

    @pytest.mark.parametrize("m", [
        (0.3, -0.0, 0.0, 2.0),
        (1e308, 1e308, 1e308, -1e308),
        (math.inf, math.nan, 1.0, -0.0),
        (-0.0, 0.1, 0.3, -0.0)])
    def test_sym_of_a_tuple_is_that_of_a_2x2_matrix(self, m):
        # 1e308 + 1e308 overflows to inf on both paths
        with np.errstate(over="ignore"):
            got, ref = sym(m), sym(np.reshape(m, (2, 2)))
        assert type(got) is tuple
        assert _same_bits(np.reshape(got, (2, 2)), ref)


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
