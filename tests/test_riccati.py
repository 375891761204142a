import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from safelq import AlphaPolicy, build_problem, riccati
from safelq.cli import main
from safelq.errors import (NoConvergence, NonFiniteState, NotStabilizable,
                           OutOfGrid)
from safelq.game import sup_over_constant_alpha
from safelq.numerics import stage_times, sym
from safelq.riccati import (_gap_tol, check_monotone_in_T, solve_are_constant,
                            solve_finite_horizon, solve_stabilizing)
from safelq.synthesis import value_from_riccati

from conftest import CONFIG_DIR, load_config, within_rounding
from windowed_doubling import windowed_stabilizing

# stabilizing root of 2 P^2 + 2 P - 1 = 0 for A=-1, B=1, R=1/2, Q=1
SCALAR_ROOT = (-1.0 + math.sqrt(3.0)) / 2.0

ALPHA0 = AlphaPolicy.zero(0.0, 64.0)


class TestFiniteHorizon:
    def test_terminal_condition_exact_zero(self, scalar_spec):
        sol = solve_finite_horizon(scalar_spec, ALPHA0, 0.0, 5.0)
        assert np.all(sol.P[-1] == 0.0)

    def test_long_horizon_reaches_algebraic_root(self, scalar_spec):
        sol = solve_finite_horizon(scalar_spec, ALPHA0, 0.0, 10.0)
        assert abs(sol.at(0.0)[0, 0] - SCALAR_ROOT) <= 1e-5

    def test_zero_weight_gives_zero_solution(self, outward_spec):
        # Q == 0 makes P == 0 the exact solution regardless of A
        sol = solve_finite_horizon(outward_spec, ALPHA0, 0.0, 5.0)
        assert np.all(sol.P == 0.0)

    def test_symmetry_exact(self, ball2d_spec):
        sol = solve_finite_horizon(ball2d_spec, ALPHA0, 0.0, 4.0)
        for p in sol.P:
            np.testing.assert_array_equal(p, p.T)

    def test_positive_semidefinite_and_definite_interior(self, ball2d_spec):
        sol = solve_finite_horizon(ball2d_spec, ALPHA0, 0.0, 4.0)
        eigs = np.array([np.linalg.eigvalsh(p) for p in sol.P])
        assert eigs.min() >= -1e-9
        # strictly positive away from the terminal node (Q > 0 on the grid)
        assert eigs[:-1].min() > 0.0

    def test_deterministic_bits(self, timevarying_spec):
        s1 = solve_finite_horizon(timevarying_spec, ALPHA0, 0.0, 4.0)
        s2 = solve_finite_horizon(timevarying_spec, ALPHA0, 0.0, 4.0)
        assert np.array_equal(s1.P, s2.P)

    def test_degenerate_horizon_single_node(self, scalar_spec):
        sol = solve_finite_horizon(scalar_spec, ALPHA0, 1.0, 1.0)
        assert len(sol.nodes) == 1
        assert np.all(sol.P[0] == 0.0)

    def test_horizon_below_half_a_step_takes_one_step(self, scalar_spec):
        # T - t = 0.004 < dt / 2 = 0.005: one step of h = 0.004, and near
        # the terminal node -P' = q + O(P) gives P(t) = q (T - t) + O(h^2)
        sol = solve_finite_horizon(scalar_spec, ALPHA0, 0.0, 0.004)
        assert sol.nodes.tolist() == [0.0, 0.004]
        q = scalar_spec.q_coeff(0.0, 0.0)
        assert abs(sol.P[0, 0, 0] - q * 0.004) <= 4.0 * 0.004**2
        assert sol.P[1, 0, 0] == 0.0

    def test_residual_second_order(self, timevarying_spec):
        def residual(dt):
            sol = solve_finite_horizon(timevarying_spec, ALPHA0, 0.0, 4.0,
                                       dt=dt)
            worst = 0.0
            for k in range(1, len(sol.nodes) - 1):
                fd = (sol.P[k + 1] - sol.P[k - 1]) / (2.0 * sol.dt)
                worst = max(worst, float(np.max(np.abs(fd - sol.dP[k]))))
            return worst

        ratio = residual(0.02) / residual(0.01)
        assert 2.5 <= ratio <= 6.0

    def test_dense_output_matches_analytic(self, scalar_spec):
        # -P' = 2 a P - s P^2 + q with a = -1, s = 2, q = 1 and P(T) = 0 is
        # p = r1 r2 (1 - E) / (r2 - r1 E), E = exp(-s (r1 - r2) (T - t)),
        # r1 > r2 the roots of s p^2 - 2 a p - q = 0.  The cubic Hermite of
        # P and dP is 5.6e-7 off at the interval midpoints; the linear
        # interpolant of the nodes is 6.2e-4 off near T
        T = 4.0
        sol = solve_finite_horizon(scalar_spec, ALPHA0, 0.0, T, dt=0.05)
        r1, r2 = SCALAR_ROOT, (-1.0 - math.sqrt(3.0)) / 2.0
        mid = sol.nodes[:-1] + 0.025
        e = np.exp(-2.0 * (r1 - r2) * (T - mid))
        exact = r1 * r2 * (1.0 - e) / (r2 - r1 * e)
        assert np.max(np.abs(sol.at(mid)[:, 0, 0] - exact)) <= 1e-6


class TestStabilizing:
    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
    def test_rejects_a_tolerance_that_is_not_positive(self, scalar_spec, tol):
        with pytest.raises(ValueError, match="tol must be positive"):
            solve_stabilizing(scalar_spec, ALPHA0, 0.0, 1.0, tol=tol)

    def test_scalar_analytic_root(self, scalar_spec):
        sol = solve_stabilizing(scalar_spec, ALPHA0, 0.0, 1.0, tol=1e-8)
        assert sol.certificate.converged
        for k in range(len(sol.nodes)):
            assert abs(sol.P[k][0, 0] - SCALAR_ROOT) <= 1e-6

    def test_decaying_weight_profile(self, expk_spec):
        # K(s) = 2 e^{-s}: P decays toward zero, monotone nonincreasing
        sol = solve_stabilizing(expk_spec, ALPHA0, 0.0, 8.0, tol=1e-9)
        prof = sol.P[:, 0, 0]
        assert np.all(np.diff(prof) <= 1e-12)
        assert prof[-1] < 0.05 * prof[0]
        # brute-force cross-check against one very long finite horizon
        long_sweep = solve_finite_horizon(expk_spec, ALPHA0, 0.0, 40.0)
        for s in (0.0, 2.0, 5.0):
            assert abs(sol.at(s)[0, 0] - long_sweep.at(s)[0, 0]) <= 1e-7

    def test_zero_weight_converges_immediately(self, outward_spec):
        sol = solve_stabilizing(outward_spec, ALPHA0, 0.0, 2.0, tol=1e-10)
        assert np.all(sol.P == 0.0)
        assert len(sol.certificate.horizons) == 2

    def test_no_convergence_reported(self):
        # unstable drift, no control authority, positive weight: the
        # finite-horizon solutions grow without bound
        cfg = load_config("outward_drift.json")
        cfg["K"]["params"] = {"level": 2.0, "t_cut": 1000.0}
        cfg["grid"]["t_max"] = 16.0
        cfg["grid"]["dt"] = 0.02
        spec = build_problem(cfg)
        with pytest.raises(NoConvergence):
            solve_stabilizing(spec, ALPHA0, 0.0, 1.0, tol=1e-8)

    def test_no_convergence_carries_certificate(self):
        # the config of the CLI's exit-2 run, which writes this certificate
        cfg = load_config("outward_drift.json")
        cfg["K"]["params"] = {"level": 2.0, "t_cut": 1000.0}
        cfg["grid"] = {"t0": 0.0, "dt": 0.02, "t_max": 8.0}
        spec = build_problem(cfg)
        with pytest.raises(NoConvergence) as info:
            solve_stabilizing(spec, ALPHA0, 0.0, 1.0, tol=1e-8)
        cert = info.value.certificate
        assert cert.converged is False
        assert len(cert.gaps) == len(cert.horizons) - 1 >= 1
        assert all(math.isfinite(g) for g in cert.gaps)
        assert cert.horizons[-1] == spec.grid.t_max

    def test_one_node_solution_answers_only_at_its_node(self, scalar_spec):
        sol = solve_stabilizing(scalar_spec, ALPHA0, 5.0, 5.0, tol=1e-8)
        assert len(sol.nodes) == 1
        assert abs(sol.at(5.0 + 5e-10)[0, 0] - SCALAR_ROOT) <= 1e-7
        with pytest.raises(OutOfGrid, match=r"^time 0\.0 outside "):
            sol.at(0.0)
        with pytest.raises(OutOfGrid):
            sol.at([5.0, 5.1])
        with pytest.raises(OutOfGrid):
            value_from_riccati(scalar_spec, sol, ALPHA0, 0.0, np.array([0.5]))

    def test_window_restriction(self, scalar_spec):
        sol = solve_stabilizing(scalar_spec, ALPHA0, 0.0, 2.5, tol=1e-8)
        assert sol.t_start == 0.0
        assert sol.t_end == pytest.approx(2.5)

    def test_agrees_with_algebraic_solver(self, ball2d_spec):
        tol = 1e-9
        sol = solve_stabilizing(ball2d_spec, ALPHA0, 0.0, 0.0, tol=tol)
        q = ball2d_spec.q_coeff(0.0, 0.0) * np.eye(2)
        p_alg = solve_are_constant(ball2d_spec.A.value(0.0),
                                   ball2d_spec.B.value(0.0),
                                   ball2d_spec.R, q)
        assert np.linalg.norm(sol.at(0.0) - p_alg, "fro") <= 10.0 * tol

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 2),
           m=st.integers(1, 2), level=st.floats(1.0, 4.0),
           span=st.floats(0.0, 16.0))
    # |P_are|_F = 7.6e4: on [0, 16] P lies within 5.6e-6 of the root, 7.4e-11
    # relative
    @example(seed=2097153, n=2, m=1, level=1.0, span=16.0)
    def test_doubling_limit_is_newton_kleinman_root(self, seed, n, m, level,
                                                    span):
        # random constant (A, B); K > 0 up to t_max makes Q positive definite
        # on every horizon, so the minimal root the doubling reaches is the
        # stabilizing one
        rng = np.random.default_rng(seed)
        a_mat = rng.uniform(-2.0, 1.0, (n, n))
        b_mat = rng.uniform(0.5, 1.5, (n, m))
        q_mat = 0.5 * level * np.eye(n)
        try:
            p_are = solve_are_constant(a_mat, b_mat, 0.5 * np.eye(m), q_mat)
        except NotStabilizable:
            assume(False)
        # the gaps shrink like exp(-2 rate T): keep pairs whose closed loop
        # settles well within the horizon cap of 64 (nearly uncontrollable
        # pairs have |P| in the thousands)
        closed = a_mat - 2.0 * b_mat @ b_mat.T @ p_are
        assume(np.max(np.linalg.eigvals(closed).real) < -0.5)
        spec = _constant_spec(a_mat, b_mat, level)
        assert np.array_equal(spec.q_coeff(0.0, 0.0) * np.eye(n), q_mat)
        riccati_tol = 1e-8
        # the limit at the window's end, swept back over [0, span]
        sol = solve_stabilizing(spec, ALPHA0, 0.0, span, tol=riccati_tol)
        # the gap test is relative to |P|_F above 1, and so is this bound
        bound = 10.0 * riccati_tol * max(1.0, np.linalg.norm(p_are, "fro"))
        assert np.max(np.linalg.norm(sol.P - p_are, axis=(1, 2))) <= bound

    def test_large_root_converges(self):
        # |P|_F = 1.2e4 with closed-loop eigenvalues -2.0 and -1.8: the
        # sweeps' rounding floor (gap 9.3e-8 at the cap) lies above an
        # absolute 1e-8, so only a gap test relative to |P| converges
        a_mat = np.array([[0.5612246778267531, -1.828790112691582],
                          [-1.2467575483576243, -0.037920438585175464]])
        b_mat = np.array([[1.0777274848434863], [1.0626059820303024]])
        p_are = solve_are_constant(a_mat, b_mat, 0.5 * np.eye(1),
                                   0.5 * np.eye(2))
        assert np.linalg.norm(p_are) > 1e4
        sol = solve_stabilizing(_constant_spec(a_mat, b_mat, 1.0), ALPHA0,
                                0.0, 0.0, tol=1e-8)
        assert sol.certificate.converged
        assert np.linalg.norm(sol.at(0.0) - p_are, "fro") <= 1e-7


class TestAgainstWindowedDoubling:
    # doubling on the whole window compares every node across horizons; the
    # limit at the window's end, swept back, must agree with it on every
    # node to within the gap test (bit for bit on most configs)
    @pytest.mark.parametrize("window", [0.0, 1.0, 8.0, 16.0])
    @pytest.mark.parametrize("config", sorted(
        p.name for p in CONFIG_DIR.glob("*.json")))
    def test_every_node_within_the_gap_tolerance(self, config, window):
        spec = build_problem(load_config(config))
        tol = 1e-8
        sol = solve_stabilizing(spec, ALPHA0, 0.0, window, tol=tol)
        ref = windowed_stabilizing(spec, ALPHA0, 0.0, window, tol=tol)
        assert sol.nodes.shape == ref.nodes.shape
        np.testing.assert_allclose(sol.nodes, ref.nodes, rtol=0.0, atol=1e-12)
        gap = float(np.max(np.linalg.norm(sol.P - ref.P, axis=(1, 2))))
        assert gap < _gap_tol(tol, ref.P)
        assert sol.certificate.horizons[0] == pytest.approx(window + 1.0)


def _constant_spec(a_mat, b_mat, level):
    # constant (A, B), K = level up to t_max, R = I/2, identity h
    n, m = b_mat.shape
    return build_problem({
        "dims": {"state": n, "control": m},
        "A": {"variant": "constant", "params": {"value": a_mat.tolist()}},
        "B": {"variant": "constant", "params": {"value": b_mat.tolist()}},
        "K": {"variant": "truncated_constant",
              "params": {"level": level, "t_cut": 64.0}},
        "a": {"variant": "linear", "params": {"coeff": 1.0}},
        "b": {"variant": "power", "params": {"coeff": 1.0, "exponent": 2.0}},
        "h": {"variant": "identity"},
        "omega": {"variant": "ball",
                  "params": {"center": [0.0] * n, "radius": 1.0}},
        "grid": {"t0": 0.0, "dt": 0.05, "t_max": 64.0}})


# 50-digit roots (mpmath Newton), rounded to 20 digits: the large root of
# test_large_root_converges, and a nearly uncontrollable pair whose double
# residual at the root sits above 1e-8
PINNED_ROOTS = [
    ([[0.5612246778267531, -1.828790112691582],
      [-1.2467575483576243, -0.037920438585175464]],
     [[1.0777274848434863], [1.0626059820303024]],
     [[6126.5160889557808959, -6114.7198582533663201],
      [-6114.7198582533663201, 6103.2528136375437861]]),
    ([[0.33, 0.349], [1.805, -0.648]], [[-0.0003], [0.0003]],
     [[15094601.615091741335, 3706641.6328157604865],
      [3706641.6328157604865, 910205.92733312879368]]),
]


class TestAlgebraicSolver:
    @pytest.mark.parametrize("a_mat, b_mat, root", PINNED_ROOTS)
    def test_pinned_root(self, a_mat, b_mat, root):
        p = solve_are_constant(np.array(a_mat), np.array(b_mat),
                               0.5 * np.eye(1), 0.5 * np.eye(2))
        assert np.linalg.norm(p - np.array(root), "fro") <= 1e-9

    def test_long_double_is_wider_than_double(self):
        # the solver forms its residual in long double: in double, near a
        # large root it sits at its rounding floor, eps |P|^2 |S|, and the
        # 1e-8 residual test refuses roots it should accept
        assert np.finfo(np.longdouble).eps < np.finfo(float).eps, (
            "np.longdouble is plain double on this platform, so the "
            "algebraic Riccati residual is formed without extra precision")

    def test_scalar_quadratic_formula(self):
        p = solve_are_constant(np.array([[-1.0]]), np.array([[1.0]]),
                               np.array([[0.5]]), np.array([[1.0]]))
        assert p[0, 0] == pytest.approx(SCALAR_ROOT, abs=1e-12)

    def test_zero_weight_stable_drift(self):
        p = solve_are_constant(np.array([[-2.0]]), np.array([[1.0]]),
                               np.array([[0.5]]), np.array([[0.0]]))
        assert abs(p[0, 0]) <= 1e-12

    def test_two_dim_decoupled(self):
        # two copies of the scalar problem: P = root * I
        p = solve_are_constant(-np.eye(2), np.eye(2), 0.5 * np.eye(2),
                               np.eye(2))
        np.testing.assert_allclose(p, SCALAR_ROOT * np.eye(2), atol=1e-10)

    def test_unstable_drift_stabilized_by_control(self):
        # A = +1 needs feedback: the Hamiltonian's stable graph is the
        # root whose closed loop is stable
        p = solve_are_constant(np.array([[1.0]]), np.array([[1.0]]),
                               np.array([[0.5]]), np.array([[1.0]]))
        # root of -P^2*2 + 2P + 1 = 0 ... 2P^2 - 2P - 1 = 0
        expected = (2.0 + math.sqrt(4.0 + 8.0)) / 4.0
        assert p[0, 0] == pytest.approx(expected, abs=1e-10)
        assert 1.0 - 2.0 * p[0, 0] < 0.0  # closed loop stable

    def test_not_stabilizable(self):
        # no control: X of the Hamiltonian's stable graph is singular
        with pytest.raises(NotStabilizable):
            solve_are_constant(np.array([[1.0]]), np.array([[0.0]]),
                               np.array([[0.5]]), np.array([[1.0]]))

    # A = 0, Q = 0: the Hamiltonian has no stable eigenvalue (P = 0 solves
    # the ARE, but its closed loop is not stable); R singular: a failed
    # linear algebra call is NotStabilizable, never LinAlgError
    @pytest.mark.parametrize("a, r, q", [(0.0, 0.5, 0.0), (1.0, 0.0, 1.0)])
    def test_refusals_are_not_stabilizable(self, a, r, q):
        with pytest.raises(NotStabilizable):
            solve_are_constant(np.array([[a]]), np.array([[1.0]]),
                               np.array([[r]]), np.array([[q]]))


class TestMonotoneInHorizon:
    def test_growing_horizon_grows_solution(self, scalar_spec):
        rep = check_monotone_in_T(scalar_spec, ALPHA0, 0.0, 0.0, 2.0, 4.0)
        assert rep.ok
        assert rep.lambda_min > 0.0

    def test_equal_horizons_zero_gap(self, scalar_spec):
        rep = check_monotone_in_T(scalar_spec, ALPHA0, 0.0, 0.0, 3.0, 3.0)
        assert rep.ok
        assert rep.lambda_min == pytest.approx(0.0, abs=1e-15)

    def test_zero_weight_zero_gap(self, outward_spec):
        rep = check_monotone_in_T(outward_spec, ALPHA0, 0.0, 0.0, 2.0, 4.0)
        assert rep.ok
        assert rep.lambda_min == 0.0

    def test_all_probe_nodes_monotone(self, timevarying_spec):
        for s in (0.0, 0.5, 1.0, 1.5):
            rep = check_monotone_in_T(timevarying_spec, ALPHA0, 0.0, s,
                                      2.0, 4.0)
            assert rep.ok


class TestCsvRows:
    def test_upper_triangle_header(self, ball2d_spec):
        sol = solve_finite_horizon(ball2d_spec, ALPHA0, 0.0, 1.0)
        header, rows = sol.csv_rows()
        assert header == ["s", "P_11", "P_12", "P_22"]
        assert len(rows) == len(sol.nodes)
        assert rows[-1][1:] == [0.0, 0.0, 0.0]


def _window_policy(values):
    # differs from policy to policy only on [0, 2]; zero tail afterwards
    return AlphaPolicy(np.linspace(0.0, 2.0, len(values)), np.array(values))


def _reference_sweep(spec, alpha, t, T, dt, p_end=0.0):
    """The one-policy backward RK4 loop with 2-d states from P(T) = p_end,
    an (n, n) matrix or a float in every entry, checked every step."""
    n = spec.dim_state
    eye = np.eye(n)
    steps = int(round((T - t) / dt))
    h = (T - t) / steps
    node_times = t + h * np.arange(steps, -1, -1)
    # the midpoint after descending node k lies at t + (h/2)(2(steps-k) - 1)
    mid_times = t + (0.5 * h) * np.arange(2 * steps - 1, 0, -2)

    def stage(times):
        b = spec.B.value(times)
        return (spec.A.value(times), 2.0 * np.einsum("kij,klj->kil", b, b),
                spec.q_coeff(times, alpha.value(times)))

    (a_n, s_n, q_n), (a_m, s_m, q_m) = stage(node_times), stage(mid_times)

    def rhs(p, a, s, q):
        return -(a.T @ p + p @ a - p @ s @ p + q * eye)

    p = np.full((n, n), p_end)
    ps, dps = [p], []
    for k in range(steps):
        k1 = rhs(p, a_n[k], s_n[k], q_n[k])
        dps.append(k1)
        k2 = rhs(p - 0.5 * h * k1, a_m[k], s_m[k], q_m[k])
        k3 = rhs(p - 0.5 * h * k2, a_m[k], s_m[k], q_m[k])
        k4 = rhs(p - h * k3, a_n[k + 1], s_n[k + 1], q_n[k + 1])
        p = sym(p - (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        if not np.all(np.isfinite(p)):
            raise NonFiniteState(f"Riccati sweep escaped at s={node_times[k + 1]}",
                                 time=float(node_times[k + 1]))
        ps.append(p)
    dps.append(rhs(p, a_n[steps], s_n[steps], q_n[steps]))
    return np.array(ps), np.array(dps)


def _bitwise_equal(a, b):
    return a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a).view(np.uint64),
        np.ascontiguousarray(b).view(np.uint64))


class TestOnePolicyPerSweep:
    @pytest.mark.parametrize("name", ["scalar_spec", "ball2d_spec",
                                      "timevarying_spec", "cubic_spec"])
    def test_policies_match_the_per_step_reference(self, name, request):
        # window policies, the zero policy and constant ones, each swept
        # alone
        spec = request.getfixturevalue(name)
        policies = [_window_policy([0.3, 0.7, 0.1, 0.0, 0.4]), ALPHA0,
                    _window_policy([0.9, 0.2, 0.5, 0.6, 0.0])] + [
            AlphaPolicy.constant(val, 0.0, 2.0)
            for val in np.linspace(0.2, 1.8, 9)]
        for policy in policies:
            sol = riccati._sweep(spec, policy, 0.0, 8.0, 0.01)
            p_ref, dp_ref = _reference_sweep(spec, policy, 0.0, 8.0, 0.01)
            assert sol.certificate is None
            assert _bitwise_equal(sol.P, p_ref[::-1])
            assert _bitwise_equal(sol.dP, dp_ref[::-1])

    def test_escaping_policy_raises_the_reference_error(self, scalar_spec):
        escaping = AlphaPolicy.constant(1e300, 0.0, 64.0)
        with pytest.raises(NonFiniteState) as ref, \
                np.errstate(over="ignore", invalid="ignore"):
            _reference_sweep(scalar_spec, escaping, 0.0, 2.0, 0.01)
        with pytest.raises(NonFiniteState) as got:
            riccati._sweep(scalar_spec, escaping, 0.0, 2.0, 0.01)
        assert str(got.value) == str(ref.value)
        assert got.value.time == ref.value.time
        # and a finite policy still matches after it
        sol = riccati._sweep(scalar_spec, ALPHA0, 0.0, 2.0, 0.01)
        p_ref, _ = _reference_sweep(scalar_spec, ALPHA0, 0.0, 2.0, 0.01)
        assert _bitwise_equal(sol.P, p_ref[::-1])

    @pytest.mark.parametrize("name", ["ball2d_spec", "timevarying_spec"])
    def test_terminal_value_resumes_a_longer_sweep(self, name, request):
        # both sweeps are anchored at 0 with step 0.01: from P(4) of the
        # sweep over [0, 8], the sweep over [0, 4] repeats its last 400 steps
        spec = request.getfixturevalue(name)
        for policy in (_window_policy([0.3, 0.7, 0.1, 0.0, 0.4]), ALPHA0):
            long = riccati._sweep(spec, policy, 0.0, 8.0, 0.01)
            sol = riccati._sweep(spec, policy, 0.0, 4.0, 0.01,
                                 p_end=long.P[400])
            assert sol.nodes[-1] == 4.0
            assert _bitwise_equal(sol.nodes, long.nodes[:401])
            assert _bitwise_equal(sol.P, long.P[:401])
            assert _bitwise_equal(sol.dP, long.dP[:401])

    def test_game_sweep_matches_doubling_solves(self, tmp_path):
        # the CLI's constant policies, each swept back from the Picard
        # loop's tail, print what per-policy doubling solves of the game
        # class give
        config = str(CONFIG_DIR / "scalar_demo.json")
        main(["--config", config, "--out", str(tmp_path), "game", "--x0",
              "0.6", "--max-iter", "1", "--alpha-points", "4"])
        lines = (tmp_path / "constant_alpha_sweep.csv").read_text().splitlines()
        spec = build_problem(load_config("scalar_demo.json"))
        expected = []
        for val in np.linspace(0.0, 2.0, 4):
            policy = AlphaPolicy.constant(float(val), 0.0, 16.0)
            sol = solve_stabilizing(spec, policy, 0.0, 0.0)
            w = value_from_riccati(spec, sol, policy, 0.0, [0.6])
            expected.append(f"{val:.17g},{w:.17g}")
        assert lines[2:] == expected

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 2),
           m=st.integers(1, 2), support=st.floats(0.5, 3.0),
           grid=st.lists(st.floats(0.0, 3.0) | st.just(1e300), min_size=1,
                         max_size=13))
    def test_constant_sweep_equals_per_policy_solves(self, seed, n, m,
                                                     support, grid):
        # random constant (A, B); a random B is controllable almost surely
        rng = np.random.default_rng(seed)
        spec = build_problem({
            "dims": {"state": n, "control": m},
            "A": {"variant": "constant",
                  "params": {"value": rng.uniform(-2.0, 1.0, (n, n)).tolist()}},
            "B": {"variant": "constant",
                  "params": {"value": rng.uniform(0.5, 1.5, (n, m)).tolist()}},
            "K": {"variant": "truncated_constant",
                  "params": {"level": float(rng.uniform(0.5, 2.0)),
                             "t_cut": 100.0}},
            "a": {"variant": "linear", "params": {"coeff": 1.0}},
            "b": {"variant": "power", "params": {"coeff": 1.0, "exponent": 2.0}},
            "h": {"variant": "identity"},
            "omega": {"variant": "ball",
                      "params": {"center": [0.0] * n, "radius": 1.0}},
            "grid": {"t0": 0.0, "dt": 0.05, "t_max": 32.0}})
        t_seed = support + 0.05
        try:
            tail = solve_stabilizing(spec, AlphaPolicy.zero(0.0, t_seed),
                                     t_seed, t_seed)
        except NoConvergence:
            assume(False)
        x = np.full(n, 0.5 / n)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sweep = sup_over_constant_alpha(spec, 0.0, x, grid, tail=tail)
        # the reference: each policy of the game class, constant up to the
        # node before the tail, solved from the tail on its own
        t_sim = stage_times(0.0, t_seed, spec.grid.dt)[-3]
        table, skipped = [], []
        for val in grid:
            policy = AlphaPolicy.constant(val, 0.0, t_sim)
            try:
                sol = riccati.solve_from_tail(spec, policy, 0.0, tail)
            except NonFiniteState as exc:
                skipped.append((val, str(exc)))
                table.append((val, -np.inf))
                continue
            assert sol.certificate is tail.certificate
            table.append((val, float(value_from_riccati(spec, sol, policy,
                                                        0.0, x))))
        assert _bitwise_equal(np.array(sweep.table), np.array(table))
        assert sweep.skipped == tuple(skipped)
        assert len(caught) == len(skipped)


class TestOneLane:
    """A sweep of n <= 2 integrates Python floats, one float for n = 1 and
    the four entries of the 2x2 for n = 2; a sweep of n >= 3 integrates
    (n, n) arrays with matmul.  Wherever a product's rounding does not
    depend on BLAS, as with the shipped configs' diagonal A and B, all
    round like the reference loop's 2-D ``@``."""

    @pytest.mark.parametrize("config", sorted(
        p.name for p in CONFIG_DIR.glob("*.json")))
    def test_matches_the_per_step_reference(self, config):
        self._check_against_reference(build_problem(load_config(config)))

    def test_matches_the_reference_with_full_matrices(self, full2d_spec):
        # on a full 2x2 BLAS may fuse a product's multiply-adds, which the
        # float sweep never does: the two agree to rounding, not bit for bit
        self._check_against_reference(full2d_spec, same=within_rounding)

    @pytest.mark.parametrize("seed", range(5))
    def test_three_states_match_the_reference(self, seed):
        # the matmul path on random full 3x3 A and 3x2 B: the sweep's (3, 3)
        # products are the reference's own, bit for bit
        rng = np.random.default_rng(seed)
        spec = _constant_spec(rng.uniform(-2.0, 1.0, (3, 3)),
                              rng.uniform(0.5, 1.5, (3, 2)), 1.0)
        self._check_against_reference(spec)

    @staticmethod
    def _check_against_reference(spec, same=_bitwise_equal):
        t, dt = spec.grid.t0, spec.grid.dt
        # positive on [t + 4, t + 8], so that P(t + 4) is not zero even
        # where K is (outward_drift)
        policy = AlphaPolicy(t + np.linspace(0.0, 8.0, 5),
                             np.array([0.3, 0.7, 0.1, 0.2, 0.4]))
        p_ref, dp_ref = _reference_sweep(spec, policy, t, t + 8.0, dt)
        sol = riccati._sweep(spec, policy, t, t + 8.0, dt)
        assert same(sol.P, p_ref[::-1])
        assert same(sol.dP, dp_ref[::-1])
        # from a non-zero P(t + 4), the sweep repeats the reference's last
        # half, node for node
        half = (len(sol.nodes) - 1) // 2
        assert sol.nodes[half] == t + 4.0
        sol = riccati._sweep(spec, policy, t, t + 4.0, dt, p_end=p_ref[half])
        assert np.any(p_ref[half] != 0.0)
        assert same(sol.P, p_ref[half:][::-1])
        assert same(sol.dP, dp_ref[half:][::-1])

    @pytest.mark.parametrize("name", ["scalar_spec", "ball2d_spec"])
    def test_escape_reports_the_reference_time_and_message(self, name,
                                                           request):
        spec = request.getfixturevalue(name)
        policy = AlphaPolicy.constant(1e300, 0.0, 64.0)
        with pytest.raises(NonFiniteState) as ref, \
                np.errstate(over="ignore", invalid="ignore"):
            _reference_sweep(spec, policy, 0.0, 2.0, 0.01)
        with pytest.raises(NonFiniteState) as got:
            riccati._sweep(spec, policy, 0.0, 2.0, 0.01)
        assert str(got.value) == str(ref.value)
        assert got.value.time == ref.value.time

    @staticmethod
    def _check_random_sweep(spec, alpha, p_end):
        # the sweep from P(4) = p_end against the reference: the same bits,
        # or the reference's escape message and time
        policy = AlphaPolicy.constant(alpha, 0.0, 2.0)
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                p_ref, dp_ref = _reference_sweep(spec, policy, 0.0, 4.0, 0.05,
                                                 p_end=p_end)
        except NonFiniteState as exc:
            with pytest.raises(NonFiniteState) as got:
                riccati._sweep(spec, policy, 0.0, 4.0, 0.05, p_end=p_end)
            assert str(got.value) == str(exc)
            assert got.value.time == exc.time
            return
        sol = riccati._sweep(spec, policy, 0.0, 4.0, 0.05, p_end=p_end)
        assert _bitwise_equal(sol.P, p_ref[::-1])
        assert _bitwise_equal(sol.dP, dp_ref[::-1])

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           level=st.just(0.0) | st.floats(0.0, 4.0),
           p_end=st.just(0.0) | st.floats(-1e200, 1e200),
           alpha=st.just(0.0) | st.floats(0.0, 3.0) | st.just(1e300))
    # K = 0 and alpha = 0 leave q = 0: from P = 0 every product is a signed
    # zero; 1e200 squared overflows to inf in the first step
    @example(seed=0, level=0.0, p_end=0.0, alpha=0.0)
    @example(seed=0, level=1.0, p_end=1e200, alpha=0.5)
    def test_scalar_sweep_matches_the_reference(self, seed, level, p_end,
                                                alpha):
        # random constant 1-D data: the float sweep rounds like the
        # reference's (1, 1) matmul, overflow and the sign of zero included
        rng = np.random.default_rng(seed)
        spec = _constant_spec(rng.uniform(-2.0, 1.0, (1, 1)),
                              rng.uniform(0.5, 1.5, (1, 1)), level)
        self._check_random_sweep(spec, alpha, p_end)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           level=st.just(0.0) | st.floats(0.0, 4.0),
           p_end=st.just(0.0) | st.floats(-1e200, 1e200),
           alpha=st.just(0.0) | st.floats(0.0, 3.0) | st.just(1e300))
    @example(seed=0, level=0.0, p_end=0.0, alpha=0.0)
    @example(seed=0, level=1.0, p_end=1e200, alpha=0.5)
    @example(seed=0, level=1.0, p_end=-1.0, alpha=0.0)
    @example(seed=0, level=1.0, p_end=-1.0, alpha=1e300)
    def test_two_dim_sweep_matches_the_reference(self, seed, level, p_end,
                                                 alpha):
        # random diagonal 2-D data from P(4) = p_end I: every product of
        # the reference's 2x2 matmul has at most one non-zero term, so the
        # float sweep rounds like it, overflow and the sign of zero included
        rng = np.random.default_rng(seed)
        spec = _constant_spec(np.diag(rng.uniform(-2.0, 1.0, 2)),
                              np.diag(rng.uniform(0.5, 1.5, 2)), level)
        self._check_random_sweep(spec, alpha, p_end * np.eye(2))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_dot_rounds_like_matmul(self, n):
        # the premise of the one-start closed loop with n >= 2:
        # ndarray.dot and matmul give the same bits on (n, n) products and
        # (n, n) (n,) products, transposed views and non-finite entries
        # included; a BLAS or numpy build that breaks it fails here
        rng = np.random.default_rng(n)
        for trial in range(400):
            a, b = rng.standard_normal((2, n, n)) * 10.0 ** rng.integers(
                -8, 9, (2, n, n))
            if trial % 4 == 3:
                a.flat[rng.integers(n * n)] = rng.choice([np.inf, -np.inf,
                                                          np.nan])
            for left, right in itertools.product((a, a.T, b, b.T), repeat=2):
                x = right[0]
                with np.errstate(invalid="ignore"):
                    assert _bitwise_equal(left.dot(right),
                                          np.matmul(left, right))
                    assert _bitwise_equal(
                        left.dot(x), np.matmul(left, x[:, None])[:, 0])
