import math

import numpy as np
import pytest

from safelq import AlphaPolicy, build_problem
from safelq.geometry import sample_boundary
from safelq.ipc import (_control_grid, check_base_ipc, check_ipc_riccati,
                        check_negative_definite, gamma_bar,
                        geometric_certificate, geometric_condition)
from safelq.model import eval_dynamics
from safelq.riccati import solve_finite_horizon, solve_stabilizing
from safelq.synthesis import gamma_matrices, simulate_closed_loop

from conftest import load_config

ALPHA0 = AlphaPolicy.zero(0.0, 64.0)


def rotational_config():
    """Weak contraction, strong rotation, single-axis control: the closed
    loop genuinely points outward somewhere on the circle."""
    return {
        "dims": {"state": 2, "control": 1},
        "A": {"variant": "constant",
              "params": {"value": [[-0.05, 1.5], [-1.5, -0.05]]}},
        "B": {"variant": "constant", "params": {"value": [[1.0], [0.0]],
                                                "bound": 1.0}},
        "K": {"variant": "truncated_constant",
              "params": {"level": 4.0, "t_cut": 100.0}},
        "a": {"variant": "linear", "params": {"coeff": 1.0}},
        "b": {"variant": "power", "params": {"coeff": 1.0, "exponent": 2.0}},
        "h": {"variant": "identity"},
        "omega": {"variant": "ball", "params": {"center": [0.0, 0.0],
                                                "radius": 1.0}},
        "grid": {"t0": 0.0, "dt": 0.01, "t_max": 64.0},
    }


class TestBaseIPC:
    def test_scalar_inward_with_zero_control(self, scalar_spec):
        # drift -x already points inward at x = 1
        margin = check_base_ipc(scalar_spec, 0.0, np.array([1.0]))
        assert margin > 0.0

    def test_outward_drift_no_authority(self, outward_spec):
        margin = check_base_ipc(outward_spec, 0.0, np.array([1.0]))
        assert margin <= 0.0

    def test_full_rank_control_always_inward(self, ball2d_spec):
        samples = sample_boundary(ball2d_spec.omega, 16)
        margins = check_base_ipc(ball2d_spec, 0.0, samples.points)
        assert margins.shape == (16,)
        assert np.all(margins > 0.0)

    def test_requires_boundary_point(self, scalar_spec):
        with pytest.raises(ValueError):
            check_base_ipc(scalar_spec, 0.0, np.array([0.2]))

    @pytest.mark.parametrize("bad", [[np.nan, 0.0], [0.2, 0.1]])
    def test_stack_with_one_point_off_the_boundary_rejected(self, ball2d_spec,
                                                            bad):
        points = sample_boundary(ball2d_spec.omega, 8).points.copy()
        points[3] = bad
        with pytest.raises(ValueError):
            check_base_ipc(ball2d_spec, 0.0, points)
        with pytest.raises(ValueError):
            check_base_ipc(ball2d_spec, 0.0, points[3])


class TestRiccatiIPC:
    def test_scalar_margin_is_contraction_rate(self, scalar_spec):
        # Gamma = A - 2 B^2 P = -sqrt(3) at the stabilizing solution, so the
        # inward margin at x = 1 is sqrt(3)
        sol = solve_stabilizing(scalar_spec, ALPHA0, 0.0, 4.0, tol=1e-9)
        samples = sample_boundary(scalar_spec.omega, 4)
        rep = check_ipc_riccati(scalar_spec, sol, np.linspace(0.0, 4.0, 9),
                                samples)
        assert rep.worst_margin == pytest.approx(math.sqrt(3.0), abs=1e-6)
        assert rep.holds

    def test_negative_definite_loop_inward_on_ball(self, ball2d_spec):
        sol = solve_stabilizing(ball2d_spec, ALPHA0, 0.0, 4.0, tol=1e-8)
        samples = sample_boundary(ball2d_spec.omega, 32)
        rep = check_ipc_riccati(ball2d_spec, sol, np.linspace(0.0, 4.0, 5),
                                samples)
        assert rep.worst_margin > 0.0

    def test_outward_field_flagged_with_witness(self):
        # A = +I with no control gives Gamma = +I: every boundary point of
        # the ball violates the condition
        cfg = rotational_config()
        cfg["A"]["params"]["value"] = [[1.0, 0.0], [0.0, 1.0]]
        cfg["B"]["params"]["value"] = [[0.0], [0.0]]
        cfg["K"]["params"]["level"] = 0.0
        spec = build_problem(cfg)
        sol = solve_finite_horizon(spec, ALPHA0, 0.0, 2.0)
        samples = sample_boundary(spec.omega, 16)
        rep = check_ipc_riccati(spec, sol, np.array([0.0, 1.0]), samples)
        assert rep.worst_margin == pytest.approx(-1.0, abs=1e-12)
        assert abs(np.linalg.norm(rep.witness_x) - 1.0) <= 1e-12

    def test_rotational_instance_reports_honest_negative(self):
        # rank-one control cannot make a strongly rotating weakly damped
        # loop inward everywhere; the checker must not certify it
        spec = build_problem(rotational_config())
        sol = solve_stabilizing(spec, ALPHA0, 0.0, 4.0, tol=1e-8)
        samples = sample_boundary(spec.omega, 128)
        rep = check_ipc_riccati(spec, sol, np.linspace(0.0, 4.0, 9), samples)
        assert rep.worst_margin < 0.0
        assert not rep.holds


class TestGeometricCondition:
    def test_ball_with_delta_equal_radius(self, geometric_spec):
        rep = geometric_condition(geometric_spec, 1.0, density=64)
        assert rep.holds and rep.raw_holds
        # rescaled constants at delta = 1: w = n = x, q = -1, product term 0
        assert rep.rho == pytest.approx(1.0, abs=1e-12)
        assert rep.theta == pytest.approx(0.0, abs=1e-12)

    def test_ball_small_delta_fails(self, geometric_spec):
        # |x - 0.4 x| = 0.6 > 0.4 on the unit circle
        rep = geometric_condition(geometric_spec, 0.4, density=32)
        assert not rep.holds
        assert rep.raw_worst_slack == pytest.approx(-0.2, abs=1e-12)

    def test_intermediate_delta_constants(self, geometric_spec):
        # delta = 0.8: rho = (1 - |delta-1|)/delta = 1, theta = |delta-1|/delta
        rep = geometric_condition(geometric_spec, 0.8, density=32)
        assert rep.holds
        assert rep.rho == pytest.approx(1.0, abs=1e-10)
        assert rep.theta == pytest.approx(0.25, abs=1e-10)

    def test_disagreement_is_flagged_not_hidden(self, geometric_spec):
        # at delta = 0.4 the raw inclusion fails while the rescaled constant
        # stays positive; the report must expose the inconsistency
        rep = geometric_condition(geometric_spec, 0.4, density=32)
        assert rep.rho > 0.0 and not rep.raw_holds
        assert not rep.consistent


class TestGammaBar:
    def test_zero_theta_gives_zero(self, geometric_spec):
        assert gamma_bar(geometric_spec, ALPHA0, rho=1.0, theta=0.0) == 0.0

    def test_exponential_weight_closed_form(self, expk_spec):
        # K = 2 e^{-s}: integral of K/2 over [0, inf) is 1
        val = gamma_bar(expk_spec, ALPHA0, rho=1.0, theta=1.0)
        assert val == pytest.approx(1.0, rel=1e-12)

    def test_linear_in_theta(self, expk_spec):
        v1 = gamma_bar(expk_spec, ALPHA0, rho=1.0, theta=1.0)
        v2 = gamma_bar(expk_spec, ALPHA0, rho=1.0, theta=2.0)
        assert v2 == pytest.approx(2.0 * v1, rel=1e-12)

    def test_alpha_contribution_exact(self, expk_spec):
        alpha = AlphaPolicy.constant(0.5, 0.0, 2.0)  # a = alpha: adds 1.0
        base = gamma_bar(expk_spec, ALPHA0, rho=1.0, theta=1.0)
        val = gamma_bar(expk_spec, alpha, rho=1.0, theta=1.0)
        assert val == pytest.approx(base + 1.0, rel=1e-12)

    def test_unbounded_sinusoid_input_uses_the_derived_bound(self):
        # no declared bound: |B|_inf = |base| + |amplitude| = 1.5, and the
        # integral of K/2 is 1
        cfg = load_config("expk_demo.json")
        cfg["B"] = {"variant": "sinusoid", "params": {
            "base": [[1.0]], "amplitude": [[-0.5]], "omega": 2.0}}
        spec = build_problem(cfg)
        assert spec.B.bound is None
        val = gamma_bar(spec, ALPHA0, rho=1.0, theta=1.0)
        assert val == pytest.approx(1.5**2, rel=1e-12)


class TestNegativeDefinite:
    def test_comfortably_definite(self):
        assert check_negative_definite(-2.0 * np.eye(2), 1.5)

    def test_rate_too_demanding(self):
        assert not check_negative_definite(-2.0 * np.eye(2), 2.5)

    def test_skew_part_ignored(self):
        a = np.array([[-3.0, 1.0], [-1.0, -3.0]])
        assert check_negative_definite(a, 3.0)


class TestSufficientConditionChain:
    def test_certified_implies_inward_margins(self, geometric_spec):
        # geometric condition + gamma-negative definite A beyond the
        # threshold must produce positive closed-loop margins everywhere
        cert = geometric_certificate(geometric_spec, ALPHA0, delta=0.8,
                                     density=64)
        assert cert.certified
        assert cert.gamma_a > cert.gamma_bar
        sol = solve_stabilizing(geometric_spec, ALPHA0, 0.0, 8.0, tol=1e-8)
        samples = sample_boundary(geometric_spec.omega, 64)
        rep = check_ipc_riccati(geometric_spec, sol,
                                np.linspace(0.0, 8.0, 9), samples)
        assert rep.worst_margin > 0.0

    def test_weak_contraction_not_certified(self, geometric_spec):
        # adversarial weight: huge gamma_bar, A far below it -> no certificate
        cfg = load_config("geometric_ball.json")
        cfg["K"] = {"variant": "truncated_constant",
                    "params": {"level": 10.0, "t_cut": 10.0}}
        gamma_fail = 0.1 * 0.25 * (0.5 * 10.0 * 10.0)  # 0.1 * gamma_bar
        cfg["A"]["params"]["value"] = [[-gamma_fail, 0.0], [0.0, -gamma_fail]]
        spec = build_problem(cfg)
        cert = geometric_certificate(spec, ALPHA0, delta=0.8, density=64)
        assert cert.gamma_bar == pytest.approx(12.5, rel=1e-12)
        assert not cert.certified


class TestFeasibilityUnderIPC:
    def test_positive_margin_keeps_trajectories_inside(self, ball2d_spec):
        sol = solve_stabilizing(ball2d_spec, ALPHA0, 0.0, 8.0, tol=1e-8)
        samples = sample_boundary(ball2d_spec.omega, 32)
        rep = check_ipc_riccati(ball2d_spec, sol, np.linspace(0.0, 8.0, 5),
                                samples)
        assert rep.worst_margin > 0.0
        rng = np.random.default_rng(1)
        tried = 0
        while tried < 25:
            x0 = rng.uniform(-1.0, 1.0, size=2)
            if ball2d_spec.omega.boundary_margin(x0) > -1e-6:
                continue
            tried += 1
            traj = simulate_closed_loop(ball2d_spec, sol, ALPHA0, 0.0, x0, 8.0)
            assert not traj.exited


# Reference: the per-control and per-(time, point) loops the stacked checks
# replaced.  The arithmetic is unchanged, so results must match bit for bit.

def reference_base_ipc(spec, s, x):
    cq = spec.omega.cone_query(x)
    best = -np.inf
    for u in _control_grid(spec.dim_control):
        best = max(best, cq.margin(eval_dynamics(spec, s, x, u)))
    return float(best)


def reference_ipc_riccati(spec, P, times, points):
    worst, wit_s, wit_x = np.inf, float(times[0]), points[0]
    for s, gamma in zip(times, gamma_matrices(spec, P, times)):
        for x in points:
            cq = spec.omega.cone_query(x)
            hx = spec.h.forward(x)
            margin = cq.margin(spec.h.apply_jacobian_t(x, gamma @ hx))
            if margin < worst:
                worst, wit_s, wit_x = margin, float(s), x
    return worst, wit_s, wit_x


def reference_geometric(spec, delta, density):
    sqrt_d = np.sqrt(delta)
    raw_worst, q_max, theta = np.inf, -np.inf, 0.0
    for x in sample_boundary(spec.omega, density).points:
        hx = spec.h.forward(x)
        jt_hx = spec.h.apply_jacobian_t(x, hx)
        for n_vec in spec.omega.cone_query(x).normals:
            slack = delta - float(np.linalg.norm(jt_hx - delta * n_vec))
            raw_worst = min(raw_worst, slack)
            w = spec.h.apply_jacobian_inv_t(x, n_vec) / sqrt_d
            w_norm = float(np.linalg.norm(w))
            gap = float(np.linalg.norm(sqrt_d * hx - w))
            q_max = max(q_max, w_norm * gap - w_norm**2)
            theta = max(theta, w_norm * gap)
    return raw_worst, -q_max, theta


def linear_box_config():
    """Non-diagonal linear h on a box: corners carry two normals."""
    cfg = rotational_config()
    cfg["B"] = {"variant": "constant",
                "params": {"value": [[1.0, 0.3], [-0.4, 0.8]]}}
    cfg["dims"]["control"] = 2
    cfg["h"] = {"variant": "linear",
                "params": {"matrix": [[1.2, 0.3], [-0.2, 0.9]]}}
    cfg["omega"] = {"variant": "box",
                    "params": {"lo": [-1.0, -0.5], "hi": [0.8, 1.0]}}
    return cfg


def ellipsoid_config():
    """Odd cubic h on an ellipsoid: smooth boundary, non-identity map."""
    cfg = linear_box_config()
    cfg["h"] = {"variant": "odd_cubic", "params": {"beta": 0.7}}
    cfg["omega"] = {"variant": "ellipsoid",
                    "params": {"center": [0.1, -0.2], "weights": [1.5, 0.6]}}
    return cfg


def oblique_polytope_config():
    """Linear h on a polytope with oblique faces: corners carry two normals,
    face points one."""
    cfg = linear_box_config()
    cfg["omega"] = {"variant": "polytope",
                    "params": {"normals": [[1.0, 0.3], [-0.4, 1.0],
                                           [-1.0, -0.7], [0.2, -1.0]],
                               "offsets": [1.0, 1.2, 0.9, 1.1]}}
    return cfg


def assert_within_ulps(got, want, ulps):
    np.testing.assert_array_max_ulp(np.float64(got), np.float64(want), ulps)


class TestAgainstPerSampleLoop:
    SPECS = {"ball2d": lambda: build_problem(load_config("ball2d_demo.json")),
             "cubic": lambda: build_problem(load_config("cubic_demo.json")),
             "rotational": lambda: build_problem(rotational_config()),
             "linear_box": lambda: build_problem(linear_box_config()),
             "ellipsoid": lambda: build_problem(ellipsoid_config()),
             "oblique_polytope":
                 lambda: build_problem(oblique_polytope_config())}
    # The stack pads a face point's one generator to the corners' two, so
    # its margins come from a (2, n) matmul where the per-point loop used a
    # (1, n) one; on oblique rows the two round up to one ulp apart.
    ULPS = {"oblique_polytope": 1}

    @pytest.mark.parametrize("name", list(SPECS))
    def test_base_ipc_bitwise(self, name):
        spec = self.SPECS[name]()
        points = sample_boundary(spec.omega, 16).points
        got = check_base_ipc(spec, 0.3, points)
        want = [reference_base_ipc(spec, 0.3, x) for x in points]
        assert_within_ulps(got, want, self.ULPS.get(name, 0))

    @pytest.mark.parametrize("name", list(SPECS))
    def test_riccati_ipc_bitwise_with_witness(self, name):
        spec = self.SPECS[name]()
        sol = solve_stabilizing(spec, ALPHA0, 0.0, 2.0, tol=1e-8)
        times = np.linspace(0.0, 2.0, 7)
        samples = sample_boundary(spec.omega, 24)
        rep = check_ipc_riccati(spec, sol, times, samples)
        worst, wit_s, wit_x = reference_ipc_riccati(spec, sol, times,
                                                    samples.points)
        assert_within_ulps(rep.worst_margin, worst, self.ULPS.get(name, 0))
        assert rep.witness_s == wit_s
        np.testing.assert_array_equal(rep.witness_x.view(np.uint64),
                                      wit_x.view(np.uint64))

    @pytest.mark.parametrize("name", list(SPECS))
    @pytest.mark.parametrize("delta", [0.4, 1.0, 1.7])
    def test_geometric_condition_bitwise(self, name, delta):
        spec = self.SPECS[name]()
        rep = geometric_condition(spec, delta, density=24)
        got = (rep.raw_worst_slack, rep.rho, rep.theta)
        want = reference_geometric(spec, delta, 24)
        np.testing.assert_array_equal(np.array(got).view(np.uint64),
                                      np.array(want).view(np.uint64))
