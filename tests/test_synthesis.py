import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from safelq import AlphaPolicy, build_problem, synthesis
from safelq.catalog import DiffeoMap
from safelq.errors import NonFiniteState, OutOfGrid
from safelq.model import eval_lagrangian
from safelq.numerics import integrate_ode, simpson_samples, stage_times
from safelq.riccati import solve_finite_horizon, solve_stabilizing
from safelq.synthesis import (cost_of_trajectory, feedback_control,
                              gamma_matrices, hamiltonian, hjb_residual,
                              simulate_closed_loop, value_from_riccati)

from conftest import CONFIG_DIR, load_config, load_spec, within_rounding
from references import finite_value_from_riccati, simulate_open_loop

SCALAR_ROOT = (-1.0 + math.sqrt(3.0)) / 2.0
ALPHA0 = AlphaPolicy.zero(0.0, 64.0)


@pytest.fixture(scope="module")
def scalar_P(scalar_spec):
    return solve_stabilizing(scalar_spec, ALPHA0, 0.0, 12.0, tol=1e-9)


class TestFeedback:
    def test_scalar_gain(self, scalar_spec, scalar_P):
        # u = -2 P x with P the algebraic root
        u = feedback_control(scalar_spec, scalar_P, 0.0, np.array([1.0]))
        assert u[0] == pytest.approx(1.0 - math.sqrt(3.0), abs=1e-6)

    def test_zero_at_origin(self, cubic_spec):
        sol = solve_stabilizing(cubic_spec, ALPHA0, 0.0, 2.0, tol=1e-8)
        u = feedback_control(cubic_spec, sol, 0.0, np.array([0.0]))
        assert u[0] == 0.0

    def test_zero_for_zero_solution(self, outward_spec):
        sol = solve_finite_horizon(outward_spec, ALPHA0, 0.0, 2.0)
        u = feedback_control(outward_spec, sol, 1.0, np.array([0.5]))
        assert u[0] == 0.0

    def test_out_of_grid(self, scalar_spec, scalar_P):
        with pytest.raises(OutOfGrid):
            feedback_control(scalar_spec, scalar_P, 99.0, np.array([0.5]))

    @pytest.mark.parametrize("config", sorted(
        p.name for p in CONFIG_DIR.glob("*.json")))
    def test_gamma_is_the_papers_closed_loop_matrix(self, config):
        self._check_gamma(load_spec(config), _same_bits)

    def test_gamma_with_full_matrices(self, full2d_spec):
        # S P sums its products in another order than (B R^{-1} B^T) P
        self._check_gamma(full2d_spec, within_rounding)

    @staticmethod
    def _check_gamma(spec, same):
        # A - B R^{-1} B^T P, one stage time at a time with @
        t = spec.grid.t0
        policy = AlphaPolicy(t + np.linspace(0.0, 4.0, 5),
                             np.array([0.3, 0.7, 0.1, 0.2, 0.4]))
        sol = solve_finite_horizon(spec, policy, t, t + 4.0)
        times = stage_times(t, t + 4.0, spec.grid.dt)
        p = sol.at(times)
        r_inv = np.linalg.inv(spec.R)
        ref = np.array([spec.A.value(s) - spec.B.value(s) @ r_inv
                        @ spec.B.value(s).T @ p[k]
                        for k, s in enumerate(times)])
        assert np.any(p != 0.0)
        assert same(gamma_matrices(spec, sol, times), ref)


class TestClosedLoop:
    def test_scalar_exponential_contraction(self, scalar_spec, scalar_P):
        traj = simulate_closed_loop(scalar_spec, scalar_P, ALPHA0, 0.0,
                                    [0.9], 12.0)
        rate = math.sqrt(3.0)
        expected = 0.9 * np.exp(-rate * traj.nodes)
        np.testing.assert_allclose(traj.states[:, 0], expected, atol=1e-5)
        assert not traj.exited

    def test_origin_is_equilibrium(self, cubic_spec):
        sol = solve_stabilizing(cubic_spec, ALPHA0, 0.0, 4.0, tol=1e-8)
        traj = simulate_closed_loop(cubic_spec, sol, ALPHA0, 0.0, [0.0], 4.0)
        assert np.all(traj.states == 0.0)
        assert cost_of_trajectory(cubic_spec, traj, ALPHA0).total == 0.0

    def test_outward_drift_exit_time(self, outward_spec):
        # x' = x from 0.5 crosses the boundary at ln 2
        sol = solve_stabilizing(outward_spec, ALPHA0, 0.0, 3.0, tol=1e-8)
        traj = simulate_closed_loop(outward_spec, sol, ALPHA0, 0.0, [0.5], 3.0)
        assert traj.exited
        assert abs(traj.exit_time - math.log(2.0)) <= 2.0 * traj.dt
        # post-exit samples are recorded, not truncated
        assert traj.nodes[-1] == pytest.approx(3.0)

    def test_rejects_outside_start(self, scalar_spec, scalar_P):
        with pytest.raises(ValueError):
            simulate_closed_loop(scalar_spec, scalar_P, ALPHA0, 0.0, [1.5], 1.0)

    def test_cumulative_cost_nondecreasing(self, scalar_spec, scalar_P):
        traj = simulate_closed_loop(scalar_spec, scalar_P, ALPHA0, 0.0,
                                    [0.9], 6.0)
        assert np.all(np.diff(traj.cum_cost) >= -1e-15)
        assert traj.states[0, 0] == 0.9


def _per_node_closed_loop(spec, P, alpha, t, x0, T_sim, dt):
    # reference: Gamma at the nodes and at the midpoints from two separate
    # calls, picked by stage parity, then one feedback_control and one
    # eval_lagrangian call per node
    n_steps = max(1, int(round((T_sim - t) / dt)))
    half = 0.5 * ((T_sim - t) / n_steps)
    at_nodes = gamma_matrices(spec, P,
                              t + half * np.arange(0, 2 * n_steps + 1, 2))
    at_mids = gamma_matrices(spec, P, t + half * np.arange(1, 2 * n_steps, 2))

    def field(j, x):
        gamma = at_mids[j // 2] if j % 2 else at_nodes[j // 2]
        return spec.h.apply_jacobian_inv(x, gamma @ spec.h.forward(x))

    path = integrate_ode(field, t, T_sim, np.asarray(x0, dtype=float), dt)
    controls = np.array([feedback_control(spec, P, s, path.values[k])
                         for k, s in enumerate(path.nodes)])
    alphas = alpha.value(path.nodes)
    running = np.array([eval_lagrangian(spec, s, path.values[k], controls[k],
                                        alphas[k])
                        for k, s in enumerate(path.nodes)])
    cum = np.concatenate([[0.0], np.cumsum(
        0.5 * (running[1:] + running[:-1]) * np.diff(path.nodes))])
    margins = np.array([spec.omega.boundary_margin(x) for x in path.values])
    return path.nodes, path.values, controls, running, cum, margins


@st.composite
def _scalar_time_matrix(draw, lo, hi):
    # a constant or sinusoidal 1x1 entry with a declared bound above its sup
    base = draw(st.floats(lo, hi))
    if draw(st.booleans()):
        return {"variant": "constant",
                "params": {"value": [[base]], "bound": abs(base) + 1.0}}
    amplitude = draw(st.floats(-1.0, 1.0))
    return {"variant": "sinusoid",
            "params": {"base": [[base]], "amplitude": [[amplitude]],
                       "omega": draw(st.floats(0.1, 5.0)),
                       "bound": abs(base) + abs(amplitude) + 1.0}}


def _scalar_spec(a_entry, b_entry, k_level=2.0):
    config = load_config("scalar_demo.json")
    config["A"], config["B"] = a_entry, b_entry
    config["K"]["params"]["level"] = k_level
    return build_problem(config)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


class TestClosedLoopFromArrays:
    @pytest.mark.parametrize("config", sorted(p.name for p in CONFIG_DIR.glob("*.json")))
    def test_bitwise_equal_to_per_node_loop(self, config):
        spec = load_spec(config)
        lo, hi = spec.omega.bounding_box()
        center = spec.omega.interior_point()
        x0 = center + 0.5 * (np.asarray(hi) - center)
        alpha = AlphaPolicy(np.linspace(0.0, 2.0, 5), [0.3, 0.7, 0.1, 0.0, 0.4])
        P = solve_stabilizing(spec, alpha, 0.0, 4.0, tol=1e-8)
        traj = simulate_closed_loop(spec, P, alpha, 0.0, x0, 4.0)
        ref = _per_node_closed_loop(spec, P, alpha, 0.0, x0, 4.0, spec.grid.dt)
        got = (traj.nodes, traj.states, traj.controls, traj.running_cost,
               traj.cum_cost, traj.margins)
        for a, b in zip(got, ref):
            assert a.shape == b.shape
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
        # outward_drift's exit is part of the comparison
        assert traj.exited == (config == "outward_drift.json")

        # a stack of starts gives the single-start runs row by row; on
        # outward_drift the centre stays put and the other two exit
        starts = np.stack([x0, center,
                           center + 0.3 * (np.asarray(lo) - center)])
        batch = simulate_closed_loop(spec, P, alpha, 0.0, starts, 4.0)
        assert batch.states.shape == (3,) + traj.states.shape
        for i, x in enumerate(starts):
            one = traj if i == 0 else simulate_closed_loop(spec, P, alpha, 0.0,
                                                           x, 4.0)
            for name in ("states", "controls", "running_cost", "cum_cost",
                         "margins", "exit_index", "exit_time"):
                a = np.asarray(getattr(batch, name)[i])
                b = np.asarray(getattr(one, name))
                assert a.shape == b.shape
                assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
        assert list(batch.exited) == ([True, False, True]
                                      if config == "outward_drift.json"
                                      else [False] * 3)

    @settings(max_examples=40, deadline=None)
    @given(a=_scalar_time_matrix(-2.0, 2.0), b=_scalar_time_matrix(0.2, 1.5),
           levels=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=4),
           x0=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-0.9, 0.9)))
    # Gamma > 0 throughout: dot gives -0.0 from a start at -0.0, matmul +0.0
    @example(a={"variant": "constant", "params": {"value": [[1.0]]}},
             b={"variant": "constant",
                "params": {"value": [[0.1]], "bound": 1.0}},
             levels=[0.5], x0=-0.0)
    def test_scalar_start_matches_the_batch_and_the_reference(self, a, b,
                                                              levels, x0):
        # a 1-D identity-h start runs on floats: its trajectory is row 0 of
        # the batch and the per-node loop, bit for bit; the sign of a zero
        # start included
        spec = _scalar_spec(a, b)
        alpha = AlphaPolicy(np.linspace(0.0, 1.2, len(levels)), levels)
        P = solve_finite_horizon(spec, alpha, 0.0, 1.5)
        one = simulate_closed_loop(spec, P, alpha, 0.0, [x0], 1.0)
        batch = simulate_closed_loop(spec, P, alpha, 0.0, [[x0], [0.5]], 1.0)
        ref = _per_node_closed_loop(spec, P, alpha, 0.0, [x0], 1.0,
                                    spec.grid.dt)
        for name, r in zip(("nodes", "states", "controls", "running_cost",
                            "cum_cost", "margins"), ref):
            got = getattr(one, name)
            assert _same_bits(got, r), name
            if name != "nodes":
                assert _same_bits(got, getattr(batch, name)[0]), name
        for name in ("exit_index", "exit_time"):
            assert _same_bits(np.asarray(getattr(one, name)),
                              np.asarray(getattr(batch, name)[0])), name

    def test_escaping_scalar_start_raises_like_the_batch(self):
        # with q = 0 the sweep keeps P = 0, so Gamma = A = 2000 and RK4's
        # growth of about 8e3 per step overflows well before t = 1
        spec = _scalar_spec({"variant": "constant",
                             "params": {"value": [[2000.0]]}},
                            {"variant": "constant",
                             "params": {"value": [[1.0]], "bound": 1.0}},
                            k_level=0.0)
        P = solve_finite_horizon(spec, ALPHA0, 0.0, 1.5)
        assert not np.any(P.P)
        raised = []
        for run in (
                lambda: simulate_closed_loop(spec, P, ALPHA0, 0.0, [0.5], 1.0),
                lambda: simulate_closed_loop(spec, P, ALPHA0, 0.0, [[0.5]],
                                             1.0),
                lambda: _per_node_closed_loop(spec, P, ALPHA0, 0.0, [0.5], 1.0,
                                              spec.grid.dt)):
            with pytest.raises(NonFiniteState) as exc:
                run()
            raised.append((exc.value.time, str(exc.value)))
        assert raised[0] == raised[1] == raised[2]

    @pytest.mark.parametrize("config", ["timevarying_demo.json",
                                        "ball2d_demo.json"])
    def test_identity_start_calls_no_map_per_stage(self, config,
                                                   monkeypatch):
        # an identity h leaves h out of the field: the map is called only by
        # the batched feedback_control and eval_lagrangian after the loop,
        # not 4 times per RK4 step; a scalar state reaches the field as a
        # Python float, a 2-D state as a tuple of two
        spec = load_spec(config)
        P = solve_stabilizing(spec, ALPHA0, 0.0, 4.0, tol=1e-8)
        calls = {"forward": 0, "apply_jacobian_inv": 0}
        for name in calls:
            method = getattr(DiffeoMap, name)

            def counting(self, *args, name=name, method=method):
                calls[name] += 1
                return method(self, *args)

            monkeypatch.setattr(DiffeoMap, name, counting)
        states = set()

        def integrate(field, *args):
            def seen(j, x):
                states.add(type(x))
                return field(j, x)
            return integrate_ode(seen, *args)

        monkeypatch.setattr(synthesis, "integrate_ode", integrate)
        x0 = 0.5 * spec.omega.interior_point() + 0.25
        simulate_closed_loop(spec, P, ALPHA0, 0.0, x0, 4.0)
        assert calls["forward"] <= 2
        assert calls["apply_jacobian_inv"] == 0
        assert states == ({float} if spec.dim_state == 1 else {tuple})

    def test_one_start_with_full_matrices(self, full2d_spec):
        # the batch row is the per-node loop's, bit for bit; the one start
        # sums each row of Gamma x in floats, where BLAS may fuse the two
        # products of a full row: it agrees to rounding
        spec = full2d_spec
        P = solve_stabilizing(spec, ALPHA0, 0.0, 4.0, tol=1e-8)
        starts = np.array([[0.3, -0.2], [-0.5, 0.1]])
        batch = simulate_closed_loop(spec, P, ALPHA0, 0.0, starts, 4.0)
        one = simulate_closed_loop(spec, P, ALPHA0, 0.0, starts[0], 4.0)
        ref = _per_node_closed_loop(spec, P, ALPHA0, 0.0, starts[0], 4.0,
                                    spec.grid.dt)
        for a, b, c in ((one.states, batch.states[0], ref[1]),
                        (one.controls, batch.controls[0], ref[2])):
            assert _same_bits(b, c)
            assert within_rounding(a, b)

    @pytest.mark.parametrize("signed_zeros", [False, True],
                             ids=["ball2d", "signed_zeros"])
    @pytest.mark.parametrize("x0", [(-0.0, 0.3), (-0.0, -0.0), (0.3, -0.0)],
                             ids=["-0,0.3", "-0,-0", "0.3,-0"])
    def test_two_state_start_is_its_batch_row(self, x0, signed_zeros):
        # on diagonal data each row of Gamma x has one non-zero product, so
        # the float field keeps matmul's bits, the sign of a zero included;
        # in the signed-zero variant q = 0 keeps P = 0, so Gamma = A = I
        # with -0.0 off the diagonal, and a row sum not started at +0.0
        # would give -0.0 from the starts (-0.0, 0.3) and (0.3, -0.0)
        if signed_zeros:
            config = load_config("ball2d_demo.json")
            config["A"]["params"]["value"] = [[1.0, -0.0], [-0.0, 1.0]]
            config["K"]["params"]["level"] = 0.0
            spec = build_problem(config)
            P = solve_finite_horizon(spec, ALPHA0, 0.0, 1.5)
            assert not np.any(P.P)
        else:
            spec = load_spec("ball2d_demo.json")
            P = solve_stabilizing(spec, ALPHA0, 0.0, 1.0, tol=1e-8)
        one = simulate_closed_loop(spec, P, ALPHA0, 0.0, x0, 1.0)
        batch = simulate_closed_loop(spec, P, ALPHA0, 0.0, [x0, (0.5, 0.1)],
                                     1.0)
        for name in ("states", "controls", "running_cost", "cum_cost",
                     "margins", "exit_index", "exit_time"):
            assert _same_bits(np.asarray(getattr(one, name)),
                              np.asarray(getattr(batch, name)[0])), name

    def test_escaping_two_state_start_raises_like_the_batch(self):
        # with q = 0 the sweep keeps P = 0, so Gamma = A = 2000 I, and the
        # state overflows well before t = 1, as in the scalar case
        config = load_config("ball2d_demo.json")
        config["A"]["params"]["value"] = [[2000.0, 0.0], [0.0, 2000.0]]
        config["K"]["params"]["level"] = 0.0
        spec = build_problem(config)
        P = solve_finite_horizon(spec, ALPHA0, 0.0, 1.5)
        assert not np.any(P.P)
        raised = []
        for x0 in ([0.5, 0.1], [[0.5, 0.1]]):
            with pytest.raises(NonFiniteState) as exc:
                simulate_closed_loop(spec, P, ALPHA0, 0.0, x0, 1.0)
            raised.append((exc.value.time, str(exc.value)))
        assert raised[0] == raised[1]

    @pytest.mark.parametrize("config", ["cubic_demo.json",
                                        "outward_drift.json"])
    @pytest.mark.parametrize("x0", [-0.0, 0.0, 0.3])
    def test_one_start_with_a_cubic_map_is_its_batch_row(self, config, x0):
        # outward_drift under h = x + x^3/2 keeps P = 0, so Gamma = A = 1:
        # a 1x1 dot keeps the -0.0 product of a start at -0.0, the stacked
        # matmul of the batch gives +0.0
        cfg = load_config(config)
        cfg["h"] = {"variant": "odd_cubic", "params": {"beta": 0.5}}
        spec = build_problem(cfg)
        P = solve_stabilizing(spec, ALPHA0, 0.0, 1.0, tol=1e-8)
        one = simulate_closed_loop(spec, P, ALPHA0, 0.0, [x0], 1.0)
        batch = simulate_closed_loop(spec, P, ALPHA0, 0.0, [[x0]], 1.0)
        for name in ("states", "controls", "running_cost", "cum_cost",
                     "margins", "exit_index", "exit_time"):
            assert _same_bits(np.asarray(getattr(one, name)),
                              np.asarray(getattr(batch, name)[0])), name


class TestValues:
    def test_scalar_infinite_horizon(self, scalar_spec, scalar_P):
        val = value_from_riccati(scalar_spec, scalar_P, ALPHA0, 0.0, [1.0])
        assert val == pytest.approx(SCALAR_ROOT, abs=1e-6)

    def test_zero_state_zero_value(self, cubic_spec):
        sol = solve_stabilizing(cubic_spec, ALPHA0, 0.0, 1.0, tol=1e-8)
        assert value_from_riccati(cubic_spec, sol, ALPHA0, 0.0, [0.0]) == 0.0

    def test_pure_quadratic_when_b_vanishes(self, scalar_spec, scalar_P):
        val = value_from_riccati(scalar_spec, scalar_P, ALPHA0, 0.0, [0.7])
        quad = float(scalar_P.at(0.0)[0, 0]) * 0.49
        assert val == pytest.approx(quad, rel=1e-15)

    def test_finite_value_at_terminal_is_zero(self, scalar_spec):
        sol = solve_finite_horizon(scalar_spec, ALPHA0, 0.0, 0.0)
        assert finite_value_from_riccati(scalar_spec, sol, ALPHA0,
                                         0.0, 0.0, [0.8]) == 0.0

    def test_finite_approaches_infinite(self, scalar_spec, scalar_P):
        sol = solve_finite_horizon(scalar_spec, ALPHA0, 0.0, 10.0)
        v_fin = finite_value_from_riccati(scalar_spec, sol, ALPHA0,
                                          0.0, 10.0, [1.0])
        v_inf = value_from_riccati(scalar_spec, scalar_P, ALPHA0, 0.0, [1.0])
        assert abs(v_fin - v_inf) <= 1e-4

    def test_constant_b_rate_subtracts_linearly(self, scalar_spec):
        alpha = AlphaPolicy.constant(1.0, 0.0, 5.0)  # b(alpha) = 1 on [0,5]
        sol = solve_finite_horizon(scalar_spec, alpha, 0.0, 5.0)
        v = finite_value_from_riccati(scalar_spec, sol, alpha, 0.0, 5.0, [0.5])
        quad = float(sol.at(0.0)[0, 0]) * 0.25
        assert v == pytest.approx(quad - 5.0, abs=1e-12)

    def test_infinite_value_requires_stabilizing(self, scalar_spec):
        sol = solve_finite_horizon(scalar_spec, ALPHA0, 0.0, 2.0)
        with pytest.raises(ValueError):
            value_from_riccati(scalar_spec, sol, ALPHA0, 0.0, [0.5])


class TestHamiltonian:
    def test_zero_costate(self, scalar_spec):
        h = hamiltonian(scalar_spec, 0.0, np.array([0.8]), np.array([0.0]), 0.5)
        expected = (1.0 + 0.5) * 0.64 - 0.25
        assert h == pytest.approx(expected, abs=1e-14)

    def test_matches_grid_minimization(self, scalar_spec):
        # independent oracle: dense minimization over the control
        x = np.array([0.7])
        p = np.array([2.0 * SCALAR_ROOT * 0.7])
        h_closed = hamiltonian(scalar_spec, 0.0, x, p, 0.0)
        us = np.linspace(-4.0, 4.0, 800001)
        grid_vals = p[0] * (-x[0] + us) + (x[0]**2 + 0.5 * us**2)
        assert abs(h_closed - grid_vals.min()) <= 1e-8

    def test_no_control_authority(self, outward_spec):
        # B = 0: H = <p, A h(x)> + <h, Q h> - b with no minimization
        h = hamiltonian(outward_spec, 0.0, np.array([0.5]), np.array([2.0]), 0.0)
        assert h == pytest.approx(2.0 * 0.5, abs=1e-14)


class TestHJBResidual:
    def test_second_order_in_dt(self, timevarying_spec):
        def max_residual(dt):
            sol = solve_finite_horizon(timevarying_spec, ALPHA0, 0.0, 4.0,
                                       dt=dt)
            xs = np.linspace(-0.9, 0.9, 20)
            svals = 0.04 * np.round(np.linspace(0.2, 3.8, 20) / 0.04)
            return max(hjb_residual(timevarying_spec, sol, ALPHA0, s,
                                    np.array([x]))
                       for s in svals for x in xs)

        ratio = max_residual(0.02) / max_residual(0.01)
        assert 3.0 <= ratio <= 5.0

    def test_exactly_zero_for_trivial_data(self, outward_spec):
        sol = solve_finite_horizon(outward_spec, ALPHA0, 0.0, 2.0)
        assert hjb_residual(outward_spec, sol, ALPHA0, 1.0,
                            np.array([0.5])) == 0.0

    def test_needs_interior_node(self, scalar_spec):
        sol = solve_finite_horizon(scalar_spec, ALPHA0, 0.0, 2.0)
        with pytest.raises(OutOfGrid):
            hjb_residual(scalar_spec, sol, ALPHA0, 0.0, np.array([0.5]))


class TestCost:
    def test_scalar_cost_matches_value(self, scalar_spec, scalar_P):
        traj = simulate_closed_loop(scalar_spec, scalar_P, ALPHA0, 0.0,
                                    [1.0], 12.0)
        cost = cost_of_trajectory(scalar_spec, traj, ALPHA0, tail_P=scalar_P)
        assert abs(cost.total - SCALAR_ROOT) <= 1e-4

    def test_tail_reported_separately(self, scalar_spec, scalar_P):
        traj = simulate_closed_loop(scalar_spec, scalar_P, ALPHA0, 0.0,
                                    [1.0], 3.0)
        cost = cost_of_trajectory(scalar_spec, traj, ALPHA0, tail_P=scalar_P)
        x_end = traj.final_state()[0]
        assert cost.tail == pytest.approx(
            float(scalar_P.at(3.0)[0, 0]) * x_end**2, rel=1e-12)
        assert cost.total == cost.truncated + cost.tail

    def test_larger_weight_costs_more(self, scalar_spec):
        from conftest import load_config
        from safelq import build_problem
        cfg = load_config("scalar_demo.json")
        cfg["K"]["params"]["level"] = 4.0
        spec2 = build_problem(cfg)
        p1 = solve_stabilizing(scalar_spec, ALPHA0, 0.0, 10.0, tol=1e-9)
        p2 = solve_stabilizing(spec2, ALPHA0, 0.0, 10.0, tol=1e-9)
        t1 = simulate_closed_loop(scalar_spec, p1, ALPHA0, 0.0, [0.8], 10.0)
        t2 = simulate_closed_loop(spec2, p2, ALPHA0, 0.0, [0.8], 10.0)
        c1 = cost_of_trajectory(scalar_spec, t1, ALPHA0, tail_P=p1)
        c2 = cost_of_trajectory(spec2, t2, ALPHA0, tail_P=p2)
        assert c2.total > c1.total

    @pytest.mark.parametrize("config, x0", [
        ("scalar_demo.json", [0.8]), ("ball2d_demo.json", [0.5, -0.3])])
    def test_tail_is_the_value_at_the_final_state(self, config, x0):
        spec = load_spec(config)
        alpha = AlphaPolicy.constant(0.5, 0.0, 8.0)
        sol = solve_stabilizing(spec, alpha, 0.0, 5.0, tol=1e-9)
        traj = simulate_closed_loop(spec, sol, alpha, 0.0, x0, 5.0)
        cost = cost_of_trajectory(spec, traj, alpha, tail_P=sol)
        value = value_from_riccati(spec, sol, alpha, float(traj.nodes[-1]),
                                   traj.final_state())
        assert _same_bits(np.array(cost.tail), np.array(value))

    def test_tail_P_ending_before_the_trajectory_is_out_of_grid(
            self, scalar_spec):
        short = solve_stabilizing(scalar_spec, ALPHA0, 0.0, 3.0, tol=1e-9)
        long = solve_stabilizing(scalar_spec, ALPHA0, 0.0, 5.0, tol=1e-9)
        traj = simulate_closed_loop(scalar_spec, long, ALPHA0, 0.0, [0.8],
                                    5.0)
        with pytest.raises(OutOfGrid):
            cost_of_trajectory(scalar_spec, traj, ALPHA0, tail_P=short)


class TestSuboptimalityOfPerturbations:
    def test_perturbed_controls_cost_at_least_the_value(self, scalar_spec):
        # finite-horizon verification inequality: any control accumulates at
        # least the Riccati value over the horizon
        T = 6.0
        sol = solve_finite_horizon(scalar_spec, ALPHA0, 0.0, T)
        x0 = np.array([0.6])
        v = finite_value_from_riccati(scalar_spec, sol, ALPHA0, 0.0, T, x0)
        base = simulate_closed_loop(scalar_spec, sol, ALPHA0, 0.0, x0, T)
        rng = np.random.default_rng(42)
        draws = [(rng.uniform(0.02, 0.3), rng.uniform(-1.0, 1.0, size=61))
                 for _ in range(20)]
        delta = np.array([d for d, _ in draws])[:, None]
        w_nodes = np.array([w for _, w in draws])

        def control(s):
            # feedback along the unperturbed path plus a bounded wiggle, one
            # wiggle per start
            k = min(int(round(s / base.dt)), len(base.nodes) - 1)
            u = feedback_control(scalar_spec, sol, s, base.states[k])
            j = min(int(s / 0.1), w_nodes.shape[1] - 1)
            return u + delta * w_nodes[:, j:j + 1]

        traj = simulate_open_loop(scalar_spec, control, ALPHA0, 0.0,
                                  np.tile(x0, (20, 1)), T)
        assert traj.running_cost.shape == (20, len(base.nodes))
        for running in traj.running_cost:
            assert simpson_samples(running, traj.dt) >= v - 1e-6

