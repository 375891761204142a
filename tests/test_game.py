import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from safelq import AlphaPolicy, build_problem, riccati
from safelq.cli import main
from safelq.errors import NoConvergence, NonFiniteState
from safelq.game import (_anderson_step, lambda_map, solve_coupled,
                         sup_over_constant_alpha)
from safelq.riccati import _gap_tol, solve_from_tail, solve_stabilizing
from safelq.synthesis import simulate_closed_loop, value_from_riccati

from conftest import CONFIG_DIR, load_config
from references import lambda_map_numeric
from windowed_doubling import windowed_stabilizing

ALPHA0 = AlphaPolicy.zero(0.0, 64.0)


def reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


class TestLambdaMap:
    def test_quadratic_catalog_closed_form(self, scalar_spec):
        # a = alpha, b = alpha^2: argmax = g/2 with g = |h(x)|^2 = 2
        x = np.array([math.sqrt(2.0)])
        assert lambda_map(scalar_spec, 0.0, x) == pytest.approx(1.0, rel=1e-12)

    def test_zero_at_origin(self, cubic_spec):
        assert lambda_map(cubic_spec, 0.0, np.array([0.0])) == 0.0

    def test_vanishing_gain_and_penalty_give_zero(self, tmp_path):
        # a = b = 0: every alpha attains the sup 0, and the smallest is 0;
        # the zero gain returns before the strictly-increasing-b check
        cfg = load_config("scalar_demo.json")
        cfg["a"]["params"]["coeff"] = 0.0
        cfg["b"]["params"]["coeff"] = 0.0
        spec = build_problem(cfg)
        xs = np.array([[0.5], [0.0], [-1.0]])
        assert lambda_map(spec, 0.0, xs).tolist() == [0.0, 0.0, 0.0]
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(cfg))
        assert main(["--config", str(path), "--out", str(tmp_path / "out"),
                     "game", "--x0", "0.6"]) == 0
        lines = (tmp_path / "out" / "alpha_star.csv").read_text().splitlines()
        assert len(lines) > 3
        assert all(line.endswith(",0") for line in lines[2:])

    def test_cubic_penalty_stationarity(self):
        # a = alpha, b = alpha^3 at g = 3: 3 alpha^2 = g gives alpha = 1
        cfg = load_config("scalar_demo.json")
        cfg["b"] = {"variant": "power", "params": {"coeff": 1.0, "exponent": 3.0}}
        cfg["omega"] = {"variant": "box", "params": {"lo": [-2.0], "hi": [2.0]}}
        spec = build_problem(cfg)
        x = np.array([math.sqrt(3.0)])
        assert lambda_map(spec, 0.0, x) == pytest.approx(1.0, rel=1e-12)

    def test_numeric_search_agrees(self, scalar_spec):
        rng = np.random.default_rng(2)
        for _ in range(25):
            x = rng.uniform(-1.0, 1.0, size=1)
            closed = lambda_map(scalar_spec, 0.0, x)
            numeric = lambda_map_numeric(scalar_spec, 0.0, x)
            # derivative-free search is flat-top limited near the maximizer
            assert abs(closed - numeric) <= 1e-6

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3),
           rows=st.integers(1, 24), p=st.floats(1.0, 2.5),
           spread=st.floats(0.5, 2.0), c=st.floats(0.5, 2.0),
           d=st.floats(0.5, 2.0))
    def test_stack_matches_rows_and_numeric_search(self, seed, n, rows, p,
                                                   spread, c, d):
        cfg = load_config("ball2d_demo.json")
        cfg["dims"] = {"state": n, "control": 1}
        cfg["A"]["params"]["value"] = (-np.eye(n)).tolist()
        cfg["B"] = {"variant": "constant", "params": {"value": [[1.0]] * n}}
        cfg["omega"]["params"]["center"] = [0.0] * n
        cfg["a"] = {"variant": "power", "params": {"coeff": c, "exponent": p}}
        cfg["b"] = {"variant": "power",
                    "params": {"coeff": d, "exponent": p + spread}}
        spec = build_problem(cfg)
        # 1e-6 <= |h(x)|^2 <= 1e4 off the origin: maximizers from about 1e-14
        # to 1e9 and maximal gains far below 1e-15
        rng = np.random.default_rng(seed)
        dirs = rng.standard_normal((rows, n))
        xs = (dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
              * 10.0 ** rng.uniform(-3.0, 2.0, (rows, 1)))
        xs[0] = 0.0
        stacked = lambda_map(spec, np.zeros(rows), xs)
        per_row = np.array([lambda_map(spec, 0.0, x) for x in xs])
        assert np.array_equal(stacked.view(np.uint64), per_row.view(np.uint64))
        numeric = np.array([lambda_map_numeric(spec, 0.0, x) for x in xs])
        np.testing.assert_allclose(numeric, stacked, rtol=1e-6, atol=0.0)

    def test_numeric_search_large_maximizer(self):
        # a = 4 alpha, b = alpha^1.25 / 4 at |h|^2 = 1: alpha* = 12.8^4, where
        # an absolute 1e-12 bracket is below the float spacing
        cfg = load_config("scalar_demo.json")
        cfg["a"] = {"variant": "power", "params": {"coeff": 4.0, "exponent": 1.0}}
        cfg["b"] = {"variant": "power",
                    "params": {"coeff": 0.25, "exponent": 1.25}}
        spec = build_problem(cfg)
        x = np.array([1.0])
        numeric = lambda_map_numeric(spec, 0.0, x)
        assert numeric == pytest.approx(26843.5456, rel=1e-6)
        assert numeric == pytest.approx(lambda_map(spec, 0.0, x), rel=1e-6)

    def test_numeric_search_tiny_gain(self):
        # a = alpha^3, b = alpha^3.5: alpha* = (6 g / 7)^2 = 4.3e-5 with a
        # maximal gain near 1e-16, which an absolute tie test mistakes for 0
        cfg = load_config("scalar_demo.json")
        cfg["a"] = {"variant": "power", "params": {"coeff": 1.0, "exponent": 3.0}}
        cfg["b"] = {"variant": "power", "params": {"coeff": 1.0, "exponent": 3.5}}
        spec = build_problem(cfg)
        x = np.array([0.0875])
        closed = (6.0 * 0.0875**2 / 7.0) ** 2
        assert lambda_map(spec, 0.0, x) == pytest.approx(closed, rel=1e-12)
        assert lambda_map_numeric(spec, 0.0, x) == pytest.approx(closed,
                                                                 rel=1e-6)

    def test_lipschitz_bound_on_unit_interval(self, scalar_spec):
        # Lambda(x) = x^2 / 2 on [-1, 1] has Lipschitz constant 1
        rng = np.random.default_rng(3)
        x, y = rng.uniform(-1.0, 1.0, (2, 200, 1))
        ratio = (np.abs(lambda_map(scalar_spec, 0.0, x)
                        - lambda_map(scalar_spec, 0.0, y))
                 / np.abs(x - y)[:, 0])
        assert np.max(ratio) <= 1.0 + 1e-12


class TestConstantAlphaSweep:
    def test_singleton_grid_reduces_to_zero_policy(self, scalar_spec):
        sweep = sup_over_constant_alpha(scalar_spec, 0.0, [0.6], [0.0])
        sol = solve_stabilizing(scalar_spec, ALPHA0, 0.0, 0.0, tol=1e-8)
        ref = value_from_riccati(scalar_spec, sol, ALPHA0, 0.0, [0.6])
        assert sweep.w_lower == pytest.approx(ref, abs=1e-10)
        assert sweep.best_alpha == 0.0

    def test_max_dominates_members(self, scalar_spec):
        grid = np.linspace(0.0, 2.0, 9)
        sweep = sup_over_constant_alpha(scalar_spec, 0.0, [0.6], grid,
                                        tail=_tail(scalar_spec, 1.5))
        assert all(sweep.w_lower >= w for _, w in sweep.table)

    def test_refinement_never_decreases(self, scalar_spec):
        tail = _tail(scalar_spec, 1.5)
        coarse = sup_over_constant_alpha(scalar_spec, 0.0, [0.6],
                                         np.linspace(0.0, 1.0, 3), tail=tail)
        fine = sup_over_constant_alpha(scalar_spec, 0.0, [0.6],
                                       np.linspace(0.0, 1.0, 5), tail=tail)
        assert fine.w_lower >= coarse.w_lower - 1e-14

    def test_short_support_beats_zero_policy(self, scalar_spec):
        # a small constant weight on a short window raises the value: the
        # quadratic gain outweighs the b-penalty when the state is large
        sweep = sup_over_constant_alpha(scalar_spec, 0.0, [0.9],
                                        [0.0, 0.1, 0.2],
                                        tail=_tail(scalar_spec, 1.0))
        assert sweep.best_alpha > 0.0


def _tail(spec, support):
    # the zero policy's stabilizing P one step past a window [0, support]:
    # the constant policies hold their value on that window
    t_seed = support + spec.grid.dt
    return solve_stabilizing(spec, AlphaPolicy.zero(0.0, t_seed), t_seed,
                             t_seed)


def _per_policy_table(spec, t, x, alpha_grid, T_sim):
    # reference: one horizon-doubling solve per policy of the game class,
    # constant on [t, T_sim] and zero afterwards
    table = []
    for val in alpha_grid:
        policy = AlphaPolicy.constant(float(val), t, T_sim)
        try:
            sol = solve_stabilizing(spec, policy, t, t, tol=1e-8)
            w = value_from_riccati(spec, sol, policy, t, x)
        except (NoConvergence, NonFiniteState):
            w = -np.inf
        table.append((float(val), float(w)))
    return np.array(table)


class TestConstantAlphaLanes:
    # the game window of every shipped config is [0, 16]
    @pytest.mark.parametrize("name, x", [("ball2d_spec", [0.28, -0.19]),
                                         ("timevarying_spec", [0.32]),
                                         ("cubic_spec", [0.5])])
    def test_table_bitwise_equal_to_per_policy_solves(self, name, x, request):
        spec = request.getfixturevalue(name)
        grid = np.linspace(0.0, 2.0, 11)
        sweep = sup_over_constant_alpha(spec, 0.0, x, grid)
        ref = _per_policy_table(spec, 0.0, x, grid, 16.0)
        table = np.array(sweep.table)
        assert np.array_equal(table.view(np.uint64), ref.view(np.uint64))
        assert sweep.w_lower == ref[:, 1].max()
        assert sweep.skipped == ()

    def test_escaping_lane_is_skipped(self, scalar_spec):
        grid = [0.0, 0.5, 1e300]
        with pytest.warns(UserWarning, match="alpha=1e\\+300.*escaped at s="):
            sweep = sup_over_constant_alpha(scalar_spec, 0.0, [0.6], grid)
        values = [w for _, w in sweep.table]
        assert values[2] == -np.inf
        ref = _per_policy_table(scalar_spec, 0.0, [0.6], grid, 16.0)
        assert ref[2, 1] == -np.inf
        assert np.array_equal(np.array(values).view(np.uint64),
                              ref[:, 1].view(np.uint64))
        assert sweep.w_lower == max(values[:2])
        assert [val for val, _ in sweep.skipped] == [1e300]

    def test_default_game_sweeps_its_constant_policies_once(
            self, tmp_path, monkeypatch):
        # every sweep of a default run is one lane (the tail's doubling and
        # the Picard passes) but the last: the 11 constant policies at once
        lanes = []
        sweep = riccati._sweep

        def counting_sweep(spec, alphas, *args, **kwargs):
            lanes.append(len(alphas))
            return sweep(spec, alphas, *args, **kwargs)

        monkeypatch.setattr(riccati, "_sweep", counting_sweep)
        code = main(["--config", str(CONFIG_DIR / "scalar_demo.json"),
                     "--out", str(tmp_path), "game", "--x0", "0.6"])
        assert code == 0
        assert lanes[-1] == 11 and set(lanes[:-1]) == {1}
        rows = (tmp_path / "constant_alpha_sweep.csv").read_text()
        assert len(rows.splitlines()) == 2 + 11


@pytest.fixture(scope="module")
def coupled_at_06(scalar_spec):
    return solve_coupled(scalar_spec, 0.0, [0.6], tol=1e-6, max_iter=50)


class TestSolveCoupled:
    def test_origin_fixed_point_is_trivial(self, scalar_spec):
        gs = solve_coupled(scalar_spec, 0.0, [0.0], tol=1e-8, max_iter=10)
        assert gs.converged
        assert gs.iterations == 1
        assert np.all(gs.alpha_star.values == 0.0)
        assert gs.W == 0.0
        assert np.all(gs.xi_star.states == 0.0)

    def test_small_state_stays_near_zero_policy(self, scalar_spec):
        # alpha* = |xi|^2/2 is second order in x0
        gs = solve_coupled(scalar_spec, 0.0, [0.1], tol=1e-7, max_iter=30)
        assert gs.converged
        assert np.max(gs.alpha_star.values) <= 0.006
        sol0 = solve_stabilizing(scalar_spec, ALPHA0, 0.0, 0.0, tol=1e-9)
        w0 = value_from_riccati(scalar_spec, sol0, ALPHA0, 0.0, [0.1])
        assert abs(gs.W - w0) <= 0.05 * abs(w0)

    def test_fixed_point_self_consistency(self, scalar_spec, coupled_at_06):
        tol = 1e-6
        gs = coupled_at_06
        assert gs.converged
        # substituting (P*, xi*) back must reproduce alpha* within 2 tol
        lam = np.array([lambda_map(scalar_spec, float(s), gs.xi_star.states[k])
                        for k, s in enumerate(gs.xi_star.nodes)])
        assert float(np.max(np.abs(lam - gs.alpha_star.values))) <= 2.0 * tol

    def test_policy_nodes_are_the_trajectory_nodes(self, coupled_at_06):
        gs = coupled_at_06
        assert np.array_equal(gs.alpha_star.nodes.view(np.uint64),
                              gs.xi_star.nodes.view(np.uint64))

    def test_w_consistent_with_value_formula(self, scalar_spec, coupled_at_06):
        gs = coupled_at_06
        ref = value_from_riccati(scalar_spec, gs.P_star, gs.alpha_star,
                                 0.0, [0.6])
        assert gs.W == ref

    def test_dominates_constant_policies(self, scalar_spec, coupled_at_06):
        gs = coupled_at_06
        for support in (1.0, 2.0, 8.0):
            sweep = sup_over_constant_alpha(scalar_spec, 0.0, [0.6],
                                            np.linspace(0.0, 2.0, 11),
                                            tail=_tail(scalar_spec, support))
            assert gs.W >= sweep.w_lower - 1e-6

    def test_max_iter_reports_diagnostic(self, scalar_spec):
        gs = solve_coupled(scalar_spec, 0.0, [0.6], tol=1e-12, max_iter=2)
        assert not gs.converged
        assert gs.iterations == 2
        assert gs.alpha_update_norm > 1e-12

    def test_no_iteration_writes_null_norm(self, scalar_spec):
        gs = solve_coupled(scalar_spec, 0.0, [0.6], max_iter=0)
        assert gs.iterations == 0 and not gs.converged
        text = json.dumps(gs.to_dict())
        record = json.loads(text, parse_constant=reject_constant)
        assert record["alpha_update_norm"] is None
        assert record["update_norm_history"] == []
        assert record["mixed_steps"] == 0

    def test_strong_coupling_converges(self):
        # a = 8 alpha at x0 = 0.9: the relaxed map contracts slowly (the
        # plain iteration needs 22 passes)
        cfg = load_config("scalar_demo.json")
        cfg["a"]["params"]["coeff"] = 8.0
        spec = build_problem(cfg)
        tol = 1e-6
        gs = solve_coupled(spec, 0.0, [0.9], tol=tol, max_iter=50)
        assert gs.converged
        assert gs.iterations <= 15
        lam = lambda_map(spec, gs.xi_star.nodes, gs.xi_star.states)
        assert float(np.max(np.abs(lam - gs.alpha_star.values))) <= 2.0 * tol

    def test_rejects_outside_start(self, scalar_spec):
        with pytest.raises(ValueError):
            solve_coupled(scalar_spec, 0.0, [1.4])

    def test_rejects_bad_relaxation(self, scalar_spec):
        with pytest.raises(ValueError):
            solve_coupled(scalar_spec, 0.0, [0.5], relaxation=0.0)


def _plain_picard(spec, t, x0, tol, max_iter=50, relaxation=0.5):
    # reference: the relaxed Picard loop without Anderson mixing, with the
    # coupled solve's per-pass Riccati solve
    T_sim = t + min(16.0, spec.grid.t_max - t)
    riccati_tol = min(1e-8, 0.01 * tol)
    n_steps = max(1, int(round((T_sim - t) / spec.grid.dt)))
    nodes = t + (T_sim - t) / n_steps * np.arange(n_steps + 1)
    alpha = AlphaPolicy(nodes, np.zeros_like(nodes))
    T_seed = T_sim + (T_sim - t) / n_steps
    tail = solve_stabilizing(spec, AlphaPolicy.zero(t, T_seed), T_seed, T_seed,
                             tol=riccati_tol)
    converged = False
    for _ in range(max_iter):
        sol = solve_from_tail(spec, alpha, t, tail)
        traj = simulate_closed_loop(spec, sol, alpha, t, x0, T_sim)
        target = lambda_map(spec, nodes, traj.states)
        new_values = (1.0 - relaxation) * alpha.values + relaxation * target
        update_norm = float(np.max(np.abs(new_values - alpha.values)))
        alpha = AlphaPolicy(nodes, new_values)
        if update_norm < tol:
            converged = True
            break
    sol = solve_from_tail(spec, alpha, t, tail)
    return alpha, float(value_from_riccati(spec, sol, alpha, t, x0)), converged


COUPLED_CASES = [("scalar_spec", [0.6]),
                 ("ball2d_spec", [0.28463, -0.191796]),
                 ("timevarying_spec", [0.32385])]


@pytest.fixture(scope="module")
def coupled(request):
    """solve_coupled at tol 1e-6 from t = 0, once per (spec, x0) case."""
    solved = {}

    def solve(name, x0):
        key = (name, tuple(x0))
        if key not in solved:
            solved[key] = solve_coupled(request.getfixturevalue(name), 0.0,
                                        x0, tol=1e-6)
        return solved[key]
    return solve


class TestSeededSolveAgainstDoubling:
    @pytest.mark.parametrize("name, x0", COUPLED_CASES)
    def test_p_star_and_w_match_the_doubling_solve(self, name, x0, request,
                                                   coupled):
        # the reference re-solves alpha* by horizon doubling from P = 0 far
        # beyond the window, compared on the whole window, not from the
        # policy-free tail
        spec = request.getfixturevalue(name)
        gs = coupled(name, x0)
        riccati_tol = 1e-8
        ref = windowed_stabilizing(spec, gs.alpha_star, 0.0, 16.0,
                                   tol=riccati_tol)
        # P* runs one step further, to the tail's first node
        p_star = gs.P_star.P[:-1]
        assert p_star.shape == ref.P.shape
        np.testing.assert_allclose(gs.P_star.nodes[:-1], ref.nodes, rtol=0.0,
                                   atol=1e-12)
        gap = float(np.max(np.linalg.norm(p_star - ref.P, axis=(1, 2))))
        assert gap < _gap_tol(riccati_tol, ref.P)
        w_ref = value_from_riccati(spec, ref, gs.alpha_star, 0.0, x0)
        assert abs(gs.W - w_ref) <= 1e-10 * abs(w_ref)
        assert gs.P_star.certificate.converged
        assert gs.P_star.certificate.horizons[0] > 16.0


class TestAndersonAgainstPlainPicard:
    @pytest.mark.parametrize("name, x0", COUPLED_CASES)
    def test_same_fixed_point_in_fewer_passes(self, name, x0, request,
                                              coupled):
        spec = request.getfixturevalue(name)
        tol = 1e-6
        gs = coupled(name, x0)
        alpha_plain, w_plain, plain_converged = _plain_picard(spec, 0.0, x0,
                                                              tol)
        assert gs.converged and plain_converged
        assert gs.iterations <= 8
        assert float(np.max(np.abs(gs.alpha_star.values
                                   - alpha_plain.values))) <= 10.0 * tol
        assert abs(gs.W - w_plain) <= 1e-8
        assert len(gs.update_norm_history) == gs.iterations
        assert gs.update_norm_history[-1] == gs.alpha_update_norm < tol
        assert 1 <= gs.mixed_steps <= gs.iterations - 2


class TestAndersonStep:
    def test_non_finite_mix_takes_plain_step(self):
        # gamma = -1, but the map-value difference 2e308 overflows
        history = [(np.array([-1e308, 1.0]), np.array([1.0, 0.0]))]
        g, f = np.array([1e308, 1.0]), np.array([0.5, 0.0])
        step, mixed = _anderson_step(history, g, f)
        assert not mixed
        assert step is g

    def test_mixed_iterate_is_projected(self):
        # one difference: gamma = -1, so the mix is 2 g - g0 = (1, -1)
        history = [(np.array([1.0, 3.0]), np.array([1.0, 0.0]))]
        g, f = np.array([1.0, 1.0]), np.array([0.5, 0.0])
        step, mixed = _anderson_step(history, g, f)
        assert mixed
        assert step.tolist() == [1.0, 0.0]

    def test_growing_residual_resets_history(self):
        history = []
        for k in range(6):
            _anderson_step(history, np.full(2, 1.0 + k),
                           np.full(2, 0.5 ** k))
        assert len(history) == 4
        g, f = np.array([3.0, 3.0]), np.array([0.1, 0.0])
        step, mixed = _anderson_step(history, g, f)
        assert not mixed and step is g
        assert len(history) == 1 and history[0][0] is g


class TestOracleDomination:
    def test_game_value_below_dp_upper_bound(self, scalar_spec, coupled_at_06):
        # the DP oracle restricts controls to a finite grid, so its value is
        # an upper bound for the game value up to truncation/interpolation
        from safelq.oracle import brute_force_value, build_dp
        table = brute_force_value(build_dp(
            scalar_spec, 0.0, 10.0, n_steps=200, state_res=101,
            u_max=2.0, control_res=21, cost_mode="sup"))
        v_dp = table.value_at([0.6])
        assert coupled_at_06.W <= v_dp + 0.02 * abs(v_dp)
