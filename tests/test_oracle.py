import math
import warnings

import numpy as np
import pytest

from safelq import AlphaPolicy, build_problem, oracle
from safelq.errors import GridTooCoarseWarning
from safelq.model import _sup_alpha_gain, eval_dynamics
from safelq.oracle import brute_force_value, build_dp
from safelq.riccati import solve_stabilizing
from safelq.synthesis import value_from_riccati

from conftest import load_config, load_spec
from references import feasible_mask

ALPHA0 = AlphaPolicy.zero(0.0, 64.0)


def quiet_dp(*args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GridTooCoarseWarning)
        return brute_force_value(build_dp(*args, **kwargs))


# Reference: the per-(step, control) loop the batched oracle replaced, with
# its own multilinear interpolation and stage cost.  The oracle must match it
# bit for bit.

def reference_interpolate(values, axes, points):
    n, n_pts, snap = len(axes), points.shape[0], 1e-9
    idx, frac = [], []
    outside = np.zeros(n_pts, dtype=bool)
    for d, ax in enumerate(axes):
        pos = (points[:, d] - ax[0]) / (ax[1] - ax[0])
        outside |= (pos < -snap) | (pos > len(ax) - 1 + snap)
        i = np.clip(np.floor(pos).astype(int), 0, len(ax) - 2)
        f = np.clip(pos - i, 0.0, 1.0)
        idx.append(i)
        frac.append(np.where(f < snap, 0.0, np.where(f > 1.0 - snap, 1.0, f)))
    flat_values = values.ravel()
    out = np.zeros(n_pts)
    bad = outside.copy()
    for corner in range(1 << n):
        weight = np.ones(n_pts)
        flat = np.zeros(n_pts, dtype=int)
        stride = 1
        for d in reversed(range(n)):
            bit = (corner >> d) & 1
            weight *= frac[d] if bit else (1.0 - frac[d])
            flat += (idx[d] + bit) * stride
            stride *= len(axes[d])
        vals = flat_values[flat]
        finite = np.isfinite(vals)
        bad |= ~finite & (weight > 0.0)
        out += weight * np.where(finite, vals, 0.0)
    out[bad] = np.inf
    return out


def reference_stage_cost(dp, s, states, u):
    spec = dp.spec
    hx = spec.h.forward(states)
    g = np.sum(hx * hx, axis=1)
    u_sq = 0.5 * float(u @ u)
    if dp.cost_mode == "fixed":
        alpha_val = dp.alpha.value(s)
        return (spec.q_coeff(s, alpha_val) * g + u_sq
                - float(spec.b(alpha_val)))
    gains = np.array([_sup_alpha_gain(spec.a, spec.b, gi)[1] for gi in g])
    return 0.5 * spec.K.value(s) * g + u_sq + gains


def reference_value(dp, with_cost=True):
    spec, dt = dp.spec, dp.dt
    states = dp.state_points()
    inside = np.array([spec.omega.boundary_margin(p) for p in states]) <= 1e-12
    tables = np.empty((dp.n_steps + 1, len(states)))
    tables[-1] = np.where(inside, 0.0, np.inf)
    time_nodes = dp.t + dt * np.arange(dp.n_steps + 1)
    for i in range(dp.n_steps - 1, -1, -1):
        s = float(time_nodes[i])
        best = np.full(len(states), np.inf)
        for u in dp.controls:
            nxt = states + dt * eval_dynamics(spec, s, states, u)
            total = reference_interpolate(tables[i + 1], dp.state_axes, nxt)
            if with_cost:
                total = reference_stage_cost(dp, s, states, u) * dt + total
            np.minimum(best, total, out=best)
        best[~inside] = np.inf
        tables[i] = best
    return tables.reshape((dp.n_steps + 1,) + dp.state_shape)


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


# (config, state_res, control_res, n_steps, u_max): an autonomous 2-d demo,
# a time-varying demo, a non-identity coordinate map, an unstable drift
# that leaves part of the lattice infeasible, a 2-d demo with a
# time-varying A, whose four corners per point are relocated every step,
# and an exponential K, whose cost block changes every step
REFERENCE_GRIDS = [("ball2d_demo.json", 15, 5, 30, 1.5),
                   ("timevarying_demo.json", 61, 11, 60, 2.0),
                   ("cubic_demo.json", 61, 11, 60, 2.0),
                   ("outward_drift.json", 41, 3, 60, 0.5),
                   ("ball2d_demo.json+sinusoid_A", 15, 3, 30, 1.5),
                   ("expk_demo.json", 61, 11, 60, 2.0)]


def reference_spec(name):
    if name == "ball2d_demo.json+sinusoid_A":
        cfg = load_config("ball2d_demo.json")
        cfg["A"] = {"variant": "sinusoid", "params": {
            "base": [[-1.0, 0.0], [0.0, -1.0]],
            "amplitude": [[0.4, 0.3], [-0.3, 0.2]], "omega": 1.0}}
        return build_problem(cfg)
    return load_spec(name)


class TestAgainstReferenceLoop:
    @pytest.mark.parametrize("mode", ["fixed", "sup"])
    @pytest.mark.parametrize("name, res, n_u, steps, u_max", REFERENCE_GRIDS)
    def test_value_tables_bitwise_equal(self, name, res, n_u, steps, u_max,
                                        mode, monkeypatch):
        # the table holds the layer at t only: every later layer is checked
        # as the input of the step that reads it
        dp = build_dp(reference_spec(name), 0.0, 6.0, n_steps=steps,
                      state_res=res, u_max=u_max, control_res=n_u,
                      cost_mode=mode, alpha=ALPHA0)
        apply, inputs = oracle._apply, []

        def recording_apply(values, op):
            inputs.append(values.copy())
            return apply(values, op)

        monkeypatch.setattr(oracle, "_apply", recording_apply)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GridTooCoarseWarning)
            table = brute_force_value(dp)
        ref = reference_value(dp)
        assert np.isfinite(ref).any()
        assert table.V.shape == dp.state_shape
        np.testing.assert_array_equal(bits(table.V), bits(ref[0]))
        np.testing.assert_array_equal(
            bits(np.stack(inputs[::-1]).reshape(ref[1:].shape)), bits(ref[1:]))

    @pytest.mark.parametrize("name, res, n_u, steps, u_max", REFERENCE_GRIDS)
    def test_feasible_set_matches_zero_cost_loop(self, name, res, n_u, steps,
                                                 u_max):
        dp = build_dp(reference_spec(name), 0.0, 6.0, n_steps=steps,
                      state_res=res, u_max=u_max, control_res=n_u,
                      cost_mode="fixed", alpha=ALPHA0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GridTooCoarseWarning)
            mask = feasible_mask(brute_force_value(dp))
        np.testing.assert_array_equal(
            mask, np.isfinite(reference_value(dp, with_cost=False)[0]))

    def test_piecewise_alpha_bitwise_equal(self, ball2d_spec, monkeypatch):
        # q(s, alpha) and b(alpha) change at the policy's nodes, so the cost
        # block is built again there and reused between them
        alpha = AlphaPolicy(np.array([0.0, 1.6, 3.0, 4.4, 6.0]),
                            np.array([0.3, 0.0, 0.8, 0.2, 0.2]))
        dp = build_dp(ball2d_spec, 0.0, 6.0, n_steps=30, state_res=15,
                      u_max=1.5, control_res=5, cost_mode="fixed",
                      alpha=alpha)
        assert len(set(alpha.value(dp.t + dp.dt * np.arange(30)))) == 4
        apply, inputs = oracle._apply, []

        def recording_apply(values, op):
            inputs.append(values.copy())
            return apply(values, op)

        monkeypatch.setattr(oracle, "_apply", recording_apply)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GridTooCoarseWarning)
            table = brute_force_value(dp)
        ref = reference_value(dp)
        assert np.isfinite(ref).any()
        np.testing.assert_array_equal(bits(table.V), bits(ref[0]))
        np.testing.assert_array_equal(
            bits(np.stack(inputs[::-1]).reshape(ref[1:].shape)), bits(ref[1:]))

    def test_value_at_off_node_and_poisoned(self, ball2d_spec):
        dp = build_dp(ball2d_spec, 0.0, 6.0, n_steps=30, state_res=15,
                      u_max=1.5, control_res=5, cost_mode="fixed",
                      alpha=ALPHA0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GridTooCoarseWarning)
            table = brute_force_value(dp)
        xs = dp.state_axes[0]
        h = xs[1] - xs[0]
        probes = [[0.3 * h, -0.7 * h],          # off node, inside
                  [xs[7], xs[3]],               # on node
                  [xs[3] + 0.5 * h, xs[7]],     # on a cell edge
                  [xs[0] + 0.2 * h, xs[1]],     # cell touches the complement
                  [xs[-1] + 0.5 * h, 0.0]]      # off the lattice
        got = [table.value_at(p) for p in probes]
        ref = [reference_interpolate(table.V, dp.state_axes, np.array([p]))[0]
               for p in probes]
        assert np.isinf(ref).any() and np.isfinite(ref).any()
        np.testing.assert_array_equal(bits(got), bits(ref))


class TestInsideOnlyRows:
    @staticmethod
    def located_counts(spec, monkeypatch):
        dp = build_dp(spec, 0.0, 6.0, n_steps=30, state_res=15, u_max=1.5,
                      control_res=5, cost_mode="fixed", alpha=ALPHA0)
        locate, counts = oracle._locate, []

        def counting_locate(axes, points):
            counts.append(points.shape[0])
            return locate(axes, points)

        monkeypatch.setattr(oracle, "_locate", counting_locate)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GridTooCoarseWarning)
            table = brute_force_value(dp)
        return dp, table, spec.omega.contains(dp.state_points()), counts

    def test_ball_locates_only_points_inside_omega(self, ball2d_spec,
                                                  monkeypatch):
        dp, table, inside, counts = self.located_counts(ball2d_spec,
                                                        monkeypatch)
        # constant A and B: one operator, with a row per (control, point
        # inside Omega) pair
        assert 0 < inside.sum() < inside.size
        assert counts == [len(dp.controls) * int(inside.sum())]
        V = table.V.ravel()
        assert np.all(V[~inside] == np.inf) and np.isfinite(V[inside]).any()

    def test_box_locates_the_whole_lattice(self, timevarying_spec,
                                           monkeypatch):
        dp, table, inside, counts = self.located_counts(timevarying_spec,
                                                        monkeypatch)
        # a time-varying A: one operator per step over the whole lattice
        assert inside.all()
        assert counts == [len(dp.controls) * inside.size] * dp.n_steps
        assert np.isfinite(table.V).all()


class TestBruteForceValue:
    def test_scalar_fixed_alpha_matches_riccati(self, scalar_spec):
        # V(0, 0.5) against the algebraic value P * 0.25, 3% grid error
        sol = solve_stabilizing(scalar_spec, ALPHA0, 0.0, 0.0, tol=1e-9)
        ref = value_from_riccati(scalar_spec, sol, ALPHA0, 0.0, [0.5])
        table = quiet_dp(scalar_spec, 0.0, 10.0, n_steps=800, state_res=401,
                         u_max=4.0, control_res=81, cost_mode="fixed",
                         alpha=ALPHA0)
        v = table.value_at([0.5])
        assert abs(v - ref) <= 0.03 * abs(ref)

    def test_zero_cost_zero_value(self, outward_spec):
        # K = 0, b = 0, alpha = 0, and A = +1 kept feasible near the origin
        cfg = load_config("outward_drift.json")
        cfg["A"]["params"]["value"] = [[-1.0]]
        cfg["B"]["params"]["value"] = [[1.0]]
        spec = build_problem(cfg)
        table = quiet_dp(spec, 0.0, 4.0, n_steps=100, state_res=41,
                         u_max=1.5, control_res=11, cost_mode="fixed",
                         alpha=ALPHA0)
        assert table.value_at([0.25]) == 0.0

    def test_escape_scores_infinity(self, outward_spec):
        # x' = +x with no control: 0.5 leaves [-1, 1], so no feasible run
        table = quiet_dp(outward_spec, 0.0, 4.0, n_steps=200, state_res=101,
                         u_max=1.0, control_res=3, cost_mode="fixed",
                         alpha=ALPHA0)
        assert math.isinf(table.value_at([0.5]))

    def test_upper_bound_of_unconstrained_value(self, scalar_spec):
        # restricted controls can only do worse than the exact minimizer
        sol = solve_stabilizing(scalar_spec, ALPHA0, 0.0, 0.0, tol=1e-9)
        ref = value_from_riccati(scalar_spec, sol, ALPHA0, 0.0, [0.5])
        table = quiet_dp(scalar_spec, 0.0, 10.0, n_steps=200, state_res=101,
                         u_max=2.0, control_res=21, cost_mode="fixed",
                         alpha=ALPHA0)
        assert table.value_at([0.5]) >= ref - 0.01 * abs(ref)

    def test_refinement_shrinks_the_gap(self, scalar_spec):
        sol = solve_stabilizing(scalar_spec, ALPHA0, 0.0, 0.0, tol=1e-9)
        ref = value_from_riccati(scalar_spec, sol, ALPHA0, 0.0, [0.5])
        coarse = quiet_dp(scalar_spec, 0.0, 10.0, n_steps=100, state_res=51,
                          u_max=2.0, control_res=11, cost_mode="fixed",
                          alpha=ALPHA0)
        fine = quiet_dp(scalar_spec, 0.0, 10.0, n_steps=200, state_res=101,
                        u_max=2.0, control_res=21, cost_mode="fixed",
                        alpha=ALPHA0)
        e_coarse = abs(coarse.value_at([0.5]) - ref)
        e_fine = abs(fine.value_at([0.5]) - ref)
        assert e_fine <= e_coarse  # with 2x slack: e_fine <= 2*(e_coarse/2)

    def test_sup_mode_exceeds_fixed_mode(self, scalar_spec):
        fixed = quiet_dp(scalar_spec, 0.0, 6.0, n_steps=120, state_res=101,
                         u_max=2.0, control_res=21, cost_mode="fixed",
                         alpha=ALPHA0)
        sup = quiet_dp(scalar_spec, 0.0, 6.0, n_steps=120, state_res=101,
                       u_max=2.0, control_res=21, cost_mode="sup")
        assert sup.value_at([0.5]) >= fixed.value_at([0.5]) - 1e-12

    def test_coarse_grid_warns(self, scalar_spec):
        with pytest.warns(GridTooCoarseWarning):
            brute_force_value(build_dp(
                scalar_spec, 0.0, 10.0, n_steps=20, state_res=401,
                u_max=4.0, control_res=5, cost_mode="fixed", alpha=ALPHA0))

    def test_two_dimensional_state_supported(self, ball2d_spec):
        table = quiet_dp(ball2d_spec, 0.0, 6.0, n_steps=60, state_res=31,
                         u_max=2.0, control_res=5, cost_mode="fixed",
                         alpha=ALPHA0)
        v = table.value_at([0.0, 0.0])
        assert v == 0.0  # equilibrium with zero running cost at the origin

    def test_dimension_cap(self):
        cfg = load_config("ball2d_demo.json")
        cfg["dims"] = {"state": 3, "control": 3}
        cfg["A"]["params"]["value"] = (-np.eye(3)).tolist()
        cfg["B"]["params"]["value"] = np.eye(3).tolist()
        cfg["omega"]["params"]["center"] = [0.0, 0.0, 0.0]
        spec = build_problem(cfg)
        with pytest.raises(ValueError):
            build_dp(spec, 0.0, 1.0, 10, 5, 1.0, 3)


class TestFeasibleSet:
    def test_full_authority_everything_feasible(self, scalar_spec):
        dp = build_dp(scalar_spec, 0.0, 6.0, n_steps=120, state_res=41,
                      u_max=4.0, control_res=9, cost_mode="fixed",
                      alpha=ALPHA0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GridTooCoarseWarning)
            mask = feasible_mask(brute_force_value(dp))
        assert mask.all()

    def test_outward_drift_only_near_origin(self, outward_spec):
        dp = build_dp(outward_spec, 0.0, 8.0, n_steps=400, state_res=81,
                      u_max=1.0, control_res=3, cost_mode="fixed",
                      alpha=ALPHA0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GridTooCoarseWarning)
            mask = feasible_mask(brute_force_value(dp))
        xs = dp.state_axes[0]
        surviving = np.abs(xs[mask])
        # e^8 growth: anything beyond e^{-8} is gone up to grid resolution
        assert surviving.max() <= 2.0 * (xs[1] - xs[0])
        assert mask.any()

    def test_stationary_dynamics_full_mask(self):
        cfg = load_config("outward_drift.json")
        cfg["A"]["params"]["value"] = [[0.0]]
        spec = build_problem(cfg)
        dp = build_dp(spec, 0.0, 4.0, n_steps=50, state_res=31, u_max=0.5,
                      control_res=3, cost_mode="fixed", alpha=ALPHA0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GridTooCoarseWarning)
            mask = feasible_mask(brute_force_value(dp))
        assert mask.all()

    def test_consistent_with_base_ipc_view(self, scalar_spec):
        # where the boundary check passes with full control authority, the
        # discrete kernel keeps the whole grid
        from safelq.ipc import check_base_ipc
        for x in ([-1.0], [1.0]):
            assert check_base_ipc(scalar_spec, 0.0, np.array(x)) > 0.0
        dp = build_dp(scalar_spec, 0.0, 6.0, n_steps=120, state_res=41,
                      u_max=4.0, control_res=9, cost_mode="fixed",
                      alpha=ALPHA0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GridTooCoarseWarning)
            mask = feasible_mask(brute_force_value(dp))
        assert mask.all()


class TestValueTableDump:
    def test_csv_rows_schema(self, scalar_spec):
        table = quiet_dp(scalar_spec, 0.0, 1.0, n_steps=4, state_res=5,
                         u_max=1.0, control_res=3, cost_mode="fixed",
                         alpha=ALPHA0)
        header, rows = table.csv_rows()
        assert header == ["s", "x_1", "V"]
        assert rows == [[0.0, x, v] for x, v in zip(table.dp.state_axes[0],
                                                    table.V)]
