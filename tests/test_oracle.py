import dataclasses
import math
import warnings

import numpy as np
import pytest

from safelq import AlphaPolicy, build_problem, oracle
from safelq.model import eval_dynamics, eval_lagrangian
from safelq.numerics import matvec
from safelq.oracle import brute_force_value, build_dp
from safelq.riccati import solve_stabilizing
from safelq.synthesis import value_from_riccati

from conftest import load_config, load_spec
from references import eval_sup_lagrangian, feasible_mask

ALPHA0 = AlphaPolicy.zero(0.0, 64.0)


def dp_value(*args, **kwargs):
    return brute_force_value(build_dp(*args, **kwargs))


# Reference: a per-(step, control) loop over the whole lattice, with its own
# multilinear interpolation, central differences and candidate stage, on
# the model's dynamics and running cost.  The oracle must match it bit for
# bit.

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


def reference_rate(dp, s, states, u):
    """Running cost at s per state, for one control or one per state."""
    if dp.cost_mode == "fixed":
        return eval_lagrangian(dp.spec, s, states, u, dp.alpha.value(s))
    return eval_sup_lagrangian(dp.spec, s, states, u)


def reference_transition(dp, s0, s1, states, u, layer, with_cost):
    """Trapezoid cost plus the layer at the Heun foot, per state."""
    spec, dt = dp.spec, dp.dt
    f0 = eval_dynamics(spec, s0, states, u)
    f1 = eval_dynamics(spec, s1, states + dt * f0, u)
    feet = states + 0.5 * dt * (f0 + f1)
    total = reference_interpolate(layer, dp.state_axes, feet)
    if with_cost:
        total = 0.5 * dt * (reference_rate(dp, s0, states, u)
                            + reference_rate(dp, s1, feet, u)) + total
    return total


def reference_gradient(layer, axes):
    """Central differences of a lattice layer, one-sided at its edges,
    stacked (..., n); not finite next to a +inf entry."""
    grads = []
    with np.errstate(invalid="ignore"):
        for d, ax in enumerate(axes):
            f = np.moveaxis(layer, d, 0)
            h = ax[1] - ax[0]
            out = np.empty_like(f)
            out[1:-1] = (f[2:] - f[:-2]) / (2.0 * h)
            out[0] = (f[1] - f[0]) / h
            out[-1] = (f[-1] - f[-2]) / h
            grads.append(np.moveaxis(out, 0, d))
    return np.stack(grads, axis=-1).reshape(-1, len(axes))


def reference_candidate(dp, s0, s1, states, layer, u_max, with_cost):
    """The transition under the gradient control clip(-B^T grad_h^{-T}
    grad V), per state; +inf where grad V is not finite."""
    spec = dp.spec
    grad = reference_gradient(layer.reshape(dp.state_shape), dp.state_axes)
    ok = np.isfinite(grad).all(axis=1)
    w = spec.h.apply_jacobian_inv_t(states, np.where(ok[:, None], grad, 0.0))
    u = np.clip(-matvec(spec.B.value(s0).T, w), -u_max, u_max)
    total = reference_transition(dp, s0, s1, states, u, layer, with_cost)
    return np.where(ok, total, np.inf)


def reference_value(dp, u_max, with_cost=True):
    spec, dt = dp.spec, dp.dt
    states = dp.state_points()
    inside = np.array([spec.omega.boundary_margin(p) for p in states]) <= 1e-12
    tables = np.empty((dp.n_steps + 1, len(states)))
    tables[-1] = np.where(inside, 0.0, np.inf)
    time_nodes = dp.t + dt * np.arange(dp.n_steps + 1)
    for i in range(dp.n_steps - 1, -1, -1):
        s0, s1 = float(time_nodes[i]), float(time_nodes[i + 1])
        best = np.full(len(states), np.inf)
        for u in dp.controls:
            np.minimum(best, reference_transition(
                dp, s0, s1, states, u, tables[i + 1], with_cost), out=best)
        np.minimum(best, reference_candidate(
            dp, s0, s1, states, tables[i + 1], u_max, with_cost), out=best)
        best[~inside] = np.inf
        tables[i] = best
    return tables.reshape((dp.n_steps + 1,) + dp.state_shape)


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


# (config, state_res, control_res, n_steps, u_max): an autonomous 2-d demo,
# a time-varying demo, a non-identity coordinate map, an unstable drift
# that leaves part of the lattice infeasible, a 2-d demo with a
# time-varying A, whose four corners per point are relocated every step,
# the same with a time-varying B, whose B u differs between a step's two
# slopes, and an exponential K, whose cost block changes every step
REFERENCE_GRIDS = [("ball2d_demo.json", 15, 5, 30, 1.5),
                   ("timevarying_demo.json", 61, 11, 60, 2.0),
                   ("cubic_demo.json", 61, 11, 60, 2.0),
                   ("outward_drift.json", 41, 3, 60, 0.5),
                   ("ball2d_demo.json+sinusoid_A", 15, 3, 30, 1.5),
                   ("ball2d_demo.json+sinusoid_B", 15, 3, 30, 1.5),
                   ("expk_demo.json", 61, 11, 60, 2.0)]


def reference_spec(name):
    base, _, variant = name.partition("+sinusoid_")
    if variant:
        cfg = load_config(base)
        cfg[variant] = {"variant": "sinusoid", "params": {
            "base": [[-1.0, 0.0], [0.0, -1.0]] if variant == "A" else
                    [[1.0, 0.0], [0.0, 1.0]],
            "amplitude": [[0.4, 0.3], [-0.3, 0.2]], "omega": 1.0}}
        return build_problem(cfg)
    return load_spec(name)


def recorded_layers(monkeypatch):
    """Record the layer V(s_{i+1}) that each backward step reads."""
    gradient_controls, layers = oracle._gradient_controls, []

    def recording(dp, s, V, inside, kept):
        layers.append(V.copy())
        return gradient_controls(dp, s, V, inside, kept)

    monkeypatch.setattr(oracle, "_gradient_controls", recording)
    return layers


def assert_matches_reference(dp, u_max, layers, table):
    # the table holds the layer at t only: every later layer is checked
    # as the input of the step that reads it
    ref = reference_value(dp, u_max)
    assert np.isfinite(ref).any()
    assert table.V.shape == dp.state_shape
    np.testing.assert_array_equal(bits(table.V), bits(ref[0]))
    np.testing.assert_array_equal(
        bits(np.stack(layers[::-1]).reshape(ref[1:].shape)), bits(ref[1:]))


class TestAgainstReferenceLoop:
    @pytest.mark.parametrize("mode", ["fixed", "sup"])
    @pytest.mark.parametrize("name, res, n_u, steps, u_max", REFERENCE_GRIDS)
    def test_value_tables_bitwise_equal(self, name, res, n_u, steps, u_max,
                                        mode, monkeypatch):
        dp = build_dp(reference_spec(name), 0.0, 6.0, n_steps=steps,
                      state_res=res, u_max=u_max, control_res=n_u,
                      cost_mode=mode, alpha=ALPHA0)
        layers = recorded_layers(monkeypatch)
        assert_matches_reference(dp, u_max, layers, brute_force_value(dp))

    @pytest.mark.parametrize("name, res, n_u, steps, u_max", REFERENCE_GRIDS)
    def test_feasible_set_matches_zero_cost_loop(self, name, res, n_u, steps,
                                                 u_max):
        dp = build_dp(reference_spec(name), 0.0, 6.0, n_steps=steps,
                      state_res=res, u_max=u_max, control_res=n_u,
                      cost_mode="fixed", alpha=ALPHA0)
        mask = feasible_mask(brute_force_value(dp))
        np.testing.assert_array_equal(
            mask, np.isfinite(reference_value(dp, u_max, with_cost=False)[0]))

    def test_piecewise_alpha_bitwise_equal(self, ball2d_spec, monkeypatch):
        # q(s, alpha) and b(alpha) change at the policy's nodes, so the cost
        # block is built again there and reused between them
        alpha = AlphaPolicy(np.array([0.0, 1.6, 3.0, 4.4, 6.0]),
                            np.array([0.3, 0.0, 0.8, 0.2, 0.2]))
        dp = build_dp(ball2d_spec, 0.0, 6.0, n_steps=30, state_res=15,
                      u_max=1.5, control_res=5, cost_mode="fixed",
                      alpha=alpha)
        assert len(set(alpha.value(dp.t + dp.dt * np.arange(30)))) == 4
        layers = recorded_layers(monkeypatch)
        assert_matches_reference(dp, 1.5, layers, brute_force_value(dp))

    def test_value_at_off_node_and_poisoned(self, ball2d_spec):
        dp = build_dp(ball2d_spec, 0.0, 6.0, n_steps=30, state_res=15,
                      u_max=1.5, control_res=5, cost_mode="fixed",
                      alpha=ALPHA0)
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
        table = brute_force_value(dp)
        return dp, table, spec.omega.contains(dp.state_points()), counts

    def test_ball_locates_only_points_inside_omega(self, ball2d_spec,
                                                  monkeypatch):
        dp, table, inside, counts = self.located_counts(ball2d_spec,
                                                        monkeypatch)
        # constant A and B: one operator, with a row per (control, point
        # inside Omega) pair, then one candidate row per inside point and
        # step
        n_kept = int(inside.sum())
        assert 0 < n_kept < inside.size
        assert counts == [len(dp.controls) * n_kept] + [n_kept] * dp.n_steps
        V = table.V.ravel()
        assert np.all(V[~inside] == np.inf) and np.isfinite(V[inside]).any()

    def test_box_locates_the_whole_lattice(self, timevarying_spec,
                                           monkeypatch):
        dp, table, inside, counts = self.located_counts(timevarying_spec,
                                                        monkeypatch)
        # a time-varying A: one operator per step over the whole lattice,
        # and one candidate row per lattice point
        assert inside.all()
        assert counts == [len(dp.controls) * inside.size,
                          inside.size] * dp.n_steps
        assert np.isfinite(table.V).all()


class TestCandidateStage:
    @pytest.mark.parametrize("mode", ["fixed", "sup"])
    @pytest.mark.parametrize("name, res, n_u, steps, u_max", REFERENCE_GRIDS)
    def test_candidates_only_lower_the_table(self, name, res, n_u, steps,
                                             u_max, mode, monkeypatch):
        # the DP operator is monotone and the candidate only adds a
        # control: without it no layer value goes down, with it none goes
        # up
        dp = build_dp(reference_spec(name), 0.0, 6.0, n_steps=steps,
                      state_res=res, u_max=u_max, control_res=n_u,
                      cost_mode=mode, alpha=ALPHA0)
        with_layers = recorded_layers(monkeypatch)
        with_table = brute_force_value(dp)
        coarse_layers = []

        def no_candidates(dp, s, V, inside, kept):
            coarse_layers.append(V.copy())
            return (np.zeros((len(kept), dp.spec.dim_control)),
                    np.zeros(len(kept), dtype=bool))

        monkeypatch.setattr(oracle, "_gradient_controls", no_candidates)
        coarse = brute_force_value(dp)
        for lo, hi in zip(with_layers + [with_table.V.ravel()],
                          coarse_layers + [coarse.V.ravel()]):
            assert np.all(hi >= lo)
        # outward_drift keeps only the origin, at zero cost either way
        assert np.any(coarse.V > with_table.V) == (name != "outward_drift.json")

    def test_candidate_clipped_to_the_control_box(self, scalar_spec):
        dp = build_dp(scalar_spec, 0.0, 1.0, n_steps=1, state_res=21,
                      u_max=0.5, control_res=3, cost_mode="fixed",
                      alpha=ALPHA0)
        states = dp.state_points()
        inside = np.ones(len(states), dtype=bool)
        layer = 3.0 * states[:, 0] ** 3 - 3.0 * states[:, 0]
        u, ok = oracle._gradient_controls(dp, 0.0, layer, inside, states)
        assert ok.all()
        assert u.min() == -0.5 and u.max() == 0.5
        assert np.all(np.abs(u) <= 0.5)

    def test_candidate_clipped_to_an_asymmetric_box(self, scalar_spec):
        dp = build_dp(scalar_spec, 0.0, 1.0, n_steps=1, state_res=21,
                      u_max=0.5, control_res=3, cost_mode="fixed",
                      alpha=ALPHA0)
        dp = dataclasses.replace(dp, controls=np.array([[-0.2], [0.7]]))
        states = dp.state_points()
        inside = np.ones(len(states), dtype=bool)
        layer = 3.0 * states[:, 0] ** 3 - 3.0 * states[:, 0]
        u, ok = oracle._gradient_controls(dp, 0.0, layer, inside, states)
        assert ok.all() and u.min() == -0.2 and u.max() == 0.7

    def test_inf_neighbor_keeps_the_grid_minimum(self, scalar_spec):
        dp = build_dp(scalar_spec, 0.0, 1.0, n_steps=1, state_res=21,
                      u_max=0.5, control_res=3, cost_mode="fixed",
                      alpha=ALPHA0)
        states = dp.state_points()
        inside = np.ones(len(states), dtype=bool)
        layer = states[:, 0] ** 2
        layer[10] = np.inf
        u, ok = oracle._gradient_controls(dp, 0.0, layer, inside, states)
        # the central difference reads the two neighbors, not the point
        np.testing.assert_array_equal(np.flatnonzero(~ok), [9, 11])
        assert np.isfinite(u).all() and np.all(u[~ok] == 0.0)


class TestLocateNonFinite:
    @pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf])
    def test_value_at_non_finite_is_inf(self, scalar_spec, x):
        table = dp_value(scalar_spec, 0.0, 1.0, n_steps=4, state_res=21,
                         u_max=1.0, control_res=3, cost_mode="fixed",
                         alpha=ALPHA0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert table.value_at([x]) == np.inf

    @pytest.mark.parametrize("x", [[np.nan, 0.0], [0.0, np.inf],
                                   [-np.inf, np.nan]])
    def test_non_finite_coordinate_in_2d(self, ball2d_spec, x):
        table = dp_value(ball2d_spec, 0.0, 1.0, n_steps=4, state_res=15,
                         u_max=1.0, control_res=3, cost_mode="fixed",
                         alpha=ALPHA0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert table.value_at(x) == np.inf
            assert table.value_at([0.0, 0.0]) == 0.0


def corner_order_sum(values, axes, point):
    """Multilinear interpolation at one point in Python floats: the cell's
    corners in order (bit d of a corner steps along axis d), each weight
    the product of its per-axis factors, zero-weight corners adding 0.0,
    +inf off the lattice or for a non-finite result."""
    snap, cells = 1e-9, []
    for d, ax in enumerate(axes):
        pos = (float(point[d]) - float(ax[0])) / (float(ax[1]) - float(ax[0]))
        if not -snap <= pos <= len(ax) - 1 + snap:
            return math.inf
        i = min(max(math.floor(pos), 0), len(ax) - 2)
        f = min(max(pos - i, 0.0), 1.0)
        cells.append((i, 0.0 if f < snap else 1.0 if f > 1.0 - snap else f))
    total = None
    for corner in range(1 << len(axes)):
        bits_ = [(corner >> d) & 1 for d in range(len(axes))]
        weight = 1.0
        for d in reversed(range(len(axes))):
            i, f = cells[d]
            weight *= f if bits_[d] else 1.0 - f
        index = tuple(i + b for (i, _), b in zip(cells, bits_))
        term = weight * float(values[index]) if weight > 0.0 else 0.0
        total = term if total is None else total + term
    return total if math.isfinite(total) else math.inf


class TestInterpolationOperator:
    @staticmethod
    def check(values, axes, points):
        points = np.array(points, dtype=float)
        op = oracle._locate(axes, points)
        flat, weight = op
        assert flat.shape == weight.shape == (1 << len(axes), len(points))
        assert flat.dtype == np.intp
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = oracle._apply(values, op)
        ref = [corner_order_sum(values, axes, p) for p in points]
        np.testing.assert_array_equal(bits(got), bits(ref))
        return got

    def test_one_dimensional_rows(self):
        axes = (np.linspace(-1.0, 2.0, 7),)
        values = np.array([0.3, 1.7, 0.9, np.inf, 2.2, 0.1, 5.0])
        got = self.check(values, axes, [
            [-0.8], [0.1], [1.35],        # off node, finite cells
            [0.0], [0.0 + 1e-12],         # on node / snapped, +inf neighbor
            [1.0 - 1e-12],                # snapped onto the node after it
            [0.25],                       # a +inf corner of weight 1/2
            [2.0], [-1.0],                # the lattice's two ends
            [2.5], [-1.5], [np.nan], [np.inf], [-np.inf]])
        np.testing.assert_array_equal(got[3:6], [0.9, 0.9, 2.2])
        assert np.all(got[6] == np.inf) and np.all(got[9:] == np.inf)
        assert got[7] == 5.0 and got[8] == 0.3

    def test_two_dimensional_rows(self):
        axes = (np.linspace(-1.0, 1.0, 5), np.linspace(0.0, 2.0, 3))
        values = np.arange(15.0).reshape(5, 3) / 7.0
        values[2, 1] = np.inf
        got = self.check(values, axes, [
            [-0.8, 0.3], [0.9, 1.6],      # off node, finite cells
            [0.0, 0.0], [0.0 + 1e-12, 2.0 - 1e-12],   # on node / snapped
            [-0.5, 1.0], [0.0, 0.0 + 1e-12],  # +inf corners of zero weight
            [0.5, 1.0],                   # on node
            [0.2, 0.9], [0.0, 1.5],       # a +inf corner of positive weight
            [1.0, 2.0], [-1.0, 0.0],      # the lattice's corners
            [1.2, 1.0], [0.0, -0.1], [np.nan, 1.0], [0.0, np.inf],
            [-np.inf, np.nan]])
        assert got[2] == values[2, 0] and got[3] == values[2, 2]
        assert np.isfinite(got[4:7]).all()
        assert np.all(got[7:9] == np.inf) and np.all(got[11:] == np.inf)
        assert got[9] == values[4, 2] and got[10] == values[0, 0]


class TestBruteForceValue:
    def test_scalar_fixed_alpha_matches_riccati(self, scalar_spec):
        # V(0, 0.5) against the algebraic value P * 0.25, 3% grid error
        sol = solve_stabilizing(scalar_spec, ALPHA0, 0.0, 0.0, tol=1e-9)
        ref = value_from_riccati(scalar_spec, sol, ALPHA0, 0.0, [0.5])
        table = dp_value(scalar_spec, 0.0, 10.0, n_steps=800, state_res=401,
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
        table = dp_value(spec, 0.0, 4.0, n_steps=100, state_res=41,
                         u_max=1.5, control_res=11, cost_mode="fixed",
                         alpha=ALPHA0)
        assert table.value_at([0.25]) == 0.0

    def test_escape_scores_infinity(self, outward_spec):
        # x' = +x with no control: 0.5 leaves [-1, 1], so no feasible run
        table = dp_value(outward_spec, 0.0, 4.0, n_steps=200, state_res=101,
                         u_max=1.0, control_res=3, cost_mode="fixed",
                         alpha=ALPHA0)
        assert math.isinf(table.value_at([0.5]))

    def test_upper_bound_of_unconstrained_value(self, scalar_spec):
        # restricted controls can only do worse than the exact minimizer
        sol = solve_stabilizing(scalar_spec, ALPHA0, 0.0, 0.0, tol=1e-9)
        ref = value_from_riccati(scalar_spec, sol, ALPHA0, 0.0, [0.5])
        table = dp_value(scalar_spec, 0.0, 10.0, n_steps=200, state_res=101,
                         u_max=2.0, control_res=21, cost_mode="fixed",
                         alpha=ALPHA0)
        assert table.value_at([0.5]) >= ref - 0.01 * abs(ref)

    def test_refinement_shrinks_the_gap(self, scalar_spec):
        sol = solve_stabilizing(scalar_spec, ALPHA0, 0.0, 0.0, tol=1e-9)
        ref = value_from_riccati(scalar_spec, sol, ALPHA0, 0.0, [0.5])
        coarse = dp_value(scalar_spec, 0.0, 10.0, n_steps=100, state_res=51,
                          u_max=2.0, control_res=11, cost_mode="fixed",
                          alpha=ALPHA0)
        fine = dp_value(scalar_spec, 0.0, 10.0, n_steps=200, state_res=101,
                        u_max=2.0, control_res=21, cost_mode="fixed",
                        alpha=ALPHA0)
        e_coarse = abs(coarse.value_at([0.5]) - ref)
        e_fine = abs(fine.value_at([0.5]) - ref)
        assert e_fine <= e_coarse  # with 2x slack: e_fine <= 2*(e_coarse/2)

    def test_sup_mode_exceeds_fixed_mode(self, scalar_spec):
        fixed = dp_value(scalar_spec, 0.0, 6.0, n_steps=120, state_res=101,
                         u_max=2.0, control_res=21, cost_mode="fixed",
                         alpha=ALPHA0)
        sup = dp_value(scalar_spec, 0.0, 6.0, n_steps=120, state_res=101,
                       u_max=2.0, control_res=21, cost_mode="sup")
        assert sup.value_at([0.5]) >= fixed.value_at([0.5]) - 1e-12

    def test_two_dimensional_state_supported(self, ball2d_spec):
        table = dp_value(ball2d_spec, 0.0, 6.0, n_steps=60, state_res=31,
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

    @pytest.mark.parametrize("change, match", [
        ({"state_res": 1}, "state_res"), ({"n_steps": 0}, "n_steps"),
        ({"control_res": 0}, "control_res"), ({"T": 0.0}, "T > t"),
        ({"T": -1.0}, "T > t"), ({"T": math.nan}, "T > t"),
        ({"u_max": -0.5}, "u_max"), ({"u_max": math.inf}, "u_max"),
        ({"u_max": math.nan}, "u_max")])
    def test_degenerate_grids_refused(self, scalar_spec, change, match):
        grid = dict(t=0.0, T=1.0, n_steps=4, state_res=5, u_max=1.0,
                    control_res=3, cost_mode="fixed", alpha=ALPHA0)
        with pytest.raises(ValueError, match=match):
            build_dp(scalar_spec, **{**grid, **change})

    def test_smallest_grids_run(self, scalar_spec):
        table = dp_value(scalar_spec, 0.0, 1.0, n_steps=1, state_res=2,
                         u_max=0.0, control_res=1, cost_mode="fixed",
                         alpha=ALPHA0)
        assert table.V.shape == (2,)

    def test_budget_admits_long_windows(self, ball2d_spec):
        # two layers of 41 x 41 entries, however many steps the window takes
        dp = build_dp(ball2d_spec, 0.0, 400.0, n_steps=40_000, state_res=41,
                      u_max=1.5, control_res=13)
        assert dp.n_steps == 40_000

    def test_budget_refuses_large_operators(self, ball2d_spec):
        # 101**2 controls x 41**2 points x 4 corners exceed 5e7 entries
        with pytest.raises(ValueError, match="5e7"):
            build_dp(ball2d_spec, 0.0, 6.0, n_steps=60, state_res=41,
                     u_max=1.5, control_res=101)


class TestFeasibleSet:
    def test_full_authority_everything_feasible(self, scalar_spec):
        dp = build_dp(scalar_spec, 0.0, 6.0, n_steps=120, state_res=41,
                      u_max=4.0, control_res=9, cost_mode="fixed",
                      alpha=ALPHA0)
        mask = feasible_mask(brute_force_value(dp))
        assert mask.all()

    def test_outward_drift_only_near_origin(self, outward_spec):
        dp = build_dp(outward_spec, 0.0, 8.0, n_steps=400, state_res=81,
                      u_max=1.0, control_res=3, cost_mode="fixed",
                      alpha=ALPHA0)
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
        mask = feasible_mask(brute_force_value(dp))
        assert mask.all()


class TestValueTableDump:
    def test_csv_rows_schema(self, scalar_spec):
        table = dp_value(scalar_spec, 0.0, 1.0, n_steps=4, state_res=5,
                         u_max=1.0, control_res=3, cost_mode="fixed",
                         alpha=ALPHA0)
        header, rows = table.csv_rows()
        assert header == ["s", "x_1", "V"]
        assert rows == [[0.0, x, v] for x, v in zip(table.dp.state_axes[0],
                                                    table.V)]
