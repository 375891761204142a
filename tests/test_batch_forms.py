"""Each problem-data function has one array form: a stack of rows gives,
row for row, the bits that one row at a time gives, and a single row or
time gives a numpy scalar back."""

import numpy as np
import pytest

from safelq import (AlphaPolicy, ConeQuery, Ellipsoid, Polytope,
                    build_problem, eval_dynamics, eval_lagrangian,
                    integrate_ode, sample_boundary, solve_finite_horizon)
from safelq.catalog import TimeMatrix
from safelq.game import lambda_map
from safelq.geometry import Ball, Box
from safelq.model import _sup_alpha_gain
from safelq.numerics import stage_times
from safelq.synthesis import feedback_control, hamiltonian, hjb_residual

from references import eval_sup_lagrangian

RNG = np.random.default_rng(20261018)
N_ROWS = 500


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def assert_rows_equal(stacked, rows):
    """stacked[k] and rows[k] have the same bits for every k."""
    rows = np.array(rows, dtype=float)
    assert stacked.shape == rows.shape
    np.testing.assert_array_equal(bits(stacked), bits(rows))


def _spec(n, m):
    """Full random A (sinusoidal) and B, a non-diagonal linear h, non-unit
    power laws and an ellipsoid Omega."""
    matrix = RNG.uniform(-1.0, 1.0, (n, n)) + 2.0 * np.eye(n)
    return build_problem({
        "dims": {"state": n, "control": m},
        "A": {"variant": "sinusoid",
              "params": {"base": RNG.uniform(-2.0, 1.0, (n, n)).tolist(),
                         "amplitude": RNG.uniform(-0.5, 0.5, (n, n)).tolist(),
                         "omega": 1.3}},
        "B": {"variant": "constant",
              "params": {"value": RNG.uniform(-1.5, 1.5, (n, m)).tolist()}},
        "K": {"variant": "exponential", "params": {"level": 1.7, "rate": 0.3}},
        "a": {"variant": "power", "params": {"coeff": 1.3, "exponent": 1.5}},
        "b": {"variant": "power", "params": {"coeff": 0.7, "exponent": 2.5}},
        "h": {"variant": "linear", "params": {"matrix": matrix.tolist()}},
        "omega": {"variant": "ellipsoid",
                  "params": {"center": RNG.uniform(-0.2, 0.2, n).tolist(),
                             "weights": RNG.uniform(0.5, 2.0, n).tolist()}},
        "grid": {"t0": 0.0, "dt": 0.05, "t_max": 16.0}})


SPECS = {(2, 2): _spec(2, 2), (2, 1): _spec(2, 1), (3, 2): _spec(3, 2)}
SPEC_IDS = [f"n{n}m{m}" for n, m in SPECS]


@pytest.fixture(params=list(SPECS), ids=SPEC_IDS)
def spec(request):
    return SPECS[request.param]


def _states(n):
    return RNG.uniform(-1.5, 1.5, (N_ROWS, n))


class TestDiffeoMap:
    @pytest.mark.parametrize("method", ["forward", "inverse"])
    def test_maps(self, spec, method):
        xs = _states(spec.dim_state)
        fn = getattr(spec.h, method)
        assert_rows_equal(fn(xs), [fn(x) for x in xs])

    @pytest.mark.parametrize("method", ["apply_jacobian_inv",
                                        "apply_jacobian_inv_t",
                                        "apply_jacobian_t"])
    def test_jacobian_products(self, spec, method):
        xs, vs = _states(spec.dim_state), _states(spec.dim_state)
        fn = getattr(spec.h, method)
        assert_rows_equal(fn(xs, vs), [fn(x, v) for x, v in zip(xs, vs)])

    def test_odd_cubic(self):
        from safelq.catalog import diffeo_from_config
        h = diffeo_from_config({"variant": "odd_cubic",
                                "params": {"beta": 0.7}}, 3)
        xs, vs = _states(3), _states(3)
        assert_rows_equal(h.forward(xs), [h.forward(x) for x in xs])
        assert_rows_equal(h.apply_jacobian_inv(xs, vs),
                          [h.apply_jacobian_inv(x, v) for x, v in zip(xs, vs)])


class TestProblemData:
    def test_eval_dynamics(self, spec):
        xs = _states(spec.dim_state)
        us = RNG.uniform(-2.0, 2.0, (N_ROWS, spec.dim_control))
        assert_rows_equal(eval_dynamics(spec, 0.7, xs, us),
                          [eval_dynamics(spec, 0.7, x, u)
                           for x, u in zip(xs, us)])
        # one state against a stack of controls
        assert_rows_equal(eval_dynamics(spec, 0.7, xs[0], us),
                          [eval_dynamics(spec, 0.7, xs[0], u) for u in us])

    def test_time_data(self, spec):
        times = RNG.uniform(-1.0, 20.0, N_ROWS)
        for fn in (spec.A.value, spec.B.value, spec.K.value, spec.A.gram,
                   spec.B.gram, spec.control_gram, spec.feedback_gain):
            assert_rows_equal(fn(times), [fn(float(s)) for s in times])
        alphas = RNG.uniform(0.0, 3.0, N_ROWS)
        assert_rows_equal(spec.q_coeff(times, alphas),
                          [spec.q_coeff(float(s), float(a))
                           for s, a in zip(times, alphas)])
        assert type(spec.K.value(0.5)) is np.float64
        assert type(spec.q_coeff(0.5, 0.2)) is np.float64

    def test_constant_gram_is_the_stacked_product(self):
        # M M^T formed once from a constant M has the bits of the product
        # formed at every time, zeros of either sign included
        rng = np.random.default_rng(5)
        times = rng.uniform(0.0, 5.0, 7)
        for _ in range(400):
            shape = tuple(rng.integers(1, 5, 2))
            base = rng.standard_normal(shape) * 10.0 ** rng.integers(
                -5, 6, shape)
            base[rng.random(shape) < 0.3] = rng.choice([0.0, -0.0])
            m = TimeMatrix("constant", base)
            stacked = m.value(times)
            assert_rows_equal(m.gram(times),
                              np.einsum("kij,klj->kil", stacked, stacked))

    def test_truncated_weight(self):
        from safelq.catalog import StateWeight
        k = StateWeight("truncated_constant", 2.0, t_cut=3.0)
        times = np.concatenate([RNG.uniform(-1.0, 5.0, N_ROWS), [0.0, 3.0]])
        assert_rows_equal(k.value(times), [k.value(float(s)) for s in times])
        assert k.value(3.0) == 2.0 and k.value(3.5) == 0.0

    def test_alpha_policy(self):
        policy = AlphaPolicy(np.linspace(0.0, 4.0, 9), RNG.uniform(0, 2, 9))
        times = np.concatenate([RNG.uniform(-1.0, 5.0, N_ROWS),
                                policy.nodes])
        assert_rows_equal(policy.value(times),
                          [policy.value(float(s)) for s in times])
        assert type(policy.value(1.0)) is np.float64

    def test_lagrangians(self, spec):
        xs = _states(spec.dim_state)
        us = RNG.uniform(-2.0, 2.0, (N_ROWS, spec.dim_control))
        times = RNG.uniform(0.0, 10.0, N_ROWS)
        alphas = RNG.uniform(0.0, 3.0, N_ROWS)
        assert_rows_equal(
            eval_lagrangian(spec, times, xs, us, alphas),
            [eval_lagrangian(spec, float(s), x, u, float(a))
             for s, x, u, a in zip(times, xs, us, alphas)])
        assert_rows_equal(
            eval_sup_lagrangian(spec, times, xs, us),
            [eval_sup_lagrangian(spec, float(s), x, u)
             for s, x, u in zip(times, xs, us)])
        assert type(eval_lagrangian(spec, 0.0, xs[0], us[0], 0.5)) is np.float64

    def test_sup_gain_and_lambda_map(self, spec):
        xs = _states(spec.dim_state)
        xs[:3] = 0.0                              # g = 0 takes alpha = 0
        g = RNG.uniform(0.0, 4.0, N_ROWS)
        star, gain = _sup_alpha_gain(spec.a, spec.b, g)
        rows = [_sup_alpha_gain(spec.a, spec.b, float(gi)) for gi in g]
        assert_rows_equal(star, [r[0] for r in rows])
        assert_rows_equal(gain, [r[1] for r in rows])
        lam = lambda_map(spec, np.zeros(N_ROWS), xs)
        assert_rows_equal(lam, [lambda_map(spec, 0.0, x) for x in xs])
        assert np.all(lam[:3] == 0.0)
        assert type(lambda_map(spec, 0.0, xs[5])) is np.float64


class TestPaths:
    def test_sampled_path(self, spec):
        sines = np.sin(stage_times(0.0, 2.0, 0.1))
        path = integrate_ode(lambda j, y: sines[j] - 0.3 * y, 0.0, 2.0,
                             np.ones(spec.dim_state), 0.1)
        times = np.concatenate([RNG.uniform(0.0, 2.0, N_ROWS), path.nodes])
        assert_rows_equal(path.at(times), [path.at(float(s)) for s in times])

    def test_riccati_solution(self, spec):
        sol = solve_finite_horizon(spec, AlphaPolicy.zero(0.0, 16.0), 0.0, 2.0)
        times = np.concatenate([RNG.uniform(0.0, 2.0, N_ROWS), sol.nodes])
        assert_rows_equal(sol.at(times), [sol.at(float(s)) for s in times])
        xs = _states(spec.dim_state)[: len(times)]
        assert_rows_equal(feedback_control(spec, sol, times[: len(xs)], xs),
                          [feedback_control(spec, sol, float(s), x)
                           for s, x in zip(times, xs)])

    def test_hamiltonian_and_hjb_residual(self, spec):
        alpha = AlphaPolicy(np.linspace(0.0, 2.0, 5), [0.3, 0.7, 0.1, 0.0, 0.4])
        sol = solve_finite_horizon(spec, alpha, 0.0, 2.0)
        xs, ps = _states(spec.dim_state), _states(spec.dim_state)
        assert_rows_equal(hamiltonian(spec, 0.7, xs, ps, 0.4),
                          [hamiltonian(spec, 0.7, x, p, 0.4)
                           for x, p in zip(xs, ps)])
        assert_rows_equal(hjb_residual(spec, sol, alpha, 0.55, xs),
                          [hjb_residual(spec, sol, alpha, 0.55, x) for x in xs])
        assert type(hjb_residual(spec, sol, alpha, 0.55, xs[0])) is np.float64


def _omegas():
    yield "ellipsoid2", Ellipsoid([0.1, -0.2], [1.5, 0.6])
    yield "ellipsoid3", Ellipsoid([0.1, -0.2, 0.3], [1.5, 0.6, 2.2])
    # a 2-d polytope with rows that are not axis aligned
    yield "polytope", Polytope([[1.0, 0.3], [-0.4, 1.0], [-1.0, -0.7],
                                [0.2, -1.0]], [1.0, 1.2, 0.9, 1.1])
    yield "ball", Ball([0.3, -0.1], 1.2)
    yield "box", Box([-1.0, -0.5], [0.8, 1.3])


OMEGAS = dict(_omegas())


class TestGeometry:
    @pytest.mark.parametrize("name", list(OMEGAS))
    def test_boundary_margin_and_contains(self, name):
        omega = OMEGAS[name]
        xs = _states(omega.dim)
        margins = omega.boundary_margin(xs)
        assert_rows_equal(margins, [omega.boundary_margin(x) for x in xs])
        np.testing.assert_array_equal(omega.contains(xs),
                                      [omega.contains(x) for x in xs])
        assert 0 < np.count_nonzero(omega.contains(xs)) < N_ROWS
        assert type(omega.boundary_margin(xs[0])) is np.float64

    @pytest.mark.parametrize("name", ["ellipsoid2", "polytope", "ball", "box"])
    def test_cone_margin(self, name):
        # margins[row, point] against one point and one row at a time, from
        # the same (padded) generators
        samples = sample_boundary(OMEGAS[name], 16)
        vs = _states(2)[:, None, :]
        one = [ConeQuery(x, normals) for x, normals in
               zip(samples.points, samples.normals)]
        assert_rows_equal(samples.margin(vs),
                          [[cq.margin(v[0]) for cq in one] for v in vs])
        assert type(one[0].margin(vs[0, 0])) is np.float64
