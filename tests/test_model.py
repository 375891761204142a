import copy
import math

import numpy as np
import pytest

from safelq import (AlphaPolicy, build_problem, eval_dynamics,
                    eval_lagrangian)
from safelq.catalog import PowerLaw
from safelq.errors import ConfigError, NegativeAlpha
from safelq.game import lambda_map
from safelq.model import MAX_GRID_STEPS
from safelq.numerics import stage_times

from conftest import load_config
from references import eval_sup_lagrangian, piecewise_integral_loop


class TestBuildProblem:
    def test_minimal_scalar_instance(self, scalar_spec):
        assert scalar_spec.dim_state == 1
        assert scalar_spec.dim_control == 1
        np.testing.assert_array_equal(scalar_spec.R, [[0.5]])

    def test_rejects_identity_control_weight(self):
        cfg = load_config("scalar_demo.json")
        cfg["R"] = {"value": [[1.0]]}
        with pytest.raises(ConfigError, match=r"^R\.value must be one half"):
            build_problem(cfg)

    def test_control_weight_variant_outside_schema_is_unknown(self):
        cfg = load_config("scalar_demo.json")
        cfg["R"] = {"variant": "identity"}
        with pytest.raises(ConfigError, match=r"^R\.variant must be one of "):
            build_problem(cfg)

    def test_rejects_growth_violation(self):
        # a(alpha) = alpha^2 and b(alpha) = alpha has unbounded supremum
        cfg = load_config("scalar_demo.json")
        cfg["a"] = {"variant": "power", "params": {"coeff": 1.0, "exponent": 2.0}}
        cfg["b"] = {"variant": "power", "params": {"coeff": 1.0, "exponent": 1.0}}
        with pytest.raises(ConfigError, match=r"^b\.params\.exponent 1\.0 "
                           r"must exceed a's exponent 2\.0$"):
            build_problem(cfg)

    def test_unknown_variant(self):
        cfg = load_config("scalar_demo.json")
        cfg["A"]["variant"] = "quadratic"
        with pytest.raises(ConfigError, match=r"^A\.variant must be one of "):
            build_problem(cfg)

    def test_dimension_mismatch(self):
        cfg = load_config("scalar_demo.json")
        cfg["B"]["params"]["value"] = [[1.0, 0.0]]
        with pytest.raises(ConfigError, match=r"^B\.params\.value must have "
                           r"shape \(1, 1\), got shape \(1, 2\)$"):
            build_problem(cfg)

    def test_negative_weight(self):
        cfg = load_config("scalar_demo.json")
        cfg["K"]["params"]["level"] = -1.0
        with pytest.raises(ConfigError,
                           match=r"^K\.params\.level must be >= 0, got -1\.0$"):
            build_problem(cfg)

    def test_integrability_tags_verified(self):
        cfg = load_config("scalar_demo.json")
        cfg["K"]["tags"] = {"l1": False}
        with pytest.raises(ConfigError, match=r"^K\.tags\.l1 is False"):
            build_problem(cfg)

    def test_declared_b_bound_must_dominate(self):
        cfg = load_config("scalar_demo.json")
        cfg["B"]["params"]["bound"] = 0.5
        with pytest.raises(ConfigError):
            build_problem(cfg)

    def test_missing_key_named(self):
        cfg = load_config("scalar_demo.json")
        del cfg["omega"]
        with pytest.raises(ConfigError, match="omega"):
            build_problem(cfg)

    @pytest.mark.parametrize("key, value", [
        ("t0", math.nan), ("t0", -math.inf), ("dt", math.nan),
        ("dt", math.inf), ("t_max", math.nan), ("t_max", math.inf),
        ("dt", "abc"), ("t_max", [1, 2]), ("t_max", 10**400)])
    def test_non_finite_grid_number_named(self, key, value):
        cfg = load_config("scalar_demo.json")
        cfg["grid"][key] = value
        with pytest.raises(ConfigError, match=f"grid.{key}"):
            build_problem(cfg)

    @pytest.mark.parametrize("steps", [0.99 * MAX_GRID_STEPS,
                                       1.01 * MAX_GRID_STEPS])
    def test_grid_step_budget(self, steps):
        # validation only: nothing is integrated on these grids
        cfg = load_config("scalar_demo.json")
        grid = cfg["grid"]
        grid["dt"] = (grid["t_max"] - grid["t0"]) / steps
        if steps <= MAX_GRID_STEPS:
            assert build_problem(cfg).grid.dt == grid["dt"]
        else:
            with pytest.raises(ConfigError, match="grid.dt .* budget"):
                build_problem(cfg)


class TestDynamics:
    def test_linear_case(self, scalar_spec):
        out = eval_dynamics(scalar_spec, 0.0, np.array([2.0]), np.array([0.5]))
        assert out[0] == pytest.approx(-1.5, abs=0)

    def test_cubic_map_hand_value(self, cubic_spec):
        # h(x) = x + x^3, grad_h(1) = 4, A = -1, B = 1 with u = 0:
        # xi' = -h(1)/4 = -0.5
        out = eval_dynamics(cubic_spec, 0.0, np.array([1.0]), np.array([0.0]))
        assert out[0] == pytest.approx(-0.5, abs=1e-15)

    def test_equilibrium_at_origin(self, cubic_spec):
        out = eval_dynamics(cubic_spec, 0.0, np.array([0.0]), np.array([0.0]))
        assert out[0] == 0.0

    def test_affine_in_control(self, ball2d_spec):
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = rng.uniform(-0.5, 0.5, size=2)
            u1 = rng.uniform(-2, 2, size=2)
            u2 = rng.uniform(-2, 2, size=2)
            mid = eval_dynamics(ball2d_spec, 0.3, x, 0.5 * (u1 + u2))
            avg = 0.5 * (eval_dynamics(ball2d_spec, 0.3, x, u1)
                         + eval_dynamics(ball2d_spec, 0.3, x, u2))
            np.testing.assert_allclose(mid, avg, atol=1e-14)


class TestLagrangian:
    def test_alpha_zero(self, scalar_spec):
        val = eval_lagrangian(scalar_spec, 0.0, np.array([1.0]),
                              np.array([0.0]), 0.0)
        assert val == pytest.approx(1.0, abs=0)

    def test_alpha_half(self, scalar_spec):
        # (1 + 0.5) * 1 + 0 - 0.25
        val = eval_lagrangian(scalar_spec, 0.0, np.array([1.0]),
                              np.array([0.0]), 0.5)
        assert val == pytest.approx(1.25, abs=1e-15)

    @pytest.mark.parametrize("alpha", [np.nan, [0.5, np.nan]])
    def test_nan_alpha_rejected(self, scalar_spec, alpha):
        with pytest.raises(NegativeAlpha):
            eval_lagrangian(scalar_spec, 0.0, np.array([[1.0], [0.5]]),
                            np.zeros((2, 1)), alpha)

    def test_control_term_only(self, scalar_spec):
        val = eval_lagrangian(scalar_spec, 0.0, np.array([0.0]),
                              np.array([1.0]), 0.0)
        assert val == pytest.approx(0.5, abs=0)

    def test_negative_alpha_rejected(self, scalar_spec):
        with pytest.raises(NegativeAlpha):
            eval_lagrangian(scalar_spec, 0.0, np.array([1.0]),
                            np.array([0.0]), -0.1)


class TestSupLagrangian:
    def test_closed_form_quadratic_catalog(self, scalar_spec):
        # sup over alpha of (alpha - alpha^2) = 1/4 at |h(x)|^2 = 1
        val = eval_sup_lagrangian(scalar_spec, 0.0, np.array([1.0]),
                                  np.array([0.0]))
        assert val == pytest.approx(1.25, abs=1e-12)

    def test_zero_state_zero_control(self, scalar_spec):
        assert eval_sup_lagrangian(scalar_spec, 0.0, np.array([0.0]),
                                   np.array([0.0])) == 0.0

    def test_dominates_every_alpha(self, scalar_spec):
        rng = np.random.default_rng(5)
        for _ in range(100):
            x = rng.uniform(-1, 1, size=1)
            u = rng.uniform(-2, 2, size=1)
            alpha = rng.uniform(0, 5)
            sup = eval_sup_lagrangian(scalar_spec, 0.0, x, u)
            assert sup >= eval_lagrangian(scalar_spec, 0.0, x, u, alpha) - 1e-12

    def test_attained_at_lambda_map(self, cubic_spec):
        rng = np.random.default_rng(6)
        for _ in range(50):
            x = rng.uniform(-1, 1, size=1)
            u = rng.uniform(-1, 1, size=1)
            sup = eval_sup_lagrangian(cubic_spec, 0.0, x, u)
            at_star = eval_lagrangian(cubic_spec, 0.0, x, u,
                                      lambda_map(cubic_spec, 0.0, x))
            assert abs(sup - at_star) <= 1e-10

    def test_coercivity_with_b_cap(self, scalar_spec):
        # L(s,x,u) >= |u|^2/2 - phi(s) with phi = b at the largest alpha used
        rng = np.random.default_rng(7)
        alpha_max = 3.0
        phi = float(scalar_spec.b(alpha_max))
        for _ in range(100):
            x = rng.uniform(-1, 1, size=1)
            u = rng.uniform(-3, 3, size=1)
            alpha = rng.uniform(0, alpha_max)
            val = eval_lagrangian(scalar_spec, 0.0, x, u, alpha)
            assert val >= 0.5 * float(u @ u) - phi - 1e-12


class TestAlphaPolicy:
    def test_piecewise_lookup(self):
        pol = AlphaPolicy(np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0, 3.0]))
        assert pol.value(0.5) == 1.0
        assert pol.value(1.0) == 2.0
        assert pol.value(2.0) == 3.0   # value at the last node itself
        assert pol.value(2.5) == 0.0   # tail
        np.testing.assert_array_equal(pol.value(np.array([0.5, 1.5, 9.0])),
                                      [1.0, 2.0, 0.0])

    @pytest.mark.parametrize("t0, dt", [(0.0, 0.007), (0.3, 0.007),
                                        (0.0, 0.013), (0.0, 0.01)])
    def test_seeded_sweep_nodes_read_their_own_node(self, t0, dt):
        # solve_coupled's policy nodes and its sweep over [t, T_seed]: with
        # dt 0.007 the sweep's node times sit an ulp below most policy nodes
        nodes = stage_times(t0, t0 + 16.0, dt)[::2]
        pol = AlphaPolicy(nodes, np.arange(1.0, len(nodes) + 1.0))
        T_seed = nodes[-1] + (nodes[-1] - t0) / (len(nodes) - 1)
        sweep_nodes = stage_times(t0, T_seed, dt)[::2]
        assert len(sweep_nodes) == len(nodes) + 1
        np.testing.assert_array_equal(pol.value(sweep_nodes[:-1]), pol.values)
        assert pol.value(sweep_nodes[-1]) == 0.0

    def test_node_within_rounding_reads_that_node(self):
        nodes = np.array([0.0, 0.1, 0.3, 16.0])
        pol = AlphaPolicy(nodes, np.array([1.0, 2.0, 3.0, 4.0]))
        for k, node in enumerate(nodes):
            near = [np.nextafter(node, -np.inf), node,
                    np.nextafter(node, np.inf)]
            np.testing.assert_array_equal(pol.value(np.array(near)),
                                          pol.values[k])
        assert pol.value(np.nextafter(16.0, 17.0)) == 4.0
        assert pol.value(16.0 + 1e-9) == 0.0    # tail
        assert pol.value(0.1 - 1e-9) == 1.0     # a real gap is not rounding

    def test_integral_exact_piecewise(self):
        pol = AlphaPolicy(np.array([0.0, 1.0, 3.0]), np.array([1.0, 2.0, 0.0]))
        # integral of alpha itself: 1*1 + 2*2 = 5
        assert pol.piecewise_integral(lambda a: a, 0.0, None) == 5.0
        # clipped window [0.5, 2.0]: 1*0.5 + 2*1.0
        assert pol.piecewise_integral(lambda a: a, 0.5, 2.0) == 2.5

    def test_integral_before_the_first_node_clamps(self):
        pol = AlphaPolicy(np.array([1.0, 2.0, 3.0]), np.array([2.0, 1.0, 5.0]))
        # [0.25, 1) reads values[0] = 2: 0.75 * 2 + 1 * 2 + 1 * 1
        assert pol.piecewise_integral(lambda a: a, 0.25, None) == 4.5
        assert pol.piecewise_integral(lambda a: a, 0.25, 0.5) == 0.5

    @pytest.mark.parametrize("seed", range(6))
    def test_integral_is_the_loop_bit_for_bit(self, seed):
        # random policies, a zero and an inf value among them, against the
        # node loop: windows that start before, inside and after the nodes
        # and end at inf, inside the nodes or below their start
        rng = np.random.default_rng(seed)
        fns = [PowerLaw(1.0, 1.0), PowerLaw(0.7, 2.0),
               PowerLaw(rng.uniform(0.1, 3.0), rng.uniform(1.1, 4.0))]
        for size in (1, 2, 7, 60):
            nodes = rng.uniform(-2.0, 2.0) + np.concatenate(
                [[0.0], np.cumsum(rng.uniform(0.01, 0.5, size - 1))])
            values = rng.uniform(0.0, 3.0, size) ** 2
            values[rng.integers(size)] = 0.0
            for inf_at in (None, 0, size // 2):
                held = values.copy()
                if inf_at is not None:
                    held[inf_at] = np.inf
                pol = AlphaPolicy(nodes, held)
                inside = rng.uniform(nodes[0], nodes[-1], 3)
                starts = [nodes[0] - 0.3, nodes[0], nodes[-1] + 0.2,
                          nodes[size // 2], *inside]
                for t_from in starts:
                    for t_to in (None, rng.uniform(nodes[0], nodes[-1]),
                                 nodes[-1], t_from - 0.1):
                        for fn in fns:
                            got = pol.piecewise_integral(fn, t_from, t_to)
                            ref = piecewise_integral_loop(pol, fn, t_from,
                                                          t_to)
                            assert type(got) is float
                            assert np.float64(got).view(np.uint64) == \
                                np.float64(ref).view(np.uint64)

    def test_constant_policy_support(self):
        pol = AlphaPolicy.constant(2.0, 0.0, 3.0)
        assert pol.value(1.5) == 2.0
        assert pol.value(4.0) == 0.0
        assert pol.piecewise_integral(lambda a: a * a, 0.0, None) == 12.0

    def test_negative_values_rejected(self):
        with pytest.raises(NegativeAlpha):
            AlphaPolicy(np.array([0.0, 1.0]), np.array([0.5, -0.1]))

    def test_nan_weight_rejected(self):
        with pytest.raises(NegativeAlpha):
            AlphaPolicy(np.array([0.0, 1.0]), np.array([0.5, np.nan]))

    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            AlphaPolicy(np.array([1.0, 0.5]), np.array([0.0, 0.0]))

    def test_nan_node_is_not_increasing(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            AlphaPolicy(np.array([0.0, np.nan, 2.0]), np.zeros(3))

    def test_infinite_values_are_kept(self):
        # an overflowing Picard target is a policy whose sweep escapes
        pol = AlphaPolicy(np.array([0.0, 1.0]), np.array([np.inf, 0.5]))
        assert pol.value(0.5) == np.inf


class TestDiffeoInvariants:
    @pytest.mark.parametrize("entry,dim", [
        ({"variant": "identity"}, 2),
        ({"variant": "odd_cubic", "params": {"beta": 1.0}}, 1),
        ({"variant": "odd_cubic", "params": {"beta": 0.7}}, 3),
        ({"variant": "linear",
          "params": {"matrix": [[2.0, 0.5], [-0.3, 1.5]]}}, 2),
    ])
    def test_map_identities(self, entry, dim):
        from safelq.catalog import diffeo_from_config
        h = diffeo_from_config(entry, dim)
        rng = np.random.default_rng(9)
        for _ in range(10):
            x = rng.uniform(-1.5, 1.5, size=dim)
            jac = h.jacobian(x)
            np.testing.assert_allclose(jac @ h.jacobian_inv(x), np.eye(dim),
                                       atol=1e-10)
            np.testing.assert_allclose(h.inverse(h.forward(x)), x, atol=1e-9)
            # jacobian against central finite differences
            fd = np.zeros((dim, dim))
            eps = 1e-6
            for j in range(dim):
                step = np.zeros(dim)
                step[j] = eps
                fd[:, j] = (h.forward(x + step) - h.forward(x - step)) / (2 * eps)
            np.testing.assert_allclose(jac, fd, atol=1e-6)

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_cubic_inverse_of_huge_values(self, beta):
        # a closed loop maps its nodes back with h^{-1}, an escaping one from
        # any finite y; the root stays finite and exact to rounding beyond
        # |y| = 1e154, where the square of y / (2 beta) overflows
        from safelq.catalog import diffeo_from_config
        h = diffeo_from_config({"variant": "odd_cubic",
                                "params": {"beta": beta}}, 1)
        y = np.array([1e150, -1e160, 1e200, -1e300, 1e307])
        with np.errstate(all="raise"):
            x = h.inverse(y)
        assert np.all(np.isfinite(x))
        np.testing.assert_allclose(h.forward(x), y, rtol=1e-15)

    def test_singular_linear_map_rejected(self):
        from safelq.catalog import diffeo_from_config
        with pytest.raises(ConfigError,
                           match=r"^h\.params\.matrix is singular$"):
            diffeo_from_config(
                {"variant": "linear",
                 "params": {"matrix": [[1.0, 2.0], [2.0, 4.0]]}}, 2)
