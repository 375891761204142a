"""Reference paths that only the tests run.

* ``lambda_map_numeric``: a golden-section search for the argmax that
  ``game.lambda_map`` gives in closed form;
* ``simulate_open_loop``: the dynamics under an explicit control signal,
  which the verification inequality compares with the feedback law;
* ``finite_value_from_riccati``: the finite-horizon value from a sweep with
  zero terminal condition;
* ``eval_sup_lagrangian``: the marginal-function cost, the sup over alpha of
  the running cost, which the oracle's sup mode builds from its parts;
* ``feasible_mask``: the lattice points where a DP value table is finite.
"""

import numpy as np

from safelq.model import _sup_alpha_gain, eval_dynamics
from safelq.numerics import integrate_ode, stage_times
from safelq.synthesis import _trajectory

_TINY = np.finfo(float).tiny


def lambda_map_numeric(spec, s, x):
    """Golden-section fallback for the argmax; cross-checks the closed form.

    The bracket closes to 1e-12 relative to its upper end, and zero wins
    ties within 1e-12 relative to the maximal gain.
    """
    tol = 1e-12
    hx = spec.h.forward(np.asarray(x, dtype=float))
    g = float(hx @ hx)

    def gain(beta):
        return float(spec.a(beta)) * g - float(spec.b(beta))

    # beyond hi the penalty surely dominates the gain
    p, q = spec.a.exponent, spec.b.exponent
    c, d = max(spec.a.coeff, 1e-30), max(spec.b.coeff, 1e-30)
    lo, hi = 0.0, max(1.0, (2.0 * c * max(g, 1.0) / d) ** (1.0 / (q - p)))
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - inv_phi * (hi - lo)
    x2 = lo + inv_phi * (hi - lo)
    f1, f2 = gain(x1), gain(x2)
    # the floor ends a bracket closing on zero before it turns subnormal
    while hi - lo > tol * hi + _TINY:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv_phi * (hi - lo)
            f2 = gain(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv_phi * (hi - lo)
            f1 = gain(x1)
    best = 0.5 * (lo + hi)
    g_best = gain(best)
    if gain(0.0) >= g_best - tol * abs(g_best):
        return 0.0
    return float(best)


def simulate_open_loop(spec, control, alpha, t, x0, T_sim):
    """Integrate the dynamics under an explicit control signal from each
    start of x0 (..., n); ``control(s)`` gives one control per start and is
    sampled once per RK4 stage."""
    times = stage_times(t, T_sim, spec.grid.dt).tolist()
    controls = np.array([np.asarray(control(s), dtype=float) for s in times])
    path = integrate_ode(
        lambda j, x: eval_dynamics(spec, times[j], x, controls[j]),
        t, T_sim, np.asarray(x0, dtype=float), spec.grid.dt)
    return _trajectory(spec, path.nodes, np.moveaxis(path.values, 0, -2),
                       np.moveaxis(controls[::2], 0, -2), alpha)


def finite_value_from_riccati(spec, P_T, alpha, t, T, x):
    """Finite-horizon value <h(x), P_T(t) h(x)> minus the b-integral on [t, T]."""
    hx = spec.h.forward(np.asarray(x, dtype=float))
    quad = float(hx @ (P_T.at(t) @ hx))
    return quad - alpha.piecewise_integral(spec.b, t, T)


def eval_sup_lagrangian(spec, s, x, u):
    """Marginal-function cost sup over alpha of the parametrized rate."""
    hx = spec.h.forward(x)
    u = np.asarray(u, dtype=float)
    g = np.vecdot(hx, hx)
    _, gain = _sup_alpha_gain(spec.a, spec.b, g)
    return (0.5 * spec.K.value(s) * g + 0.5 * np.vecdot(u, u) + gain)[()]


def feasible_mask(table):
    """Where the value table ``table.V`` is finite."""
    return np.isfinite(table.V)
