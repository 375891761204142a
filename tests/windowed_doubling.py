"""Windowed horizon doubling: a reference for ``riccati.solve_stabilizing``.

Every horizon sweeps the whole window [t, T_eval] from P = 0 far beyond it,
and consecutive horizons are compared on every window node.  The first
horizon lies max(1, T_eval - t) beyond the window, so the window may fill at
most half of ``grid.t_max``.  The package finds the limit at T_eval alone and
sweeps it back over the window; the tests check that both agree to within
the gap tolerance.
"""

import math

import numpy as np

from safelq.errors import ConfigError, NoConvergence
from safelq.riccati import (ConvergenceCertificate, RiccatiSolution,
                            _gap_tol, _sweep)


def windowed_stabilizing(spec, alpha, t, T_eval, tol=1e-8, dt=None):
    """Stabilizing solution on [t, T_eval], doubled on the whole window."""
    dt = spec.grid.dt if dt is None else dt
    m_eval = int(round((T_eval - t) / dt))
    # first horizon strictly beyond the window: near its own terminal node a
    # finite-horizon sweep is nowhere near the limit
    steps = m_eval + max(int(math.ceil(max(1.0, T_eval - t) / dt)), 1)
    cap_steps = int(round((spec.grid.t_max - t) / dt))
    if steps >= cap_steps:
        raise ConfigError(f"window [{t:g}, {T_eval:g}] leaves no room below "
                          f"the horizon cap {spec.grid.t_max:g}")

    horizons, gaps, prev = [], [], None
    while True:
        horizons.append(t + steps * dt)
        sol = _sweep(spec, alpha, t, horizons[-1], dt)
        # [t, T_eval] as the head of the ascending arrays
        window = slice(None, m_eval + 1)
        p_win = sol.P[window].copy()
        if prev is not None:
            gaps.append(float(np.max(np.linalg.norm(p_win - prev,
                                                    axis=(1, 2)))))
            if gaps[-1] < _gap_tol(tol, p_win):
                return RiccatiSolution(
                    nodes=sol.nodes[window].copy(), P=p_win,
                    dP=sol.dP[window].copy(),
                    certificate=ConvergenceCertificate(
                        tuple(horizons), tuple(gaps), tol, True))
            if steps >= cap_steps:
                raise NoConvergence(
                    f"gap {gaps[-1]} at the horizon cap",
                    ConvergenceCertificate(tuple(horizons), tuple(gaps), tol,
                                           False))
        prev = p_win
        steps = min(cap_steps, 2 * steps)
