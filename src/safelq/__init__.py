"""State-constrained infinite-horizon feedback synthesis.

Solves parametrized Riccati equations (finite-horizon and stabilizing),
verifies inward-pointing viability conditions on compact constraint sets,
simulates the resulting feedback loops, and evaluates the adversarial-weight
game value, cross-checked by a brute-force dynamic-programming oracle.
"""

from .catalog import DiffeoMap, PowerLaw, StateWeight, TimeMatrix
from .game import (ConstantAlphaSweep, GameSolution, lambda_map, solve_coupled,
                   sup_over_constant_alpha)
from .geometry import (Ball, Box, ConeQuery, ConstraintSet, Ellipsoid,
                       Polytope, sample_boundary)
from .ipc import (GeometricCertificate, GeometricReport, IPCReport,
                  check_base_ipc, check_ipc_riccati, check_negative_definite,
                  gamma_bar, geometric_certificate, geometric_condition)
from .model import (AlphaPolicy, ProblemSpec, TimeGridSpec, build_problem,
                    eval_dynamics, eval_lagrangian)
from .numerics import (SampledPath, eig_sym_extremes, integrate_ode,
                       simpson_samples, sym)
from .oracle import DPProblem, ValueTable, brute_force_value, build_dp
from .riccati import (ConvergenceCertificate, MonotoneReport, RiccatiSolution,
                      check_monotone_in_T, solve_are_constant,
                      solve_finite_horizon, solve_stabilizing)
from .synthesis import (CostBreakdown, Trajectory, cost_of_trajectory,
                        feedback_control, hamiltonian, hjb_residual,
                        simulate_closed_loop, value_from_riccati)

__version__ = "0.1.0"

__all__ = [
    "AlphaPolicy", "Ball", "Box", "ConeQuery", "ConstantAlphaSweep",
    "ConstraintSet", "ConvergenceCertificate", "CostBreakdown", "DPProblem",
    "DiffeoMap", "Ellipsoid", "GameSolution", "GeometricCertificate",
    "GeometricReport", "IPCReport", "MonotoneReport", "Polytope", "PowerLaw",
    "ProblemSpec", "RiccatiSolution", "SampledPath", "StateWeight",
    "TimeGridSpec", "TimeMatrix", "Trajectory", "ValueTable",
    "brute_force_value", "build_dp", "build_problem", "check_base_ipc",
    "check_ipc_riccati", "check_monotone_in_T", "check_negative_definite",
    "cost_of_trajectory", "eig_sym_extremes", "eval_dynamics",
    "eval_lagrangian", "feedback_control", "gamma_bar",
    "geometric_certificate", "geometric_condition", "hamiltonian",
    "hjb_residual", "integrate_ode", "lambda_map", "sample_boundary",
    "simpson_samples", "simulate_closed_loop", "solve_are_constant",
    "solve_coupled", "solve_finite_horizon", "solve_stabilizing",
    "sup_over_constant_alpha", "sym", "value_from_riccati",
]
