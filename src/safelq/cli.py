"""Command-line front end.

Subcommands: riccati | synthesize | game | verify.  Every run writes a
manifest (config path, command, overrides, tolerances) before computing;
output files reference the manifest by SHA-256 hash and every CSV starts
with a schema header line.  Outputs carry no timestamps, so identical
configs and flags reproduce byte-identical files.

Exit codes: 0 ok, 1 configuration/user error, 2 stabilizing solve did not
converge, 3 IPC check failed (synthesis still emitted, marked unverified) or
the game's closed loop left Omega, 4 coupled fixed point did not converge,
5 verification suite failure, 6 numerical failure (a Riccati sweep escaped
to inf/NaN, or no stabilizing algebraic solution exists).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from itertools import chain
from pathlib import Path

import numpy as np

from . import game, ipc, oracle, riccati, synthesis
from .errors import (ConfigError, NoConvergence, NonFiniteState,
                     NotStabilizable, SafeLQError)
from .geometry import sample_boundary
from .model import AlphaPolicy, ProblemSpec, build_problem

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NO_CONVERGENCE = 2
EXIT_IPC_FAILED = 3
EXIT_NO_FIXED_POINT = 4
EXIT_VERIFY_FAILED = 5
EXIT_NUMERICAL = 6

DEFAULT_TOLERANCES = {
    "riccati_tol": 1e-8,
    "game_tol": 1e-6,
    "value_rel_tol": 1e-3,
    "psd_tol": 1e-9,
    "ipc_density": 64,
    "ipc_time_samples": 9,
}


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()


def _write_json(path: Path, obj, manifest_sha: str | None = None) -> None:
    if manifest_sha is not None:
        obj = dict(obj)
        obj["manifest_sha256"] = manifest_sha
    path.write_bytes(_json_bytes(obj))


def _write_csv(path: Path, header: list[str], blocks,
               manifest_sha: str) -> None:
    """Write an iterable of rectangular row blocks one block at a time, so
    no table is held as text; every value is formatted ``.17g``."""
    with path.open("w") as f:
        f.write(f"# manifest_sha256={manifest_sha}\n{','.join(header)}\n")
        for block in blocks:
            if len(block):
                line = ",".join(["{:.17g}"] * len(block[0])) + "\n"
                f.write((line * len(block)).format(*chain.from_iterable(block)))


def _write_manifest(out_dir: Path, args: argparse.Namespace,
                    overrides: dict) -> str:
    manifest = {
        "command": args.command,
        "config": str(args.config),
        "out_dir": str(out_dir),
        "seed": args.seed,
        "overrides": overrides,
        "tolerances": DEFAULT_TOLERANCES,
    }
    data = _json_bytes(manifest)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "manifest.json").write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def _load_spec(path: str) -> ProblemSpec:
    try:
        config = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    return build_problem(config)


def _parse_vector(text: str, dim: int, name: str) -> np.ndarray:
    try:
        vec = np.array([float(v) for v in text.split(",")])
    except ValueError:
        raise ConfigError(f"{name} must be a comma-separated vector")
    if len(vec) != dim:
        raise ConfigError(f"{name} must have {dim} entries")
    return vec


def _alpha_from_flag(flag: str, spec: ProblemSpec, t0: float) -> AlphaPolicy:
    """--alpha accepts a constant or a CSV file with columns s,alpha."""
    path = Path(flag)
    if path.is_file():
        nodes = []
        values = []
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("s,"):
                continue
            fields = line.split(",")
            try:
                s_val, a_val = float(fields[0]), float(fields[1])
            except (IndexError, ValueError):
                raise ConfigError(f"--alpha file {path}, line {lineno}: "
                                  f"expected 's,alpha' numbers, got {line!r}")
            nodes.append(s_val)
            values.append(a_val)
        try:
            return AlphaPolicy(np.array(nodes), np.array(values))
        except ValueError as exc:
            raise ConfigError(f"--alpha file {path}: {exc}")
    try:
        value = float(flag)
    except ValueError:
        raise ConfigError(f"--alpha must be a number or a CSV file: {flag!r}")
    return AlphaPolicy.constant(value, t0, spec.grid.t_max)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_riccati(args) -> int:
    spec = _load_spec(args.config)
    out = Path(args.out)
    sha = _write_manifest(out, args, {
        "alpha": args.alpha, "horizon": args.horizon, "tol": args.tol,
        "eval_span": args.eval_span})
    t0 = spec.grid.t0
    alpha = _alpha_from_flag(args.alpha, spec, t0)

    if args.horizon == "stabilizing":
        try:
            sol = riccati.solve_stabilizing(
                spec, alpha, t0, t0 + args.eval_span, tol=args.tol)
        except NoConvergence as exc:
            # the first horizon has no gap yet: its NaN placeholder is dropped
            horizons, gaps = zip(*exc.attempts)
            certificate = riccati.ConvergenceCertificate(
                horizons, gaps[1:], args.tol, False)
            _write_json(out / "certificate.json", certificate.to_dict(), sha)
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_NO_CONVERGENCE
        _write_json(out / "certificate.json", sol.certificate.to_dict(), sha)
    else:
        try:
            horizon = float(args.horizon)
        except ValueError:
            raise ConfigError("--horizon must be a number or 'stabilizing'")
        sol = riccati.solve_finite_horizon(spec, alpha, t0, t0 + horizon)
        _write_json(out / "certificate.json",
                    {"kind": "finite_horizon", "horizon": t0 + horizon}, sha)
    header, rows = sol.csv_rows()
    _write_csv(out / "riccati.csv", header, [rows], sha)
    print(f"wrote {out / 'riccati.csv'} ({len(rows)} rows)")
    return EXIT_OK


def _cmd_synthesize(args) -> int:
    spec = _load_spec(args.config)
    out = Path(args.out)
    sha = _write_manifest(out, args, {
        "x0": args.x0, "check_ipc": args.check_ipc, "horizon": args.horizon})
    t0 = spec.grid.t0
    x0 = _parse_vector(args.x0, spec.dim_state, "--x0")
    if not spec.omega.contains(x0, tol=1e-9):
        raise ConfigError("--x0 lies outside the constraint set")
    alpha = _alpha_from_flag(args.alpha, spec, t0)
    horizon = args.horizon if args.horizon is not None else min(
        16.0, spec.grid.t_max - t0)
    t_end = t0 + horizon

    try:
        sol = riccati.solve_stabilizing(spec, alpha, t0, t_end,
                                        tol=DEFAULT_TOLERANCES["riccati_tol"])
    except NoConvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE

    ipc_ok = True
    if args.check_ipc:
        samples = sample_boundary(spec.omega, DEFAULT_TOLERANCES["ipc_density"])
        times = np.linspace(t0, t_end, DEFAULT_TOLERANCES["ipc_time_samples"])
        report = ipc.check_ipc_riccati(
            spec, sol, times, samples,
            density=DEFAULT_TOLERANCES["ipc_density"])
        _write_json(out / "ipc_report.json", report.to_dict(), sha)
        ipc_ok = report.holds

    traj = synthesis.simulate_closed_loop(spec, sol, alpha, t0, x0, t_end)
    header, rows = traj.csv_rows()
    _write_csv(out / "trajectory.csv", header, [rows], sha)
    p_header, p_rows = sol.csv_rows()
    _write_csv(out / "riccati.csv", p_header, [p_rows], sha)

    value = synthesis.value_from_riccati(spec, sol, alpha, t0, x0)
    cost = synthesis.cost_of_trajectory(spec, traj, alpha, tail_P=sol)
    rel_gap = abs(cost.total - value) / (1.0 + abs(value))
    _write_json(out / "value.json", {
        "value": value, "truncated_cost": cost.truncated, "tail": cost.tail,
        "rel_gap": rel_gap, "ipc_verified": bool(ipc_ok),
        "constraint_violated": bool(traj.exited),
        "exit_time": float(traj.exit_time) if traj.exited else None}, sha)
    print(f"value={value:.6g} cost={cost.total:.6g} rel_gap={rel_gap:.3g}")
    if not ipc_ok:
        print("warning: IPC check failed; synthesis is unverified",
              file=sys.stderr)
        return EXIT_IPC_FAILED
    return EXIT_OK


def _cmd_game(args) -> int:
    spec = _load_spec(args.config)
    out = Path(args.out)
    sha = _write_manifest(out, args, {
        "x0": args.x0, "tol": args.tol, "max_iter": args.max_iter,
        "relaxation": args.relaxation})
    t0 = spec.grid.t0
    x0 = _parse_vector(args.x0, spec.dim_state, "--x0")
    if not spec.omega.contains(x0, tol=1e-9):
        raise ConfigError("--x0 lies outside the constraint set")
    if args.alpha_points < 1:
        raise ConfigError("--alpha-points must be at least 1")
    if args.max_iter < 1:
        raise ConfigError("--max-iter must be at least 1")

    solution = game.solve_coupled(spec, t0, x0, tol=args.tol,
                                  max_iter=args.max_iter,
                                  relaxation=args.relaxation)
    _write_json(out / "game.json", solution.to_dict(), sha)
    _write_csv(out / "alpha_star.csv", ["s", "alpha"],
               [list(zip(solution.alpha_star.nodes,
                         solution.alpha_star.values))], sha)

    grid = np.linspace(0.0, args.alpha_max, args.alpha_points)
    sweep = game.sup_over_constant_alpha(spec, t0, x0, grid)
    _write_csv(out / "constant_alpha_sweep.csv", ["alpha", "value"],
               [sweep.table], sha)

    print(f"W={solution.W:.6g} iterations={solution.iterations} "
          f"converged={solution.converged}")
    if not solution.converged:
        print("warning: coupled iteration hit max_iter", file=sys.stderr)
        return EXIT_NO_FIXED_POINT
    if solution.xi_star.exited:
        print(f"warning: the closed loop leaves Omega at "
              f"t={float(solution.xi_star.exit_time):.6g}", file=sys.stderr)
        return EXIT_IPC_FAILED
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification suites

def _suite_riccati(spec: ProblemSpec) -> list[dict]:
    t0 = spec.grid.t0
    alpha = AlphaPolicy.zero(t0, spec.grid.t_max)
    checks = []
    T = t0 + 4.0
    sol = riccati.solve_finite_horizon(spec, alpha, t0, T)
    checks.append({"check": "terminal_condition_zero",
                   "passed": bool(np.all(sol.P[-1] == 0.0)),
                   "max_abs": float(np.max(np.abs(sol.P[-1])))})
    asym = float(np.max(np.abs(sol.P - np.swapaxes(sol.P, -1, -2))))
    checks.append({"check": "symmetry_exact", "passed": asym == 0.0,
                   "max_asymmetry": asym})
    lam_min = float(np.min(np.linalg.eigvalsh(sol.P)[:, 0]))
    checks.append({"check": "positive_semidefinite",
                   "passed": lam_min >= -DEFAULT_TOLERANCES["psd_tol"],
                   "lambda_min": lam_min})
    mono = riccati.check_monotone_in_T(spec, alpha, t0, t0, T1=t0 + 2.0,
                                       T2=t0 + 4.0)
    checks.append({"check": "monotone_in_horizon", "passed": mono.ok,
                   "lambda_min": mono.lambda_min})
    # the algebraic cross-check needs constant coefficients over every
    # horizon the doubling limit touches
    k_constant = (spec.K.variant == "truncated_constant"
                  and spec.K.t_cut >= spec.grid.t_max)
    if spec.A.is_constant() and spec.B.is_constant() and k_constant:
        try:
            stab = riccati.solve_stabilizing(
                spec, alpha, t0, t0, tol=DEFAULT_TOLERANCES["riccati_tol"])
            q0 = spec.q_coeff(t0, 0.0) * np.eye(spec.dim_state)
            p_are = riccati.solve_are_constant(
                spec.A.value(t0), spec.B.value(t0), spec.R, q0)
            gap = float(np.linalg.norm(stab.at(t0) - p_are, "fro"))
            checks.append({"check": "stabilizing_matches_algebraic",
                           "passed": gap <= 10.0 * DEFAULT_TOLERANCES["riccati_tol"],
                           "gap": gap})
        except (NoConvergence, SafeLQError) as exc:
            checks.append({"check": "stabilizing_matches_algebraic",
                           "passed": False, "error": str(exc)})
    # finite-difference residual of the sweep is second order in dt
    ratios = _riccati_residual_ratio(spec, alpha, t0, T)
    checks.append({"check": "sweep_residual_order",
                   "passed": bool(2.5 <= ratios <= 6.0) or ratios == 0.0,
                   "ratio": ratios})
    return checks


def _riccati_residual_max(sol) -> float:
    dp_fd = (sol.P[2:] - sol.P[:-2]) / (2.0 * sol.dt)
    return float(np.max(np.abs(dp_fd - sol.dP[1:-1]), initial=0.0))


def _riccati_residual_ratio(spec, alpha, t0, T) -> float:
    coarse = riccati.solve_finite_horizon(spec, alpha, t0, T,
                                          dt=spec.grid.dt * 2.0)
    fine = riccati.solve_finite_horizon(spec, alpha, t0, T, dt=spec.grid.dt)
    r_coarse = _riccati_residual_max(coarse)
    r_fine = _riccati_residual_max(fine)
    if r_fine == 0.0:
        return 0.0
    return r_coarse / r_fine


def _suite_ipc(spec: ProblemSpec, seed: int) -> list[dict]:
    t0 = spec.grid.t0
    t_end = t0 + min(8.0, spec.grid.t_max - t0)
    alpha = AlphaPolicy.zero(t0, spec.grid.t_max)
    checks = []
    samples = sample_boundary(spec.omega, DEFAULT_TOLERANCES["ipc_density"])
    base_worst = min(ipc.check_base_ipc(spec, t0, cq.point) for cq in samples)
    checks.append({"check": "base_ipc_margin", "passed": base_worst > 0.0,
                   "worst_margin": float(base_worst)})
    duality_ok = True
    for cq in samples:
        v = spec.omega.interior_point() - cq.point
        if cq.margin(v) > 0.0 and float(np.max(cq.normals @ v)) >= 0.0:
            duality_ok = False
    checks.append({"check": "cone_polar_duality", "passed": duality_ok})

    sol = riccati.solve_stabilizing(spec, alpha, t0, t_end,
                                    tol=DEFAULT_TOLERANCES["riccati_tol"])
    times = np.linspace(t0, t_end, DEFAULT_TOLERANCES["ipc_time_samples"])
    report = ipc.check_ipc_riccati(spec, sol, times, samples)
    checks.append({"check": "riccati_ipc_margin", "passed": report.holds,
                   "worst_margin": report.worst_margin,
                   "witness_s": report.witness_s})

    if report.holds:
        # the first 20 of 10000 uniform draws from the bounding box that lie
        # strictly inside Omega
        lo, hi = spec.omega.bounding_box()
        draws = np.random.default_rng(seed).uniform(
            lo, hi, size=(10000, spec.dim_state))
        x0 = draws[spec.omega.boundary_margin(draws) <= -1e-6][:20]
        traj = synthesis.simulate_closed_loop(spec, sol, alpha, t0, x0, t_end)
        checks.append({"check": "feasible_under_ipc",
                       "passed": not traj.exited.any(),
                       "n_initial_states": len(x0)})
    return checks


def _suite_hjb(spec: ProblemSpec) -> list[dict]:
    t0 = spec.grid.t0
    T = t0 + 4.0
    alpha = AlphaPolicy.zero(t0, spec.grid.t_max)
    dt = spec.grid.dt
    coarse = riccati.solve_finite_horizon(spec, alpha, t0, T, dt=dt * 2.0)
    fine = riccati.solve_finite_horizon(spec, alpha, t0, T, dt=dt)
    lo, hi = spec.omega.bounding_box()
    xs = np.linspace(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), 20)
    s_vals = coarse.nodes[2:-2:max(1, (len(coarse.nodes) - 4) // 20)][:20]
    worst_c, worst_f = (
        max(np.max(synthesis.hjb_residual(spec, sol, alpha, float(s), xs))
            for s in s_vals) for sol in (coarse, fine))
    ratio = worst_c / worst_f if worst_f > 0.0 else 0.0
    passed = bool(3.0 <= ratio <= 5.0
                  or (worst_f < 1e-13 and worst_c < 1e-13))
    return [{"check": "hjb_residual_second_order", "passed": passed,
             "ratio": float(ratio), "max_residual_fine": float(worst_f),
             "max_residual_coarse": float(worst_c)}]


def _suite_oracle(spec: ProblemSpec, out: Path | None = None,
                  sha: str | None = None) -> list[dict]:
    if spec.dim_state > 2:
        return [{"check": "oracle_vs_riccati", "passed": False,
                 "error": "oracle supports dim <= 2"}]
    t0 = spec.grid.t0
    T = t0 + 10.0
    alpha = AlphaPolicy.zero(t0, spec.grid.t_max)
    sol = riccati.solve_stabilizing(spec, alpha, t0, t0,
                                    tol=DEFAULT_TOLERANCES["riccati_tol"])
    center = spec.omega.interior_point()
    corner = np.asarray(spec.omega.bounding_box()[1])
    x0 = center
    for blend in (0.5, 0.25):
        probe = (1.0 - blend) * center + blend * corner
        if spec.omega.boundary_margin(probe) < -1e-6:
            x0 = probe
            break
    w_ref = synthesis.value_from_riccati(spec, sol, alpha, t0, x0)
    # 2-d grids stay a coarse preview: the table is an upper bound on the
    # value, so the lower side is tight and the upper side generous
    if spec.dim_state == 1:
        res, u_max, tol_above = (201, 41, 400), 2.0, 0.05
    else:
        res, u_max, tol_above = (41, 13, 200), 1.5, 0.25
    dp = oracle.build_dp(spec, t0, T, n_steps=res[2], state_res=res[0],
                         u_max=u_max, control_res=res[1], cost_mode="fixed",
                         alpha=alpha)
    table = oracle.brute_force_value(dp)
    if out is not None:
        header, blocks = table.csv_blocks()
        _write_csv(out / "value_table.csv", header, blocks, sha)
    v = table.value_at(x0)
    scale = max(1e-12, abs(w_ref))
    above = (v - w_ref) / scale
    passed = -1e-6 <= above <= tol_above
    return [{"check": "oracle_vs_riccati", "passed": bool(passed),
             "oracle_value": float(v), "riccati_value": float(w_ref),
             "relative_gap": float(abs(above)),
             "tolerance_above": tol_above}]


def _cmd_verify(args) -> int:
    spec = _load_spec(args.config)
    out = Path(args.out)
    sha = _write_manifest(out, args, {"suite": args.suite})
    suites = {
        "riccati": lambda: _suite_riccati(spec),
        "ipc": lambda: _suite_ipc(spec, args.seed),
        "hjb": lambda: _suite_hjb(spec),
        "oracle": lambda: _suite_oracle(spec, out, sha),
    }
    names = list(suites) if args.suite == "all" else [args.suite]
    report = {}
    all_passed = True
    for name in names:
        checks = suites[name]()
        report[name] = checks
        for check in checks:
            status = "PASS" if check["passed"] else "FAIL"
            print(f"[{status}] {name}/{check['check']}")
            all_passed &= bool(check["passed"])
    _write_json(out / "verify_report.json",
                {"suites": report, "all_passed": all_passed}, sha)
    return EXIT_OK if all_passed else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="safelq",
        description="State-constrained infinite-horizon feedback synthesis")
    parser.add_argument("--config", required=True, help="problem JSON file")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for random probe points")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ric = sub.add_parser("riccati", help="solve the Riccati equation")
    p_ric.add_argument("--alpha", default="0.0",
                       help="constant value or CSV file of the weight policy")
    p_ric.add_argument("--horizon", default="stabilizing",
                       help="finite horizon length or 'stabilizing'")
    p_ric.add_argument("--tol", type=float,
                       default=DEFAULT_TOLERANCES["riccati_tol"])
    p_ric.add_argument("--eval-span", type=float, default=1.0,
                       help="window [t0, t0+span] kept for stabilizing solves")

    p_syn = sub.add_parser("synthesize", help="closed-loop synthesis")
    p_syn.add_argument("--x0", required=True, help="initial state (comma sep)")
    p_syn.add_argument("--alpha", default="0.0")
    p_syn.add_argument("--check-ipc", action="store_true")
    p_syn.add_argument("--horizon", type=float, default=None)

    p_game = sub.add_parser("game", help="coupled adversarial fixed point")
    p_game.add_argument("--x0", required=True)
    p_game.add_argument("--tol", type=float,
                        default=DEFAULT_TOLERANCES["game_tol"])
    p_game.add_argument("--max-iter", type=int, default=50)
    p_game.add_argument("--relaxation", type=float, default=0.5)
    p_game.add_argument("--alpha-max", type=float, default=2.0)
    p_game.add_argument("--alpha-points", type=int, default=11)

    p_ver = sub.add_parser("verify", help="run invariant suites")
    p_ver.add_argument("--suite", default="all",
                       choices=["riccati", "ipc", "hjb", "oracle", "all"])
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    handlers = {
        "riccati": _cmd_riccati,
        "synthesize": _cmd_synthesize,
        "game": _cmd_game,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NoConvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (NonFiniteState, NotStabilizable) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except SafeLQError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
