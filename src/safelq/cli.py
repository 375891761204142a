"""Command-line front end.

Subcommands: riccati | synthesize | game | verify.  Every run writes a
manifest (config path, command, overrides, tolerances) before computing;
output files reference the manifest by SHA-256 hash and every CSV starts
with a schema header line.  Outputs carry no timestamps, so identical
configs and flags reproduce byte-identical files.

Exit codes: 0 ok, 1 configuration/user error, 2 stabilizing solve did not
converge (whatever the command, ``certificate.json`` then records the
horizons and gaps tried), 3 IPC check failed (synthesis still emitted,
marked unverified) or the game's closed loop left Omega, 4 coupled fixed
point did not converge, 5 verification suite failure, 6 numerical failure
(a Riccati sweep escaped to inf/NaN, or no stabilizing algebraic solution
exists).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from functools import cache
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
    "psd_tol": 1e-9,
    "ipc_density": 64,
    "ipc_time_samples": 9,
}
# every number in a CSV output
_NUMBER = "{:.17g}"


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()


def _write_json(path: Path, obj, manifest_sha: str) -> None:
    path.write_bytes(_json_bytes({**obj, "manifest_sha256": manifest_sha}))


def _csv_lines(rows) -> str:
    """Rectangular rows as CSV lines, every value formatted ``.17g``."""
    if not len(rows):
        return ""
    line = ",".join([_NUMBER] * len(rows[0])) + "\n"
    return (line * len(rows)).format(*chain.from_iterable(rows))


def _write_csv(path: Path, header: list[str], rows,
               manifest_sha: str) -> None:
    path.write_text(f"# manifest_sha256={manifest_sha}\n{','.join(header)}\n"
                    + _csv_lines(rows))


def _write_manifest(out_dir: Path, args: argparse.Namespace) -> str:
    # every subcommand flag is an override, so no two runs that differ in
    # one share a hash; the flags are not checked yet, so a non-finite float
    # is recorded as its string ("nan", "inf"), which strict JSON allows
    overrides = {key: str(value) if isinstance(value, float)
                 and not math.isfinite(value) else value
                 for key, value in vars(args).items()
                 if key not in ("command", "config", "out", "seed")}
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


def _finite(parse):
    """A json number hook: json reads NaN, Infinity and literals beyond the
    float range, such as 1e400, which no config field can hold."""
    def hook(text: str):
        if not math.isfinite(float(text)):
            raise ConfigError(f"config numbers must be finite, got {text}")
        return parse(text)
    return hook


def _load_spec(path: str) -> ProblemSpec:
    try:
        config = json.loads(Path(path).read_text(),
                            parse_float=_finite(float),
                            parse_int=_finite(int),
                            parse_constant=_finite(float))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    return build_problem(config)


def _parse_x0(text: str, spec: ProblemSpec) -> np.ndarray:
    try:
        x0 = np.array([float(v) for v in text.split(",")])
    except ValueError:
        raise ConfigError("--x0 must be a comma-separated vector")
    if len(x0) != spec.dim_state:
        raise ConfigError(f"--x0 must have {spec.dim_state} entries")
    if not spec.omega.contains(x0, tol=1e-9):
        raise ConfigError("--x0 lies outside the constraint set")
    return x0


def _require(ok: bool, message: str) -> None:
    # flags are checked before any compute; NaN fails every comparison
    if not ok:
        raise ConfigError(message)


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
        _require(np.all(np.isfinite(nodes + values)),
                 f"--alpha file {path}: entries must be finite")
        _require(all(v >= 0.0 for v in values),
                 f"--alpha file {path}: values must be nonnegative")
        try:
            return AlphaPolicy(np.array(nodes), np.array(values))
        except ValueError as exc:
            raise ConfigError(f"--alpha file {path}: {exc}")
    try:
        value = float(flag)
    except ValueError:
        raise ConfigError(f"--alpha must be a number or a CSV file: {flag!r}")
    _require(0.0 <= value < np.inf,                             # NaN-proof
             f"--alpha must be finite and nonnegative: {flag!r}")
    return AlphaPolicy.constant(value, t0, spec.grid.t_max)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_riccati(args, spec: ProblemSpec, out: Path, sha: str) -> int:
    _require(0.0 < args.tol < np.inf, "--tol must be finite and positive")
    _require(0.0 <= args.eval_span < np.inf,
             "--eval-span must be finite and not negative")
    if args.horizon != "stabilizing":
        try:
            horizon = float(args.horizon)
        except ValueError:
            raise ConfigError("--horizon must be a number or 'stabilizing'")
        _require(0.0 <= horizon < np.inf,
                 "--horizon must be finite and not negative")
        _require(spec.grid.t0 + horizon <= spec.grid.t_max,
                 f"--horizon {horizon:g} ends past the horizon cap "
                 f"grid.t_max {spec.grid.t_max:g}")
    t0 = spec.grid.t0
    alpha = _alpha_from_flag(args.alpha, spec, t0)

    if args.horizon == "stabilizing":
        sol = riccati.solve_stabilizing(spec, alpha, t0, t0 + args.eval_span,
                                        tol=args.tol)
        _write_json(out / "certificate.json", sol.certificate.to_dict(), sha)
    else:
        sol = riccati.solve_finite_horizon(spec, alpha, t0, t0 + horizon)
        _write_json(out / "certificate.json",
                    {"kind": "finite_horizon", "horizon": t0 + horizon}, sha)
    header, rows = sol.csv_rows()
    _write_csv(out / "riccati.csv", header, rows, sha)
    print(f"wrote {out / 'riccati.csv'} ({len(rows)} rows)")
    return EXIT_OK


def _cmd_synthesize(args, spec: ProblemSpec, out: Path, sha: str) -> int:
    _require(args.horizon is None or 0.0 < args.horizon < np.inf,
             "--horizon must be finite and positive")
    t0 = spec.grid.t0
    x0 = _parse_x0(args.x0, spec)
    alpha = _alpha_from_flag(args.alpha, spec, t0)
    horizon = args.horizon if args.horizon is not None else min(
        16.0, spec.grid.t_max - t0)
    t_end = t0 + horizon

    sol = riccati.solve_stabilizing(spec, alpha, t0, t_end,
                                    tol=DEFAULT_TOLERANCES["riccati_tol"])

    ipc_ok = True
    if args.check_ipc:
        samples = sample_boundary(spec.omega, DEFAULT_TOLERANCES["ipc_density"])
        times = np.linspace(t0, t_end, DEFAULT_TOLERANCES["ipc_time_samples"])
        report = ipc.check_ipc_riccati(spec, sol, times, samples)
        _write_json(out / "ipc_report.json",
                    {**report.to_dict(),
                     "density": DEFAULT_TOLERANCES["ipc_density"]}, sha)
        ipc_ok = report.holds

    traj = synthesis.simulate_closed_loop(spec, sol, alpha, t0, x0, t_end)
    header, rows = traj.csv_rows()
    _write_csv(out / "trajectory.csv", header, rows, sha)
    p_header, p_rows = sol.csv_rows()
    _write_csv(out / "riccati.csv", p_header, p_rows, sha)

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


def _cmd_game(args, spec: ProblemSpec, out: Path, sha: str) -> int:
    t0 = spec.grid.t0
    x0 = _parse_x0(args.x0, spec)
    _require(0.0 < args.tol < np.inf, "--tol must be finite and positive")
    _require(0.0 < args.relaxation <= 1.0, "--relaxation must lie in (0, 1]")
    _require(0.0 <= args.alpha_max < np.inf,
             "--alpha-max must be finite and not negative")
    _require(args.alpha_points >= 1, "--alpha-points must be at least 1")
    _require(args.max_iter >= 1, "--max-iter must be at least 1")

    solution = game.solve_coupled(spec, t0, x0, tol=args.tol,
                                  max_iter=args.max_iter,
                                  relaxation=args.relaxation)
    grid = np.linspace(0.0, args.alpha_max, args.alpha_points)
    sweep = game.sup_over_constant_alpha(spec, t0, x0, grid,
                                         tail=solution.tail,
                                         zero=solution.zero)
    record = solution.to_dict()
    record["skipped_constant_policies"] = [
        {"alpha": val, "reason": reason} for val, reason in sweep.skipped]
    _write_json(out / "game.json", record, sha)
    _write_csv(out / "alpha_star.csv", ["s", "alpha"],
               list(zip(solution.alpha_star.nodes,
                        solution.alpha_star.values)), sha)
    _write_csv(out / "constant_alpha_sweep.csv", ["alpha", "value"],
               sweep.table, sha)

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

def _check(name: str, passed, **values) -> dict:
    """A verify record: the check's name, bool ``passed``, what it read."""
    return {"check": name, "passed": bool(passed), **values}


class _ZeroPolicySolves:
    """The alpha = 0 Riccati solutions that several verify suites read, each
    solved on first use and at most once per run, a failed one included."""

    def __init__(self, spec: ProblemSpec):
        t0 = spec.grid.t0
        self.alpha = alpha = AlphaPolicy.zero(t0, spec.grid.t_max)
        # horizon t0 + 4 at a multiple of the grid step
        self.finite = cache(lambda scale: riccati.solve_finite_horizon(
            spec, alpha, t0, t0 + 4.0, dt=spec.grid.dt * scale))
        # the stabilizing solution on the IPC window [t0, t_end]; the
        # riccati and oracle suites read it at t0
        self.t_end = t_end = t0 + min(8.0, spec.grid.t_max - t0)
        self._solve_stabilizing = lambda: riccati.solve_stabilizing(
            spec, alpha, t0, t_end, tol=DEFAULT_TOLERANCES["riccati_tol"])
        self._stabilizing = None

    def stabilizing(self):
        """The stabilizing solution, solved on the first call; a failed
        solve is not repeated: each later call raises its exception again
        (``functools.cache`` keeps no exception)."""
        if self._stabilizing is None:
            try:
                self._stabilizing = self._solve_stabilizing()
            except SafeLQError as exc:
                self._stabilizing = exc
        if isinstance(self._stabilizing, SafeLQError):
            raise self._stabilizing
        return self._stabilizing


def _suite_riccati(spec: ProblemSpec, zero: _ZeroPolicySolves) -> list[dict]:
    t0 = spec.grid.t0
    sol = zero.finite(1.0)
    asym = float(np.max(np.abs(sol.P - np.swapaxes(sol.P, -1, -2))))
    lam_min = float(np.min(np.linalg.eigvalsh(sol.P)[:, 0]))
    short = riccati.solve_finite_horizon(spec, zero.alpha, t0, t0 + 2.0)
    mono = riccati.MonotoneReport.between(short, sol, t0)
    checks = [
        _check("terminal_condition_zero", np.all(sol.P[-1] == 0.0),
               max_abs=float(np.max(np.abs(sol.P[-1])))),
        _check("symmetry_exact", asym == 0.0, max_asymmetry=asym),
        _check("positive_semidefinite",
               lam_min >= -DEFAULT_TOLERANCES["psd_tol"], lambda_min=lam_min),
        _check("monotone_in_horizon", mono.ok, lambda_min=mono.lambda_min)]
    # the algebraic cross-check needs constant coefficients over every
    # horizon the doubling limit touches
    k_constant = (spec.K.variant == "truncated_constant"
                  and spec.K.t_cut >= spec.grid.t_max)
    if spec.A.is_constant() and spec.B.is_constant() and k_constant:
        try:
            stab = zero.stabilizing()
            q0 = spec.q_coeff(t0, 0.0) * np.eye(spec.dim_state)
            p_are = riccati.solve_are_constant(
                spec.A.value(t0), spec.B.value(t0), spec.R, q0)
            gap = float(np.linalg.norm(stab.at(t0) - p_are, "fro"))
            checks.append(_check(
                "stabilizing_matches_algebraic",
                gap <= 10.0 * DEFAULT_TOLERANCES["riccati_tol"], gap=gap))
        except (NoConvergence, NonFiniteState, NotStabilizable) as exc:
            checks.append(_check("stabilizing_matches_algebraic", False,
                                 error=str(exc)))
    # finite-difference residual of the sweep is second order in dt
    r_coarse = _riccati_residual_max(zero.finite(2.0))
    r_fine = _riccati_residual_max(sol)
    ratios = r_coarse / r_fine if r_fine != 0.0 else 0.0
    checks.append(_check("sweep_residual_order",
                         2.5 <= ratios <= 6.0 or ratios == 0.0, ratio=ratios))
    return checks


def _riccati_residual_max(sol) -> float:
    dp_fd = (sol.P[2:] - sol.P[:-2]) / (2.0 * sol.dt)
    return float(np.max(np.abs(dp_fd - sol.dP[1:-1]), initial=0.0))


def _suite_ipc(spec: ProblemSpec, zero: _ZeroPolicySolves,
               seed: int) -> list[dict]:
    t0, t_end, alpha = spec.grid.t0, zero.t_end, zero.alpha
    samples = sample_boundary(spec.omega, DEFAULT_TOLERANCES["ipc_density"])
    base_worst = float(np.min(ipc.check_base_ipc(spec, t0, samples.points)))
    # every sampled normal generator points away from the interior point
    inward = samples.margin(spec.omega.interior_point() - samples.points)
    sol = zero.stabilizing()
    times = np.linspace(t0, t_end, DEFAULT_TOLERANCES["ipc_time_samples"])
    report = ipc.check_ipc_riccati(spec, sol, times, samples)
    checks = [
        _check("base_ipc_margin", base_worst > 0.0, worst_margin=base_worst),
        _check("cone_polar_duality", np.all(inward > 0.0)),
        _check("riccati_ipc_margin", report.holds,
               worst_margin=report.worst_margin, witness_s=report.witness_s)]

    if report.holds:
        # the first 20 of 10000 uniform draws from the bounding box that lie
        # strictly inside Omega
        lo, hi = spec.omega.bounding_box()
        draws = np.random.default_rng(seed).uniform(
            lo, hi, size=(10000, spec.dim_state))
        x0 = draws[spec.omega.boundary_margin(draws) <= -1e-6][:20]
        traj = synthesis.simulate_closed_loop(spec, sol, alpha, t0, x0, t_end)
        # no start drawn inside Omega is no evidence of feasibility
        checks.append(_check("feasible_under_ipc",
                             len(x0) > 0 and not traj.exited.any(),
                             n_initial_states=len(x0)))
    return checks


def _suite_hjb(spec: ProblemSpec, zero: _ZeroPolicySolves) -> list[dict]:
    alpha = zero.alpha
    coarse, fine = zero.finite(2.0), zero.finite(1.0)
    lo, hi = spec.omega.bounding_box()
    xs = np.linspace(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), 20)
    s_vals = coarse.nodes[2:-2:max(1, (len(coarse.nodes) - 4) // 20)][:20]
    worst_c, worst_f = (
        max(np.max(synthesis.hjb_residual(spec, sol, alpha, float(s), xs))
            for s in s_vals) for sol in (coarse, fine))
    ratio = worst_c / worst_f if worst_f > 0.0 else 0.0
    passed = 3.0 <= ratio <= 5.0 or (worst_f < 1e-13 and worst_c < 1e-13)
    return [_check("hjb_residual_second_order", passed, ratio=float(ratio),
                   max_residual_fine=float(worst_f),
                   max_residual_coarse=float(worst_c))]


def _suite_oracle(spec: ProblemSpec, zero: _ZeroPolicySolves, out: Path,
                  sha: str) -> list[dict]:
    if spec.dim_state > 2:
        return [_check("oracle_vs_riccati", False,
                       error="oracle supports dim <= 2")]
    t0 = spec.grid.t0
    T = t0 + 10.0
    alpha = zero.alpha
    sol = zero.stabilizing()
    center = spec.omega.interior_point()
    corner = np.asarray(spec.omega.bounding_box()[1])
    x0 = center
    for blend in (0.5, 0.25):
        probe = (1.0 - blend) * center + blend * corner
        if spec.omega.boundary_margin(probe) < -1e-6:
            x0 = probe
            break
    w_ref = synthesis.value_from_riccati(spec, sol, alpha, t0, x0)
    # the second-order table sits above the value on every shipped config,
    # so the lower side is tight; the upper side bounds the scheme's error
    if spec.dim_state == 1:
        res, u_max, tol_above = (201, 9, 100), 2.0, 0.016
    else:
        res, u_max, tol_above = (41, 5, 100), 1.5, 0.10
    dp = oracle.build_dp(spec, t0, T, n_steps=res[2], state_res=res[0],
                         u_max=u_max, control_res=res[1], cost_mode="fixed",
                         alpha=alpha)
    table = oracle.brute_force_value(dp)
    header, rows = table.csv_rows()
    _write_csv(out / "value_table.csv", header, rows, sha)
    v = table.value_at(x0)
    scale = max(1e-12, abs(w_ref))
    above = (v - w_ref) / scale
    return [_check("oracle_vs_riccati", -1e-6 <= above <= tol_above,
                   oracle_value=float(v), riccati_value=float(w_ref),
                   relative_gap=float(abs(above)), tolerance_above=tol_above)]


def _cmd_verify(args, spec: ProblemSpec, out: Path, sha: str) -> int:
    _require(args.seed >= 0, "--seed must not be negative")
    zero = _ZeroPolicySolves(spec)
    suites = {
        "riccati": lambda: _suite_riccati(spec, zero),
        "ipc": lambda: _suite_ipc(spec, zero, args.seed),
        "hjb": lambda: _suite_hjb(spec, zero),
        "oracle": lambda: _suite_oracle(spec, zero, out, sha),
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
            all_passed &= check["passed"]
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
        spec = _load_spec(args.config)
        out = Path(args.out)
        sha = _write_manifest(out, args)
        return handlers[args.command](args, spec, out, sha)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NoConvergence as exc:
        # raised only after the manifest is written, by any command
        _write_json(out / "certificate.json", exc.certificate.to_dict(), sha)
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
