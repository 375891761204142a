"""Output checker: accepts or rejects one job's exit code and output files.

Tolerances are those of the acceptance tests.  A rejected job counts as
failed in the benchmark's result line.  Every function here reads files
only, so doctored outputs can be fed to it directly.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

SCALAR_DEMO_P = (math.sqrt(3.0) - 1.0) / 2.0
SCALAR_TOL = 1e-6
ARE_TOL = 1e-7
REL_GAP_TOL = 1e-3
GAME_SWEEP_TOL = 1e-6


class Rejected(Exception):
    """The job's outputs break the contract; the message says how."""


def _reject_constant(token: str):
    raise Rejected(f"non-finite JSON constant {token}")


def load_strict_json(path: Path):
    """Parse a JSON file, rejecting the NaN and Infinity extensions."""
    try:
        return json.loads(path.read_text(), parse_constant=_reject_constant)
    except FileNotFoundError:
        raise Rejected(f"missing output {path.name}")
    except json.JSONDecodeError as exc:
        raise Rejected(f"{path.name} is not valid JSON: {exc}")


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    """Header and float rows of a CSV written by the CLI (schema line first)."""
    try:
        lines = path.read_text().splitlines()
    except FileNotFoundError:
        raise Rejected(f"missing output {path.name}")
    body = [line for line in lines if line and not line.startswith("#")]
    if not body:
        raise Rejected(f"{path.name} has no header")
    header = body[0].split(",")
    try:
        rows = np.array([[float(v) for v in line.split(",")] for line in body[1:]])
    except ValueError as exc:
        raise Rejected(f"{path.name} has a malformed row: {exc}")
    return header, rows.reshape(len(body) - 1, len(header))


def _check_riccati(out: Path, reference: np.ndarray | None, tol: float) -> None:
    cert = load_strict_json(out / "certificate.json")
    if cert.get("converged") is not True:
        raise Rejected("certificate is not converged")
    if reference is None:
        return
    _, rows = read_csv(out / "riccati.csv")
    if rows.shape[0] == 0:
        raise Rejected("riccati.csv has no rows")
    n = reference.shape[0]
    upper = [reference[i, j] for i in range(n) for j in range(i, n)]
    gap = float(np.max(np.abs(rows[0, 1:] - np.array(upper))))
    if not gap <= tol:
        raise Rejected(f"P(t0) is {gap:.3e} from the reference (tol {tol:g})")


def _check_synthesize(out: Path, expected_exit: int) -> None:
    value = load_strict_json(out / "value.json")
    load_strict_json(out / "ipc_report.json")
    read_csv(out / "trajectory.csv")
    rel_gap = value.get("rel_gap")
    if not isinstance(rel_gap, (int, float)) or not rel_gap <= REL_GAP_TOL:
        raise Rejected(f"rel_gap {rel_gap} above {REL_GAP_TOL:g}")
    if expected_exit == 3 and value.get("constraint_violated") is not True:
        raise Rejected("the exit-3 job must report constraint_violated")


def _check_game(out: Path) -> None:
    result = load_strict_json(out / "game.json")
    if result.get("converged") is not True:
        raise Rejected("game did not converge")
    w = result.get("W")
    if not isinstance(w, (int, float)):
        raise Rejected("game.json has no numeric W")
    _, sweep = read_csv(out / "constant_alpha_sweep.csv")
    if sweep.shape[0] == 0:
        raise Rejected("constant_alpha_sweep.csv has no rows")
    values = sweep[:, 1]
    if np.any(np.isnan(values)):
        raise Rejected("constant_alpha_sweep.csv holds NaN")
    finite = values[np.isfinite(values)]
    if finite.size and w < float(np.max(finite)) - GAME_SWEEP_TOL:
        raise Rejected(f"W={w} below a constant policy ({np.max(finite)})")


def _check_verify(out: Path) -> None:
    report = load_strict_json(out / "verify_report.json")
    if report.get("all_passed") is not True:
        failed = [f"{suite}/{c.get('check')}"
                  for suite, checks in report.get("suites", {}).items()
                  for c in checks if not c.get("passed")]
        raise Rejected(f"verify failed: {', '.join(failed) or 'all_passed false'}")


def check_job(command: str, exit_code: int | None, expected_exit: int,
              out: Path, reference: np.ndarray | None = None,
              reference_tol: float = ARE_TOL) -> str | None:
    """None when the job is accepted, otherwise the reason it is rejected.

    ``reference`` is the independent P(t0) for a riccati job, or None when
    there is none (time-varying data, or no algebraic root).
    """
    if exit_code != expected_exit:
        return f"exit code {exit_code}, expected {expected_exit}"
    try:
        for path in sorted(out.glob("*.json")):
            load_strict_json(path)
        if command == "riccati":
            _check_riccati(out, reference, reference_tol)
        elif command == "synthesize":
            _check_synthesize(out, expected_exit)
        elif command == "game":
            _check_game(out)
        elif command == "verify":
            _check_verify(out)
        else:
            return f"no checker for command {command!r}"
    except Rejected as exc:
        return str(exc)
    return None
