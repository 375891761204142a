import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import safelq
from safelq import AlphaPolicy
from safelq.cli import main

from conftest import CONFIG_DIR, load_config, load_spec

SCALAR = str(CONFIG_DIR / "scalar_demo.json")
OUTWARD = str(CONFIG_DIR / "outward_drift.json")


def reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def read_csv(path: Path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# manifest_sha256=")
    header = lines[1].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[2:]]
    return header, rows


class TestRiccatiCommand:
    def test_stabilizing_first_row(self, tmp_path):
        code = main(["--config", SCALAR, "--out", str(tmp_path),
                     "riccati", "--horizon", "stabilizing"])
        assert code == 0
        header, rows = read_csv(tmp_path / "riccati.csv")
        assert header == ["s", "P_11"]
        assert abs(rows[0][1] - (math.sqrt(3.0) - 1.0) / 2.0) <= 1e-6
        cert = json.loads((tmp_path / "certificate.json").read_text())
        assert cert["converged"]

    def test_zero_horizon_single_zero_row(self, tmp_path):
        code = main(["--config", SCALAR, "--out", str(tmp_path),
                     "riccati", "--horizon", "0"])
        assert code == 0
        _, rows = read_csv(tmp_path / "riccati.csv")
        assert len(rows) == 1
        assert rows[0] == [0.0, 0.0]

    def test_malformed_config_names_key(self, tmp_path, capsys):
        cfg = load_config("scalar_demo.json")
        del cfg["grid"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        code = main(["--config", str(bad), "--out", str(tmp_path), "riccati"])
        assert code == 1
        assert "grid" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        code = main(["--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path), "riccati"])
        assert code == 1

    def test_no_convergence_exit_code(self, tmp_path):
        cfg = load_config("outward_drift.json")
        cfg["K"]["params"] = {"level": 2.0, "t_cut": 1000.0}
        cfg["grid"] = {"t0": 0.0, "dt": 0.02, "t_max": 8.0}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        code = main(["--config", str(path), "--out", str(tmp_path),
                     "riccati", "--horizon", "stabilizing"])
        assert code == 2
        cert = json.loads((tmp_path / "certificate.json").read_text(),
                          parse_constant=reject_constant)
        # the success schema; the first horizon has no gap
        assert set(cert) == {"horizons", "gaps", "tol", "converged",
                             "manifest_sha256"}
        assert cert["converged"] is False
        assert cert["tol"] == 1e-8
        assert cert["horizons"][-1] == 8.0
        assert len(cert["gaps"]) == len(cert["horizons"]) - 1 >= 1
        assert all(g >= 1e-8 for g in cert["gaps"])

    @pytest.mark.parametrize("rows, where", [
        ("0.0,0.5\n1;x\n", "line 3"),       # one field
        ("0.0,0.5\n1.0,x\n", "line 3"),     # not a number
        ("1.0,0.5\n0.0,0.5\n", "strictly increasing"),
    ])
    def test_malformed_alpha_csv_is_config_error(self, tmp_path, capsys,
                                                 rows, where):
        policy = tmp_path / "alpha.csv"
        policy.write_text("s,alpha\n" + rows)
        code = main(["--config", SCALAR, "--out", str(tmp_path),
                     "riccati", "--alpha", str(policy)])
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert str(policy) in err and where in err


class TestSynthesizeCommand:
    def test_value_gap_small(self, tmp_path):
        code = main(["--config", SCALAR, "--out", str(tmp_path),
                     "synthesize", "--x0", "0.9", "--check-ipc"])
        assert code == 0
        value = json.loads((tmp_path / "value.json").read_text())
        assert value["rel_gap"] <= 1e-3
        assert value["ipc_verified"]
        header, rows = read_csv(tmp_path / "trajectory.csv")
        assert header[:2] == ["s", "xi_1"]
        assert rows[0][1] == 0.9

    def test_start_outside_rejected(self, tmp_path):
        code = main(["--config", SCALAR, "--out", str(tmp_path),
                     "synthesize", "--x0", "1.5"])
        assert code == 1

    def test_outward_drift_flags_violation(self, tmp_path):
        code = main(["--config", OUTWARD, "--out", str(tmp_path),
                     "synthesize", "--x0", "0.5", "--check-ipc",
                     "--horizon", "3.0"])
        assert code == 3
        value = json.loads((tmp_path / "value.json").read_text())
        assert value["constraint_violated"]
        assert abs(value["exit_time"] - math.log(2.0)) <= 0.05
        header, rows = read_csv(tmp_path / "trajectory.csv")
        margin_col = header.index("omega_margin")
        assert max(r[margin_col] for r in rows) > 0.0


class TestGameCommand:
    def test_outputs_and_exit(self, tmp_path):
        code = main(["--config", SCALAR, "--out", str(tmp_path),
                     "game", "--x0", "0.6", "--tol", "1e-5"])
        assert code == 0
        game = json.loads((tmp_path / "game.json").read_text())
        assert game["converged"]
        assert game["W"] > 0.0
        assert len(game["update_norm_history"]) == game["iterations"]
        assert game["update_norm_history"][-1] == game["alpha_update_norm"]
        assert 0 <= game["mixed_steps"] < game["iterations"]
        assert game["constraint_violated"] is False
        assert game["exit_time"] is None
        _, sweep_rows = read_csv(tmp_path / "constant_alpha_sweep.csv")
        assert len(sweep_rows) == 11
        assert all(game["W"] >= row[1] - 1e-6 for row in sweep_rows)

    def test_closed_loop_leaving_omega_exits_3(self, tmp_path, capsys):
        # outward_drift has B = 0: the fixed point converges, but xi* leaves
        # the unit interval at ln(1/0.3) / 1 = 1.20
        code = main(["--config", OUTWARD, "--out", str(tmp_path),
                     "game", "--x0", "0.3", "--alpha-points", "2"])
        assert code == 3
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "leaves Omega" in err
        game = json.loads((tmp_path / "game.json").read_text(),
                          parse_constant=reject_constant)
        assert game["converged"]
        assert game["constraint_violated"]
        assert abs(game["exit_time"] - math.log(1.0 / 0.3)) <= 0.01

    def test_no_fixed_point_exit(self, tmp_path):
        code = main(["--config", SCALAR, "--out", str(tmp_path),
                     "game", "--x0", "0.6", "--tol", "1e-13",
                     "--max-iter", "2"])
        assert code == 4

    def test_alpha_points_below_one_is_config_error(self, tmp_path, capsys):
        code = main(["--config", SCALAR, "--out", str(tmp_path),
                     "game", "--x0", "0.6", "--alpha-points", "0"])
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "--alpha-points" in err

    def test_max_iter_below_one_is_config_error(self, tmp_path, capsys):
        code = main(["--config", SCALAR, "--out", str(tmp_path),
                     "game", "--x0", "0.6", "--max-iter", "0",
                     "--alpha-points", "1"])
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "--max-iter" in err
        assert not (tmp_path / "game.json").exists()
        for path in tmp_path.glob("*.json"):
            json.loads(path.read_text(), parse_constant=reject_constant)


class TestNumericalFailure:
    def test_escaping_sweep_exits_6(self, tmp_path, capsys):
        code = main(["--config", SCALAR, "--out", str(tmp_path),
                     "riccati", "--alpha", "1e300"])
        assert code == 6
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "escaped at s=1.99" in err
        for path in tmp_path.glob("*.json"):
            json.loads(path.read_text(), parse_constant=reject_constant)

    def test_escaping_constant_policy_is_skipped(self, tmp_path):
        with pytest.warns(UserWarning, match="escaped"):
            code = main(["--config", SCALAR, "--out", str(tmp_path), "game",
                         "--x0", "0.6", "--tol", "1e-3",
                         "--alpha-max", "1e300", "--alpha-points", "2"])
        assert code == 0
        _, rows = read_csv(tmp_path / "constant_alpha_sweep.csv")
        assert rows[0][0] == 0.0 and math.isfinite(rows[0][1])
        assert rows[1] == [1e300, -math.inf]
        for path in tmp_path.glob("*.json"):
            json.loads(path.read_text(), parse_constant=reject_constant)


class TestHorizonBeyondCap:
    # the window needs a first horizon past grid.t_max: a configuration
    # error, not a stabilizing solve that failed to converge
    @pytest.mark.parametrize("config, argv", [
        (None, ["riccati", "--eval-span", "63"]),
        (None, ["synthesize", "--x0", "0.5", "--horizon", "40"]),
        (20.0, ["game", "--x0", "0.6", "--alpha-points", "1"]),
    ])
    def test_config_error(self, tmp_path, capsys, config, argv):
        path = SCALAR
        if config is not None:
            cfg = load_config("scalar_demo.json")
            cfg["grid"]["t_max"] = config
            path = tmp_path / "short.json"
            path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        code = main(["--config", str(path), "--out", str(out)] + argv)
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "horizon cap" in err
        for written in out.glob("*.json"):
            json.loads(written.read_text(), parse_constant=reject_constant)


class TestVerifyCommand:
    def test_all_suites_pass_on_demo(self, tmp_path):
        code = main(["--config", SCALAR, "--out", str(tmp_path),
                     "verify", "--suite", "all"])
        assert code == 0
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["all_passed"]
        assert set(report["suites"]) == {"riccati", "ipc", "hjb", "oracle"}

    def test_unknown_suite_exits_config(self, tmp_path):
        code = main(["--config", SCALAR, "--out", str(tmp_path),
                     "verify", "--suite", "bogus"])
        assert code == 1

    def test_single_suite_selectable(self, tmp_path):
        code = main(["--config", SCALAR, "--out", str(tmp_path),
                     "verify", "--suite", "riccati"])
        assert code == 0
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert list(report["suites"]) == ["riccati"]


class TestEveryShippedConfig:
    # outward_drift has no inward-pointing field: its IPC checks fail by
    # design; every other run succeeds
    FAILING = {("outward_drift.json", "synthesize"): 3,
               ("outward_drift.json", "verify-ipc"): 5}

    @pytest.mark.parametrize("config", sorted(p.name for p in CONFIG_DIR.glob("*.json")))
    def test_exit_codes_and_strict_json(self, tmp_path, config):
        spec = load_spec(config)
        center = spec.omega.interior_point()
        x0 = center + 0.5 * (np.asarray(spec.omega.bounding_box()[1]) - center)
        runs = {"riccati": (["riccati"], "certificate.json"),
                "synthesize": (["synthesize", "--check-ipc", "--x0="
                                + ",".join(f"{v:.17g}" for v in x0)],
                               "value.json")}
        for suite in ("riccati", "ipc", "hjb"):
            runs[f"verify-{suite}"] = (["verify", "--suite", suite],
                                       "verify_report.json")
        for name, (argv, written) in runs.items():
            out = tmp_path / name
            code = main(["--config", str(CONFIG_DIR / config),
                         "--out", str(out)] + argv)
            assert code == self.FAILING.get((config, name), 0), name
            assert (out / written).is_file(), name
            for path in out.glob("*.json"):
                json.loads(path.read_text(), parse_constant=reject_constant)


class TestDeterminism:
    def test_verify_reports_byte_identical(self, tmp_path):
        out = tmp_path / "v"
        main(["--config", SCALAR, "--out", str(out), "verify",
              "--suite", "riccati"])
        first = (out / "verify_report.json").read_bytes()
        main(["--config", SCALAR, "--out", str(out), "verify",
              "--suite", "riccati"])
        assert (out / "verify_report.json").read_bytes() == first

    def test_synthesis_outputs_byte_identical(self, tmp_path):
        out = tmp_path / "s"
        main(["--config", SCALAR, "--out", str(out), "synthesize",
              "--x0", "0.5"])
        first_csv = (out / "trajectory.csv").read_bytes()
        first_val = (out / "value.json").read_bytes()
        main(["--config", SCALAR, "--out", str(out), "synthesize",
              "--x0", "0.5"])
        assert (out / "trajectory.csv").read_bytes() == first_csv
        assert (out / "value.json").read_bytes() == first_val

    def test_manifest_written_and_referenced(self, tmp_path):
        main(["--config", SCALAR, "--out", str(tmp_path), "riccati",
              "--horizon", "1.0"])
        import hashlib
        sha = hashlib.sha256((tmp_path / "manifest.json").read_bytes()).hexdigest()
        cert = json.loads((tmp_path / "certificate.json").read_text())
        assert cert["manifest_sha256"] == sha
        first_line = (tmp_path / "riccati.csv").read_text().splitlines()[0]
        assert first_line == f"# manifest_sha256={sha}"


class TestValueTableCSV:
    def test_block_writer_matches_row_format(self, tmp_path, outward_spec):
        # streaming per time node writes the bytes of the one-list writer
        import warnings
        from safelq import oracle
        from safelq.cli import _write_csv
        from safelq.errors import GridTooCoarseWarning
        dp = oracle.build_dp(outward_spec, 0.0, 4.0, n_steps=6, state_res=9,
                             u_max=0.5, control_res=3, cost_mode="fixed",
                             alpha=AlphaPolicy.zero(0.0, 64.0))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GridTooCoarseWarning)
            table = oracle.brute_force_value(dp)
        header, blocks = table.csv_blocks()
        _write_csv(tmp_path / "v.csv", header, blocks, "abc")
        header, rows = table.csv_rows()
        assert math.isinf(rows[0][-1]) and math.isfinite(rows[-1][-1])
        lines = ["# manifest_sha256=abc", ",".join(header)]
        lines += [",".join(f"{v:.17g}" for v in row) for row in rows]
        assert (tmp_path / "v.csv").read_text() == "\n".join(lines) + "\n"


class TestHJBSuiteScaling:
    def test_doubled_dt_still_passes_order_check(self, tmp_path):
        # the residual magnitude grows ~4x with dt doubled, but the
        # second-order ratio is scale free
        cfg = load_config("timevarying_demo.json")
        cfg["grid"]["dt"] = 0.02
        path = tmp_path / "coarse.json"
        path.write_text(json.dumps(cfg))
        code = main(["--config", str(path), "--out", str(tmp_path),
                     "verify", "--suite", "hjb"])
        assert code == 0
        report = json.loads((tmp_path / "verify_report.json").read_text())
        check = report["suites"]["hjb"][0]
        assert 3.0 <= check["ratio"] <= 5.0


class TestColdStart:
    def test_cli_import_leaves_scipy_optimize_out(self):
        # linprog serves general polytopes only and is imported where they
        # need it; a box reads its bounding box off lo and hi.  The Lyapunov
        # solver of the algebraic cross-check is imported where it runs.
        src = str(Path(safelq.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = ("import sys, safelq.cli; from safelq.geometry import Box; "
                "Box([-1.0, 0.0], [1.0, 2.0]); "
                "print('scipy.optimize' in sys.modules, "
                "'scipy.linalg' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False False"
