import ast
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import safelq
from safelq import ConeQuery, cli, oracle, riccati
from safelq.geometry import Ball
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


def _unconverging_config(tmp_path) -> str:
    """outward_drift with a positive weight and the cap at 8: no control
    authority over unstable drift, so the doubling cannot settle."""
    cfg = load_config("outward_drift.json")
    cfg["K"]["params"] = {"level": 2.0, "t_cut": 1000.0}
    cfg["grid"] = {"t0": 0.0, "dt": 0.02, "t_max": 8.0}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def _assert_unconverged_certificate(out: Path, cap: float = 8.0) -> None:
    cert = json.loads((out / "certificate.json").read_text(),
                      parse_constant=reject_constant)
    # the success schema; the first horizon has no gap
    assert set(cert) == {"horizons", "gaps", "tol", "converged",
                         "manifest_sha256"}
    assert cert["converged"] is False
    assert cert["tol"] == 1e-8
    assert cert["horizons"][-1] == cap
    assert len(cert["gaps"]) == len(cert["horizons"]) - 1 >= 1
    assert all(g >= 1e-8 for g in cert["gaps"])


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
        code = main(["--config", _unconverging_config(tmp_path), "--out",
                     str(tmp_path), "riccati", "--horizon", "stabilizing"])
        assert code == 2
        _assert_unconverged_certificate(tmp_path)

    @pytest.mark.parametrize("rows, where", [
        ("0.0,0.5\n1;x\n", "line 3"),       # one field
        ("0.0,0.5\n1.0,x\n", "line 3"),     # not a number
        ("1.0,0.5\n0.0,0.5\n", "strictly increasing"),
        ("0.0,0.5\n1.0,-0.5\n", "nonnegative"),
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
        assert err.startswith(f"config error: --alpha file {policy}")
        assert where in err


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

    def test_no_convergence_writes_the_certificate(self, tmp_path, capsys):
        code = main(["--config", _unconverging_config(tmp_path), "--out",
                     str(tmp_path), "synthesize", "--x0", "0.1",
                     "--horizon", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("error: stabilizing limit gap ")
        _assert_unconverged_certificate(tmp_path)
        assert sorted(p.name for p in tmp_path.glob("*.json")) == [
            "bad.json", "certificate.json", "manifest.json"]

    def test_start_outside_rejected(self, tmp_path):
        code = main(["--config", SCALAR, "--out", str(tmp_path),
                     "synthesize", "--x0", "1.5"])
        assert code == 1

    def test_ipc_report_keys(self, tmp_path):
        code = main(["--config", str(CONFIG_DIR / "ball2d_demo.json"),
                     "--out", str(tmp_path), "synthesize", "--x0", "0.3,-0.2",
                     "--check-ipc"])
        assert code == 0
        report = json.loads((tmp_path / "ipc_report.json").read_text())
        assert set(report) == {"worst_margin", "witness_s", "witness_x",
                               "n_samples", "density", "manifest_sha256"}
        assert report["density"] == 64

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
        tail = game["tail_certificate"]
        assert tail["converged"] and tail["tol"] == 1e-8
        assert len(tail["gaps"]) == len(tail["horizons"]) - 1 >= 1
        assert tail["horizons"][0] > 16.0
        assert game["skipped_constant_policies"] == []
        _, sweep_rows = read_csv(tmp_path / "constant_alpha_sweep.csv")
        assert len(sweep_rows) == 11
        assert all(game["W"] >= row[1] - 1e-6 for row in sweep_rows)

    def test_every_sweep_is_the_tail_doubling_or_spans_the_window(
            self, tmp_path, monkeypatch):
        # the Picard passes and the constant policies all sweep [0, T_seed]
        # back from the one policy-free tail, which alone is doubled
        spans = []
        sweep = riccati._sweep

        def recording(spec, alpha, t, T, *args, **kwargs):
            spans.append((t, T))
            return sweep(spec, alpha, t, T, *args, **kwargs)

        monkeypatch.setattr(riccati, "_sweep", recording)
        code = main(["--config", SCALAR, "--out", str(tmp_path),
                     "game", "--x0", "0.6", "--tol", "1e-5"])
        assert code == 0
        t_seed = 16.0 + 16.0 / 1600
        window = [span for span in spans if span[0] != t_seed]
        assert len(window) < len(spans)
        assert set(window) == {(0.0, t_seed)}

    @pytest.mark.parametrize("config, x0, code", [
        ("scalar_demo.json", "0.349266", 0),
        ("ball2d_demo.json", "0.284630,-0.191796", 0),
        ("timevarying_demo.json", "0.323850", 0),
        ("outward_drift.json", "0.346464", 3),
    ])
    def test_synthesize_on_alpha_star_gives_W(self, tmp_path, config, x0,
                                              code):
        # the constrained feedback law end to end: the game's weight policy,
        # fed back to synthesize from the same start, is valued at W
        config = str(CONFIG_DIR / config)
        game_out, synth_out = tmp_path / "game", tmp_path / "synthesize"
        assert main(["--config", config, "--out", str(game_out), "game",
                     "--x0", x0, "--alpha-points", "1"]) == code
        assert main(["--config", config, "--out", str(synth_out),
                     "synthesize", "--x0", x0, "--check-ipc", "--alpha",
                     str(game_out / "alpha_star.csv")]) == code
        game = json.loads((game_out / "game.json").read_text())
        value = json.loads((synth_out / "value.json").read_text())
        assert value["value"] == game["W"]
        assert value["constraint_violated"] is game["constraint_violated"]

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


class TestBadFlags:
    # each is refused before any compute, in one line, with nothing but the
    # manifest written
    @pytest.mark.parametrize("argv, flag", [
        (["riccati", "--tol", "0"], "--tol"),
        (["riccati", "--eval-span", "-1"], "--eval-span"),
        (["riccati", "--horizon", "-1"], "--horizon"),
        (["synthesize", "--x0", "0.5", "--horizon", "0"], "--horizon"),
        (["synthesize", "--x0", "0.5", "--horizon", "-1"], "--horizon"),
        (["game", "--x0", "0.6", "--tol", "0"], "--tol"),
        (["game", "--x0", "0.6", "--relaxation", "2"], "--relaxation"),
        (["game", "--x0", "0.6", "--alpha-max", "-1"], "--alpha-max"),
        (["game", "--x0", "0.6", "--alpha-max", "inf"], "--alpha-max"),
        (["riccati", "--eval-span", "inf"], "--eval-span"),
        (["riccati", "--horizon", "inf"], "--horizon"),
        # t0 + horizon past grid.t_max = 64
        (["riccati", "--horizon", "65"], "--horizon"),
        (["riccati", "--horizon", "1e300"], "--horizon"),
        (["synthesize", "--x0", "0.5", "--horizon", "inf"], "--horizon"),
        (["riccati", "--tol", "inf"], "--tol"),
        (["game", "--x0", "0.6", "--tol", "inf"], "--tol"),
        (["--seed", "-1", "verify", "--suite", "ipc"], "--seed"),
    ])
    def test_exits_1_in_one_line(self, tmp_path, capsys, argv, flag):
        code = main(["--config", SCALAR, "--out", str(tmp_path)] + argv)
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("config error: ")
        assert flag in err and "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]

    def test_negative_alpha_is_a_one_line_error(self, tmp_path, capsys):
        # a rejected flag is a ConfigError, checked before AlphaPolicy
        # raises its own NegativeAlpha
        code = main(["--config", SCALAR, "--out", str(tmp_path),
                     "riccati", "--alpha", "-1"])
        assert code == 1
        assert capsys.readouterr().err == (
            "config error: --alpha must be finite and nonnegative: '-1'\n")
        assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]

    @pytest.mark.parametrize("argv, flag, key, recorded", [
        (["riccati", "--tol", "nan"], "--tol", "tol", "nan"),
        (["game", "--x0", "0.6", "--alpha-max", "inf"], "--alpha-max",
         "alpha_max", "inf"),
    ])
    def test_rejected_non_finite_flag_leaves_a_strict_manifest(
            self, tmp_path, capsys, argv, flag, key, recorded):
        code = main(["--config", SCALAR, "--out", str(tmp_path)] + argv)
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and flag in err
        manifest = json.loads((tmp_path / "manifest.json").read_text(),
                              parse_constant=reject_constant)
        assert manifest["overrides"][key] == recorded

    @pytest.mark.parametrize("argv, rows", [
        (["riccati", "--alpha", "nan"], None),
        (["riccati", "--alpha", "inf"], None),
        (["synthesize", "--x0", "0.5", "--alpha", "nan"], None),
        (["riccati"], "0.0,0.5\nnan,0.5\n2.0,0.5\n"),
        (["riccati"], "0.0,0.5\n1.0,inf\n"),
    ], ids=["nan", "inf", "synthesize-nan", "csv-nan-node", "csv-inf-value"])
    def test_non_finite_alpha_is_config_error(self, tmp_path, capsys, argv,
                                              rows):
        if rows is not None:
            policy = tmp_path / "alpha.csv"
            policy.write_text("s,alpha\n" + rows)
            argv = argv + ["--alpha", str(policy)]
        code = main(["--config", SCALAR, "--out", str(tmp_path / "out")]
                    + argv)
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("config error: --alpha") and "finite" in err
        assert [p.name for p in (tmp_path / "out").iterdir()] == [
            "manifest.json"]


class TestNonFiniteConfig:
    # json reads NaN, Infinity and overflowing literals; the config loader
    # refuses each in one line, before anything is built
    @pytest.mark.parametrize("key, literal", [
        ("dt", "NaN"), ("t_max", "Infinity"), ("t0", "NaN"),
        ("t_max", "1e400"), ("t_max", "1" + "0" * 400)],
        ids=["dt-nan", "t_max-inf", "t0-nan", "t_max-1e400", "t_max-long-int"])
    def test_grid_number_is_config_error(self, tmp_path, capsys, key,
                                         literal):
        cfg = load_config("scalar_demo.json")
        cfg["grid"][key] = "@"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg).replace('"@"', literal))
        code = main(["--config", str(bad), "--out", str(tmp_path / "out"),
                     "riccati"])
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("config error: ") and literal in err

    # a grid of more than MAX_GRID_STEPS steps is refused when the config is
    # read: 1e-300 overflowed stage_times' array size, and a large span
    # over a fine step would build stage data of gigabytes
    @pytest.mark.parametrize("grid", [{"dt": 1e-300}, {"t_max": 1e12}],
                             ids=["dt-1e-300", "t_max-1e12"])
    @pytest.mark.parametrize("command", [
        ["riccati"], ["riccati", "--horizon", "1"],
        ["synthesize", "--x0", "0.5"], ["game", "--x0", "0.5"], ["verify"]],
        ids=lambda argv: "-".join(argv[:2]))
    def test_grid_past_the_step_budget_is_config_error(self, tmp_path, capsys,
                                                       grid, command):
        cfg = load_config("scalar_demo.json")
        cfg["grid"].update(grid)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        code = main(["--config", str(bad), "--out", str(tmp_path / "out")]
                    + command)
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("config error: grid.dt ") and "budget" in err

    @pytest.mark.parametrize("key, value", [("dt", "abc"), ("t_max", [1, 2])],
                             ids=["dt-string", "t_max-list"])
    def test_non_numeric_grid_value_is_config_error(self, tmp_path, capsys,
                                                    key, value):
        cfg = load_config("scalar_demo.json")
        cfg["grid"][key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        code = main(["--config", str(bad), "--out", str(tmp_path / "out"),
                     "riccati"])
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith(f"config error: grid.{key} ")
        assert repr(value) in err and "Traceback" not in err


RAGGED = [[1.0, 0.0], [0.0]]


def config_error(cfg, tmp_path, capsys) -> str:
    """The one stderr line of a riccati run on cfg, which must exit 1."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    code = main(["--config", str(bad), "--out", str(tmp_path / "out"),
                 "riccati"])
    assert code == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    return err


class TestSchemaContract:
    # the shipped schema is enforced on load: the first four ran with exit 0
    # before it was, and R's variant was rejected only by _validate_r
    @pytest.mark.parametrize("edit, path", [
        (lambda c: c.update(comment="x"), "comment"),
        (lambda c: c["K"].pop("params"), "K.params"),
        (lambda c: c["a"].pop("params"), "a.params"),
        (lambda c: c["grid"].update(t0=-1.0), "grid.t0"),
        (lambda c: c.update(R={"variant": "identity"}), "R.variant")],
        ids=["unknown-key", "K-no-params", "a-no-params", "negative-t0",
             "R-variant"])
    def test_schema_violation_names_its_path(self, tmp_path, capsys, edit,
                                             path):
        cfg = load_config("ball2d_demo.json")
        edit(cfg)
        assert config_error(cfg, tmp_path, capsys).startswith(
            f"config error: {path} ")

    def test_exponential_weight_needs_a_rate(self, tmp_path, capsys):
        # the schema leaves K.params.rate optional for every variant
        cfg = load_config("expk_demo.json")
        del cfg["K"]["params"]["rate"]
        assert config_error(cfg, tmp_path, capsys) == (
            "config error: K.params.rate is required for exponential K\n")

    # the schema admits rows of unequal length; they ended in a traceback
    @pytest.mark.parametrize("edit, path", [
        (lambda c: c["A"]["params"].update(value=RAGGED), "A.params.value"),
        (lambda c: c["B"]["params"].update(value=RAGGED), "B.params.value"),
        (lambda c: c.update(h={"variant": "linear",
                               "params": {"matrix": RAGGED}}),
         "h.params.matrix"),
        (lambda c: c.update(R={"value": RAGGED}), "R.value"),
        (lambda c: c.update(omega={"variant": "polytope", "params": {
            "normals": RAGGED, "offsets": [1.0, 1.0]}}),
         "omega.params.normals")],
        ids=["A", "B", "h", "R", "omega"])
    def test_ragged_matrix_names_its_path(self, tmp_path, capsys, edit, path):
        cfg = load_config("ball2d_demo.json")
        edit(cfg)
        err = config_error(cfg, tmp_path, capsys)
        assert err.startswith(f"config error: {path} must have shape ")
        assert err.rstrip().endswith("got ragged rows")


def _cube3d_config(tmp_path) -> str:
    """ball2d_demo in three states with Omega the cube [-1, 1]^3 given as a
    general polytope, whose boundary is sampled only up to dimension 2."""
    cfg = load_config("ball2d_demo.json")
    eye = np.eye(3)
    cfg["dims"] = {"state": 3, "control": 3}
    cfg["A"]["params"]["value"] = (-eye).tolist()
    cfg["B"]["params"]["value"] = eye.tolist()
    cfg["omega"] = {"variant": "polytope", "params": {
        "normals": np.vstack([eye, -eye]).tolist(), "offsets": [1.0] * 6}}
    path = tmp_path / "cube3d.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestUnsampledOmega:
    # an Omega whose boundary cannot be sampled is a rejected configuration
    @pytest.mark.parametrize("argv", [
        ["synthesize", "--x0=0.1,0.1,0.1", "--check-ipc"],
        ["verify", "--suite", "ipc"]], ids=["synthesize", "verify"])
    def test_3d_polytope_is_config_error(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        code = main(["--config", _cube3d_config(tmp_path), "--out", str(out)]
                    + argv)
        assert code == 1
        assert capsys.readouterr().err == (
            "config error: omega: polytope boundary sampling implemented "
            "for dim <= 2\n")
        assert [p.name for p in out.iterdir()] == ["manifest.json"]


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
        (skipped,) = json.loads((tmp_path / "game.json").read_text())[
            "skipped_constant_policies"]
        assert skipped["alpha"] == 1e300
        assert "escaped at s=" in skipped["reason"]


def _run_with_t_max(tmp_path, t_max, argv):
    path = SCALAR
    if t_max is not None:
        cfg = load_config("scalar_demo.json")
        cfg["grid"]["t_max"] = t_max
        path = tmp_path / "short.json"
        path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code = main(["--config", str(path), "--out", str(out)] + argv)
    for written in out.glob("*.json"):
        json.loads(written.read_text(), parse_constant=reject_constant)
    return code, out


class TestHorizonBeyondCap:
    # the limit at the window's end T_eval needs a first horizon T_eval + 1
    # below grid.t_max: a configuration error, not a stabilizing solve that
    # failed to converge.  The game's window is its policy-free tail, one
    # step past t + 16; the verify suites' window ends at t + 8.
    @pytest.mark.parametrize("config, argv", [
        (None, ["riccati", "--eval-span", "63"]),
        (None, ["synthesize", "--x0", "0.5", "--horizon", "63.5"]),
        (16.5, ["game", "--x0", "0.6", "--alpha-points", "1"]),
        (9.0, ["verify", "--suite", "riccati"]),
    ])
    def test_config_error(self, tmp_path, capsys, config, argv):
        code, out = _run_with_t_max(tmp_path, config, argv)
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("config error: ") and "horizon cap" in err
        assert not (out / "verify_report.json").exists()

    def test_finite_horizon_up_to_the_cap_is_solved(self, tmp_path):
        code = main(["--config", SCALAR, "--out", str(tmp_path),
                     "riccati", "--horizon", "64"])
        assert code == 0
        _, rows = read_csv(tmp_path / "riccati.csv")
        assert rows[-1][0] == pytest.approx(64.0) and rows[-1][1] == 0.0

    def test_window_past_half_the_cap_is_solved(self, tmp_path):
        # T_eval + 1 = 41 lies below t_max = 64, although the whole window
        # [0, 40] does not fit twice below it
        code, out = _run_with_t_max(
            tmp_path, None, ["synthesize", "--x0", "0.5", "--horizon", "40"])
        assert code == 0
        _, rows = read_csv(out / "riccati.csv")
        assert rows[0][0] == 0.0 and rows[-1][0] == pytest.approx(40.0)

    def test_game_tail_short_of_its_limit_exits_2(self, tmp_path, capsys):
        # t_max 20 leaves the tail at 16.01 room for horizons up to 20,
        # too short for its doubling to converge; the certificate records
        # the horizons tried
        code, out = _run_with_t_max(
            tmp_path, 20.0, ["game", "--x0", "0.6", "--alpha-points", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "horizon cap" in err
        assert not (out / "game.json").exists()
        _assert_unconverged_certificate(out, cap=20.0)


class TestVerifyCommand:
    def test_all_suites_pass_on_demo(self, tmp_path):
        code = main(["--config", SCALAR, "--out", str(tmp_path),
                     "verify", "--suite", "all"])
        assert code == 0
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["all_passed"]
        assert set(report["suites"]) == {"riccati", "ipc", "hjb", "oracle"}

    @pytest.mark.parametrize("config", sorted(p.name for p in CONFIG_DIR.glob("*.json")))
    def test_no_warning_on_shipped_configs(self, tmp_path, config):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            main(["--config", str(CONFIG_DIR / config), "--out", str(tmp_path),
                  "verify", "--suite", "all"])
        assert [str(w.message) for w in caught] == []

    def test_unknown_suite_exits_config(self, tmp_path):
        code = main(["--config", SCALAR, "--out", str(tmp_path),
                     "verify", "--suite", "bogus"])
        assert code == 1

    def test_all_suites_share_their_riccati_solves(self, tmp_path,
                                                   monkeypatch):
        # the zero-policy finite sweeps and the stabilizing solve on
        # [t0, t0 + 8] are read by several suites and solved once: 3 finite
        # sweeps, 5 doubling sweeps at t0 + 8 and one sweep back to t0
        calls = [0]
        sweep = riccati._sweep

        def counting(*args, **kwargs):
            calls[0] += 1
            return sweep(*args, **kwargs)

        monkeypatch.setattr(riccati, "_sweep", counting)
        code = main(["--config", str(CONFIG_DIR / "ball2d_demo.json"),
                     "--out", str(tmp_path), "verify", "--suite", "all"])
        assert code == 0
        assert calls[0] <= 9

    def test_failed_stabilizing_solve_runs_once(self, tmp_path, monkeypatch,
                                                capsys):
        # outward_drift with a positive weight: the alpha = 0 doubling on
        # [0, 8] reaches its cap; the riccati suite records the failure and
        # the ipc suite, reading the same solve, ends the run with exit 2
        cfg = load_config("outward_drift.json")
        cfg["K"]["params"] = {"level": 2.0, "t_cut": 1000.0}
        cfg["grid"]["dt"] = 0.02
        cfg["grid"]["t_max"] = 16.0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        calls = []
        solve = riccati.solve_stabilizing

        def counting(*args, **kwargs):
            calls.append(args[2:4])
            return solve(*args, **kwargs)

        monkeypatch.setattr(riccati, "solve_stabilizing", counting)
        out = tmp_path / "out"
        code = main(["--config", str(path), "--out", str(out),
                     "verify", "--suite", "all"])
        assert code == 2
        assert calls == [(0.0, 8.0)]
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [
            "[PASS] riccati/terminal_condition_zero",
            "[PASS] riccati/symmetry_exact",
            "[PASS] riccati/positive_semidefinite",
            "[PASS] riccati/monotone_in_horizon",
            "[FAIL] riccati/stabilizing_matches_algebraic",
            "[PASS] riccati/sweep_residual_order"]
        assert captured.err == (
            "error: stabilizing limit gap 4441563.314639351 not below "
            "0.04443053293386833 at horizon cap 16.0\n")
        assert sorted(p.name for p in out.iterdir()) == [
            "certificate.json", "manifest.json"]
        _assert_unconverged_certificate(out, cap=16.0)
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["horizons"] == [9.0, 10.0, 12.0, 16.0]

    @pytest.mark.parametrize("flip", [1.0, -1.0])
    def test_polar_duality_sees_flipped_normals(self, tmp_path, monkeypatch,
                                                flip):
        # every normal turned inward must fail the duality check
        sample = cli.sample_boundary
        monkeypatch.setattr(cli, "sample_boundary", lambda omega, density:
                            ConeQuery(sample(omega, density).points,
                                      flip * sample(omega, density).normals))
        main(["--config", str(CONFIG_DIR / "ball2d_demo.json"),
              "--out", str(tmp_path), "verify", "--suite", "ipc"])
        report = json.loads((tmp_path / "verify_report.json").read_text())
        checks = {c["check"]: c for c in report["suites"]["ipc"]}
        assert checks["cone_polar_duality"]["passed"] is (flip > 0.0)

    def test_feasibility_fails_without_starts(self, tmp_path, monkeypatch):
        # a bounding box outside the ball: none of the draws lands inside
        # Omega, and an empty set of starts proves nothing
        monkeypatch.setattr(Ball, "bounding_box", lambda self: (
            np.array([5.0, 5.0]), np.array([6.0, 6.0])))
        code = main(["--config", str(CONFIG_DIR / "ball2d_demo.json"),
                     "--out", str(tmp_path), "verify", "--suite", "ipc"])
        report = json.loads((tmp_path / "verify_report.json").read_text())
        checks = {c["check"]: c for c in report["suites"]["ipc"]}
        assert checks["riccati_ipc_margin"]["passed"]
        assert checks["feasible_under_ipc"] == {
            "check": "feasible_under_ipc", "passed": False,
            "n_initial_states": 0}
        assert code == cli.EXIT_VERIFY_FAILED

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


class TestOracleCheck:
    # signed gaps (V - W) / W of oracle_vs_riccati on the first-order grids
    # the second-order oracle replaced (201 / 41 / 400 in 1-d and 41 / 13 /
    # 200 in 2-d: states, controls per axis, steps), and their upper bounds
    # 0.05 and 0.25
    EULER_GAPS = {"ball2d_demo.json": 0.1530, "cubic2d_demo.json": 0.1797,
                  "geometric_ball.json": 0.1629, "scalar_demo.json": 0.0388,
                  "cubic_demo.json": 0.0452, "expk_demo.json": 0.0457,
                  "timevarying_demo.json": 0.0354}
    EULER_TOL_ABOVE = {1: 0.05, 2: 0.25}

    @staticmethod
    def oracle_record(tmp_path, config):
        code = main(["--config", str(CONFIG_DIR / config),
                     "--out", str(tmp_path), "verify", "--suite", "oracle"])
        report = json.loads((tmp_path / "verify_report.json").read_text())
        (check,) = report["suites"]["oracle"]
        return code, check

    @pytest.mark.parametrize("config", sorted(p.name for p in CONFIG_DIR.glob("*.json")))
    def test_gap_no_wider_than_the_first_order_grid(self, tmp_path, config):
        code, check = self.oracle_record(tmp_path, config)
        if config == "outward_drift.json":
            # no feasible run from the probe: the oracle reads +inf
            assert code == cli.EXIT_VERIFY_FAILED
            assert not check["passed"] and check["oracle_value"] == math.inf
            return
        gap = ((check["oracle_value"] - check["riccati_value"])
               / abs(check["riccati_value"]))
        assert -1e-6 <= gap <= self.EULER_GAPS[config]
        assert check["passed"] and code == 0

    @pytest.mark.parametrize("config, scale", [
        ("scalar_demo.json", 1.02), ("ball2d_demo.json", 1.10),   # lower side
        ("scalar_demo.json", 0.993), ("ball2d_demo.json", 0.93)])  # upper side
    def test_catches_a_scaled_value_the_first_order_grid_missed(
            self, tmp_path, monkeypatch, config, scale):
        dim = load_spec(config).dim_state
        euler_gap = (1.0 + self.EULER_GAPS[config]) / scale - 1.0
        assert -1e-6 <= euler_gap <= self.EULER_TOL_ABOVE[dim]
        value = cli.synthesis.value_from_riccati
        monkeypatch.setattr(cli.synthesis, "value_from_riccati",
                            lambda *args: scale * value(*args))
        code, check = self.oracle_record(tmp_path, config)
        assert not check["passed"] and code == cli.EXIT_VERIFY_FAILED


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
    @pytest.mark.parametrize("config", ["scalar_demo.json",
                                        "ball2d_demo.json"])
    def test_one_row_per_lattice_point_at_t0(self, tmp_path, monkeypatch,
                                             config):
        solve, tables = oracle.brute_force_value, []
        monkeypatch.setattr(oracle, "brute_force_value",
                            lambda dp: tables.append(solve(dp)) or tables[-1])
        code = main(["--config", str(CONFIG_DIR / config),
                     "--out", str(tmp_path), "verify", "--suite", "oracle"])
        assert code == 0
        (table,) = tables
        header, rows = read_csv(tmp_path / "value_table.csv")
        points = table.dp.state_points()
        assert header == (["s"] + [f"x_{i + 1}" for i in range(points.shape[1])]
                          + ["V"])
        rows = np.array(rows)
        assert rows.shape == (table.V.size, points.shape[1] + 2)
        assert np.all(rows[:, 0] == load_spec(config).grid.t0)
        np.testing.assert_array_equal(rows[:, 1:-1], points)
        np.testing.assert_array_equal(rows[:, -1].view(np.uint64),
                                      table.V.ravel().view(np.uint64))
        assert np.isfinite(rows[:, -1]).any()

    def test_csv_lines_format_every_value_17g(self):
        rows = [[-0.0, 0.0, np.nan], [np.inf, -np.inf, 0.1],
                [1e-300, -2.5, 1.0 / 3.0]]
        assert cli._csv_lines(rows) == (
            "-0,0,nan\ninf,-inf,0.10000000000000001\n"
            "1e-300,-2.5,0.33333333333333331\n")
        assert cli._csv_lines([]) == ""


class TestManifest:
    @pytest.mark.parametrize("argv", [
        ["riccati"], ["synthesize", "--x0", "0.5"], ["game", "--x0", "0.6"],
        ["verify"]])
    def test_every_subcommand_option_is_an_override(self, tmp_path, argv):
        parser = cli._build_parser()
        (subparsers,) = [a for a in parser._actions
                         if a.dest == "command"]
        options = {a.dest for a in subparsers.choices[argv[0]]._actions
                   if a.dest != "help"}
        args = parser.parse_args(["--config", SCALAR] + argv)
        cli._write_manifest(tmp_path, args)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert set(manifest["overrides"]) == options
        assert manifest["command"] == argv[0]

    @pytest.mark.parametrize("argv, flag, values", [
        # each run stops on its bad --horizon or --relaxation after the
        # manifest is written
        (["synthesize", "--x0", "0.5", "--horizon", "0"], "--alpha",
         ("0", "0.5")),
        (["game", "--x0", "0.6", "--relaxation", "2"], "--alpha-max",
         ("2", "1")),
    ])
    def test_runs_differing_in_one_flag_differ_in_hash(self, tmp_path, argv,
                                                       flag, values):
        manifests = set()
        for value in values:
            assert main(["--config", SCALAR, "--out", str(tmp_path)]
                        + argv + [flag, value]) == 1
            manifests.add((tmp_path / "manifest.json").read_bytes())
        assert len(manifests) == 2


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


def _fresh_python(code: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports this checkout's safelq."""
    src = str(Path(safelq.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)


class TestColdStart:
    def test_cli_import_leaves_scipy_optimize_out(self):
        # linprog serves general polytopes only and is imported where they
        # need it; a box reads its bounding box off lo and hi.  Nothing
        # else in the package imports scipy.  Loading a config checks it
        # against the schema without jsonschema.
        code = ("import sys, safelq.cli; from safelq.geometry import Box; "
                "Box([-1.0, 0.0], [1.0, 2.0]); "
                f"safelq.cli._load_spec({SCALAR!r}); "
                "print('scipy.optimize' in sys.modules, "
                "'scipy.linalg' in sys.modules, "
                "'scipy.sparse' in sys.modules, "
                "'jsonschema' in sys.modules)")
        out = _fresh_python(code)
        assert out.stdout.strip() == "False False False False"

    @pytest.mark.parametrize("config", ["ball2d_demo", "timevarying_demo"])
    def test_verify_all_leaves_scipy_out(self, tmp_path, config):
        # the oracle interpolates with numpy alone, and neither config's
        # Omega needs a linear program
        code = ("import sys, safelq.cli; "
                "code = safelq.cli.main(['--config', "
                f"{str(CONFIG_DIR / (config + '.json'))!r}, '--out', "
                f"{str(tmp_path)!r}, 'verify', '--suite', 'all']); "
                "print(code, *(m in sys.modules for m in ('scipy.sparse', "
                "'scipy.linalg', 'scipy.optimize')), file=sys.stderr)")
        out = _fresh_python(code)
        assert out.stderr.strip() == "0 False False False"
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert "oracle_vs_riccati" in {
            c["check"] for c in report["suites"]["oracle"]}

    def test_scipy_imports_are_polytope_lps_only(self):
        # a static guard: the one scipy import the package may hold is
        # geometry's function-level linprog, so no heavy import creeps
        # back in at module level or in another module
        found = []
        for path in sorted(Path(safelq.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            functions = [node for node in ast.walk(tree) if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef))]
            nested = {id(inner) for f in functions for inner in ast.walk(f)}
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [f"{node.module}.{a.name}" for a in node.names]
                else:
                    continue
                for name in names:
                    if name.split(".")[0] == "scipy":
                        found.append((path.name, name, id(node) in nested))
        assert found
        assert set(found) == {("geometry.py", "scipy.optimize.linprog", True)}

    @pytest.mark.parametrize("config", ["scalar_demo", "ball2d_demo"])
    def test_algebraic_check_leaves_scipy_linalg_out(self, tmp_path, config):
        # the riccati suite runs stabilizing_matches_algebraic on both
        # configs; the algebraic root is computed with numpy alone
        code = ("import sys, safelq.cli; "
                "code = safelq.cli.main(['--config', "
                f"{str(CONFIG_DIR / (config + '.json'))!r}, '--out', "
                f"{str(tmp_path)!r}, 'verify', '--suite', 'riccati']); "
                "print(code, 'scipy.linalg' in sys.modules, file=sys.stderr)")
        out = _fresh_python(code)
        assert out.stderr.strip() == "0 False"
        report = json.loads((tmp_path / "verify_report.json").read_text())
        passed = {c["check"]: c["passed"] for c in report["suites"]["riccati"]}
        assert passed["stabilizing_matches_algebraic"]
