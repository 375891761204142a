"""Tests of the benchmark itself: checker, span arithmetic, job classes, inputs.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import random
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import checker  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def write_csv(path: Path, header: list[str], rows) -> None:
    lines = ["# manifest_sha256=0", ",".join(header)]
    lines += [",".join(f"{v:.17g}" for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def synthesize_out(tmp_path: Path, rel_gap: float, violated: bool = False) -> Path:
    (tmp_path / "value.json").write_text(json.dumps(
        {"value": 0.1, "rel_gap": rel_gap, "constraint_violated": violated}))
    (tmp_path / "ipc_report.json").write_text(json.dumps({"worst_margin": 0.5}))
    write_csv(tmp_path / "trajectory.csv", ["s", "xi_1"], [[0.0, 0.3], [0.01, 0.29]])
    return tmp_path


def game_out(tmp_path: Path, w: float, sweep) -> Path:
    (tmp_path / "game.json").write_text(json.dumps({"W": w, "converged": True}))
    write_csv(tmp_path / "constant_alpha_sweep.csv", ["alpha", "value"], sweep)
    return tmp_path


class TestChecker:
    def test_accepts_good_synthesis(self, tmp_path):
        out = synthesize_out(tmp_path, 1e-5)
        assert checker.check_job("synthesize", 0, 0, out) is None

    def test_rejects_rel_gap_above_tolerance(self, tmp_path):
        out = synthesize_out(tmp_path, 2e-3)
        assert "rel_gap" in checker.check_job("synthesize", 0, 0, out)

    def test_rejects_bare_nan_in_json(self, tmp_path):
        out = synthesize_out(tmp_path, 1e-5)
        (out / "value.json").write_text('{"rel_gap": NaN, "value": 0.1}')
        assert "NaN" in checker.check_job("synthesize", 0, 0, out)

    def test_rejects_infinity_in_any_json_output(self, tmp_path):
        out = synthesize_out(tmp_path, 1e-5)
        (out / "manifest.json").write_text('{"tol": Infinity}')
        assert "Infinity" in checker.check_job("synthesize", 0, 0, out)

    def test_rejects_wrong_exit_code(self, tmp_path):
        out = synthesize_out(tmp_path, 1e-5, violated=True)
        assert checker.check_job("synthesize", 3, 3, out) is None
        assert "exit code 0" in checker.check_job("synthesize", 0, 3, out)
        assert "exit code None" in checker.check_job("synthesize", None, 0, out)

    def test_exit_3_job_must_report_the_violation(self, tmp_path):
        out = synthesize_out(tmp_path, 1e-5, violated=False)
        assert "constraint_violated" in checker.check_job("synthesize", 3, 3, out)

    def test_rejects_w_below_a_constant_policy(self, tmp_path):
        sweep = [[0.0, 0.04], [1.0, 0.05], [2.0, float("-inf")]]
        assert checker.check_job("game", 0, 0, game_out(tmp_path, 0.0481, sweep)) \
            is not None
        assert checker.check_job("game", 0, 0, game_out(tmp_path, 0.05, sweep)) is None

    def test_riccati_reference_tolerance(self, tmp_path):
        (tmp_path / "certificate.json").write_text(json.dumps({"converged": True}))
        p = checker.SCALAR_DEMO_P
        write_csv(tmp_path / "riccati.csv", ["s", "P_11"], [[0.0, p + 5e-7], [0.01, p]])
        ref = np.array([[p]])
        assert checker.check_job("riccati", 0, 0, tmp_path, ref, 1e-6) is None
        assert "reference" in checker.check_job("riccati", 0, 0, tmp_path, ref, 1e-7)

    def test_rejects_failed_verify(self, tmp_path):
        (tmp_path / "verify_report.json").write_text(json.dumps(
            {"all_passed": False,
             "suites": {"oracle": [{"check": "oracle_vs_riccati", "passed": False}]}}))
        assert "oracle/oracle_vs_riccati" in checker.check_job("verify", 0, 0, tmp_path)


class TestSpanArithmetic:
    # root [0, 10] -> a [1, 4] -> c [2, 3];  root -> b [5, 7];  top-level d [11, 12]
    NAMES = ["cli.main", "riccati.solve_stabilizing", "numerics.sym",
             "synthesis.simulate_closed_loop"]
    SPANS = {
        "name": np.array([0, 1, 2, 3, 0]),
        "start": np.array([0.0, 1.0, 2.0, 5.0, 11.0]),
        "end": np.array([10.0, 4.0, 3.0, 7.0, 12.0]),
        "parent": np.array([-1, 0, 1, 0, -1]),
        "job": np.array([0, 0, 0, 0, 1]),
    }

    def test_self_times(self):
        dur = self.SPANS["end"] - self.SPANS["start"]
        own = tracer.self_times(dur, self.SPANS["parent"])
        assert own.tolist() == [5.0, 2.0, 1.0, 2.0, 1.0]

    def test_layer_self_times_and_uncovered_add_up_to_wall(self):
        m = tracer.layer_metrics(self.NAMES, self.SPANS, Counter(), wall=12.5)
        assert m["cli.self_s"] == 6.0
        assert m["riccati.self_s"] == 2.0
        assert m["numerics.self_s"] == 1.0
        assert m["synthesis.self_s"] == 2.0
        assert m["trace.uncovered_s"] == 1.5
        total = sum(m[f"{layer}.self_s"] for layer in tracer.LAYERS)
        assert total + m["trace.uncovered_s"] == pytest.approx(12.5)
        assert m["cli.main.calls"] == 2.0
        assert m["cli.main.busy_s"] == 11.0
        assert m["riccati.solve_stabilizing.self_s"] == 2.0

    def test_rates_with_zero_busy_time_are_zero(self):
        m = tracer.layer_metrics(self.NAMES, self.SPANS, Counter(), wall=12.5)
        assert m["oracle.transitions_per_s"] == 0.0
        assert m["riccati.sweep_yield"] == 0.0


class TestTracerInstall:
    def test_wraps_every_binding_and_restores(self):
        from safelq import game, model, riccati, synthesis
        original = riccati.solve_stabilizing
        tr = tracer.Tracer()
        tr.install()
        try:
            assert game.solve_stabilizing is riccati.solve_stabilizing
            assert riccati.solve_stabilizing is not original
            assert synthesis.integrate_ode.__wrapped__.__module__ == "safelq.numerics"
            config = json.loads((ROOT / "configs" / "scalar_demo.json").read_text())
            spec = model.build_problem(config)
            alpha = model.AlphaPolicy.zero(0.0, spec.grid.t_max)
            sol = riccati.solve_stabilizing(spec, alpha, 0.0, 0.0)
        finally:
            tr.uninstall()
        assert riccati.solve_stabilizing is original
        assert game.solve_stabilizing is original
        horizons = sol.certificate.horizons
        assert tr.counts["riccati.sweeps"] == len(horizons)
        assert tr.counts["riccati.rk4_steps"] == sum(round(h / 0.01) for h in horizons)
        spans = tr.arrays()
        names = [tr.span_names[i] for i in spans["name"]]
        assert "riccati.solve_stabilizing" in names
        assert "numerics.sym" in names


class TestWorkloads:
    def test_job_classes_of_the_shipped_configs(self):
        configs = workloads.load_configs(ROOT)
        classes = {name: workloads.data_class(cfg) for name, cfg in configs.items()}
        assert {n for n, c in classes.items() if c == workloads.AUTONOMOUS} == {
            "ball2d_demo", "cubic_demo", "scalar_demo", "outward_drift"}
        assert {n for n, c in classes.items() if c == workloads.TIME_VARYING} == {
            "expk_demo", "geometric_ball", "timevarying_demo"}

    def test_every_workload_mixes_both_classes(self):
        configs = workloads.load_configs(ROOT)
        for name in workloads.WORKLOADS:
            jobs = workloads.jobs_for(name, configs, workloads.DEFAULT_SEED)
            assert {job.data_class for job in jobs} == {
                workloads.AUTONOMOUS, workloads.TIME_VARYING}

    def test_jobs_pass_only_documented_flags(self):
        configs = workloads.load_configs(ROOT)
        allowed = {"--config", "--out", "--x0", "--check-ipc", "--suite", "--seed"}
        for name in workloads.WORKLOADS:
            for job in workloads.jobs_for(name, configs, 7):
                argv = job.argv(ROOT, Path("out"))
                flags = {a.split("=")[0] for a in argv if a.startswith("--")}
                assert flags <= allowed

    def test_synth_all_expects_exit_3_only_on_outward_drift(self):
        jobs = workloads.jobs_for("synth_all", workloads.load_configs(ROOT), 1)
        assert len(jobs) == 14
        assert [j.name for j in jobs if j.expected_exit != 0] == [
            "outward_drift:synthesize"]

    def test_x0_is_seeded_and_well_inside(self):
        configs = workloads.load_configs(ROOT)
        for seed in range(20):
            for name, cfg in configs.items():
                x0 = [float(v) for v in workloads.seeded_x0(name, cfg, seed).split(",")]
                assert workloads.seeded_x0(name, cfg, seed) == \
                    workloads.seeded_x0(name, cfg, seed)
                params = cfg["omega"]["params"]
                if cfg["omega"]["variant"] == "ball":
                    r = np.linalg.norm(np.array(x0) - params["center"]) / params["radius"]
                    assert workloads.X0_FRACTION[0] - 1e-6 <= r <= \
                        workloads.X0_FRACTION[1] + 1e-6
                else:
                    lo, hi = np.array(params["lo"]), np.array(params["hi"])
                    assert np.all(np.abs(np.array(x0) - 0.5 * (lo + hi))
                                  <= workloads.X0_FRACTION[1] * 0.5 * (hi - lo) + 1e-6)
        first = workloads.seeded_x0("ball2d_demo", configs["ball2d_demo"], 1)
        assert first != workloads.seeded_x0("ball2d_demo", configs["ball2d_demo"], 2)

    def test_unknown_omega_has_no_x0_rule(self):
        with pytest.raises(ValueError):
            workloads.draw_x0({"variant": "ellipsoid", "params": {}}, random.Random(0))
