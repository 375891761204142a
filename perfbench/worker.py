"""Runs one workload in a fresh process: set-up, timed passes, checks.

``run.py`` starts this script with BLAS and OpenMP pinned to one thread and
reads the JSON it writes to ``--result``.  With ``--setup-only`` it only
times the set-up (import safelq.cli, parse and validate the workload's
configs) and prints that time as JSON.

A pass runs the workload's jobs one at a time through ``safelq.cli.main``,
closed loop.  Only the ``cli.main`` calls are timed; outputs are checked
after the pass.  Passes repeat until the next one would end after
``--seconds`` (at least one pass runs).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import workloads

# checker and tracer import numpy, so they are imported after set-up is timed


def setup(root: Path, names) -> tuple[float, dict, dict]:
    """Import safelq.cli and validate the configs; returns the time taken."""
    start = time.perf_counter()
    sys.path.insert(0, str(root / "src"))
    from safelq import cli, model  # noqa: F401  (the import is what is timed)
    configs = workloads.load_configs(root, names)
    specs = {name: model.build_problem(cfg) for name, cfg in configs.items()}
    return time.perf_counter() - start, configs, specs


def references(configs: dict, specs: dict) -> dict:
    """Independent P(t0) for the riccati jobs on autonomous data."""
    import numpy as np
    from safelq import riccati
    from safelq.errors import NotStabilizable

    import checker
    refs = {}
    for name, spec in specs.items():
        if workloads.data_class(configs[name]) != workloads.AUTONOMOUS:
            continue
        if name == "scalar_demo":
            refs[name] = (np.array([[checker.SCALAR_DEMO_P]]), checker.SCALAR_TOL)
            continue
        t0 = spec.grid.t0
        try:
            p = riccati.solve_are_constant(
                spec.A.value(t0), spec.B.value(t0), spec.R,
                spec.q_coeff(t0, 0.0) * np.eye(spec.dim_state))
        except NotStabilizable:
            continue    # no algebraic root to compare with
        refs[name] = (p, checker.ARE_TOL)
    return refs


def run_pass(cli, jobs, root: Path, pass_dir: Path, refs: dict,
             job_base: int, tracer=None) -> dict:
    import checker
    records = []
    for j, job in enumerate(jobs):
        out = pass_dir / f"{j:02d}-{job.config}-{job.command}"
        if tracer is not None:
            tracer.set_job(job_base + j)
        argv = job.argv(root, out)
        error = None
        gc.collect()    # every job starts from the same collector state
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a job that raises fails; the pass goes on
            code, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        records.append({"job": job, "out": out, "seconds": seconds,
                        "exit": code, "error": error})
    jobs_out = []
    for rec in records:
        job = rec["job"]
        ref, tol = (refs.get(job.config, (None, checker.ARE_TOL))
                    if job.command == "riccati" else (None, checker.ARE_TOL))
        reject = rec["error"] or checker.check_job(
            job.command, rec["exit"], job.expected_exit, rec["out"], ref, tol)
        out_bytes = sum(f.stat().st_size for f in rec["out"].iterdir()) \
            if rec["out"].is_dir() else 0
        jobs_out.append({"name": job.name, "class": job.data_class,
                         "seconds": rec["seconds"], "exit": rec["exit"],
                         "expected_exit": job.expected_exit, "reject": reject,
                         "output_bytes": out_bytes})
    shutil.rmtree(pass_dir, ignore_errors=True)

    def part(cls):
        return sum(j["seconds"] for j in jobs_out if j["class"] == cls)

    return {"wall_s": sum(j["seconds"] for j in jobs_out),
            "autonomous_s": part(workloads.AUTONOMOUS),
            "time_varying_s": part(workloads.TIME_VARYING),
            "output_bytes": sum(j["output_bytes"] for j in jobs_out),
            "jobs": jobs_out}


def provenance(seed: int, jobs) -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(),
            "seed": seed,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "expected_exit": {job.name: job.expected_exit for job in jobs}}


def run(args) -> dict:
    root = Path(args.root)
    setup_s, configs, specs = setup(root, workloads.configs_of(args.workload))
    if args.setup_only:
        return {"setup_s": setup_s}

    from safelq import cli
    jobs = workloads.jobs_for(args.workload, configs, args.seed)
    refs = references(configs, specs)
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()

    tmp = Path(args.tmp)
    passes, layers = [], []
    begin = time.perf_counter()
    longest = 0.0
    while True:
        started = time.perf_counter()
        if tracer is not None:
            lo = len(tracer)
            tracer.counts.clear()
        result = run_pass(cli, jobs, root, tmp / f"pass{len(passes)}", refs,
                          len(passes) * len(jobs), tracer)
        if tracer is not None:
            metrics = tracing.layer_metrics(
                tracer.span_names, tracer.arrays(lo), tracer.counts,
                result["wall_s"])
            metrics["cli.output_bytes"] = float(result["output_bytes"])
            metrics["class.autonomous_s"] = result["autonomous_s"]
            metrics["class.time_varying_s"] = result["time_varying_s"]
            layers.append(metrics)
        passes.append(result)
        now = time.perf_counter()
        longest = max(longest, now - started)
        if now - begin + longest > args.seconds:
            break

    report = {"setup_s": setup_s, "passes": passes,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "provenance": provenance(args.seed, jobs)}
    if tracer is not None:
        tracer.uninstall()
        report["layers"] = {k: statistics.median(m[k] for m in layers)
                            for k in layers[0]}
        # layer self times plus uncovered time must add up to the wall time
        report["accounting_error_s"] = max(
            abs(sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
                + m["trace.uncovered_s"] - m["trace.wall_s"]) for m in layers)
        if args.spans:
            tracer.dump(Path(args.spans))
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--tmp")
    parser.add_argument("--result")
    parser.add_argument("--spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    report = run(args)
    text = json.dumps(report, default=str)
    if args.result:
        Path(args.result).write_text(text)
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
