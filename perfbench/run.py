"""safelq benchmark: one workload, one seed, one run.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload synth_all --seed 1 --seconds 45 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object holding
every end-to-end metric of BENCHMARK.json; with ``--trace 1`` it holds every
per-layer metric instead, from a run with span tracing on.  The lines before
it give each timing's median, spread and sample count, the failed jobs, and
the provenance (nproc, Python, numpy and scipy versions, seed, expected exit
codes).  Full details go to ``.perfbench_out/``.

Set-up time is measured in several fresh processes and the workload in one
more, each with BLAS and OpenMP pinned to one thread.  Outputs are written
to a temporary directory under ``.perfbench_tmp/`` that is removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_PROBES = 7
RUN_LIMIT_S = 170.0
PINNED = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                 "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                 "NUMEXPR_NUM_THREADS")}


class BenchError(Exception):
    """The benchmark could not run; nothing is measured."""


def _worker(root: Path, argv: list[str], timeout: float,
            capture: bool) -> subprocess.CompletedProcess:
    env = dict(os.environ, **PINNED)
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(root)] + argv
    try:
        # run() kills the worker on timeout and waits for it to end
        proc = subprocess.run(cmd, env=env, timeout=max(1.0, timeout),
                              stdout=subprocess.PIPE if capture else subprocess.DEVNULL,
                              text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return proc


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (f"IQR {q3 - q1:.4g} ({(q3 - q1) / statistics.median(values):.1%}), "
            f"min {min(values):.4g}, max {max(values):.4g}, n={len(values)}")


def measure(root: Path, workload: str, seed: int, seconds: float,
            trace: bool) -> dict:
    """Run one workload; returns the result line, summary lines and details."""
    if not (root / "src" / "safelq" / "cli.py").is_file():
        raise BenchError(f"no safelq sources under {root / 'src'}")
    spec = json.loads((root / "BENCHMARK.json").read_text())
    missing = [c for c in workloads.configs_of(workload)
               if not (root / "configs" / f"{c}.json").is_file()]
    if missing:
        raise BenchError(f"missing configs: {', '.join(missing)}")
    deadline = time.monotonic() + RUN_LIMIT_S
    common = ["--workload", workload, "--seed", str(seed)]

    setup_samples = []
    if not trace:
        for _ in range(SETUP_PROBES):
            proc = _worker(root, common + ["--setup-only"],
                           deadline - time.monotonic(), capture=True)
            setup_samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])

    (root / ".perfbench_tmp").mkdir(exist_ok=True)
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    tmp = Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=root / ".perfbench_tmp"))
    try:
        argv = common + ["--seconds", str(seconds), "--trace", str(int(trace)),
                         "--tmp", str(tmp / "out"), "--result", str(tmp / "result.json")]
        if trace:
            # one spans file per workload, so repeated runs do not pile up
            argv += ["--spans", str(out_dir / f"spans-{workload}.npz")]
        _worker(root, argv, deadline - time.monotonic(), capture=False)
        details = json.loads((tmp / "result.json").read_text())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    passes = details["passes"]
    jobs = [job for p in passes for job in p["jobs"]]
    failures = [f"{job['name']}: {job['reject']}" for job in jobs if job["reject"]]
    lines = [f"workload {workload}, seed {seed}, {len(passes)} pass(es) of "
             f"{len(passes[0]['jobs'])} jobs"]
    samples = {key: [p[key] for p in passes]
               for key in ("wall_s", "autonomous_s", "time_varying_s")}
    samples["setup_s"] = setup_samples
    if trace:
        values = details["layers"]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        lines.append(f"span accounting error {details['accounting_error_s']:.3g} s, "
                     f"spans {values['trace.spans']:.0f}")
        correct = not failures and abs(details["accounting_error_s"]) < 1e-6
    else:
        values = {key: statistics.median(v) for key, v in samples.items()}
        values["peak_rss_mb"] = details["peak_rss_mb"]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        for key, v in samples.items():
            lines.append(f"{key} = {values[key]:.4f} s (median; {spread(v)})")
        lines.append(f"peak_rss_mb = {values['peak_rss_mb']:.1f} MB")
        correct = not failures
    absent = set(units) - set(values)
    if absent:
        raise BenchError(f"no value for {', '.join(sorted(absent))}")
    per_job: dict[str, list[float]] = {}
    for job in jobs:
        per_job.setdefault(job["name"], []).append(job["seconds"])
    for job in passes[0]["jobs"]:
        lines.append(f"  job {job['name']} [{job['class']}] exit "
                     f"{job['exit']} (expected {job['expected_exit']}): "
                     f"{statistics.median(per_job[job['name']]):.3f} s")
    lines.append(f"error_rate = {len(failures)}/{len(jobs)}")
    lines.extend(f"  FAILED {f}" for f in failures)
    lines.append("provenance " + json.dumps(details["provenance"], sort_keys=True))

    result = {"correct": correct, "attempted": len(jobs), "failed": len(failures),
              "metrics": {name: {"value": values[name], "unit": units[name]}
                          for name in units}}
    (out_dir / f"result-{tag}.json").write_text(json.dumps(
        {"result": result, "samples": samples, "details": details}, indent=1))
    return {"result": result, "lines": lines, "samples": samples,
            "details": details}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="safelq benchmark, one run")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        run = measure(Path.cwd(), args.workload, args.seed, args.seconds,
                      bool(args.trace))
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(run["lines"]))
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
