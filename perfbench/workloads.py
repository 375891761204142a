"""Workloads of the safelq benchmark: job lists, data classes and seeded inputs.

A job is one ``safelq.cli.main`` invocation on one shipped config.  Every
workload mixes autonomous and time-varying data so that an optimisation that
applies to one class has, inside the same workload, a case that bypasses it.

Only the documented, long-lived CLI flags are passed: ``--config``, ``--out``,
``--x0``, ``--check-ipc``, ``--suite`` and ``--seed``.

This module uses the standard library only, so the set-up probe can import it
before it starts timing the import of safelq.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

# claims are re-checked on a second seed, 2, passed as --seed 2
DEFAULT_SEED = 1

AUTONOMOUS = "autonomous"
TIME_VARYING = "time_varying"

CONFIGS = ("ball2d_demo", "cubic_demo", "scalar_demo", "outward_drift",
           "expk_demo", "geometric_ball", "timevarying_demo")

# one autonomous and one time-varying config, both with a 2-d-capable oracle
PAIR = ("ball2d_demo", "timevarying_demo")

# The only job whose documented outcome is a failed IPC check (exit 3).
EXIT_IPC_FAILED_JOBS = {("outward_drift", "synthesize")}

# x0 is drawn at this fraction of the way from the centre of Omega to its
# boundary.  The band is narrow because the game's Picard iteration count
# grows with |h(x0)| (16 iterations up to 0.36, 17 from 0.37 on ball2d_demo),
# so a narrow band keeps the work of one pass comparable from seed to seed
# while every seed still gives the program different inputs.
X0_FRACTION = (0.30, 0.36)

WORKLOADS = {
    "synth_all": "riccati, then synthesize --check-ipc, on all 7 configs: "
                 "many short Riccati solves, both data classes, exit-3 path",
    "game_pair": "game on ball2d_demo and timevarying_demo: long Picard "
                 "loops dominated by stabilizing solves and simulation",
    "verify_pair": "verify --suite all on ball2d_demo and timevarying_demo: "
                   "DP oracle, base IPC, HJB residual and the value table",
}


@dataclass(frozen=True)
class Job:
    """One CLI invocation, with the exit code its outputs are checked against."""

    config: str
    command: str
    args: tuple[str, ...]
    global_args: tuple[str, ...]
    expected_exit: int
    data_class: str

    @property
    def name(self) -> str:
        return f"{self.config}:{self.command}"

    def argv(self, root: Path, out: Path) -> list[str]:
        return (["--config", str(root / "configs" / f"{self.config}.json"),
                 "--out", str(out)] + list(self.global_args)
                + [self.command] + list(self.args))


def load_configs(root: Path, names=CONFIGS) -> dict[str, dict]:
    return {name: json.loads((root / "configs" / f"{name}.json").read_text())
            for name in names}


def data_class(config: dict) -> str:
    """Autonomous: constant A and B and a truncated-constant K, so the data
    is time-invariant beyond a finite time.  Everything else (sinusoidal A or
    B, exponential K) is time-varying."""
    constant = all(config[key]["variant"] == "constant" for key in ("A", "B"))
    if constant and config["K"]["variant"] == "truncated_constant":
        return AUTONOMOUS
    return TIME_VARYING


def draw_x0(omega: dict, rng: random.Random) -> list[float]:
    """A point strictly inside a ball or box Omega, well clear of its boundary.

    Uses the config's own geometry, not the program's, so the input does not
    depend on the code under test.
    """
    params = omega["params"]
    if omega["variant"] == "ball":
        centre = [float(c) for c in params["center"]]
        half = [float(params["radius"])] * len(centre)
    elif omega["variant"] == "box":
        lo = [float(v) for v in params["lo"]]
        hi = [float(v) for v in params["hi"]]
        centre = [0.5 * (a + b) for a, b in zip(lo, hi)]
        half = [0.5 * (b - a) for a, b in zip(lo, hi)]
    else:
        raise ValueError(f"no x0 rule for omega variant {omega['variant']!r}")
    direction = [rng.gauss(0.0, 1.0) for _ in centre]
    norm = math.sqrt(sum(d * d for d in direction))
    fraction = rng.uniform(*X0_FRACTION)
    return [c + fraction * h * d / norm
            for c, h, d in zip(centre, half, direction)]


def seeded_x0(name: str, config: dict, seed: int) -> str:
    """The --x0 value for one config: a function of the seed and the config
    name only, so every workload that uses a config gets the same point."""
    rng = random.Random(f"{seed}:{name}")
    return ",".join(f"{v:.6f}" for v in draw_x0(config["omega"], rng))


def jobs_for(workload: str, configs: dict[str, dict], seed: int) -> list[Job]:
    """The job list of one pass over a workload."""

    def job(name, command, args=(), global_args=()):
        expected = 3 if (name, command) in EXIT_IPC_FAILED_JOBS else 0
        return Job(name, command, tuple(args), tuple(global_args), expected,
                   data_class(configs[name]))

    def x0_flag(name):
        # the '=' form keeps a negative first coordinate from reading as a flag
        return f"--x0={seeded_x0(name, configs[name], seed)}"

    if workload == "synth_all":
        jobs = []
        for name in CONFIGS:
            jobs.append(job(name, "riccati"))
            jobs.append(job(name, "synthesize", (x0_flag(name), "--check-ipc")))
        return jobs
    if workload == "game_pair":
        return [job(name, "game", (x0_flag(name),)) for name in PAIR]
    if workload == "verify_pair":
        return [job(name, "verify", ("--suite", "all"), ("--seed", str(seed)))
                for name in PAIR]
    raise ValueError(f"unknown workload {workload!r}")


def configs_of(workload: str) -> tuple[str, ...]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    return CONFIGS if workload == "synth_all" else PAIR
