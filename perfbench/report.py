"""Every end-to-end metric of every workload, with units, spread and counts.

Run from the root of a source checkout:

    python3 perfbench/report.py [--seed N] [--seconds S]

Each workload is run once untraced and once traced.  The tracing overhead
is the traced wall time minus the untraced one.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import run
import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    try:
        for workload in workloads.WORKLOADS:
            plain = run.measure(root, workload, args.seed, args.seconds, False)
            traced = run.measure(root, workload, args.seed, args.seconds, True)
            print(f"== {workload}: {workloads.WORKLOADS[workload]}")
            for line in plain["lines"]:
                print("  " + line)
            wall = traced["result"]["metrics"]["trace.wall_s"]["value"]
            untraced = plain["result"]["metrics"]["wall_s"]["value"]
            print(f"  trace overhead = {wall - untraced:+.4f} s (traced wall_s "
                  f"{wall:.4f} s, untraced {untraced:.4f} s)")
            for line in traced["lines"]:
                if "FAILED" in line or "accounting" in line:
                    print("  traced: " + line.strip())
    except (run.BenchError, OSError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
