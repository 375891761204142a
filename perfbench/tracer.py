"""Span tracing of calls into the safelq layers, installed from outside.

Every public function of a layer module is replaced, in every safelq module
that binds it, by a wrapper that records one span per call: name, start,
end, parent span and job id.  Spans are kept in memory in flat arrays and
written out when the run ends.  Work counts come from the traced functions'
arguments and return values (certificate horizons, trajectory nodes, DP
problem sizes, IPC sample counts, Picard iterations) and from the
GridTooCoarseWarnings the oracle raises.  Nothing under ``src/`` changes.

A span's self time is its duration minus the durations of its direct
children; spans nest because the program is single-threaded.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import warnings
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

LAYERS = ("cli", "model", "catalog", "numerics", "riccati", "geometry", "ipc",
          "synthesis", "game", "oracle")


def _stabilizing(counts, bound, result, exc):
    spec, t, dt = bound["spec"], bound["t"], bound["dt"]
    dt = spec.grid.dt if dt is None else dt
    if result is not None:
        horizons = result.certificate.horizons
    else:
        horizons = [h for h, _ in getattr(exc, "attempts", ())]
    counts["riccati.stabilizing_sweeps"] += len(horizons)
    counts["riccati.sweeps"] += len(horizons)
    counts["riccati.rk4_steps"] += sum(int(round((T - t) / dt)) for T in horizons)


def _finite_horizon(counts, bound, result, exc):
    if result is not None:
        counts["riccati.sweeps"] += 1
        counts["riccati.rk4_steps"] += len(result.nodes) - 1


def _integrate(counts, bound, result, exc):
    if result is not None:
        counts["numerics.integrate_ode.steps"] += len(result.nodes) - 1


def _simulate(counts, bound, result, exc):
    if result is not None:
        counts["synthesis.sim_steps"] += len(result.nodes) - 1


def _ipc(counts, bound, result, exc):
    if result is not None:
        counts["ipc.margin_evals"] += result.n_samples


def _coupled(counts, bound, result, exc):
    if result is not None:
        counts["game.picard_iterations"] += result.iterations


def _constant_sweep(counts, bound, result, exc):
    if result is not None:
        finite = sum(1 for _, w in result.table if np.isfinite(w))
        counts["game.policies_evaluated"] += finite
        counts["game.policies_skipped"] += len(result.table) - finite


def _oracle(counts, bound, result, exc):
    dp = bound["dp"]
    points = int(np.prod(dp.state_shape))
    counts["oracle.dp_steps"] += dp.n_steps
    counts["oracle.transitions"] += dp.n_steps * len(dp.controls) * points


# every count a hook or warning record can produce; absent ones read 0
COUNTS = ("riccati.stabilizing_sweeps", "riccati.sweeps", "riccati.rk4_steps",
          "numerics.integrate_ode.steps", "synthesis.sim_steps",
          "ipc.margin_evals", "game.picard_iterations",
          "game.policies_evaluated", "game.policies_skipped", "oracle.dp_steps",
          "oracle.transitions", "oracle.cfl_warnings")

HOOKS = {
    "riccati.solve_stabilizing": _stabilizing,
    "riccati.solve_finite_horizon": _finite_horizon,
    "numerics.integrate_ode": _integrate,
    "synthesis.simulate_closed_loop": _simulate,
    "ipc.check_ipc_riccati": _ipc,
    "game.solve_coupled": _coupled,
    "game.sup_over_constant_alpha": _constant_sweep,
    "oracle.brute_force_value": _oracle,
}
# calls whose warnings are recorded (and re-emitted) to count CFL warnings
RECORD_WARNINGS = {"oracle.brute_force_value": "oracle.cfl_warnings"}


class Tracer:
    """Columnar span store plus the wrappers that fill it."""

    def __init__(self):
        self.span_names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._job = [-1]
        self._wrappers: dict = {}
        self._restore: list = []

    def __len__(self) -> int:
        return len(self.start)

    def set_job(self, job_id: int) -> None:
        self._job[0] = job_id

    def _wrap(self, fn, qualname: str):
        name_id = len(self.span_names)
        self.span_names.append(qualname)
        names, starts, ends = self.name, self.start, self.end
        parents, jobs, stack, job = self.parent, self.job, self._stack, self._job
        clock = time.perf_counter
        hook = HOOKS.get(qualname)
        signature = inspect.signature(fn) if hook else None
        warn_counter = RECORD_WARNINGS.get(qualname)
        counts = self.counts

        def recording(*args, **kwargs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = fn(*args, **kwargs)
            for w in caught:
                counts[warn_counter] += w.category.__name__ == "GridTooCoarseWarning"
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            return result

        invoke = fn if warn_counter is None else recording

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            jobs.append(job[0])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            result = exc = None
            try:
                result = invoke(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
                if hook is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    hook(counts, bound.arguments, result, exc)

        return traced

    def install(self) -> None:
        """Wrap every public layer function in every module that binds it."""
        modules = [importlib.import_module("safelq")] + [
            importlib.import_module(f"safelq.{layer}") for layer in LAYERS]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                layer = value.__module__.rpartition(".")[2]
                if (not value.__module__.startswith("safelq.")
                        or layer not in LAYERS or value.__name__.startswith("_")):
                    continue
                wrapper = self._wrappers.get(value)
                if wrapper is None:
                    wrapper = self._wrap(value, f"{layer}.{value.__name__}")
                    self._wrappers[value] = wrapper
                self._restore.append((module, attr, value))
                setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def arrays(self, lo: int = 0, hi: int | None = None) -> dict[str, np.ndarray]:
        """Spans [lo, hi) as arrays, with parents re-based to the slice."""
        hi = len(self) if hi is None else hi
        # slicing an array copies it, so no buffer of the live store is held
        parent = np.frombuffer(self.parent[lo:hi], dtype=np.int32).astype(np.int64)
        return {
            "name": np.frombuffer(self.name[lo:hi], dtype=np.int32),
            "start": np.frombuffer(self.start[lo:hi], dtype=np.float64),
            "end": np.frombuffer(self.end[lo:hi], dtype=np.float64),
            "parent": np.where(parent >= lo, parent - lo, -1),
            "job": np.frombuffer(self.job[lo:hi], dtype=np.int32),
        }

    def dump(self, path: Path) -> None:
        spans = self.arrays()
        np.savez_compressed(path, names=np.array(self.span_names), **spans)


def self_times(duration: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    children = np.zeros(len(duration))
    nested = parent >= 0
    np.add.at(children, parent[nested], duration[nested])
    return duration - children


def layer_metrics(span_names: list[str], spans: dict[str, np.ndarray],
                  counts: Counter, wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``wall`` is the pass's traced wall time; the layer self times plus
    ``trace.uncovered_s`` add up to it.
    """
    duration = spans["end"] - spans["start"]
    own = self_times(duration, spans["parent"])
    name_ids = spans["name"]
    metrics: dict[str, float] = {}
    for i, qualname in enumerate(span_names):
        mask = name_ids == i
        metrics[f"{qualname}.calls"] = float(np.count_nonzero(mask))
        metrics[f"{qualname}.busy_s"] = float(duration[mask].sum())
        metrics[f"{qualname}.self_s"] = float(own[mask].sum())
    layer_of = np.array([n.partition(".")[0] for n in span_names] or [""])
    for layer in LAYERS:
        ids = np.flatnonzero(layer_of == layer)
        metrics[f"{layer}.self_s"] = float(own[np.isin(name_ids, ids)].sum())
    top = float(duration[spans["parent"] < 0].sum())
    metrics["trace.wall_s"] = wall
    metrics["trace.uncovered_s"] = wall - top
    metrics["trace.spans"] = float(len(duration))
    for key in COUNTS:
        metrics[key] = float(counts[key])

    def get(key):
        return metrics.get(key, 0.0)

    def ratio(num, den):
        return num / den if den > 0.0 else 0.0

    sweep_busy = (get("riccati.solve_stabilizing.busy_s")
                  + get("riccati.solve_finite_horizon.busy_s"))
    metrics["riccati.rk4_steps_per_s"] = ratio(get("riccati.rk4_steps"), sweep_busy)
    metrics["riccati.sweep_yield"] = ratio(get("riccati.solve_stabilizing.calls"),
                                           get("riccati.stabilizing_sweeps"))
    metrics["synthesis.sim_steps_per_s"] = ratio(
        get("synthesis.sim_steps"), get("synthesis.simulate_closed_loop.busy_s"))
    metrics["oracle.transitions_per_s"] = ratio(
        get("oracle.transitions"), get("oracle.brute_force_value.busy_s"))
    return metrics
