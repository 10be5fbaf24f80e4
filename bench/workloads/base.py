"""What a workload provides and how the harness drives it."""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from typing import Any, Iterator, Sequence

from harness import OpRecorder, peak_rss_mb


class Workload:
    """One set of inputs, generated from a seed, and the passes over it.

    A *pass* is one run over the workload's fixed operation list; every
    timed pass does the same work, so pass times are directly comparable.
    ``traced`` asks :meth:`setup` to attach a ``MetricsRegistry`` so the
    program's own counters can be read; the untraced configuration is the
    one a user gets by default.
    """

    name = ""

    def __init__(self, seed: int, quick: bool, traced: bool) -> None:
        self.seed = seed
        self.quick = quick
        self.traced = traced

    # -- lifecycle -----------------------------------------------------
    def setup(self) -> None:
        """Generate inputs from the seed and build everything a pass needs."""
        raise NotImplementedError

    def close(self) -> None:
        """Release what :meth:`setup` acquired."""

    # -- the operation list --------------------------------------------
    def op_lines(self) -> list[str]:
        """The operation list as text, one line per op (hashed into records)."""
        raise NotImplementedError

    def run_pass(self, op: OpRecorder) -> dict[str, Any]:
        """Run every op once through ``op(name, fn)``; returns their outputs."""
        raise NotImplementedError

    def check(self, outputs: dict[str, Any]) -> tuple[int, list[str]]:
        """Oracle over the warm-up pass: (checks made, failure messages)."""
        raise NotImplementedError

    def measure(
        self, seconds: float, op: OpRecorder
    ) -> tuple[list[float], float, int]:
        """Timed passes for ``seconds``: (pass times, wall, successful ops).

        A ``--quick`` run stops after one pass.
        """
        pass_times: list[float] = []
        failed_before = op.failed
        attempted_before = op.attempted
        started = time.perf_counter()
        deadline = started + seconds
        while True:
            pass_started = time.perf_counter()
            self.run_pass(op)
            now = time.perf_counter()
            pass_times.append(now - pass_started)
            if now >= deadline or self.quick:
                break
        wall = time.perf_counter() - started
        succeeded = (op.attempted - attempted_before) - (op.failed - failed_before)
        return pass_times, wall, succeeded

    # -- layers --------------------------------------------------------
    def trace_targets(self) -> list[tuple[Any, str, str]]:
        """(owner, attribute, span name) for every layer call to wrap."""
        return []

    def begin_traced(self) -> None:
        """Called once the wrappers are in place, before the traced passes."""

    @contextmanager
    def other_engine(self, **options: Any) -> Iterator[None]:
        """Run the passes inside on an engine built with other options."""
        raise NotImplementedError

    def median_pass_s(self, seconds: float, **options: Any) -> float:
        """Median pass time on a differently configured engine, caches warm."""
        with self.other_engine(**options):
            self.run_pass(OpRecorder())
            times, _, _ = self.measure(seconds, OpRecorder())
        return statistics.median(times)

    def engine_tracer_overhead_share(self, seconds: float) -> float:
        """Pass time with the program's own tracer and metrics on, over off."""
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.trace import Tracer

        observed = self.median_pass_s(
            seconds / 2, tracer=Tracer(enabled=True), metrics=MetricsRegistry()
        )
        return observed / self.median_pass_s(seconds / 2) - 1.0

    def counters(self) -> dict[str, float]:
        """Cumulative counts the program publishes (deltas are taken)."""
        return {}

    def layer_metrics(self, phase: "TracedPhase") -> dict[str, float]:
        """Per-layer metrics of this workload, from the traced phase."""
        return {}

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()


class TracedPhase:
    """What the traced half of a ``--trace 1`` run observed."""

    def __init__(
        self,
        totals: dict[str, dict[str, float]],
        passes: float,
        counters: dict[str, float],
        untraced_pass_s: float = 0.0,
        seconds_left: float = 0.0,
        spans: Sequence[Sequence[Any]] = (),
    ) -> None:
        #: ``SpanTracer.totals()`` over the traced passes.
        self.totals = totals
        self.passes = passes
        #: Counter deltas per traced pass.
        self.counters = counters
        self.untraced_pass_s = untraced_pass_s
        #: Budget for extra measurements (reference engine, worker sweep).
        self.seconds_left = seconds_left
        self.spans = spans

    def _entry(self, span: str) -> dict[str, float]:
        return self.totals.get(span, {"calls": 0, "seconds": 0.0, "self_seconds": 0.0})

    def self_ms_per_pass(self, span: str) -> float:
        return self._entry(span)["self_seconds"] * 1e3 / self.passes

    def ms_per_pass(self, span: str) -> float:
        return self._entry(span)["seconds"] * 1e3 / self.passes

    def ms_per_call(self, span: str) -> float:
        entry = self._entry(span)
        return entry["seconds"] * 1e3 / entry["calls"] if entry["calls"] else 0.0

    def calls_per_pass(self, span: str) -> float:
        return self._entry(span)["calls"] / self.passes


def engine_trace_targets() -> list[tuple[Any, str, str]]:
    """The SQL front end, analysis and engine calls every statement makes.

    ``Database`` looks these names up in its own module at call time, so
    replacing the module attribute wraps exactly the top-level call per
    statement (operators recurse through ``repro.engine.physical``'s own
    name, which stays untouched).
    """
    import repro.engine.database as database
    import repro.sql as sql
    from repro.analysis.semantic import SemanticAnalyzer
    from repro.engine.optimizer import Optimizer
    from repro.engine.planner import Planner

    return [
        (database, "parse_statement", "sql.parse"),
        (sql, "parse_statement", "sql.parse"),
        (SemanticAnalyzer, "analyze", "analysis.analyze"),
        (database, "fold_plan", "analysis.fold"),
        (Planner, "plan_select", "engine.plan"),
        (Optimizer, "optimize", "engine.optimize"),
        (database, "prune_partitions", "engine.prune"),
        (database, "execute_plan", "engine.execute"),
    ]


def engine_layer_metrics(phase: TracedPhase) -> dict[str, float]:
    """Layer metrics every embedded workload derives the same way."""
    counters = phase.counters
    hits = counters.get("plan_cache_hits_total", 0.0)
    misses = counters.get("plan_cache_misses_total", 0.0)
    scanned = counters.get("partitions_scanned_total", 0.0)
    pruned = counters.get("partitions_pruned_total", 0.0)
    return {
        "sql.parse_ms": phase.self_ms_per_pass("sql.parse"),
        "sql.statements": counters.get("queries_executed_total", 0.0),
        "analysis.analyze_ms": phase.self_ms_per_pass("analysis.analyze"),
        "analysis.fold_ms": phase.self_ms_per_pass("analysis.fold"),
        "engine.plan_ms": phase.self_ms_per_pass("engine.plan"),
        "engine.optimize_ms": phase.self_ms_per_pass("engine.optimize"),
        "engine.prune_ms": phase.self_ms_per_pass("engine.prune"),
        "engine.execute_ms": phase.self_ms_per_pass("engine.execute"),
        "engine.plan_cache_hit_share": hits / (hits + misses) if hits + misses else 0.0,
        "engine.partitions_scanned": scanned,
        "engine.partitions_pruned": pruned,
        "engine.prune_share": pruned / (scanned + pruned) if scanned + pruned else 0.0,
        "engine.spill_bytes": counters.get("join_spill_bytes_total", 0.0),
        "engine.spill_partitions": counters.get("join_spill_partitions_total", 0.0),
        "engine.parallel_morsels": counters.get("parallel_morsels_total", 0.0),
    }


def registry_counters(metrics: Any) -> dict[str, float]:
    """Flatten a ``MetricsRegistry``'s counters (labeled ones summed)."""
    out: dict[str, float] = {}
    if metrics is None:
        return out
    for name in metrics.names():
        metric = metrics.get(name)
        if hasattr(metric, "total"):
            out[name] = float(metric.total())
        elif hasattr(metric, "value"):
            out[name] = float(metric.value)
    return out
