"""TPC-H workloads: scan/aggregate in memory, and joins under a spill budget."""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Iterator

import numpy as np

from harness import OpRecorder
from oracle import same_rows, sqlite_from_tables
from workloads.base import (
    TracedPhase,
    Workload,
    engine_layer_metrics,
    engine_trace_targets,
    registry_counters,
)

from repro.engine.database import Database
from repro.engine.logical import Scan, walk_plan
from repro.obs.metrics import MetricsRegistry
from repro.workload.tpch import (
    NATIONS,
    REGIONS,
    TPCH_QUERIES,
    TpchConfig,
    generate_tpch,
)

#: Join keys SQLite needs indexed to run the multi-way joins in reasonable
#: time; the reference engine is a yardstick, not a strawman.
SQLITE_INDEXES = (
    ("orders", "o_orderkey"),
    ("orders", "o_custkey"),
    ("customer", "c_custkey"),
    ("customer", "c_nationkey"),
    ("part", "p_partkey"),
    ("supplier", "s_suppkey"),
    ("lineitem", "l_orderkey"),
)

#: First word of ``LogicalPlan.describe()`` -> operator class.
OPERATOR_CLASSES = {
    "Scan": "scan",
    "EmptyScan": "scan",
    "SubqueryScan": "scan",
    "Filter": "filter",
    "Project": "project",
    "HashJoin": "join",
    "SymmetricHashJoin": "join",
    "CrossJoin": "join",
    "Aggregate": "aggregate",
    "Sort": "sort",
}


class TpchWorkload(Workload):
    query_names: tuple[str, ...] = ()
    scale_factor = 0.05

    def database(self, **options: Any) -> Database:
        """The workload's engine configuration over the generated data."""
        db = Database(**options)
        self.data.install(db)
        return db

    def setup(self) -> None:
        self.data = generate_tpch(
            TpchConfig(
                scale_factor=0.01 if self.quick else self.scale_factor,
                seed=self.seed,
            )
        )
        self.metrics = MetricsRegistry() if self.traced else None
        self.db = self.database(metrics=self.metrics)
        self.queries = {name: TPCH_QUERIES[name] for name in self.query_names}
        self.sqlite_pass_s = 0.0

    def close(self) -> None:
        self.db.close()

    def op_lines(self) -> list[str]:
        return [f"{name}: {sql}" for name, sql in self.queries.items()]

    def run_pass(self, op: OpRecorder) -> dict[str, Any]:
        db = self.db
        return {
            name: op(name, lambda: db.query(sql))
            for name, sql in self.queries.items()
        }

    def check(self, outputs: dict[str, Any]) -> tuple[int, list[str]]:
        reference = sqlite_from_tables(
            self.data.tables,
            self.queries.values(),
            [
                (table, column)
                for table, column in SQLITE_INDEXES
                if any(column in sql for sql in self.queries.values())
            ],
        )
        failures = []
        try:
            started = time.perf_counter()
            expected = {
                name: reference.execute(sql).fetchall()
                for name, sql in self.queries.items()
            }
            self.sqlite_pass_s = time.perf_counter() - started
        finally:
            reference.close()
        for name, sql in self.queries.items():
            rows = outputs.get(name)
            if rows is None or not same_rows(rows, expected[name], sql):
                failures.append(f"{name} differs from sqlite3")
        return len(self.queries), failures

    # -- layers --------------------------------------------------------
    def trace_targets(self) -> list[tuple[Any, str, str]]:
        return engine_trace_targets()

    def counters(self) -> dict[str, float]:
        return registry_counters(self.metrics)

    def layer_metrics(self, phase: TracedPhase) -> dict[str, float]:
        metrics = engine_layer_metrics(phase)
        by_class = dict.fromkeys(set(OPERATOR_CLASSES.values()), 0.0)
        examined = returned = pruned = 0
        for sql in self.queries.values():
            analysis = self.db.explain_analyze(sql)
            returned += analysis.result_rows
            # The pruning counter moves when a statement is planned, and a
            # warm pass plans nothing: read the cached plan's scans instead.
            for node in walk_plan(analysis.plan):
                if isinstance(node, Scan) and node.partition_selection is not None:
                    pruned += node.partition_total - len(node.partition_selection)
            for operator in analysis.operators:
                kind = OPERATOR_CLASSES.get(operator.operator.split(" ", 1)[0])
                if kind is not None:
                    by_class[kind] += operator.actual_self_seconds
                if kind == "scan":
                    examined += operator.actual_rows
        for kind, seconds in by_class.items():
            metrics[f"engine.op.{kind}_ms"] = seconds * 1e3
        metrics["engine.rows_examined_per_row_returned"] = examined / max(1, returned)
        scanned = metrics["engine.partitions_scanned"]
        metrics["engine.partitions_pruned"] = float(pruned)
        metrics["engine.prune_share"] = pruned / (pruned + scanned)
        metrics["ref.sqlite_pass_s"] = self.sqlite_pass_s
        metrics["ref.sqlite_ratio"] = self.sqlite_pass_s / phase.untraced_pass_s
        return metrics

    @contextmanager
    def other_engine(self, **options: Any) -> Iterator[None]:
        plain = self.db
        self.db = self.database(**options)
        try:
            yield
        finally:
            self.db.close()
            self.db = plain


class TpchScan(TpchWorkload):
    name = "tpch_scan"
    query_names = ("q1", "q6", "q14", "paging")

    def layer_metrics(self, phase: TracedPhase) -> dict[str, float]:
        metrics = super().layer_metrics(phase)
        metrics["obs.engine_tracer_overhead_share"] = (
            self.engine_tracer_overhead_share(phase.seconds_left)
        )
        return metrics


class TpchJoinSpill(TpchWorkload):
    name = "tpch_join_spill"
    query_names = ("q3", "q5", "q10", "q12")
    workers = 2

    def setup(self) -> None:
        """q5 asks about the region whose supplier count is nearest the mean.

        A fifth of lineitem joins to the region's suppliers and spills, so
        q5's time follows that count, which is 100 +- 9 for 'ASIA' across
        seeds; the most average of the five regions is within +- 3.
        """
        super().setup()
        nations = self.data.tables["supplier"].column("s_nationkey").data
        suppliers = np.bincount(
            np.array([region for _, region in NATIONS])[nations],
            minlength=len(REGIONS),
        )
        region = REGIONS[int(np.argmin(np.abs(suppliers - suppliers.mean())))]
        self.queries["q5"] = self.queries["q5"].replace("'ASIA'", f"'{region}'")

    def database(self, **options: Any) -> Database:
        options.setdefault("workers", self.workers)
        return super().database(
            query_memory_bytes=self.data.tables["lineitem"].nbytes() // 4,
            **options,
        )

    def layer_metrics(self, phase: TracedPhase) -> dict[str, float]:
        metrics = super().layer_metrics(phase)
        serial = self.median_pass_s(phase.seconds_left, workers=1)
        metrics["engine.parallel_speedup"] = serial / phase.untraced_pass_s
        return metrics
