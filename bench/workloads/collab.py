"""Collaborative-query workloads: the paper's three strategies on Table I.

Every op is one collaborative query with its model bound on the fly, as
``QueryBenchmark.run_strategy`` does it: bind the query's tasks, run, add
the bind time to the loading share, unbind.

The generated dates are random, so at a fixed selectivity the number of
keyframes that reach the model changes by +-15 % between seeds, and with
it the pass time.  A benchmark whose work depends on the seed that much
cannot hold a 10 % bound, so each query's date window is chosen per seed
to send a *fixed* number of keyframes to the model; the data, the models'
weights and the answers still change with the seed.
"""

from __future__ import annotations

import collections
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional, Sequence

import numpy as np

from harness import OpRecorder
from workloads.base import (
    TracedPhase,
    Workload,
    engine_layer_metrics,
    engine_trace_targets,
    registry_counters,
)

from repro.core.runner import Dl2SqlModel
from repro.engine.database import Database
from repro.hardware import HardwareProfile
from repro.obs.metrics import MetricsRegistry
from repro.sql import parse_statement
from repro.sql.ast_nodes import (
    combine_conjuncts,
    referenced_columns,
    referenced_functions,
    split_conjuncts,
)
from repro.strategies import (
    CollaborativeQuery,
    IndependentStrategy,
    LooseStrategy,
    ModelTask,
    QueryType,
    Strategy,
    StrategyResult,
    TightStrategy,
)
from repro.tensor.model import Model
from repro.workload.dataset import PATTERN_LABELS, DatasetConfig, generate_dataset
from repro.workload.models_repo import build_repository
from repro.workload.queries import QueryGenerator

#: Breakdowns in host seconds, not simulated ARM/GPU seconds.
HOST = HardwareProfile("host", compute_scale=1.0, dl_runtime_scale=1.0)

#: Dates spread over 100 000 days instead of one year: with 2000 keyframes
#: a window then gains one row at a time as it widens by a day, so a
#: row-count target can be hit exactly (two rows share a day ~1 % of the time).
SPAN_DAYS = 100_000

#: One task per nUDF role the four query types use (detect, classify, recog).
NUM_TASKS = 3

#: How many rows the oracle asks each nUDF to label directly.
PROBE_ROWS = 6

#: DL2SQL-OP, DB-UDF and DB-PyTorch, as the metric names spell them.
STRATEGY_KEYS = ("tight-op", "loose", "independent")


def make_strategy(key: str) -> Strategy:
    if key == "tight-op":
        return TightStrategy(HOST, optimized=True)
    if key == "loose":
        return LooseStrategy(HOST)
    return IndependentStrategy(HOST)


def exported_rows(db: Database, query: CollaborativeQuery) -> int:
    """Rows DB-PyTorch exports to the model: the query's video-only predicates."""
    where = split_conjuncts(parse_statement(query.sql).where)
    kept = combine_conjuncts(
        [
            c
            for c in where
            if not any(
                call.name.lower().startswith("nudf_")
                for call in referenced_functions(c)
            )
            and all(ref.table == "V" for ref in referenced_columns(c))
        ]
    )
    return int(
        db.execute(f"SELECT count(*) FROM video V WHERE {kept.to_sql()}").scalar()
    )


def calibrated_days(target: int, rows_at: Callable[[int], int]) -> tuple[int, int]:
    """The window width, in days, that sends ``target`` rows to the model.

    Returns the width and the rows it actually sends (a day can bring
    several rows, so the target is not always reachable).

    ``rows_at`` grows with the width.  Doubling finds a width that reaches
    the target (wide windows are never probed: they would cost thousands
    of inferences), a binary search then finds the first such width, and
    the width before it is taken instead when it lands closer.
    """
    seen: dict[int, int] = {}

    def rows(days: int) -> int:
        if days not in seen:
            seen[days] = rows_at(days)
        return seen[days]

    high = 1
    while rows(high) < target and high < SPAN_DAYS:
        high = min(SPAN_DAYS, high * 2)
    low = high // 2 + 1 if high > 1 else 1
    while low < high:
        middle = (low + high) // 2
        if rows(middle) >= target:
            high = middle
        else:
            low = middle + 1
    if low > 1 and target - rows(low - 1) < rows(low) - target:
        low -= 1
    return low, rows(low)


def normalized_rows(rows: Sequence[Sequence[Any]]) -> collections.Counter:
    """Row multiset with numpy scalars unwrapped and floats rounded."""

    def value(v: Any) -> Any:
        if isinstance(v, np.generic):
            v = v.item()
        if isinstance(v, float):
            return None if v != v else float(f"{v:.9g}")
        return v

    return collections.Counter(tuple(value(v) for v in row) for row in rows)


class CollabWorkload(Workload):
    """Shared machinery; subclasses fix strategies, targets and repeats."""

    #: Strategies a pass runs, in order.
    strategy_keys: tuple[str, ...] = ()
    #: Rows each query type should send to the model: (full, quick).
    targets: dict[QueryType, tuple[int, int]] = {}
    #: How many times the four types repeat in one pass.
    repeats = 1
    scale = 20

    @contextmanager
    def counting_probe(
        self, db: Database, tasks: dict[str, ModelTask]
    ) -> Iterator[Callable[[CollaborativeQuery], int]]:
        """Yields ``rows(query)``: keyframes the pass would send to the model.

        Measured, not predicted.  The tasks are bound under each of the
        pass's in-database strategies exactly as a pass binds them (so the
        optimizer sees the same nUDF cost and selectivity and places the
        nUDF the same way), then the model behind each nUDF is swapped for
        a constant: a probe costs milliseconds and the engine still counts
        the rows that reach the nUDF.  DB-PyTorch infers every row it
        exports, which a ``count(*)`` gives.
        """
        bound = [s for key, s in self.strategies.items() if key != "independent"]
        for strategy in bound:
            for task in tasks.values():
                strategy.bind_task(db, task)
                constant = False if task.returns_bool else task.class_labels[0]
                db.udfs.get(task.udf_name()).fn = (
                    lambda keyframes, constant=constant: np.full(
                        len(keyframes), constant, dtype=object
                    )
                )

        def rows(query: CollaborativeQuery) -> int:
            total = 0
            for key, strategy in self.strategies.items():
                if key == "independent":
                    total += exported_rows(db, query)
                else:
                    total += int(
                        strategy.run(db, query, tasks).details["inferred_rows"]
                    )
            return total

        try:
            yield rows
        finally:
            for strategy in bound:
                for task in tasks.values():
                    strategy.unbind_task(db, task)

    # -- setup ---------------------------------------------------------
    def setup(self) -> None:
        self.dataset = generate_dataset(
            DatasetConfig(
                scale=2 if self.quick else self.scale,
                seed=self.seed,
                keyframe_shape=(1, 12, 12),
                span_days=SPAN_DAYS,
            )
        )
        self.repository = build_repository(self.dataset, num_tasks=NUM_TASKS)
        self.metrics = MetricsRegistry() if self.traced else None
        self.db = Database(metrics=self.metrics)
        self.dataset.install(self.db)
        self.strategies = {key: make_strategy(key) for key in self.strategy_keys}
        self.last_results: dict[str, list[StrategyResult]] = {}
        self.udf_totals = {"calls": 0, "rows": 0, "seconds": 0.0}

        # Calibration counts rows on a database of its own, so the one the
        # passes use starts with empty parse and plan caches.
        scratch = Database()
        self.dataset.install(scratch)
        rng = np.random.default_rng(self.seed)
        generator = QueryGenerator(self.dataset)
        days_of: dict[QueryType, int] = {}
        owed = 0  # rows earlier types fell short of their targets by
        self.queries: list[tuple[str, CollaborativeQuery, dict[str, ModelTask]]] = []
        for _ in range(self.repeats):
            label = PATTERN_LABELS[int(rng.integers(0, len(PATTERN_LABELS)))]
            for query_type in QueryType:

                def make(days: int) -> CollaborativeQuery:
                    return generator.make_query(
                        query_type, days / SPAN_DAYS, classify_label=label
                    )

                tasks = {
                    role: self.repository.pick(role, rng)
                    for role in make(1).udf_roles
                }
                if query_type not in days_of:
                    target = self.targets[query_type][1 if self.quick else 0] + owed
                    with self.counting_probe(scratch, tasks) as rows:
                        days_of[query_type], sent = calibrated_days(
                            max(0, target), lambda days: rows(make(days))
                        )
                    owed = target - sent
                self.queries.append(
                    (f"type{int(query_type)}", make(days_of[query_type]), tasks)
                )
        scratch.close()

    def close(self) -> None:
        self.db.close()

    def op_lines(self) -> list[str]:
        return [
            f"{key}.{name}: {query.sql}"
            for key in self.strategy_keys
            for name, query, _ in self.queries
        ]

    # -- one op --------------------------------------------------------
    def run_query(
        self,
        strategy: Strategy,
        query: CollaborativeQuery,
        tasks: dict[str, ModelTask],
        db: Optional[Database] = None,
    ) -> StrategyResult:
        """``QueryBenchmark.run_strategy`` for a single query."""
        db = db or self.db
        bind_seconds = sum(strategy.bind_task(db, task) for task in tasks.values())
        try:
            result = strategy.run(db, query, tasks)
            result.breakdown.loading += strategy.scale_db_seconds(bind_seconds)
            for udf in (db.udfs.get(n) for n in db.udfs.names()):
                if udf.is_neural:
                    self.udf_totals["calls"] += udf.stats.calls
                    self.udf_totals["rows"] += udf.stats.rows
                    self.udf_totals["seconds"] += udf.stats.seconds
        finally:
            for task in tasks.values():
                strategy.unbind_task(db, task)
        return result

    def run_pass(self, op: OpRecorder) -> dict[str, Any]:
        outputs: dict[str, Any] = {}
        for key, strategy in self.strategies.items():
            results = []
            for index, (name, query, tasks) in enumerate(self.queries):
                result = op(
                    f"{key}.{name}",
                    lambda: self.run_query(strategy, query, tasks),
                )
                outputs[f"{key}.{index}"] = result
                if result is not None:
                    results.append(result)
            self.last_results[key] = results
        return outputs

    # -- oracle --------------------------------------------------------
    def check(self, outputs: dict[str, Any]) -> tuple[int, list[str]]:
        """The three strategies agree, and every nUDF value is the model's.

        Strategies the pass does not run itself are run here, once, on the
        same queries.  They get a database of their own: binding a task
        under DL2SQL-OP replaces the database's optimizer configuration
        and nothing puts it back, which would change how the timed passes
        of another strategy are planned.
        """
        oracle_db = Database()
        self.dataset.install(oracle_db)
        strategies = {key: make_strategy(key) for key in STRATEGY_KEYS}

        def rows(key: str, index: int) -> Optional[collections.Counter]:
            _, query, tasks = self.queries[index]
            if key in self.strategies:
                result = outputs.get(f"{key}.{index}")
            else:
                result = self.run_query(strategies[key], query, tasks, oracle_db)
            return None if result is None else normalized_rows(result.rows)

        checks = 0
        failures: list[str] = []
        for index, (name, _, _) in enumerate(self.queries):
            reference = rows("loose", index)
            for key in ("tight-op", "independent"):
                checks += 1
                if reference is None or rows(key, index) != reference:
                    failures.append(
                        f"{key} and loose disagree on query {index} ({name})"
                    )

        keyframes = self.dataset.tables["video"].column("keyframe").data
        for task in self.repository.tasks:
            probe = CollaborativeQuery(
                sql=(
                    f"SELECT V.videoID, {task.udf_name()}(V.keyframe) "
                    f"FROM video V WHERE V.videoID < {PROBE_ROWS}"
                ),
                query_type=QueryType.INDEPENDENT,
                udf_roles=(task.role,),
            )
            expected = normalized_rows(
                [(i, task.predict_value(keyframes[i])) for i in range(PROBE_ROWS)]
            )
            for key, strategy in strategies.items():
                checks += 1
                got = self.run_query(strategy, probe, {task.role: task}, oracle_db)
                if normalized_rows(got.rows) != expected:
                    failures.append(
                        f"{key}: {task.udf_name()} differs from "
                        f"ModelTask.predict_value on the probe rows"
                    )
        oracle_db.close()
        return checks, failures

    # -- layers --------------------------------------------------------
    def trace_targets(self) -> list[tuple[Any, str, str]]:
        import repro.strategies.loose as loose
        import repro.strategies.transfer as transfer
        import repro.tensor.serialize as serialize

        targets = engine_trace_targets()
        targets += [
            (Dl2SqlModel, "load", "core.load"),
            (Dl2SqlModel, "infer", "core.infer"),
            (transfer, "serialize_payload", "strategies.transfer"),
            (transfer, "deserialize_payload", "strategies.transfer"),
            (Model, "predict_class", "tensor.forward"),
            (loose, "deserialize_model", "tensor.deserialize"),
            (serialize, "deserialize_model", "tensor.deserialize"),
        ]
        for key, strategy in self.strategies.items():
            for method in ("bind_task", "run", "unbind_task"):
                span = f"strategies.{key}.{method.removesuffix('_task')}"
                targets.append((type(strategy), method, span))
        return targets

    def counters(self) -> dict[str, float]:
        out = registry_counters(self.metrics)
        out["udf_calls"] = float(self.udf_totals["calls"])
        out["udf_rows"] = float(self.udf_totals["rows"])
        out["udf_seconds"] = self.udf_totals["seconds"]
        return out

    def layer_metrics(self, phase: TracedPhase) -> dict[str, float]:
        metrics = engine_layer_metrics(phase)
        counters = phase.counters
        metrics["engine.udf_calls"] = counters["udf_calls"]
        metrics["engine.udf_rows"] = counters["udf_rows"]
        metrics["engine.udf_seconds"] = counters["udf_seconds"]
        for key in self.strategy_keys:
            results = self.last_results[key]
            total = sum(r.breakdown.total for r in results)
            prefix = f"strategies.{key}"
            metrics[f"{prefix}.bind_ms"] = phase.ms_per_pass(f"{prefix}.bind")
            metrics[f"{prefix}.run_ms"] = phase.ms_per_pass(f"{prefix}.run")
            metrics[f"{prefix}.unbind_ms"] = phase.ms_per_pass(f"{prefix}.unbind")
            for part in ("loading", "inference", "relational"):
                metrics[f"{prefix}.{part}_share"] = (
                    sum(getattr(r.breakdown, part) for r in results) / total
                )
        if "tight-op" in self.strategies:
            results = self.last_results["tight-op"]
            inferred = sum(int(r.details["inferred_rows"]) for r in results)
            metrics["core.load_ms"] = phase.ms_per_call("core.load")
            metrics["core.infer_ms"] = phase.ms_per_call("core.infer")
            metrics["core.calibrate_ms"] = self._calibrate_ms(phase)
            metrics["core.inferred_rows"] = float(inferred)
            metrics["core.model_table_rows"] = float(
                sum(
                    table.num_rows
                    for _, _, tasks in self.queries
                    for task in tasks.values()
                    for table in task.compiled.static_tables
                )
            )
            # Every statement beyond the queries themselves is a step of
            # some inference's SQL program.
            metrics["core.statements_per_infer"] = (
                counters.get("queries_executed_total", 0.0) - len(self.queries)
            ) / phase.calls_per_pass("core.infer")
        if "independent" in self.strategies:
            metrics["strategies.transfer_ms"] = phase.ms_per_pass("strategies.transfer")
            metrics["strategies.transfer_bytes"] = float(
                sum(
                    int(r.details["transfer_bytes"])
                    for r in self.last_results["independent"]
                )
            )
        if phase.calls_per_pass("tensor.forward"):
            metrics["tensor.forward_ms_per_row"] = phase.ms_per_call("tensor.forward")
            metrics["tensor.deserialize_ms"] = phase.ms_per_call("tensor.deserialize")
        return metrics

    @staticmethod
    def _calibrate_ms(phase: TracedPhase) -> float:
        """Mean of the infer spans whose parent is a bind span."""
        spans = phase.spans
        durations = [
            end - start
            for name, start, end, parent, _ in spans
            if name == "core.infer"
            and parent >= 0
            and spans[parent][0].endswith(".bind")
        ]
        return sum(durations) * 1e3 / len(durations) if durations else 0.0

    @contextmanager
    def other_engine(self, **options: Any) -> Iterator[None]:
        plain = (self.db, self.strategies)
        self.db = Database(**options)
        self.dataset.install(self.db)
        self.strategies = {key: make_strategy(key) for key in self.strategy_keys}
        try:
            yield
        finally:
            self.db.close()
            self.db, self.strategies = plain


class CollabTight(CollabWorkload):
    name = "collab_tight"
    strategy_keys = ("tight-op",)
    #: DL2SQL-OP runs type 1's nUDF before the join, on every keyframe in
    #: the window, but only once the window holds a fabric row at all; with
    #: ten keyframes per fabric row that first step is ~10 rows on average
    #: and exponentially distributed, so type 1's target sits well above it
    #: (P(first step > 40) is under 2 %).  The other types grow a row at a time.
    targets = {
        **dict.fromkeys(QueryType, (10, 2)),
        QueryType.INDEPENDENT: (40, 2),
    }

    def layer_metrics(self, phase: TracedPhase) -> dict[str, float]:
        metrics = super().layer_metrics(phase)
        metrics["obs.engine_tracer_overhead_share"] = (
            self.engine_tracer_overhead_share(phase.seconds_left)
        )
        return metrics


class CollabBind(CollabWorkload):
    name = "collab_bind"
    strategy_keys = ("tight-op",)
    #: Windows of a single day: no keyframe reaches the model, so the pass
    #: is twenty binds (table load, index build, calibration inference).
    #: A target of one row is not steady: a fabric row entering the window
    #: brings all its keyframes at once, so ~15 % of seeds would get two.
    targets = dict.fromkeys(QueryType, (0, 0))
    repeats = 5


class CollabUdf(CollabWorkload):
    name = "collab_udf"
    strategy_keys = ("loose", "independent")
    targets = dict.fromkeys(QueryType, (200, 20))
