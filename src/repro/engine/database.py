"""The user-facing database facade (the "ClickHouse" of this repo).

:class:`Database` owns the catalog, UDF/function registries, statistics,
tracer and optimizer configuration, and executes SQL text end to end::

    db = Database()
    db.create_table_from_dict("t", {"a": [1, 2, 3]})
    result = db.execute("SELECT sum(a) FROM t")
    result.scalar()   # -> 6

Every statement kind the DL2SQL compiler and the workload queries need is
supported; see :mod:`repro.sql` for the dialect.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass
from typing import Any, Mapping, Optional, Sequence

import numpy as np

from repro.errors import (
    ExecutionError,
    PlanError,
    PlanValidationError,
    QueryCancelledError,
    QueryTimeoutError,
    SqlError,
)
from repro.analysis import dataflow
from repro.analysis.invariants import validate_fold, validate_rewrite
from repro.analysis.semantic import SemanticAnalyzer
from repro.faults.injector import make_injector
from repro.engine.analyze import (
    ExplainAnalyzeOutput,
    collect_actuals,
    format_analysis,
)
from repro.engine.cost import CostModel, DefaultCostModel
from repro.engine.expressions import Evaluator, FunctionRegistry
from repro.engine.frame import Frame
from repro.engine.infer_cache import make_cache
from repro.engine.kernels import KernelCache
from repro.engine.logical import LogicalPlan
from repro.engine.memory import MemoryAccountant
from repro.engine.optimizer import (
    FoldReport,
    Optimizer,
    OptimizerConfig,
    annotate_plan_facts,
    fold_plan,
    prune_partitions,
)
from repro.engine.parallel import DEFAULT_MORSEL_ROWS, MorselPool
from repro.engine.physical import ExecutionContext, execute_plan
from repro.engine.qcontext import CancellationToken, QueryContext
from repro.engine.planner import Planner
from repro.engine.statistics import StatisticsProvider
from repro.engine.udf import BatchUdf, UdfRegistry
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.sql.ast_nodes import (
    CreateIndex,
    CreateTable,
    CreateView,
    DropStatement,
    ExplainStatement,
    InsertStatement,
    SelectStatement,
    Statement,
    UpdateStatement,
)
from repro.sql.parser import parse_statement, parse_statements
from repro.storage.catalog import Catalog, View
from repro.storage.column import Column
from repro.storage.schema import ColumnSpec, DataType, Schema
from repro.storage.table import Table

#: SQL type-name -> logical type for CREATE TABLE column definitions.
_TYPE_NAMES = {
    "int": DataType.INT64,
    "int64": DataType.INT64,
    "integer": DataType.INT64,
    "bigint": DataType.INT64,
    "float": DataType.FLOAT64,
    "float64": DataType.FLOAT64,
    "double": DataType.FLOAT64,
    "real": DataType.FLOAT64,
    "string": DataType.STRING,
    "text": DataType.STRING,
    "varchar": DataType.STRING,
    "date": DataType.DATE,
    "bool": DataType.BOOL,
    "boolean": DataType.BOOL,
    "blob": DataType.BLOB,
    "object": DataType.BLOB,
}


def _running_under_pytest() -> bool:
    """Plan validation defaults on inside a pytest run, off elsewhere."""
    return "PYTEST_CURRENT_TEST" in os.environ or "pytest" in sys.modules


class Result:
    """The outcome of one statement.

    SELECT statements carry a frame; DDL/DML report affected row counts.
    """

    def __init__(
        self,
        frame: Optional[Frame] = None,
        affected_rows: int = 0,
        message: str = "",
    ) -> None:
        self._frame = frame
        self.affected_rows = affected_rows
        self.message = message

    @property
    def frame(self) -> Frame:
        if self._frame is None:
            raise ExecutionError("statement produced no result set")
        return self._frame

    @property
    def has_rows(self) -> bool:
        return self._frame is not None

    @property
    def column_names(self) -> list[str]:
        return self.frame.column_names()

    @property
    def num_rows(self) -> int:
        return self.frame.num_rows if self._frame is not None else 0

    def rows(self) -> list[tuple[Any, ...]]:
        """Row tuples with SQL NULL rendered as Python ``None``.

        This is the transfer boundary: NULLs encoded as validity-mask
        bits, in-band ``None`` or float NaN all come out as ``None``, so
        round-tripping rows through pickle / ``Table.from_dict`` (the
        independent strategy's path) preserves NULL-ness.
        """
        frame = self.frame
        arrays = [c.data for c in frame.columns]
        nulls = [c.null_mask() for c in frame.columns]
        if all(n is None for n in nulls):
            return [tuple(a[i] for a in arrays) for i in range(frame.num_rows)]
        return [
            tuple(
                None if n is not None and n[i] else a[i]
                for a, n in zip(arrays, nulls)
            )
            for i in range(frame.num_rows)
        ]

    def column(self, name: str) -> np.ndarray:
        return self.frame.resolve(name, None).data

    def scalar(self) -> Any:
        """The single value of a 1x1 result set (``None`` for SQL NULL)."""
        frame = self.frame
        if frame.num_rows != 1 or frame.num_columns != 1:
            raise ExecutionError(
                f"scalar() needs a 1x1 result, got "
                f"{frame.num_rows}x{frame.num_columns}"
            )
        column = frame.columns[0]
        null = column.null_mask()
        if null is not None and null[0]:
            return None
        value = column.data[0]
        if isinstance(value, np.generic):
            return value.item()
        return value

    def to_table(self, name: str = "result") -> Table:
        return self.frame.to_table(name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self._frame is None:
            return f"Result(affected={self.affected_rows}, {self.message!r})"
        return f"Result({self.num_rows} rows, columns={self.column_names})"


@dataclass
class ExplainOutput:
    """EXPLAIN-style description of how a SELECT would run."""

    plan: LogicalPlan
    text: str
    estimated_rows: float
    estimated_cost: float


class _CachedPlan:
    """One plan-cache entry (see ``Database._plan_cache``)."""

    __slots__ = ("statement", "config", "plan", "versions", "assumptions")

    def __init__(
        self,
        statement: SelectStatement,
        config: OptimizerConfig,
        plan: LogicalPlan,
        versions: dict[str, int],
        assumptions: dict[tuple[str, str], dataflow.Fact],
    ) -> None:
        self.statement = statement
        self.config = config
        self.plan = plan
        #: Statistics version of each table ``assumptions`` names.
        self.versions = versions
        #: (table, column) -> the fact a rewrite of ``plan`` relied on.
        self.assumptions = assumptions


class Database:
    """An in-memory columnar SQL database with UDF support."""

    def __init__(
        self,
        *,
        optimizer_config: Optional[OptimizerConfig] = None,
        plan_cache: bool = True,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        udf_cache_bytes: int = 0,
        workers: Optional[int] = None,
        morsel_rows: int = DEFAULT_MORSEL_ROWS,
        fused_kernels: bool = True,
        fold_constants: bool = True,
        semantic_analysis: bool = True,
        validate_plans: Optional[bool] = None,
        fault_plan: Any = None,
        query_memory_bytes: int = 0,
        udf_breaker_threshold: int = 5,
        udf_breaker_reset_s: float = 30.0,
        catalog: Optional[Catalog] = None,
        functions: Optional[FunctionRegistry] = None,
        udfs: Optional[UdfRegistry] = None,
        infer_cache: Any = None,
        kernel_cache: Optional[KernelCache] = None,
        parallel_pool: Optional[MorselPool] = None,
    ) -> None:
        #: Shared-component injection: the serving layer creates one
        #: ``Database`` facade per session, all sharing the server's
        #: catalog, function registry, UDF registry view, inference
        #: cache, kernel cache, and morsel pool.  Injected components
        #: are borrowed — :meth:`close` only shuts down what this
        #: instance created itself.
        self.catalog = catalog if catalog is not None else Catalog()
        self.functions = functions if functions is not None else FunctionRegistry()
        self._owns_udfs = udfs is None
        self.udfs = udfs if udfs is not None else UdfRegistry()
        self.statistics = StatisticsProvider(self.catalog)
        #: Content-addressed nUDF result cache; ``udf_cache_bytes=0``
        #: (the default) disables it, so repeated-input experiments that
        #: deliberately re-run inference still measure the real thing.
        self._owns_infer_cache = infer_cache is None
        self.infer_cache = (
            make_cache(udf_cache_bytes) if infer_cache is None else infer_cache
        )
        self.udfs.attach_cache(self.infer_cache)
        #: The one morsel pool: filter/project morsels, hash-join
        #: partitions, aggregate partials and UDF batch morsels.
        #: ``workers=None`` consults the ``REPRO_WORKERS`` environment
        #: variable so CI and the chaos harness can turn parallelism on
        #: without code changes; one worker means every operator and
        #: UDF batch runs inline and no threads exist.
        self._owns_parallel = parallel_pool is None
        if parallel_pool is not None:
            self.workers = parallel_pool.workers
            self.parallel = parallel_pool
        else:
            if workers is None:
                workers = int(os.environ.get("REPRO_WORKERS", "1") or "1")
            self.workers = max(1, int(workers))
            self.parallel = MorselPool(
                self.workers, morsel_rows, metrics=metrics
            )
        #: Sharing it with UDF morsels cannot deadlock: expressions
        #: containing UDF calls never run on pool workers
        #: (``_parallel_safe_expr`` excludes them), so UDF morsels are
        #: only ever submitted from the coordinator thread.
        self.udfs.attach_pool(self.parallel)
        #: Fused expression kernels: single-pass compiled evaluators for
        #: filter/project expressions, keyed by SQL text + input schema +
        #: UDF registry generation.  On by default; ``fused_kernels=False``
        #: forces the interpreting evaluator everywhere (the
        #: fused-vs-interpreted differential tests rely on this switch).
        if kernel_cache is not None:
            self.kernels: Optional[KernelCache] = kernel_cache
        else:
            self.kernels = KernelCache(udfs=self.udfs) if fused_kernels else None
        #: The instrumentation spine, and the one operator clock: with
        #: it enabled, every plan node runs in an ``operator:<category>``
        #: span.  A disabled tracer hands out the shared null span, so the
        #: default costs one attribute check per span site (never per row).
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        #: ``None`` (the default) means no metric is ever touched on the
        #: hot path; pass a registry to count queries, rows scanned, plan
        #: cache hits, and UDF batch sizes.
        self.metrics = metrics
        self.udfs.attach_observers(metrics)
        #: Deterministic fault injector.  ``fault_plan`` accepts a
        #: :class:`~repro.faults.injector.FaultPlan`, plan text, or a
        #: prebuilt injector; when None, the ``FAULT_PLAN`` environment
        #: variable is consulted so the chaos harness can wrap any entry
        #: point without code changes.  None everywhere -> zero overhead.
        if fault_plan is None:
            fault_plan = os.environ.get("FAULT_PLAN") or None
        self.faults = make_injector(fault_plan)
        self.udfs.attach_faults(self.faults)
        if self.infer_cache is not None and (
            self._owns_infer_cache or self.faults is not None
        ):
            # Never clear fault wiring on a *shared* cache: a session
            # created without a plan must not detach the server's.
            self.infer_cache.attach_faults(self.faults)
        #: Per-query materialization budget; 0 disables admission control.
        self.query_memory_bytes = max(0, int(query_memory_bytes))
        #: The QueryContext of the top-level statement currently running.
        #: Nested statements (DL2SQL per-keyframe programs) execute under
        #: it, so one deadline covers a whole collaborative query.
        self._active_query: Optional[QueryContext] = None
        self.udfs.attach_query_provider(lambda: self._active_query)
        if self._owns_udfs:
            # Breaker state is shared across registry views; only the
            # owner sets thresholds so sessions can't reconfigure the
            # server's breakers behind each other's backs.
            self.udfs.configure_breakers(
                failure_threshold=udf_breaker_threshold,
                reset_timeout_s=udf_breaker_reset_s,
            )
        self.optimizer_config = optimizer_config or OptimizerConfig()
        #: The ExecutionContext of the statement currently executing, so
        #: nested sub-plan execution (scalar subqueries, UDF-internal
        #: queries) shares the same tracer/metrics instead of
        #: reporting into a fresh, invisible context.
        self._active_context: Optional[ExecutionContext] = None
        self._planner = Planner(self._resolve_view)
        self._parse_cache: dict[str, Statement] = {}
        #: Prepared plans keyed by (statement identity, optimizer config
        #: identity).  DL2SQL re-executes the same generated statements per
        #: keyframe; re-optimizing them each time would dominate inference.
        #: Each entry also stores the statement and the config themselves:
        #: holding the references pins their id()s (Python recycles ids of
        #: collected objects, which would otherwise alias a fresh statement
        #: or cost model onto a stale plan), and `is` checks guard the hit.
        #: Cleared whenever a view definition changes (plans inline views).
        #: A rewrite justified by statistics makes its plan *conditional*:
        #: the entry records the column facts those rewrites assumed, and
        #: a hit after a table mutation re-checks them (see
        #: ``_plan_assumptions_hold``).  A plan nothing was assumed for is
        #: valid for any data.
        self._plan_cache: dict[tuple[int, int], _CachedPlan] = {}
        #: Disabled for experiments reproducing engines that re-plan every
        #: statement (the paper's ClickHouse flow re-optimizes DL2SQL's
        #: generated statements on each inference).
        self._plan_cache_enabled = plan_cache
        #: Bind + type-check every SELECT before planning; off only for
        #: experiments that need the raw planner behaviour.
        self._semantic_analysis = semantic_analysis
        #: Run the abstract-interpretation folding pass between planning
        #: and optimization; ``fold_constants=False`` is the escape hatch
        #: (and the baseline side of the folding differential tests).
        self._fold_constants = bool(fold_constants)
        #: Re-check optimizer rewrites against the planner's tree.  None
        #: (the default) auto-enables under pytest so the whole test
        #: suite doubles as an optimizer-correctness harness; production
        #: paths skip the extra tree walks.
        if validate_plans is None:
            validate_plans = _running_under_pytest()
        self._validate_plans = bool(validate_plans)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def execute(
        self,
        sql: str,
        *,
        timeout_s: Optional[float] = None,
        cancel_token: Optional[CancellationToken] = None,
        query_context: Optional[QueryContext] = None,
    ) -> Result:
        """Parse and run a single SQL statement.

        Parsed ASTs are cached by SQL text — DL2SQL re-executes the same
        generated statements once per inferred keyframe, so this matters.

        ``timeout_s`` / ``cancel_token`` arm a :class:`QueryContext` that
        operators, UDF morsels, and nested statements check cooperatively;
        on expiry a :class:`~repro.errors.QueryTimeoutError` (or
        :class:`~repro.errors.QueryCancelledError`) is raised with the
        partial trace attached.  Nested statements — DL2SQL's per-keyframe
        programs execute while the outer statement is still running —
        always run under the *outer* query's context, so one deadline
        covers the whole collaborative query; per-call options on nested
        statements are ignored by design.
        """
        if self.metrics is not None:
            self.metrics.counter(
                "queries_executed_total",
                "Statements executed via Database.execute",
            ).inc()
        if self._active_query is not None or (
            timeout_s is None and cancel_token is None and query_context is None
        ):
            return self._execute_statement(sql)
        # The serving layer builds the QueryContext *before* admission
        # queueing so time spent waiting for a slot charges the deadline.
        qctx = (
            query_context
            if query_context is not None
            else QueryContext(timeout_s=timeout_s, cancel_token=cancel_token)
        )
        self._active_query = qctx
        try:
            return self._execute_statement(sql)
        except (QueryCancelledError, QueryTimeoutError) as exc:
            # Spans unwound with the exception, so the tracer already
            # holds the completed (partial) trace of this query.
            exc.partial_trace = self.tracer.last_trace()
            if self.metrics is not None:
                name, help_text = (
                    ("query_timeouts_total", "Queries that hit timeout_s")
                    if isinstance(exc, QueryTimeoutError)
                    else (
                        "query_cancellations_total",
                        "Queries cancelled via a CancellationToken",
                    )
                )
                self.metrics.counter(name, help_text).inc()
            raise
        finally:
            self._active_query = None

    def _execute_statement(self, sql: str) -> Result:
        if self._active_query is not None:
            # Cooperative check per statement: tight integration runs
            # thousands of nested statements per query, so deadlines and
            # cancellation land promptly even between operators.
            self._active_query.check()
        if not self.tracer.enabled:
            return self._dispatch(self._parse_cached(sql))
        with self.tracer.span("query", sql=sql):
            with self.tracer.span("parse") as parse_span:
                cached = sql in self._parse_cache
                statement = self._parse_cached(sql)
                parse_span.set("cached", cached)
                parse_span.set("statement", type(statement).__name__)
            return self._dispatch(statement)

    def _parse_cached(self, sql: str) -> Statement:
        statement = self._parse_cache.get(sql)
        if statement is None:
            statement = parse_statement(sql)
            if len(self._parse_cache) > 4096:
                self._parse_cache.clear()
            self._parse_cache[sql] = statement
        return statement

    def execute_script(self, sql: str) -> list[Result]:
        """Run a ``;``-separated script; returns one result per statement."""
        return [self._dispatch(s) for s in parse_statements(sql)]

    def query(self, sql: str) -> list[tuple[Any, ...]]:
        """Shorthand: execute a SELECT and return its rows."""
        return self.execute(sql).rows()

    def explain(self, sql: str) -> ExplainOutput:
        """Plan (and cost) a SELECT without executing it."""
        statement = parse_statement(sql)
        if not isinstance(statement, SelectStatement):
            raise SqlError("EXPLAIN supports SELECT statements only")
        plan = self._optimized_plan(statement)
        estimate = self.optimizer_config.cost_model.estimate(
            plan, self.statistics
        )
        text = plan.explain()
        if self._fold_constants:
            facts = dataflow.output_facts(
                statement, self.catalog, self.statistics
            )
            if facts:
                lines = [text, "Derived facts:"]
                lines.extend(
                    f"  {name}: {fact.render()}" for name, fact in facts
                )
                text = "\n".join(lines)
        return ExplainOutput(
            plan=plan,
            text=text,
            estimated_rows=estimate.rows,
            estimated_cost=estimate.cost,
        )

    def explain_analyze(self, sql: str) -> ExplainAnalyzeOutput:
        """Execute a SELECT and annotate every physical operator with its
        actual wall-clock time and row count next to the optimizer's
        estimates (plus the per-operator cardinality q-error the
        cost-model experiment consumes).

        Accepts plain SELECT text or ``EXPLAIN ANALYZE SELECT ...``.
        """
        statement = parse_statement(sql)
        if isinstance(statement, ExplainStatement):
            statement = statement.statement
        if not isinstance(statement, SelectStatement):
            raise SqlError("EXPLAIN ANALYZE supports SELECT statements only")
        return self._explain_analyze_select(statement)

    def register_udf(self, udf: BatchUdf, *, replace: bool = False) -> None:
        self.udfs.register(udf, replace=replace)

    def register_table(self, table: Table, *, temp: bool = False,
                       replace: bool = False) -> None:
        """Directly register a Python-built table (bulk-load fast path).

        When registration happens inside a running query (tight
        integration materializes feature-map inputs per keyframe), the
        table is admitted against that query's memory budget first.
        """
        self._admit_table_memory(table.nbytes(), table.name)
        self.catalog.create_table(table, temp=temp, replace=replace)
        self.statistics.invalidate(table.name)

    def _admit_table_memory(self, nbytes: int, name: str) -> None:
        ctx = self._active_context
        if ctx is not None and ctx.memory is not None:
            ctx.memory.admit(nbytes, f"materializing table {name!r}")

    def create_table_from_dict(
        self,
        name: str,
        data: Mapping[str, Sequence[Any]],
        *,
        temp: bool = False,
        replace: bool = False,
    ) -> Table:
        table = Table.from_dict(name, data)
        self.register_table(table, temp=temp, replace=replace)
        return table

    def table(self, name: str) -> Table:
        return self.catalog.get_table(name)

    def drop_temp_objects(self) -> int:
        return self.catalog.drop_temp_objects()

    def storage_bytes(self) -> int:
        return self.catalog.total_nbytes()

    def close(self) -> None:
        """Release the worker pool (idempotent).  UDF batches and
        operators run inline afterwards."""
        if self._owns_parallel:
            self.parallel.shutdown()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, statement: Statement) -> Result:
        if isinstance(statement, SelectStatement):
            return Result(frame=self._run_select(statement))
        if isinstance(statement, ExplainStatement):
            return self._run_explain(statement)
        if isinstance(statement, CreateTable):
            return self._run_create_table(statement)
        if isinstance(statement, CreateView):
            return self._run_create_view(statement)
        if isinstance(statement, CreateIndex):
            return self._run_create_index(statement)
        if isinstance(statement, InsertStatement):
            return self._run_insert(statement)
        if isinstance(statement, UpdateStatement):
            return self._run_update(statement)
        if isinstance(statement, DropStatement):
            if statement.object_type == "VIEW" or self.catalog.is_view(
                statement.name
            ):
                self.clear_plan_cache()
            self.catalog.drop(statement.name, if_exists=statement.if_exists)
            self.statistics.invalidate(statement.name)
            return Result(message=f"dropped {statement.name}")
        raise SqlError(f"unsupported statement {type(statement).__name__}")

    # ------------------------------------------------------------------
    # SELECT
    # ------------------------------------------------------------------
    def _run_select(self, statement: SelectStatement) -> Frame:
        plan = self._optimized_plan(statement)
        if self._active_context is not None:
            # Nested sub-plan (scalar subquery or UDF-internal query):
            # execute inside the statement's existing context so its
            # operators land in the same trace and metrics.
            return execute_plan(plan, self._active_context)
        with self.tracer.span("execute") as span:
            frame = self._execute_in_context(plan, self._execution_context())
            span.set("rows", frame.num_rows)
        return frame

    def _execute_in_context(
        self, plan: LogicalPlan, ctx: ExecutionContext
    ) -> Frame:
        previous = self._active_context
        self._active_context = ctx
        try:
            return execute_plan(plan, ctx)
        finally:
            self._active_context = previous

    def _run_explain(self, statement: ExplainStatement) -> Result:
        """``EXPLAIN [ANALYZE]`` as a statement: one text line per row."""
        if statement.analyze:
            output = self._explain_analyze_select(statement.statement)
            lines = output.text.splitlines()
        else:
            plan = self._optimized_plan(statement.statement)
            self.optimizer_config.cost_model.estimate(plan, self.statistics)
            lines = plan.explain().splitlines()
            if self._fold_constants:
                facts = dataflow.output_facts(
                    statement.statement, self.catalog, self.statistics
                )
                if facts:
                    lines.append("Derived facts:")
                    lines.extend(
                        f"  {name}: {fact.render()}" for name, fact in facts
                    )
        from repro.engine.frame import FrameColumn

        data = np.empty(len(lines), dtype=object)
        data[:] = lines
        frame = Frame([FrameColumn(None, "plan", DataType.STRING, data)])
        return Result(frame=frame)

    def _explain_analyze_select(
        self, statement: SelectStatement
    ) -> ExplainAnalyzeOutput:
        plan = self._optimized_plan(statement)
        # Fill estimated_rows/estimated_cost on every plan node so there
        # is something to compare actuals against.
        self.optimizer_config.cost_model.estimate(plan, self.statistics)
        # Actuals come from the operator spans: the database's own trace
        # when tracing is on, a private one otherwise.
        tracer = self.tracer if self.tracer.enabled else Tracer(enabled=True)
        ctx = self._execution_context()
        ctx.tracer = tracer
        cache_before = (
            self.infer_cache.snapshot() if self.infer_cache is not None else None
        )
        with tracer.span("execute", analyze=True) as span:
            started = time.perf_counter()
            frame = self._execute_in_context(plan, ctx)
            total = time.perf_counter() - started
            span.set("rows", frame.num_rows)
        output = ExplainAnalyzeOutput(
            plan=plan,
            operators=collect_actuals(plan, span),
            total_seconds=total,
            result_rows=frame.num_rows,
        )
        if cache_before is not None:
            output.udf_cache = cache_before.delta(self.infer_cache.snapshot())
        output.text = format_analysis(output)
        return output

    def _optimized_plan(
        self, statement: SelectStatement, *, analyze: bool = True
    ) -> LogicalPlan:
        config = self.optimizer_config
        key = (id(statement), id(config))
        if self._plan_cache_enabled:
            cached = self._plan_cache.get(key)
            if (
                cached is not None
                and cached.statement is statement
                and cached.config is config
                and self._plan_assumptions_hold(cached)
            ):
                if self.metrics is not None:
                    self.metrics.counter(
                        "plan_cache_hits_total",
                        "Optimized plans served from the plan cache",
                    ).inc()
                return cached.plan
        if self.metrics is not None:
            self.metrics.counter(
                "plan_cache_misses_total",
                "SELECT statements planned and optimized from scratch",
            ).inc()
        schema = None
        if self._semantic_analysis and analyze:
            with self.tracer.span("analyze"):
                analyzer = SemanticAnalyzer(
                    self.catalog, self.functions, self.udfs
                )
                schema = analyzer.analyze(statement)
        with self.tracer.span("plan"):
            plan = self._planner.plan_select(statement)
        fold_report: Optional[FoldReport] = None
        folded = plan
        if self._fold_constants:
            with self.tracer.span("fold"):
                folded, fold_report = fold_plan(
                    plan, self.catalog, self.statistics
                )
            if self._validate_plans:
                violations = validate_fold(
                    plan, folded, self.catalog, self.statistics, fold_report
                )
                if violations:
                    raise PlanValidationError(
                        "dataflow folding violated plan invariants: "
                        + "; ".join(violations)
                    )
        with self.tracer.span("optimize"):
            optimizer = Optimizer(
                self.catalog, self.statistics, self.udfs, config
            )
            optimized = optimizer.optimize(folded)
        if self._validate_plans:
            violations = validate_rewrite(folded, optimized, self.catalog)
            if violations:
                raise PlanValidationError(
                    "optimizer rewrite violated plan invariants: "
                    + "; ".join(violations)
                )
        versions: dict[str, int] = {}
        assumptions: dict[tuple[str, str], dataflow.Fact] = {}
        if fold_report is not None:
            versions.update(fold_report.stats_versions)
            assumptions.update(fold_report.assumptions)
        if self._fold_constants:
            deps = annotate_plan_facts(
                optimized, self.catalog, self.statistics
            )
            for pair, fact in deps.items():
                assumptions.setdefault(pair, fact)
                versions.setdefault(pair[0], self.statistics.version(pair[0]))
            with self.tracer.span("prune"):
                prune_report = prune_partitions(
                    optimized, self.catalog, self.statistics
                )
            if prune_report.pruned and self.metrics is not None:
                self.metrics.counter(
                    "partitions_pruned_total",
                    "Partitions skipped by zone-map pruning",
                ).inc(prune_report.pruned)
        plan = optimized
        plan.output_schema = schema
        if self._plan_cache_enabled:
            if len(self._plan_cache) > 8192:
                self._plan_cache.clear()
            self._plan_cache[key] = _CachedPlan(
                statement, config, plan, versions, assumptions
            )
        return plan

    def _plan_assumptions_hold(self, cached: _CachedPlan) -> bool:
        """Is a cached plan still valid?

        A plan assumes only what justified a rewrite of it, so one with
        no assumptions holds for any data.  Otherwise, fast path: every
        statistics version the rewrites read is unchanged.  Slow path (a
        table mutated): re-seed each assumed column fact from fresh
        statistics — nullability alone where no range was assumed — and
        accept the plan only if the fresh fact is *contained* in the
        assumed one: inserting rows inside the already-proven range
        keeps the plan sound, widening the range (or introducing the
        first NULL) forces a re-plan.
        """
        assumptions = cached.assumptions
        if not assumptions:
            return True
        versions = cached.versions
        stale = {
            table
            for table, version in versions.items()
            if self.statistics.version(table) != version
        }
        if not stale:
            return True
        for (table, column), assumed in assumptions.items():
            if table not in stale:
                continue
            if not self.catalog.has(table) or self.catalog.is_view(table):
                return False
            table_schema = self.catalog.get_table(table).schema
            if column not in table_schema:
                return False
            fresh = dataflow.column_seed_fact(
                column,
                table_schema.dtype_of(column),
                self.statistics.exact_stats_for(table),
                bounds=not assumed.interval.unbounded,
            )
            if not assumed.contains(fresh):
                return False
        # Still contained: refresh the recorded versions so the next hit
        # takes the fast path again.
        for table in stale:
            versions[table] = self.statistics.version(table)
        return True

    def clear_plan_cache(self) -> None:
        """Drop all prepared plans (automatic on view changes)."""
        self._plan_cache.clear()

    def _execution_context(self) -> ExecutionContext:
        memory = (
            MemoryAccountant(self.query_memory_bytes)
            if self.query_memory_bytes
            else None
        )
        return ExecutionContext(
            catalog=self.catalog,
            functions=self.functions,
            udfs=self.udfs,
            tracer=self.tracer,
            subquery_executor=self._execute_scalar_subquery,
            metrics=self.metrics,
            query=self._active_query,
            faults=self.faults,
            memory=memory,
            parallel=self.parallel if self.parallel.enabled else None,
            kernels=self.kernels,
        )

    def _execute_scalar_subquery(self, statement: SelectStatement) -> Any:
        frame = self._run_select(statement)
        if frame.num_rows != 1 or frame.num_columns != 1:
            raise ExecutionError(
                "scalar subquery returned "
                f"{frame.num_rows}x{frame.num_columns}, expected 1x1"
            )
        column = frame.columns[0]
        null = column.null_mask()
        if null is not None and null[0]:
            return None
        value = column.data[0]
        if isinstance(value, np.generic):
            return value.item()
        return value

    def _resolve_view(self, name: str) -> Optional[SelectStatement]:
        if self.catalog.has(name) and self.catalog.is_view(name):
            return self.catalog.get_view(name).statement
        return None

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------
    def _run_create_table(self, statement: CreateTable) -> Result:
        frame = (
            self._run_select(statement.as_select)
            if statement.as_select is not None
            else None
        )
        with self.tracer.span("operator:materialize") as span:
            if frame is not None:
                table = frame.to_table(statement.name)
                self._admit_table_memory(table.nbytes(), statement.name)
            else:
                specs = []
                for definition in statement.columns:
                    dtype = _TYPE_NAMES.get(definition.type_name.lower())
                    if dtype is None:
                        raise SqlError(
                            f"unknown column type {definition.type_name!r}"
                        )
                    specs.append(ColumnSpec(definition.name, dtype))
                table = Table.empty(statement.name, Schema(specs))
            self.catalog.create_table(
                table, temp=statement.temp, replace=statement.replace
            )
            self.statistics.invalidate(statement.name)
            span.set("rows", table.num_rows)
        return Result(
            affected_rows=table.num_rows,
            message=f"created table {statement.name}",
        )

    def _run_create_view(self, statement: CreateView) -> Result:
        self.clear_plan_cache()  # plans inline view definitions
        view = View(
            name=statement.name,
            statement=statement.statement,
            sql_text=statement.to_sql(),
        )
        self.catalog.create_view(
            view, temp=statement.temp, replace=statement.replace
        )
        return Result(message=f"created view {statement.name}")

    def _run_create_index(self, statement: CreateIndex) -> Result:
        index = self.catalog.create_index(
            statement.table_name, statement.column_name
        )
        return Result(
            message=(
                f"created index {statement.index_name} with {index.num_keys} keys"
            )
        )

    # ------------------------------------------------------------------
    # DML
    # ------------------------------------------------------------------
    def _run_insert(self, statement: InsertStatement) -> Result:
        table = self.catalog.get_table(statement.table_name)
        with self.tracer.span("operator:insert") as span:
            if statement.from_select is not None:
                frame = self._run_select(statement.from_select)
                incoming = frame.to_table(statement.table_name)
                rows = incoming.to_rows()
            else:
                rows = [
                    tuple(self._constant(value) for value in row)
                    for row in statement.rows
                ]
            if statement.columns:
                rows = self._reorder_rows(table, statement.columns, rows)
            table.append_rows(rows)
            span.set("rows", len(rows))
        self.statistics.invalidate(statement.table_name)
        self.catalog.invalidate_indexes(statement.table_name)
        return Result(affected_rows=len(rows))

    def _reorder_rows(
        self,
        table: Table,
        columns: tuple[str, ...],
        rows: list[tuple[Any, ...]],
    ) -> list[tuple[Any, ...]]:
        positions = {name.lower(): i for i, name in enumerate(columns)}
        reordered = []
        for row in rows:
            out = []
            for spec in table.schema:
                position = positions.get(spec.name.lower())
                if position is None:
                    raise SqlError(
                        f"INSERT omits column {spec.name!r} and defaults "
                        "are not supported"
                    )
                out.append(row[position])
            reordered.append(tuple(out))
        return reordered

    def _constant(self, expression: Any) -> Any:
        """Evaluate a constant expression from an INSERT VALUES row."""
        from repro.engine.frame import FrameColumn

        dual = Frame(
            [FrameColumn(None, "__dummy__", DataType.INT64,
                         np.zeros(1, dtype=np.int64))]
        )
        evaluator = Evaluator(
            dual,
            self.functions,
            udfs=self.udfs,
            subquery_executor=self._execute_scalar_subquery,
        )
        vector = evaluator.evaluate(expression)
        valid = vector.materialize_valid(1)
        if valid is not None and not valid[0]:
            return None
        data = vector.materialize(1)
        return data[0]

    def _run_update(self, statement: UpdateStatement) -> Result:
        table = self.catalog.get_table(statement.table_name)
        frame = Frame.from_table(table, statement.table_name)
        with self.tracer.span("operator:update") as span:
            evaluator = Evaluator(
                frame,
                self.functions,
                udfs=self.udfs,
                subquery_executor=self._execute_scalar_subquery,
            )
            if statement.where is not None:
                mask = evaluator.evaluate_mask(statement.where)
            else:
                mask = np.ones(frame.num_rows, dtype=bool)
            for column_name, value_expression in statement.assignments:
                column = table.column(column_name)
                current = column.data.copy()
                current_valid = (
                    column.valid.copy()
                    if column.valid is not None
                    else np.ones(len(current), dtype=bool)
                )
                vector = evaluator.evaluate(value_expression)
                new_values = vector.materialize(frame.num_rows)
                new_null = vector.null_mask(frame.num_rows)
                if current.dtype != object and new_values.dtype != current.dtype:
                    if new_null is None:
                        new_values = new_values.astype(current.dtype)
                    else:
                        # SET col = NULL (or a NULL-bearing expression) on a
                        # fixed-width column: cast only the real values and
                        # leave a sentinel under the mask.
                        dense = np.zeros(len(new_values), dtype=current.dtype)
                        present = ~new_null
                        if present.any():
                            dense[present] = new_values[present].astype(
                                current.dtype
                            )
                        new_values = dense
                current[mask] = new_values[mask]
                if new_null is None:
                    current_valid[mask] = True
                else:
                    current_valid[mask] = ~new_null[mask]
                    nulled = mask & new_null
                    if current.dtype == object:
                        current[nulled] = None
                    elif current.dtype.kind == "f":
                        current[nulled] = np.nan
                table.replace_column(
                    column_name,
                    current,
                    None if current_valid.all() else current_valid,
                )
            affected = int(mask.sum())
            span.set("rows", affected)
        self.statistics.invalidate(statement.table_name)
        self.catalog.invalidate_indexes(statement.table_name)
        return Result(affected_rows=affected)
