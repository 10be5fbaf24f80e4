"""Physical (vectorized) execution of logical plans.

One function — :func:`execute_plan` — interprets a logical plan bottom-up,
producing a :class:`~repro.engine.frame.Frame` per node.  All data-parallel
work happens in numpy kernels; per-row Python is confined to string keys
and BLOB payloads.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional

if TYPE_CHECKING:  # imported for annotations only
    from repro.engine.kernels import KernelCache
    from repro.engine.memory import MemoryAccountant
    from repro.engine.parallel import MorselPool
    from repro.engine.qcontext import QueryContext
    from repro.faults.injector import FaultInjector
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import Tracer

import numpy as np

from repro.errors import ExecutionError, PlanError
from repro.engine.expressions import Evaluator, FunctionRegistry, Vector
from repro.engine.frame import Frame, FrameColumn, concat_frames
from repro.engine.logical import (
    Aggregate,
    AggregateSpec,
    CrossJoin,
    Distinct,
    EmptyScan,
    Filter,
    HashJoin,
    Limit,
    LogicalPlan,
    Project,
    Scan,
    Sort,
    SubqueryScan,
)
from repro.engine.udf import UdfRegistry
from repro.sql.ast_nodes import (
    ColumnRef,
    Expression,
    FunctionCall,
    SelectItem,
    Star,
)
from repro.storage.catalog import Catalog
from repro.storage.partition import PartitionedTable, concat_partition_columns
from repro.storage.schema import DataType
from repro.storage.table import Table
from repro.storage.validity import null_mask_of


@dataclass
class ExecutionContext:
    """Everything operators need at run time.

    One context is shared by a whole query *including* nested sub-plan
    execution (scalar subqueries, UDF-internal statements), so operator
    spans and metrics attribution follow the work wherever it runs.
    """

    catalog: Catalog
    functions: FunctionRegistry
    udfs: UdfRegistry
    subquery_executor: Optional[Callable[[Any], Any]] = None
    #: Byte budget for each side of a symmetric hash join before bucket
    #: eviction kicks in (hint rule 3's LRU buffer).
    symmetric_join_memory: int = 64 * 1024 * 1024
    #: Populated by symmetric joins for tests/benchmarks to inspect.
    last_symmetric_stats: dict[str, int] = field(default_factory=dict)
    #: Span spine for per-node operator timing (Fig. 10, EXPLAIN
    #: ANALYZE); None or a disabled tracer times nothing.
    tracer: Optional["Tracer"] = None
    #: Metrics registry for operational counters; None (default) is free.
    metrics: Optional["MetricsRegistry"] = None
    #: Populated by grace hash join spills for tests/benchmarks.
    last_spill_stats: dict[str, int] = field(default_factory=dict)
    #: Deadline + cancellation state of the owning statement; checked
    #: per operator and per symmetric-join chunk so timeouts/cancels
    #: land within one batch of work.  None (default) is free.
    query: Optional["QueryContext"] = None
    #: Chaos harness hook; only attached when fault injection is on.
    faults: Optional["FaultInjector"] = None
    #: Memory admission control for join/materialization outputs.
    memory: Optional["MemoryAccountant"] = None
    #: Morsel worker pool for partition-parallel operators; None or a
    #: disabled pool (workers=1) keeps every operator on the serial path.
    parallel: Optional["MorselPool"] = None
    #: Fused-kernel cache; None disables expression fusion entirely.
    kernels: Optional["KernelCache"] = None

    def evaluator(
        self, frame: Frame, slots: Optional[dict[str, str]] = None
    ) -> Evaluator:
        return Evaluator(
            frame,
            self.functions,
            udfs=self.udfs,
            subquery_executor=self.subquery_executor,
            aggregate_slots=slots,
        )


def execute_plan(plan: LogicalPlan, ctx: ExecutionContext) -> Frame:
    """Run a logical plan to completion and return the result frame.

    The engine's one operator clock: with tracing on, every plan node
    runs inside one ``operator:<category>`` span carrying its output
    ``rows`` and ``node=id(plan)``, so children nest inside their
    parent's span.  With tracing off nothing is timed.
    """
    if ctx.query is not None:
        ctx.query.check()
    if ctx.faults is not None:
        ctx.faults.fire("operator.next_batch", op=type(plan).__name__)
    operator = _OPERATORS.get(type(plan))
    if operator is None:
        raise ExecutionError(
            f"no physical implementation for {type(plan).__name__}"
        )
    span_name, run = operator
    tracer = ctx.tracer
    if tracer is None or not tracer.enabled:
        return run(plan, ctx)
    with tracer.span(span_name, node=id(plan)) as span:
        frame = run(plan, ctx)
        span.set("rows", frame.num_rows)
    return frame


# ----------------------------------------------------------------------
# Scans
# ----------------------------------------------------------------------
def _execute_scan(plan: Scan, ctx: ExecutionContext) -> Frame:
    if plan.table_name == "__dual__":
        dummy = FrameColumn(None, "__dummy__", DataType.INT64,
                            np.zeros(1, dtype=np.int64))
        return Frame([dummy])
    table = ctx.catalog.get_table(plan.table_name)
    if isinstance(table, PartitionedTable):
        frame = _scan_partitioned(plan, table, ctx)
    else:
        frame = Frame.from_table(table, plan.alias or table.name)
    if ctx.metrics is not None:
        ctx.metrics.counter(
            "rows_scanned_total", "Rows produced by table scans"
        ).inc(frame.num_rows)
    return frame


def _scan_partitioned(
    plan: Scan, table: PartitionedTable, ctx: ExecutionContext
) -> Frame:
    """Stream a partitioned table: admit, materialize and concatenate
    partition-at-a-time, honoring the optimizer's zone-map selection.

    The selection is trusted only while the catalog data version it was
    computed against still holds — a plan cached across a table mutation
    silently degrades to scanning every partition, which is always
    correct (pruning is an optimization, never a semantic requirement).
    """
    partitions = table.partitions
    selection = list(range(len(partitions)))
    if (
        plan.partition_selection is not None
        and plan.partition_total == len(partitions)
        and plan.partition_data_version is not None
        and plan.partition_data_version
        == ctx.catalog.data_version(plan.table_name)
    ):
        selection = list(plan.partition_selection)
    chunks = []
    for index in selection:
        partition = partitions[index]
        if ctx.memory is not None:
            ctx.memory.admit(
                partition.nbytes,
                f"scan of table {table.name!r} partition {index}",
            )
        chunks.append(partition.materialize())
    if ctx.metrics is not None:
        ctx.metrics.counter(
            "partitions_scanned_total",
            "Partitions materialized by table scans",
        ).inc(len(selection))
    columns = concat_partition_columns(chunks, table.schema)
    return Frame.from_table(
        Table(table.name, columns), plan.alias or table.name
    )


def _execute_empty_scan(plan: EmptyScan, ctx: ExecutionContext) -> Frame:
    """Zero rows with the column layout of the pruned subtree."""
    return Frame(
        [
            FrameColumn(
                qualifier, name, dtype, np.empty(0, dtype=dtype.numpy_dtype)
            )
            for qualifier, name, dtype in plan.columns
        ]
    )


def _execute_subquery_scan(plan: SubqueryScan, ctx: ExecutionContext) -> Frame:
    assert plan.child is not None
    inner = execute_plan(plan.child, ctx)
    return Frame([c.with_qualifier(plan.alias) for c in inner.columns])


# ----------------------------------------------------------------------
# Filter / Project
# ----------------------------------------------------------------------
def _execute_filter(plan: Filter, ctx: ExecutionContext) -> Frame:
    assert plan.child is not None and plan.predicate is not None
    frame = execute_plan(plan.child, ctx)
    slots = _aggregate_slots_below(plan.child)
    pool = ctx.parallel
    nonnull = plan.nonnull_columns
    result = frame
    for conjunct in _ordered_conjuncts(plan.predicate, ctx):
        if result.num_rows == 0:
            break
        if (
            pool is not None
            and pool.should_parallelize(result.num_rows)
            and slots is None
            and _parallel_safe_expr(conjunct, ctx)
        ):
            pieces = pool.run_rows(
                result.num_rows,
                lambda start, stop, conjunct=conjunct, result=result: (
                    _filter_mask(
                        conjunct,
                        result.slice(start, stop),
                        ctx,
                        None,
                        nonnull,
                    )
                ),
                query=ctx.query,
                faults=ctx.faults,
                op="Filter",
            )
            mask = np.concatenate(pieces)
        else:
            mask = _filter_mask(conjunct, result, ctx, slots, nonnull)
        result = result.filter(mask)
    return result


def _filter_mask(
    conjunct: Expression,
    frame: Frame,
    ctx: ExecutionContext,
    slots: Optional[dict[str, str]],
    nonnull: frozenset[tuple[str, str]] = frozenset(),
) -> np.ndarray:
    """One conjunct's boolean mask: fused kernel first, interpreter after."""
    if slots is None and ctx.kernels is not None:
        mask = ctx.kernels.mask(conjunct, frame, nonnull)
        if mask is not None:
            return mask
    return ctx.evaluator(frame, slots).evaluate_mask(conjunct)


def _parallel_safe_expr(expression: Expression, ctx: ExecutionContext) -> bool:
    """True when an expression may evaluate on morsel worker threads.

    UDF calls are excluded (UDFs run their *own* morsel dispatch and may
    be declared ``parallel_safe=False``), and scalar subqueries are
    excluded (nested statements execute on the owning database, which is
    coordinator-only state).  Everything else — arithmetic, comparisons,
    boolean logic, CASE, builtins — touches only the morsel's frame slice.
    """
    from repro.sql.ast_nodes import ScalarSubquery, walk_expression

    for node in walk_expression(expression):
        if isinstance(node, ScalarSubquery):
            return False
        if (
            isinstance(node, FunctionCall)
            and ctx.udfs is not None
            and node.name in ctx.udfs
        ):
            return False
    return True


def _ordered_conjuncts(
    predicate: Expression, ctx: ExecutionContext
) -> list[Expression]:
    """Cheap conjuncts first, UDF-bearing ones last — and among several
    nUDF conjuncts, most selective first.

    Conjuncts apply sequentially to a shrinking frame, so an expensive
    nUDF predicate only ever evaluates rows that survived the cheap
    predicates.  When a query carries several nUDFs (the paper's Type-4
    example with detect + classify), running the more selective model
    first prunes rows before the next model sees them — "it would be more
    efficient to execute the detect model before the classify model".
    Selectivities come from the class histograms attached at UDF
    registration; conjuncts without one keep their written order (0.5).
    """
    from repro.engine.udf import parse_udf_comparison
    from repro.sql.ast_nodes import referenced_functions, split_conjuncts

    conjuncts = split_conjuncts(predicate)
    cheap = []
    expensive = []
    for conjunct in conjuncts:
        has_udf = any(
            call.name in ctx.udfs
            for call in referenced_functions(conjunct)
        )
        (expensive if has_udf else cheap).append(conjunct)

    def estimated_selectivity(conjunct: Expression) -> float:
        parsed = parse_udf_comparison(conjunct)
        if parsed is None:
            return 0.5
        name, label, negated = parsed
        if name not in ctx.udfs:
            return 0.5
        estimator = ctx.udfs.get(name).selectivity_of
        if estimator is None:
            return 0.5
        selectivity = estimator(label)
        return 1.0 - selectivity if negated else selectivity

    expensive.sort(key=estimated_selectivity)
    return cheap + expensive


def _execute_project(plan: Project, ctx: ExecutionContext) -> Frame:
    assert plan.child is not None
    frame = execute_plan(plan.child, ctx)
    slots = dict(plan.aggregate_slots)
    slots.update(_aggregate_slots_below(plan.child) or {})
    pool = ctx.parallel
    if (
        pool is not None
        and pool.should_parallelize(frame.num_rows)
        and not slots
        and all(
            not isinstance(item.expression, Star)
            and _parallel_safe_expr(item.expression, ctx)
            for item in plan.items
        )
    ):
        pieces = pool.run_rows(
            frame.num_rows,
            lambda start, stop: _project_frame(
                plan.items,
                frame.slice(start, stop),
                ctx,
                None,
                plan.nonnull_columns,
            ),
            query=ctx.query,
            faults=ctx.faults,
            op="Project",
        )
        return concat_frames(pieces)
    return _project_frame(
        plan.items, frame, ctx, slots or None, plan.nonnull_columns
    )


def _project_frame(
    items: tuple[SelectItem, ...],
    frame: Frame,
    ctx: ExecutionContext,
    slots: Optional[dict[str, str]],
    nonnull: frozenset[tuple[str, str]] = frozenset(),
) -> Frame:
    """Evaluate the projection list over one frame (or frame slice)."""
    evaluator = ctx.evaluator(frame, slots)
    out_columns: list[FrameColumn] = []
    for ordinal, item in enumerate(items):
        if isinstance(item.expression, Star):
            out_columns.extend(_expand_star(frame, item.expression))
            continue
        vector = None
        if slots is None and ctx.kernels is not None:
            vector = ctx.kernels.vector(item.expression, frame, nonnull)
        if vector is None:
            vector = evaluator.evaluate(item.expression)
        data = vector.materialize(frame.num_rows)
        out_columns.append(
            FrameColumn(
                None,
                item.output_name(ordinal),
                vector.dtype,
                data,
                vector.materialize_valid(frame.num_rows),
            )
        )
    return Frame(out_columns)


def _expand_star(frame: Frame, star: Star) -> list[FrameColumn]:
    columns = []
    for column in frame.columns:
        if column.name.startswith("__"):
            continue
        if star.table is not None and (
            (column.qualifier or "").lower() != star.table.lower()
        ):
            continue
        columns.append(
            FrameColumn(None, column.name, column.dtype, column.data, column.valid)
        )
    if not columns:
        raise PlanError(f"{star.to_sql()} matched no columns")
    return columns


def _aggregate_slots_below(plan: LogicalPlan) -> Optional[dict[str, str]]:
    """Slot mapping when this node sits directly above an Aggregate chain.

    HAVING filters, ORDER BY sorts and the final projection reference
    aggregate calls (``HAVING count(*) > 3``) and computed group keys
    (``SELECT intDiv(TupleID, 64) ... GROUP BY intDiv(TupleID, 64)``),
    which resolve through the Aggregate's output columns by SQL text.
    """
    node = plan
    while isinstance(node, (Sort, Filter, Limit)):
        node = node.child  # type: ignore[assignment]
        if node is None:
            return None
    if isinstance(node, Aggregate):
        slots = {spec.key(): spec.slot for spec in node.aggregates}
        for position, key in enumerate(node.group_by):
            if not isinstance(key, ColumnRef):
                slots[key.to_sql()] = f"group_{position}"
        return slots
    return None


# ----------------------------------------------------------------------
# Joins
# ----------------------------------------------------------------------
def _admit_join_output(
    ctx: ExecutionContext,
    left: Frame,
    right: Frame,
    out_rows: int,
    what: str,
) -> None:
    """Memory admission for a join result *before* it is materialized."""
    if ctx.memory is None:
        return
    from repro.engine.memory import frame_row_nbytes

    row_bytes = frame_row_nbytes(left) + frame_row_nbytes(right)
    ctx.memory.admit(out_rows * row_bytes, what)


def _execute_cross_join(plan: CrossJoin, ctx: ExecutionContext) -> Frame:
    assert plan.left is not None and plan.right is not None
    left = execute_plan(plan.left, ctx)
    right = execute_plan(plan.right, ctx)
    n_left, n_right = left.num_rows, right.num_rows
    _admit_join_output(ctx, left, right, n_left * n_right, "cross join")
    left_idx = np.repeat(np.arange(n_left, dtype=np.int64), n_right)
    right_idx = np.tile(np.arange(n_right, dtype=np.int64), n_left)
    return left.take(left_idx).concat_columns(right.take(right_idx))


def _execute_hash_join(plan: HashJoin, ctx: ExecutionContext) -> Frame:
    assert plan.left is not None and plan.right is not None
    left = execute_plan(plan.left, ctx)
    right = execute_plan(plan.right, ctx)

    left_keys, left_null = _evaluate_keys(left, plan.left_keys, ctx)
    right_keys, right_null = _evaluate_keys(right, plan.right_keys, ctx)
    result: Optional[Frame] = None
    if plan.symmetric:
        left_idx, right_idx = _symmetric_hash_join(
            left_keys, right_keys, ctx,
            left_null=left_null, right_null=right_null,
        )
    else:
        from repro.engine.spill import maybe_grace_hash_join

        result = maybe_grace_hash_join(
            plan, left, right, left_keys, left_null,
            right_keys, right_null, ctx,
        )
        if result is None:
            left_idx, right_idx = _match_keys(
                left_keys, right_keys, left_null, right_null, ctx=ctx
            )
    if result is None:
        _admit_join_output(ctx, left, right, len(left_idx), "hash join")
        result = left.take(left_idx).concat_columns(right.take(right_idx))

    if plan.residual is not None:
        mask = ctx.evaluator(result).evaluate_mask(plan.residual)
        result = result.filter(mask)
    return result


def _evaluate_keys(
    frame: Frame, keys: tuple[Expression, ...], ctx: ExecutionContext
) -> tuple[list[np.ndarray], Optional[np.ndarray]]:
    """Materialize join keys plus the rows whose key tuple contains NULL.

    A composite key is NULL when any component is (so the row can never
    match).  The mask is None when every key row is fully non-NULL.
    """
    evaluator = ctx.evaluator(frame)
    out = []
    null: Optional[np.ndarray] = None
    for key in keys:
        vector = evaluator.evaluate(key)
        out.append(vector.materialize(frame.num_rows))
        key_null = vector.null_mask(frame.num_rows)
        if key_null is not None:
            null = key_null if null is None else null | key_null
    return out, null


def _match_keys(
    left_keys: list[np.ndarray],
    right_keys: list[np.ndarray],
    left_null: Optional[np.ndarray] = None,
    right_null: Optional[np.ndarray] = None,
    ctx: Optional[ExecutionContext] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Inner-join row index pairs for equal composite keys.

    NULL keys never match anything — not even other NULLs (SQL equality
    is UNKNOWN on NULL).  NULL-key rows are dropped before matching and
    the surviving match indices are mapped back to original positions,
    which also stops NaN keys from pairing up via searchsorted (NaN
    sorts as equal to NaN) or via dict buckets on object keys.
    """
    left_combined, right_combined = _combine_key_pair(left_keys, right_keys)
    left_rows = right_rows = None
    if left_null is not None:
        left_rows = np.flatnonzero(~left_null)
        left_combined = left_combined[left_rows]
    if right_null is not None:
        right_rows = np.flatnonzero(~right_null)
        right_combined = right_combined[right_rows]
    if left_combined.dtype == object or right_combined.dtype == object:
        left_idx, right_idx = _match_object_keys(left_combined, right_combined)
    else:
        pool = ctx.parallel if ctx is not None else None
        if (
            pool is not None
            and pool.enabled
            and left_combined.dtype == right_combined.dtype
            and min(len(left_combined), len(right_combined)) > pool.morsel_rows
        ):
            left_idx, right_idx = _match_numeric_keys_partitioned(
                left_combined, right_combined, ctx
            )
        else:
            left_idx, right_idx = _match_numeric_keys(
                left_combined, right_combined
            )
    if left_rows is not None:
        left_idx = left_rows[left_idx]
    if right_rows is not None:
        right_idx = right_rows[right_idx]
    return left_idx, right_idx


def _hash_partition_ids(keys: np.ndarray, num_partitions: int) -> np.ndarray:
    """Partition id per key via a 64-bit multiplicative bit mix.

    Equal values must land in the same partition, so float keys are
    normalized with ``+ 0.0`` first (mapping ``-0.0`` to ``+0.0`` —
    they compare equal but differ in bit pattern).  NaN needs no care:
    float NULLs are dropped before matching and NaN *is* the float NULL
    encoding.  Both join sides are required to share a dtype before this
    runs, so equal values always share a bit pattern.
    """
    if keys.dtype.kind == "f":
        bits = (keys + 0.0).view(np.uint64)
    else:
        bits = keys.astype(np.int64, copy=False).view(np.uint64)
    mixed = bits * np.uint64(0x9E3779B97F4A7C15)
    return ((mixed >> np.uint64(40)) % np.uint64(num_partitions)).astype(np.int64)


def _match_numeric_keys_partitioned(
    build: np.ndarray, probe: np.ndarray, ctx: ExecutionContext
) -> tuple[np.ndarray, np.ndarray]:
    """Hash-partitioned parallel variant of :func:`_match_numeric_keys`.

    Both sides are hash-partitioned on the key value; each partition
    pairs a disjoint slice of build rows with the probe rows that could
    match them, so partitions match independently on worker threads and
    the concatenated pairs equal the serial result as a multiset.
    """
    pool = ctx.parallel
    assert pool is not None
    num_partitions = max(2, pool.workers * 4)
    if ctx.memory is not None:
        # Partition selections and per-side sort orders: ~4 int64 arrays.
        ctx.memory.admit(
            (len(build) + len(probe)) * 16, "parallel join partitions"
        )
    build_parts = _hash_partition_ids(build, num_partitions)
    probe_parts = _hash_partition_ids(probe, num_partitions)
    build_order = np.argsort(build_parts, kind="stable")
    probe_order = np.argsort(probe_parts, kind="stable")
    boundaries = np.arange(num_partitions + 1)
    build_bounds = np.searchsorted(build_parts[build_order], boundaries)
    probe_bounds = np.searchsorted(probe_parts[probe_order], boundaries)

    def match_partition(partition: int) -> tuple[np.ndarray, np.ndarray]:
        if ctx.query is not None:
            ctx.query.check()
        if ctx.faults is not None:
            ctx.faults.fire(
                "operator.morsel",
                op="HashJoin",
                rows=f"partition:{partition}",
                worker=threading.current_thread().name,
            )
        build_sel = build_order[
            build_bounds[partition] : build_bounds[partition + 1]
        ]
        probe_sel = probe_order[
            probe_bounds[partition] : probe_bounds[partition + 1]
        ]
        if len(build_sel) == 0 or len(probe_sel) == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        build_idx, probe_idx = _match_numeric_keys(
            build[build_sel], probe[probe_sel]
        )
        return build_sel[build_idx], probe_sel[probe_idx]

    def make_thunk(partition: int) -> Callable[[], tuple[np.ndarray, np.ndarray]]:
        return lambda: match_partition(partition)

    pairs = pool.run([make_thunk(p) for p in range(num_partitions)])
    if ctx.metrics is not None:
        ctx.metrics.counter(
            "parallel_join_partitions_total",
            "Hash-join partitions matched on the morsel pool",
        ).inc(num_partitions)
    return (
        np.concatenate([left for left, _ in pairs]),
        np.concatenate([right for _, right in pairs]),
    )


def _combine_key_pair(
    left_keys: list[np.ndarray], right_keys: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Combine each side's composite key into one comparable array.

    Numeric composites are factorized *jointly* over both sides, then
    mixed into one int64 code (collision-free: each key's codes are
    dense in ``[0, cardinality)`` and earlier keys are shifted by the
    full cardinality of later ones).  The shared dictionary is the whole
    point — factorizing each side on its own assigns unrelated codes to
    equal values (each side's second-smallest x gets code 1 no matter
    what x is), matching rows whose keys differ.
    """
    if len(left_keys) == 1:
        return left_keys[0], right_keys[0]
    if all(k.dtype != object for k in left_keys + right_keys):
        n_left = len(left_keys[0])
        left_out = np.zeros(n_left, dtype=np.int64)
        right_out = np.zeros(len(right_keys[0]), dtype=np.int64)
        for left_key, right_key in zip(left_keys, right_keys):
            both = np.concatenate([left_key, right_key])
            _, codes = np.unique(both, return_inverse=True)
            cardinality = int(codes.max()) + 1 if len(codes) else 1
            left_out = left_out * cardinality + codes[:n_left]
            right_out = right_out * cardinality + codes[n_left:]
        return left_out, right_out
    return _key_tuples(left_keys), _key_tuples(right_keys)


def _key_tuples(keys: list[np.ndarray]) -> np.ndarray:
    """Row-wise tuples for object composites (value-based equality)."""
    out = np.empty(len(keys[0]), dtype=object)
    for i in range(len(keys[0])):
        out[i] = tuple(k[i] for k in keys)
    return out


def _match_numeric_keys(
    build: np.ndarray, probe: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized sort-merge matching of numeric keys.

    ``build`` is the left side, ``probe`` the right; the result is
    ``(left_idx, right_idx)`` covering every equal pair.
    """
    if len(build) == 0 or len(probe) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    order = np.argsort(build, kind="stable")
    sorted_keys = build[order]
    lo = np.searchsorted(sorted_keys, probe, side="left")
    hi = np.searchsorted(sorted_keys, probe, side="right")
    counts = hi - lo
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    probe_idx = np.repeat(np.arange(len(probe), dtype=np.int64), counts)
    starts = np.repeat(lo, counts)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    build_idx = order[starts + offsets]
    return build_idx, probe_idx


def _match_object_keys(
    build: np.ndarray, probe: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    buckets: dict[Any, list[int]] = {}
    for position, key in enumerate(build):
        buckets.setdefault(key, []).append(position)
    build_out: list[int] = []
    probe_out: list[int] = []
    for position, key in enumerate(probe):
        rows = buckets.get(key)
        if rows is None:
            continue
        build_out.extend(rows)
        probe_out.extend([position] * len(rows))
    return (
        np.asarray(build_out, dtype=np.int64),
        np.asarray(probe_out, dtype=np.int64),
    )


def _symmetric_hash_join(
    left_keys: list[np.ndarray],
    right_keys: list[np.ndarray],
    ctx: ExecutionContext,
    chunk_size: int = 4096,
    left_null: Optional[np.ndarray] = None,
    right_null: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric hash join with bucket-based LRU accounting (hint rule 3).

    Both inputs are consumed in alternating chunks; each chunk probes the
    other side's hash table built so far, then inserts into its own.  A
    byte budget models the paper's in-memory hash tables: when exceeded,
    the least-recently-used bucket is marked evicted, and later probes of
    an evicted bucket count as cache misses that reload the whole bucket
    (the paper's bucket-based LRU policy).  Eviction is an accounting
    device — results stay exact — and the counters surface through
    ``ctx.last_symmetric_stats``.
    """
    left, right = _combine_key_pair(left_keys, right_keys)

    left_table: dict[Any, list[int]] = {}
    right_table: dict[Any, list[int]] = {}
    lru: dict[Any, int] = {}
    evicted: set[Any] = set()
    #: Byte weight of each bucket (24 per entry); eviction refunds the
    #: whole bucket, not a flat per-entry constant, so ``used`` tracks
    #: resident bytes exactly and one overflow evicts one bucket.
    weights: dict[Any, int] = {}
    clock = 0
    budget = ctx.symmetric_join_memory
    used = 0
    misses = 0
    reloads = 0
    evictions = 0

    out_left: list[int] = []
    out_right: list[int] = []

    def touch(key: Any) -> None:
        nonlocal clock
        clock += 1
        lru[key] = clock

    def reserve(extra_bytes: int) -> None:
        nonlocal used, evictions
        used += extra_bytes
        while used > budget and lru:
            victim = min(lru, key=lru.get)  # LRU bucket
            del lru[victim]
            evicted.add(victim)
            used -= weights.get(victim, 0)
            evictions += 1

    def reload(key: Any) -> None:
        """Bring an evicted bucket back: its full weight is resident again."""
        evicted.discard(key)
        touch(key)
        reserve(weights.get(key, 0))

    def probe_and_insert(
        keys: np.ndarray,
        start: int,
        own: dict[Any, list[int]],
        other: dict[Any, list[int]],
        own_side_left: bool,
        null: Optional[np.ndarray],
    ) -> None:
        nonlocal misses, reloads
        for offset, key in enumerate(keys):
            position = start + offset
            if null is not None and null[position]:
                # NULL keys never match and never enter a hash table.
                continue
            key = key if not isinstance(key, np.generic) else key.item()
            matches = other.get(key)
            if matches:
                if key in evicted:
                    misses += 1
                    reloads += len(matches)
                    reload(key)
                if own_side_left:
                    out_left.extend([position] * len(matches))
                    out_right.extend(matches)
                else:
                    out_left.extend(matches)
                    out_right.extend([position] * len(matches))
            own.setdefault(key, []).append(position)
            if key in evicted:
                # Writing to an evicted bucket reloads it as well.
                reload(key)
            else:
                touch(key)
            weights[key] = weights.get(key, 0) + 24
            reserve(24)

    left_pos = right_pos = 0
    while left_pos < len(left) or right_pos < len(right):
        # Cooperative checkpoint per alternating chunk: a deadline or
        # cancel lands within one chunk_size slice of either input.
        if ctx.query is not None:
            ctx.query.check()
        if left_pos < len(left):
            chunk = left[left_pos : left_pos + chunk_size]
            probe_and_insert(
                chunk, left_pos, left_table, right_table, True, left_null
            )
            left_pos += len(chunk)
        if right_pos < len(right):
            chunk = right[right_pos : right_pos + chunk_size]
            probe_and_insert(
                chunk, right_pos, right_table, left_table, False, right_null
            )
            right_pos += len(chunk)

    ctx.last_symmetric_stats = {
        "cache_misses": misses,
        "bucket_reloads": reloads,
        "buckets": len(left_table) + len(right_table),
        "evictions": evictions,
        "used_bytes": used,
    }
    return (
        np.asarray(out_left, dtype=np.int64),
        np.asarray(out_right, dtype=np.int64),
    )


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def _execute_aggregate(plan: Aggregate, ctx: ExecutionContext) -> Frame:
    assert plan.child is not None
    frame = execute_plan(plan.child, ctx)
    evaluator = ctx.evaluator(frame)

    if plan.group_by:
        key_vectors = [evaluator.evaluate(e) for e in plan.group_by]
        key_arrays = [
            v.materialize(frame.num_rows) for v in key_vectors
        ]
        key_nulls = [
            _explicit_null(v, frame.num_rows) for v in key_vectors
        ]
        group_ids, group_rows = _factorize(key_arrays, key_nulls)
        num_groups = len(group_rows)
    else:
        group_ids = np.zeros(frame.num_rows, dtype=np.int64)
        group_rows = np.zeros(min(1, max(frame.num_rows, 1)), dtype=np.int64)
        num_groups = 1
        key_vectors = []
        key_arrays = []
        key_nulls = []

    out_columns: list[FrameColumn] = []
    for position, (expression, vector) in enumerate(
        zip(plan.group_by, key_vectors)
    ):
        name, qualifier = _group_key_name(expression, position)
        null = key_nulls[position]
        valid: Optional[np.ndarray] = None
        if null is not None and frame.num_rows:
            group_valid = ~null[group_rows]
            valid = None if group_valid.all() else group_valid
        out_columns.append(
            FrameColumn(
                qualifier,
                name,
                vector.dtype,
                key_arrays[position][group_rows]
                if frame.num_rows
                else key_arrays[position][:0],
                valid,
            )
        )

    for spec in plan.aggregates:
        out_columns.append(
            _compute_aggregate(
                spec, frame, ctx, evaluator, group_ids, num_groups
            )
        )
    return Frame(out_columns)


#: Aggregates reduced through per-group partial states that merge
#: across row ranges.  ``COUNT(DISTINCT)``, ``groupArray`` and ``any``
#: need a group's whole value set or its first row and stay holistic.
_DECOMPOSABLE_AGGREGATES = frozenset(
    {
        "count", "countif", "sum", "sumif", "avg", "min", "max",
        "stddevsamp", "stddevpop", "varsamp", "varpop",
    }
)


def _compute_aggregate(
    spec: AggregateSpec,
    frame: Frame,
    ctx: ExecutionContext,
    evaluator: Evaluator,
    group_ids: np.ndarray,
    num_groups: int,
) -> FrameColumn:
    """One aggregate's output column.

    A decomposable aggregate is one :func:`_aggregate_partial` per row
    range plus :func:`_finalize_aggregate`.  When the morsel pool would
    not split the frame (one worker, at most one morsel of rows, or a
    UDF or subquery argument), a single partial covers every row with
    the statement's evaluator.  Otherwise each morsel reduces its own
    slice and the partials merge in morsel order.  Integer and count
    results are exact at any worker count; float results differ from
    the single-partial ones by rounding only, because morsel sums are
    added in a different grouping.
    """
    call = spec.call
    name = call.name.lower()
    if not call.args:
        raise PlanError(f"aggregate {call.name}() requires an argument")
    if name in ("grouparray", "any") or (
        name == "count" and call.distinct and not isinstance(call.args[0], Star)
    ):
        return _compute_holistic(
            spec, frame.num_rows, evaluator, group_ids, num_groups
        )
    if name not in _DECOMPOSABLE_AGGREGATES:
        raise PlanError(f"unsupported aggregate {call.name!r}")

    pool = ctx.parallel
    if (
        pool is None
        or not pool.should_parallelize(frame.num_rows)
        or not all(_parallel_safe_expr(arg, ctx) for arg in call.args)
    ):
        state = _aggregate_partial(call, name, evaluator, group_ids, num_groups)
    else:
        state = _aggregate_morsels(call, name, frame, ctx, group_ids, num_groups)
    return _finalize_aggregate(spec.slot, name, state)


def _aggregate_morsels(
    call: FunctionCall,
    name: str,
    frame: Frame,
    ctx: ExecutionContext,
    group_ids: np.ndarray,
    num_groups: int,
) -> tuple[Optional[DataType], dict[str, np.ndarray]]:
    """One :func:`_aggregate_partial` per morsel on the pool, merged in
    morsel order, so float sums add in one fixed sequence."""
    pool = ctx.parallel
    assert pool is not None
    n = frame.num_rows
    if ctx.memory is not None:
        num_morsels = (n + pool.morsel_rows - 1) // pool.morsel_rows
        # Up to ~4 arrays of num_groups 8-byte entries per morsel.
        ctx.memory.admit(
            num_morsels * num_groups * 32, "parallel aggregation partials"
        )
    partials = pool.run_rows(
        n,
        lambda start, stop: _aggregate_partial(
            call,
            name,
            ctx.evaluator(frame.slice(start, stop)),
            group_ids[start:stop],
            num_groups,
        ),
        query=ctx.query,
        faults=ctx.faults,
        op="Aggregate",
    )
    reducers = {"minmax": np.minimum if name == "min" else np.maximum}
    dtype, first = partials[0]
    return dtype, {
        key: functools.reduce(
            reducers.get(key, np.add), [arrays[key] for _, arrays in partials]
        )
        for key in first
    }


def _aggregate_partial(
    call: FunctionCall,
    name: str,
    evaluator: Evaluator,
    gids: np.ndarray,
    num_groups: int,
) -> tuple[Optional[DataType], dict[str, np.ndarray]]:
    """Reduce the rows ``evaluator`` sees, whose group ids are ``gids``,
    to one decomposable aggregate's partial state: the argument's dtype
    and per-group arrays (``counts``, or ``present`` plus ``int_sums`` /
    ``sums`` / ``squares`` / ``minmax``)."""
    if name == "count" and isinstance(call.args[0], Star):
        # COUNT(*) counts rows regardless of NULLs.
        return None, {"counts": np.bincount(gids, minlength=num_groups)}
    n = len(gids)
    vector = evaluator.evaluate(call.args[0])
    data = vector.materialize(n)
    null = vector.null_mask(n)
    if name in ("count", "countif"):
        rows: Optional[np.ndarray] = None if null is None else ~null
        if vector.dtype is DataType.BOOL or name == "countif":
            # countIf semantics: count rows where the condition holds.  The
            # paper's Type-2 query counts nUDF_detect(...)=TRUE this way.
            # An UNKNOWN (NULL) condition does not hold.
            mask = data.astype(bool, copy=False)
            rows = mask if rows is None else mask & rows
        counted = gids if rows is None else gids[rows]
        return None, {"counts": np.bincount(counted, minlength=num_groups)}

    # Every other aggregate skips NULL rows; sumIf also skips the rows
    # whose condition does not hold.
    present = None if null is None else ~null
    if name == "sumif":
        condition = evaluator.evaluate_mask(call.args[1])
        present = condition if present is None else condition & present
    if present is not None:
        gids, data = gids[present], data[present]
    state = {"present": np.bincount(gids, minlength=num_groups)}
    if name in ("sum", "sumif") and vector.dtype in (
        DataType.INT64,
        DataType.BOOL,
    ):
        # Integer accumulation path: routing int64 sums through float64
        # bincount weights silently loses precision above 2**53.
        sums = np.zeros(num_groups, dtype=np.int64)
        np.add.at(sums, gids, data.astype(np.int64, copy=False))
        state["int_sums"] = sums
        return vector.dtype, state
    # Read-only below: no copy when the argument already is float64.
    numeric = data.astype(np.float64, copy=False)
    if name in ("min", "max"):
        state["minmax"] = _reduce_minmax(numeric, gids, num_groups, name == "min")
        return vector.dtype, state
    # np.bincount returns int64 for empty weighted input; force float.
    state["sums"] = np.bincount(
        gids, weights=numeric, minlength=num_groups
    ).astype(np.float64, copy=False)
    if name in ("stddevsamp", "stddevpop", "varsamp", "varpop"):
        state["squares"] = np.bincount(
            gids, weights=numeric * numeric, minlength=num_groups
        ).astype(np.float64, copy=False)
    return vector.dtype, state


def _finalize_aggregate(
    slot: str,
    name: str,
    state: tuple[Optional[DataType], dict[str, np.ndarray]],
) -> FrameColumn:
    """The output column of one decomposable aggregate's (merged) state.

    The state's arrays are owned by this call and are updated in place.
    """
    dtype, arrays = state
    if "counts" in arrays:
        return FrameColumn(
            None, slot, DataType.INT64, arrays["counts"].astype(np.int64)
        )
    if name == "sumif":
        # ClickHouse semantics: a group without qualifying rows sums to
        # 0, never NULL.
        if "int_sums" in arrays:
            return FrameColumn(None, slot, DataType.INT64, arrays["int_sums"])
        return FrameColumn(None, slot, DataType.FLOAT64, arrays["sums"])
    # A group with no non-NULL input produces SQL NULL (not 0 / inf),
    # matching the standard's "empty group" rule for SUM/AVG/MIN/MAX/
    # variance.
    valid = _group_validity(arrays["present"])
    if "int_sums" in arrays:
        return FrameColumn(None, slot, DataType.INT64, arrays["int_sums"], valid)
    counts = arrays["present"].astype(np.float64)
    safe_counts = np.maximum(counts, 1.0)
    empty = counts == 0.0
    if name in ("min", "max"):
        assert dtype is not None
        target = dtype if dtype.is_numeric else DataType.FLOAT64
        reduced = arrays["minmax"]
        reduced[empty] = 0.0  # sentinel; masked by ``valid``
        out = reduced.astype(target.numpy_dtype)
        if target is DataType.FLOAT64:
            out[empty] = np.nan
        return FrameColumn(None, slot, target, out, valid)
    sums = arrays["sums"]
    if name == "sum":
        sums[empty] = np.nan
        return FrameColumn(None, slot, DataType.FLOAT64, sums, valid)
    means = sums / safe_counts
    if name == "avg":
        means[empty] = np.nan
        return FrameColumn(None, slot, DataType.FLOAT64, means, valid)
    variances = np.maximum(arrays["squares"] / safe_counts - means * means, 0.0)
    if name in ("varsamp", "stddevsamp"):
        variances = variances * (counts / np.maximum(counts - 1.0, 1.0))
    if name.startswith("stddev"):
        variances = np.sqrt(variances)
    variances[empty] = np.nan
    return FrameColumn(None, slot, DataType.FLOAT64, variances, valid)


def _compute_holistic(
    spec: AggregateSpec,
    n: int,
    evaluator: Evaluator,
    group_ids: np.ndarray,
    num_groups: int,
) -> FrameColumn:
    """``COUNT(DISTINCT)``, ``groupArray`` and ``any`` over the whole
    frame.  All three skip NULL arguments."""
    call = spec.call
    name = call.name.lower()
    vector = evaluator.evaluate(call.args[0])
    data = vector.materialize(n)
    null = vector.null_mask(n)
    gids = group_ids
    if null is not None:
        gids, data = gids[~null], data[~null]

    if name == "count":
        # COUNT(DISTINCT col) counts distinct non-NULL values.
        counts = _distinct_counts(data, gids, num_groups)
        return FrameColumn(None, spec.slot, DataType.INT64, counts)

    if name == "grouparray":
        # One stable sort by group keeps each group's values in row order.
        ordered = data[np.argsort(gids, kind="stable")]
        sizes = np.bincount(gids, minlength=num_groups)
        stops = np.cumsum(sizes)
        out = np.empty(num_groups, dtype=object)
        for group in range(num_groups):
            out[group] = ordered[stops[group] - sizes[group] : stops[group]].tolist()
        return FrameColumn(None, spec.slot, DataType.BLOB, out)

    # any: the first non-NULL value per group; NULL when the group has none.
    groups, first = np.unique(gids, return_index=True)
    if len(groups) == num_groups and n:
        return FrameColumn(None, spec.slot, vector.dtype, data[first])
    if data.dtype == object:
        out = np.empty(num_groups, dtype=object)
        out[:] = None
    else:
        out = np.zeros(num_groups, dtype=data.dtype)
        if data.dtype.kind == "f":
            out[:] = np.nan
    out[groups] = data[first]
    seen = np.zeros(num_groups, dtype=bool)
    seen[groups] = True
    return FrameColumn(None, spec.slot, vector.dtype, out, seen)


def _group_key_name(
    expression: Expression, position: int
) -> tuple[str, Optional[str]]:
    if isinstance(expression, ColumnRef):
        return expression.name, expression.table
    return f"group_{position}", None


def _explicit_null(vector: Vector, n: int) -> Optional[np.ndarray]:
    """Null mask only where the data can't carry it in-band.

    Object ``None`` and float NaN survive inside the arrays themselves
    (``_factorize`` and the output encodings honor them), so scanning for
    them here would be pure overhead on the hot GROUP BY path.
    """
    if vector.is_scalar:
        return np.ones(n, dtype=bool) if vector.data is None else None
    if vector.valid is None:
        return None
    return ~vector.valid


def _key_codes(
    array: np.ndarray, null: Optional[np.ndarray]
) -> tuple[np.ndarray, int]:
    """Dense int64 codes for one key column, with NULL as its own code.

    Every NULL row maps to code ``cardinality - 1``, so GROUP BY and
    DISTINCT see all NULLs as one group — and a masked fixed-width
    sentinel (0 under a False mask bit) never collides with a real 0,
    nor NaN with NaN-by-value quirks of ``np.unique``.
    """
    n = len(array)
    if array.dtype == object:
        mapping: dict[Any, int] = {}
        codes = np.empty(n, dtype=np.int64)
        null_rows: list[int] = []
        for row, value in enumerate(array):
            if value is None or (null is not None and null[row]):
                null_rows.append(row)
                continue
            code = mapping.get(value)
            if code is None:
                code = len(mapping)
                mapping[value] = code
            codes[row] = code
        codes[null_rows] = len(mapping)
        return codes, len(mapping) + 1
    if null is None:
        uniques, inverse = np.unique(array, return_inverse=True)
        return inverse.astype(np.int64), max(len(uniques), 1)
    present = ~null
    uniques, inverse = np.unique(array[present], return_inverse=True)
    codes = np.full(n, len(uniques), dtype=np.int64)
    codes[present] = inverse
    return codes, len(uniques) + 1


def _factorize(
    key_arrays: list[np.ndarray],
    null_masks: Optional[list[Optional[np.ndarray]]] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Map composite keys to dense group ids (NULL forms one group).

    Returns ``(group_ids, representative_rows)`` where
    ``representative_rows[g]`` is the first input row of group ``g``.
    Group order follows first appearance.

    A ``None`` mask entry means "no *explicit* mask": in-band NULLs are
    still honored (``None`` in object arrays by the dict paths, NaN in
    float arrays by an isnan scan here) — callers only need to pass a
    mask when a fixed-width sentinel encoding is in play.
    """
    n = len(key_arrays[0]) if key_arrays else 0
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    resolved: list[tuple[np.ndarray, Optional[np.ndarray]]] = []
    for position, array in enumerate(key_arrays):
        null = null_masks[position] if null_masks is not None else None
        if null is None and array.dtype.kind == "f":
            null = null_mask_of(array, None)
        resolved.append((array, null))
    if len(resolved) == 1:
        array, null = resolved[0]
        if array.dtype == object:
            return _factorize_object(array, null)
        if null is not None:
            array, _ = _key_codes(array, null)
        return _first_appearance_ids(array)
    combined: Optional[np.ndarray] = None
    for array, null in resolved:
        codes, cardinality = _key_codes(array, null)
        if combined is None:
            combined = codes
        else:
            combined = combined * cardinality + codes
    assert combined is not None
    return _first_appearance_ids(combined)


def _factorize_object(
    array: np.ndarray, null: Optional[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Single-key object factorize: one dict pass, NULLs keyed by None."""
    ids = np.empty(len(array), dtype=np.int64)
    mapping: dict[Any, int] = {}
    representatives: list[int] = []
    for row, key in enumerate(array):
        if null is not None and null[row]:
            key = None
        group = mapping.get(key)
        if group is None:
            group = len(mapping)
            mapping[key] = group
            representatives.append(row)
        ids[row] = group
    return ids, np.asarray(representatives, dtype=np.int64)


def _first_appearance_ids(
    combined: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    uniques, first_indices, inverse = np.unique(
        combined, return_index=True, return_inverse=True
    )
    # np.unique sorts by value; remap to first-appearance order for
    # deterministic, insertion-ordered groups.
    appearance = np.argsort(first_indices, kind="stable")
    rank_of_sorted = np.empty_like(appearance)
    rank_of_sorted[appearance] = np.arange(len(uniques))
    ids = rank_of_sorted[inverse]
    representatives = first_indices[appearance]
    return ids.astype(np.int64), representatives.astype(np.int64)


def _group_validity(present_counts: np.ndarray) -> Optional[np.ndarray]:
    """Validity mask for per-group outputs: empty/all-NULL groups are NULL."""
    valid = present_counts > 0
    return None if valid.all() else valid


def _reduce_minmax(
    numeric: np.ndarray, group_ids: np.ndarray, num_groups: int, is_min: bool
) -> np.ndarray:
    out = np.full(num_groups, math.inf if is_min else -math.inf)
    if len(numeric) == 0:
        return out
    order = np.argsort(group_ids, kind="stable")
    sorted_groups = group_ids[order]
    sorted_values = numeric[order]
    boundaries = np.flatnonzero(sorted_groups[1:] != sorted_groups[:-1]) + 1
    starts = np.concatenate([[0], boundaries])
    reducer = np.minimum if is_min else np.maximum
    reduced = reducer.reduceat(sorted_values, starts)
    present = sorted_groups[starts]
    out[present] = reduced
    return out


def _distinct_counts(
    data: np.ndarray, group_ids: np.ndarray, num_groups: int
) -> np.ndarray:
    """Distinct values per group via the ``_factorize`` machinery.

    Factorizing ``(group, value)`` pairs yields one representative row
    per distinct pair; counting representatives per group replaces the
    old interpreter-bound per-row set loop (numeric inputs now run
    entirely in numpy kernels).
    """
    if len(data) == 0:
        return np.zeros(num_groups, dtype=np.int64)
    _, representatives = _factorize([group_ids, data])
    return np.bincount(
        group_ids[representatives], minlength=num_groups
    ).astype(np.int64)


# ----------------------------------------------------------------------
# Sort / Limit / Distinct
# ----------------------------------------------------------------------
def _execute_sort(plan: Sort, ctx: ExecutionContext) -> Frame:
    assert plan.child is not None
    frame = execute_plan(plan.child, ctx)
    slots = _aggregate_slots_below(plan.child)
    evaluator = ctx.evaluator(frame, slots)
    code_arrays = []
    for order in plan.order_by:
        vector = evaluator.evaluate(order.expression)
        data = vector.materialize(frame.num_rows)
        code_arrays.append(
            _sort_codes(
                data,
                vector.null_mask(frame.num_rows),
                ascending=order.ascending,
            )
        )
    if code_arrays:
        indices = np.lexsort(list(reversed(code_arrays)))
    else:
        indices = np.arange(frame.num_rows)
    return frame.take(indices)


def _object_sort_key(value: Any) -> tuple[int, int, Any]:
    """Total order over heterogeneous object cells.

    ``(is_null, type_rank, value)``: SQL NULLs sort after every value
    (ASC → last; the DESC code negation puts them first), and values of
    mutually incomparable types are segregated by a type rank so a
    string column containing ``None`` or stray numbers never raises
    ``TypeError`` mid-sort.
    """
    if value is None:
        return (1, 0, 0)
    if isinstance(value, (bool, np.bool_, int, float, np.integer, np.floating)):
        # int/float cross-comparisons are exact in Python, so no cast.
        return (0, 0, value)
    if isinstance(value, str):
        return (0, 1, value)
    if isinstance(value, bytes):
        return (0, 2, value)
    return (0, 3, repr(value))


def _sort_codes(
    data: np.ndarray,
    null: Optional[np.ndarray] = None,
    *,
    ascending: bool = True,
) -> np.ndarray:
    """Direction-aware rank codes for one sort key (handles strings).

    Present values map to dense ranks in ``[0, K)`` — ascending keeps
    them, descending flips to ``K - 1 - rank`` — and NULL rows then code
    strictly above every rank ascending and strictly below descending,
    giving the engine's per-key contract (NULLS last ASC, first DESC)
    under ``np.lexsort`` for *mixed* ASC/DESC multi-key sorts.

    The previous scheme negated the whole code array for DESC keys,
    which flipped NULL placement only when NULLs happened to be the
    extreme code and, worse, used raw int64 values as codes — so a
    column holding ``INT64_MIN``/``INT64_MAX`` overflowed ``+ 1`` or
    wrapped under negation.  Dense ranks cannot overflow.

    ``null`` is expected to cover in-band NULLs too (``Vector.null_mask``
    does); with ``null=None`` object ``None`` cells still sort last-ASC
    via :func:`_object_sort_key` and float NaN via ``np.unique``.
    """
    n = len(data)
    if null is not None and not null.any():
        null = None
    present = np.flatnonzero(~null) if null is not None else None
    values = data[present] if present is not None else data
    if data.dtype == object:
        uniques = sorted(set(values.tolist()), key=_object_sort_key)
        rank = {value: code for code, value in enumerate(uniques)}
        ranks = np.asarray([rank[v] for v in values.tolist()], dtype=np.int64)
        top = len(uniques)
    elif data.dtype == np.bool_:
        ranks = values.astype(np.int64)
        top = 2
    else:
        # np.unique places NaN above every number, so in-band NaN NULLs
        # (null=None) still land last ascending.
        uniques, inverse = np.unique(values, return_inverse=True)
        ranks = inverse.astype(np.int64)
        top = len(uniques)
    if not ascending:
        ranks = (top - 1) - ranks
    if present is None:
        return ranks
    codes = np.empty(n, dtype=np.int64)
    codes[present] = ranks
    codes[null] = top if ascending else -1
    return codes


def _execute_limit(plan: Limit, ctx: ExecutionContext) -> Frame:
    assert plan.child is not None
    frame = execute_plan(plan.child, ctx)
    return frame.slice(plan.offset, plan.offset + plan.count)


def _execute_distinct(plan: Distinct, ctx: ExecutionContext) -> Frame:
    assert plan.child is not None
    frame = execute_plan(plan.child, ctx)
    if frame.num_rows == 0 or not frame.columns:
        return frame
    arrays = [c.data for c in frame.columns]
    # Explicit masks only — in-band None/NaN are honored by
    # ``_factorize`` itself, so no scan is needed for mask-free columns.
    nulls = [
        None if c.valid is None else ~c.valid for c in frame.columns
    ]
    _, representatives = _factorize(arrays, nulls)
    return frame.take(np.sort(representatives))


#: Each plan node type's executor, and the span it runs in: Fig. 10's
#: clause categories, with every scan kind a scan and both joins a join.
_OPERATORS: dict[type, tuple[str, Callable[[Any, ExecutionContext], Frame]]] = {
    Scan: ("operator:scan", _execute_scan),
    EmptyScan: ("operator:scan", _execute_empty_scan),
    SubqueryScan: ("operator:scan", _execute_subquery_scan),
    Filter: ("operator:filter", _execute_filter),
    Project: ("operator:project", _execute_project),
    CrossJoin: ("operator:join", _execute_cross_join),
    HashJoin: ("operator:join", _execute_hash_join),
    Aggregate: ("operator:groupby", _execute_aggregate),
    Sort: ("operator:sort", _execute_sort),
    Limit: ("operator:limit", _execute_limit),
    Distinct: ("operator:distinct", _execute_distinct),
}
