"""Cost-based optimization: pushdown, join ordering, and nUDF placement.

Two layers of optimization mirror the paper's configurations:

* **Baseline optimization (always on).**  Any credible DBMS pushes plain
  predicates to their source relations, extracts equi-join conditions from
  WHERE, and orders hash joins greedily by estimated output size.  This is
  the behaviour of the "DL2SQL" (no -OP) configuration: real optimization,
  but driven by the *default* cost model of :mod:`repro.engine.cost`.

* **Hint rules (Section IV-B, the -OP configuration).**  When enabled:

  1. a predicate containing a neural UDF is either evaluated eagerly
     (pushed to the scan) or lazily (after all joins and cheap filters);
     the optimizer costs both full plans and keeps the cheaper — using
     nUDF selectivities learned from class histograms (Eqs. 9–10) and the
     per-row cost attached to the UDF registration;
  2. nUDFs in the select clause are evaluated last — satisfied by
     construction, because projections are never pushed below joins;
  3. an equi-join key that contains a neural UDF selects the symmetric
     hash join algorithm with bucket-based LRU buffering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.engine.cost import CostModel, DefaultCostModel
from repro.engine.logical import (
    Aggregate,
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
    walk_plan,
)
from repro.engine.statistics import StatisticsProvider
from repro.engine.udf import UdfRegistry
from repro.obs.log import get_logger
from repro.sql.ast_nodes import (
    BinaryOp,
    ColumnRef,
    Expression,
    FunctionCall,
    Literal,
    combine_conjuncts,
    referenced_columns,
    referenced_functions,
    split_conjuncts,
)
from repro.storage.catalog import Catalog

logger = get_logger("engine.optimizer")


@dataclass
class OptimizerConfig:
    """Knobs for one optimization run."""

    cost_model: CostModel = field(default_factory=DefaultCostModel)
    #: Enable the paper's hint rules (the -OP configuration).
    use_hints: bool = False
    #: Fallback selectivity for UDF predicates when no histogram exists.
    default_udf_selectivity: float = 1.0 / 3.0


class Optimizer:
    """Rewrites a planner-produced logical plan into an executable one."""

    def __init__(
        self,
        catalog: Catalog,
        statistics: StatisticsProvider,
        udfs: UdfRegistry,
        config: Optional[OptimizerConfig] = None,
    ) -> None:
        self._catalog = catalog
        self._statistics = statistics
        self._udfs = udfs
        self.config = config or OptimizerConfig()

    # ------------------------------------------------------------------
    def optimize(self, plan: LogicalPlan) -> LogicalPlan:
        """Optimize ``plan`` in place-free fashion (returns a new tree)."""
        return self._rewrite(plan)

    def _rewrite(self, plan: LogicalPlan) -> LogicalPlan:
        if isinstance(plan, Project):
            return Project(
                child=self._rewrite(plan.child),
                items=plan.items,
                aggregate_slots=plan.aggregate_slots,
            )
        if isinstance(plan, Sort):
            return Sort(child=self._rewrite(plan.child), order_by=plan.order_by)
        if isinstance(plan, Limit):
            return Limit(
                child=self._rewrite(plan.child),
                count=plan.count,
                offset=plan.offset,
            )
        if isinstance(plan, Distinct):
            return Distinct(child=self._rewrite(plan.child))
        if isinstance(plan, Aggregate):
            return Aggregate(
                child=self._rewrite(plan.child),
                group_by=plan.group_by,
                aggregates=plan.aggregates,
            )
        if isinstance(plan, Filter) and _is_having_filter(plan):
            return Filter(child=self._rewrite(plan.child), predicate=plan.predicate)
        # Relational core: filters over joins over scans.
        return self._optimize_core(plan)

    # ------------------------------------------------------------------
    # Core optimization
    # ------------------------------------------------------------------
    def _optimize_core(self, plan: LogicalPlan) -> LogicalPlan:
        relations: list[_Relation] = []
        conjuncts: list[Expression] = []
        self._collect(plan, relations, conjuncts)

        if not relations:
            return plan
        if len(relations) == 1 and not conjuncts:
            return relations[0].plan

        plain: list[Expression] = []
        udf_predicates: list[Expression] = []
        join_conditions: list[_JoinCondition] = []

        for conjunct in conjuncts:
            if self._contains_udf(conjunct):
                udf_predicates.append(conjunct)
                continue
            condition = self._as_join_condition(conjunct, relations)
            if condition is not None:
                join_conditions.append(condition)
            else:
                plain.append(conjunct)

        # UDF equi-join conditions (hint rule 3) are join conditions too.
        symmetric_keys: set[int] = set()
        remaining_udf_predicates = []
        for predicate in udf_predicates:
            condition = self._as_join_condition(predicate, relations)
            if condition is not None and self.config.use_hints:
                condition.symmetric = True
                logger.debug(
                    "hint rule 3: symmetric hash join for UDF join key %s",
                    predicate.to_sql(),
                )
                join_conditions.append(condition)
            else:
                remaining_udf_predicates.append(predicate)
        udf_predicates = remaining_udf_predicates

        # Push plain single-relation predicates to their relation.
        cross_relation_filters: list[Expression] = []
        for conjunct in plain:
            target = self._single_relation_for(conjunct, relations)
            if target is not None:
                target.pushed.append(conjunct)
            else:
                cross_relation_filters.append(conjunct)

        # Decide eager/lazy per UDF predicate.
        eager_udf: dict[int, _Relation] = {}
        lazy_udf: list[Expression] = []
        if self.config.use_hints:
            eager_udf, lazy_udf = self._place_udf_predicates(
                udf_predicates, relations, join_conditions, cross_relation_filters
            )
        else:
            # Without hints the DBMS evaluates nUDF predicates where the
            # planner left them: pushed to the scan when single-relation
            # (eager, "full cost"), else after the joins.
            for predicate in udf_predicates:
                target = self._single_relation_for(predicate, relations)
                if target is not None:
                    eager_udf[id(predicate)] = target
                else:
                    lazy_udf.append(predicate)

        for predicate in udf_predicates:
            target = eager_udf.get(id(predicate))
            if target is not None:
                target.pushed.append(predicate)

        plan = self._build_join_tree(relations, join_conditions)
        top_filters = cross_relation_filters + lazy_udf
        combined = combine_conjuncts(top_filters)
        if combined is not None:
            plan = Filter(child=plan, predicate=combined)
        return plan

    def _collect(
        self,
        plan: LogicalPlan,
        relations: list["_Relation"],
        conjuncts: list[Expression],
    ) -> None:
        if isinstance(plan, Filter):
            conjuncts.extend(split_conjuncts(plan.predicate))
            assert plan.child is not None
            self._collect(plan.child, relations, conjuncts)
            return
        if isinstance(plan, CrossJoin):
            assert plan.left is not None and plan.right is not None
            self._collect(plan.left, relations, conjuncts)
            self._collect(plan.right, relations, conjuncts)
            return
        if isinstance(plan, HashJoin):
            # Already-shaped joins (from a previous optimization) are kept
            # as opaque relations.
            relations.append(_Relation(plan, self._catalog))
            return
        if isinstance(plan, SubqueryScan):
            assert plan.child is not None
            optimized = SubqueryScan(
                child=self._rewrite(plan.child), alias=plan.alias
            )
            relations.append(_Relation(optimized, self._catalog))
            return
        if isinstance(plan, (Scan, EmptyScan)):
            relations.append(_Relation(plan, self._catalog))
            return
        relations.append(_Relation(self._rewrite(plan), self._catalog))

    # ------------------------------------------------------------------
    # UDF handling
    # ------------------------------------------------------------------
    def _contains_udf(self, expression: Expression) -> bool:
        return any(
            call.name in self._udfs
            for call in referenced_functions(expression)
        )

    def _place_udf_predicates(
        self,
        predicates: list[Expression],
        relations: list["_Relation"],
        join_conditions: list["_JoinCondition"],
        top_filters: list[Expression],
    ) -> tuple[dict[int, "_Relation"], list[Expression]]:
        """Hint rule 1: cost eager vs lazy placement for each nUDF predicate."""
        eager: dict[int, _Relation] = {}
        lazy: list[Expression] = []
        for predicate in predicates:
            target = self._single_relation_for(predicate, relations)
            if target is None:
                lazy.append(predicate)
                continue
            eager_cost = self._trial_cost(
                relations, join_conditions, top_filters + lazy,
                extra_pushed={id(target): [predicate]},
            )
            lazy_cost = self._trial_cost(
                relations, join_conditions, top_filters + lazy + [predicate],
                extra_pushed={},
            )
            choice = "eager" if eager_cost <= lazy_cost else "lazy"
            if logger.isEnabledFor(10):  # DEBUG
                logger.debug(
                    "hint rule 1: %s placement for %s "
                    "(eager_cost=%.1f lazy_cost=%.1f)",
                    choice,
                    predicate.to_sql(),
                    eager_cost,
                    lazy_cost,
                )
            if eager_cost <= lazy_cost:
                eager[id(predicate)] = target
            else:
                lazy.append(predicate)
        return eager, lazy

    def _trial_cost(
        self,
        relations: list["_Relation"],
        join_conditions: list["_JoinCondition"],
        top_filters: list[Expression],
        extra_pushed: dict[int, list[Expression]],
    ) -> float:
        saved = [list(r.pushed) for r in relations]
        try:
            for relation in relations:
                relation.pushed.extend(extra_pushed.get(id(relation), []))
            plan = self._build_join_tree(
                [r.shallow_copy() for r in relations], list(join_conditions)
            )
            combined = combine_conjuncts(top_filters)
            if combined is not None:
                plan = Filter(child=plan, predicate=combined)
            return self.config.cost_model.estimate(plan, self._statistics).cost
        finally:
            for relation, pushed in zip(relations, saved):
                relation.pushed = pushed

    # ------------------------------------------------------------------
    # Join handling
    # ------------------------------------------------------------------
    def _as_join_condition(
        self, conjunct: Expression, relations: list["_Relation"]
    ) -> Optional["_JoinCondition"]:
        """Recognize ``expr_over_R = expr_over_S`` between two relations."""
        if not isinstance(conjunct, BinaryOp) or conjunct.op != "=":
            return None
        left_relations = self._relations_of(conjunct.left, relations)
        right_relations = self._relations_of(conjunct.right, relations)
        if left_relations is None or right_relations is None:
            return None
        if len(left_relations) != 1 or len(right_relations) != 1:
            return None
        (left_rel,) = left_relations
        (right_rel,) = right_relations
        if left_rel is right_rel:
            return None
        return _JoinCondition(
            left=left_rel,
            right=right_rel,
            left_key=conjunct.left,
            right_key=conjunct.right,
        )

    def _relations_of(
        self, expression: Expression, relations: list["_Relation"]
    ) -> Optional[set["_Relation"]]:
        """The set of relations an expression reads from; None if unknown."""
        refs = referenced_columns(expression)
        if not refs:
            # Pure literal/UDF-of-literal: belongs anywhere; treat as none.
            return set() if not self._contains_udf(expression) else None
        found: set[_Relation] = set()
        for ref in refs:
            owners = [r for r in relations if r.covers(ref, relations)]
            if len(owners) != 1:
                return None
            found.add(owners[0])
        return found

    def _single_relation_for(
        self, conjunct: Expression, relations: list["_Relation"]
    ) -> Optional["_Relation"]:
        owners = self._relations_of(conjunct, relations)
        if owners is None or len(owners) != 1:
            return None
        (owner,) = owners
        return owner

    def _build_join_tree(
        self,
        relations: list["_Relation"],
        join_conditions: list["_JoinCondition"],
    ) -> LogicalPlan:
        """Greedy left-deep join ordering by estimated output cardinality."""
        if len(relations) == 1:
            return relations[0].filtered_plan()

        pending = list(relations)
        conditions = list(join_conditions)

        def estimate_rows(plan: LogicalPlan) -> float:
            return self.config.cost_model.estimate(plan, self._statistics).rows

        # Start from the relation with the smallest filtered cardinality.
        pending.sort(key=lambda r: estimate_rows(r.filtered_plan()))
        first = pending.pop(0)
        current_plan = first.filtered_plan()
        joined: set[int] = {id(first)}

        while pending:
            best: Optional[tuple[float, _Relation, list[_JoinCondition]]] = None
            for candidate in pending:
                edges = [
                    c
                    for c in conditions
                    if (id(c.left) in joined and c.right is candidate)
                    or (id(c.right) in joined and c.left is candidate)
                ]
                if not edges:
                    continue
                trial = self._make_join(current_plan, candidate, edges)
                rows = estimate_rows(trial)
                if best is None or rows < best[0]:
                    best = (rows, candidate, edges)
            if best is None:
                # No connected relation left: cross join the smallest.
                pending.sort(key=lambda r: estimate_rows(r.filtered_plan()))
                candidate = pending.pop(0)
                current_plan = CrossJoin(
                    left=current_plan, right=candidate.filtered_plan()
                )
                joined.add(id(candidate))
                continue
            _, candidate, edges = best
            pending.remove(candidate)
            current_plan = self._make_join(current_plan, candidate, edges)
            joined.add(id(candidate))
            for edge in edges:
                conditions.remove(edge)

        # Any remaining conditions connect relations already joined (cycle
        # edges): apply them as filters.
        leftover = combine_conjuncts(
            [BinaryOp("=", c.left_key, c.right_key) for c in conditions]
        )
        if leftover is not None:
            current_plan = Filter(child=current_plan, predicate=leftover)
        return current_plan

    def _make_join(
        self,
        current_plan: LogicalPlan,
        candidate: "_Relation",
        edges: list["_JoinCondition"],
    ) -> HashJoin:
        left_keys: list[Expression] = []
        right_keys: list[Expression] = []
        symmetric = False
        for edge in edges:
            if edge.right is candidate:
                left_keys.append(edge.left_key)
                right_keys.append(edge.right_key)
            else:
                left_keys.append(edge.right_key)
                right_keys.append(edge.left_key)
            symmetric = symmetric or edge.symmetric
        return HashJoin(
            left=current_plan,
            right=candidate.filtered_plan(),
            left_keys=tuple(left_keys),
            right_keys=tuple(right_keys),
            symmetric=symmetric and self.config.use_hints,
        )


# ----------------------------------------------------------------------
# Support types
# ----------------------------------------------------------------------
class _Relation:
    """One leaf of the join graph plus the predicates pushed onto it."""

    def __init__(self, plan: LogicalPlan, catalog: Catalog) -> None:
        self.plan = plan
        self.pushed: list[Expression] = []
        self.qualifiers, self.column_names = _output_names(plan, catalog)

    def covers(self, ref: ColumnRef, all_relations: list["_Relation"]) -> bool:
        if ref.table is not None:
            return (
                ref.table.lower() in self.qualifiers
                and ref.name.lower() in self.column_names
            )
        if ref.name.lower() not in self.column_names:
            return False
        others_with_name = [
            r
            for r in all_relations
            if r is not self and ref.name.lower() in r.column_names
        ]
        return not others_with_name

    def filtered_plan(self) -> LogicalPlan:
        predicate = combine_conjuncts(self.pushed)
        if predicate is None:
            return self.plan
        return Filter(child=self.plan, predicate=predicate)

    def shallow_copy(self) -> "_Relation":
        copy = _Relation.__new__(_Relation)
        copy.plan = self.plan
        copy.pushed = list(self.pushed)
        copy.qualifiers = self.qualifiers
        copy.column_names = self.column_names
        return copy

    def __hash__(self) -> int:
        return id(self)

    def __eq__(self, other: object) -> bool:
        return self is other


@dataclass
class _JoinCondition:
    left: _Relation
    right: _Relation
    left_key: Expression
    right_key: Expression
    symmetric: bool = False


def _is_having_filter(plan: Filter) -> bool:
    """True when this Filter sits above an Aggregate (a HAVING clause)."""
    node = plan.child
    while isinstance(node, (Sort, Limit, Filter)):
        node = node.child
    return isinstance(node, Aggregate)


def _output_names(
    plan: LogicalPlan, catalog: Catalog
) -> tuple[set[str], set[str]]:
    """(qualifiers, column names) a plan's output frame exposes, lowercase."""
    if isinstance(plan, EmptyScan):
        qualifiers = {q.lower() for q, _, _ in plan.columns if q}
        # Dunder columns (the __dual__ dummy) are internal, matching the
        # Scan case which exposes no names for the dual relation.
        names = {
            n.lower() for _, n, _ in plan.columns if not n.startswith("__")
        }
        return qualifiers, names
    if isinstance(plan, Scan):
        qualifier = (plan.alias or plan.table_name).lower()
        if plan.table_name == "__dual__":
            return {qualifier}, set()
        if catalog.has(plan.table_name) and not catalog.is_view(plan.table_name):
            table = catalog.get_table(plan.table_name)
            return {qualifier}, {n.lower() for n in table.schema.column_names}
        return {qualifier}, set()
    if isinstance(plan, SubqueryScan):
        qualifier = (plan.alias or "").lower()
        _, names = _output_names(plan.child, catalog) if plan.child else (set(), set())
        return ({qualifier} if qualifier else set()), names
    if isinstance(plan, Project):
        names = set()
        for ordinal, item in enumerate(plan.items):
            from repro.sql.ast_nodes import Star as _Star

            if isinstance(item.expression, _Star):
                if plan.child is not None:
                    _, child_names = _output_names(plan.child, catalog)
                    names |= child_names
                continue
            names.add(item.output_name(ordinal).lower())
        return set(), names
    if isinstance(plan, Aggregate):
        names = set()
        for position, key in enumerate(plan.group_by):
            if isinstance(key, ColumnRef):
                names.add(key.name.lower())
            else:
                names.add(f"group_{position}")
        names |= {spec.slot.lower() for spec in plan.aggregates}
        return set(), names
    if isinstance(plan, (Filter, Sort, Limit, Distinct)):
        child = plan.children()
        return _output_names(child[0], catalog) if child else (set(), set())
    if isinstance(plan, (CrossJoin, HashJoin)):
        qualifiers: set[str] = set()
        names = set()
        for child in plan.children():
            child_qualifiers, child_names = _output_names(child, catalog)
            qualifiers |= child_qualifiers
            names |= child_names
        return qualifiers, names
    return set(), set()


# ----------------------------------------------------------------------
# Dataflow-driven folding (runs between the planner and the optimizer)
# ----------------------------------------------------------------------
@dataclass
class FoldAction:
    """One rewrite the folding pass performed, for EXPLAIN and tests."""

    kind: str  # "fold" | "drop_true" | "empty_scan"
    detail: str


@dataclass
class FoldReport:
    """What :func:`fold_plan` did and which statistics it relied on."""

    actions: list[FoldAction] = field(default_factory=list)
    notes: list["dataflow.Note"] = field(default_factory=list)
    #: table name -> statistics version, for the tables ``assumptions``
    #: names.
    stats_versions: dict[str, int] = field(default_factory=dict)
    #: (table, column) -> the seeded fact a rewrite assumed; empty when
    #: no Filter was rewritten (reading a statistic assumes nothing).  A
    #: plan cache hit after a table mutation re-checks containment of
    #: the fresh facts in these before reusing the plan.
    assumptions: dict[tuple[str, str], "dataflow.Fact"] = field(
        default_factory=dict
    )

    @property
    def changed(self) -> bool:
        return bool(self.actions)


def fold_plan(
    plan: LogicalPlan,
    catalog: Catalog,
    statistics: Optional[StatisticsProvider],
) -> tuple[LogicalPlan, FoldReport]:
    """Fold constants, drop tautologies, prune contradictions.

    Every Filter predicate is run through the abstract interpreter with
    column facts seeded from exact table statistics.  Three rewrites:

    * constant subexpressions are replaced by literals (only when the
      folded value is byte-identical to what the runtime would compute);
    * conjuncts that can only evaluate to TRUE are deleted;
    * a conjunct that can never be TRUE replaces the whole Filter
      subtree with an :class:`~repro.engine.logical.EmptyScan` carrying
      the subtree's column layout — provided the subtree is a plain
      scan/join shape whose disappearance cannot change side effects.

    Deterministic: re-running on the same input yields the same output,
    which is what :func:`repro.analysis.invariants.validate_fold` leans
    on.
    """
    from repro.analysis import dataflow

    report = FoldReport()
    folded = _fold_node(plan, catalog, statistics, report, dataflow)
    return folded, report


def _fold_node(
    plan: LogicalPlan,
    catalog: Catalog,
    statistics: Optional[StatisticsProvider],
    report: FoldReport,
    dataflow: Any,
) -> LogicalPlan:
    if isinstance(plan, Filter) and plan.predicate is not None:
        assert plan.child is not None
        child = _fold_node(plan.child, catalog, statistics, report, dataflow)
        relations = _plan_relations(child, catalog, statistics, dataflow)
        versions: dict[str, int] = {}
        if statistics is not None:
            for relation in relations:
                if relation.table_name is not None:
                    versions[relation.table_name] = statistics.version(
                        relation.table_name
                    )
        env = dataflow.build_env(relations, stats_versions=versions)
        fold = dataflow.fold_conjuncts(plan.predicate, env)
        report.notes.extend(fold.notes)
        actions_before = len(report.actions)
        rewritten = _apply_fold(child, fold, catalog, report)
        if len(report.actions) > actions_before:
            # Only a rewrite makes the plan conditional on the facts the
            # interpreter consulted; a predicate it read statistics for
            # and left alone is valid for any data.
            report.stats_versions.update(env.stats_tables)
            for pair in env.used:
                seed = env.seeds.get(pair)
                if seed is not None:
                    report.assumptions[pair] = seed
        return rewritten

    # Structural recursion over every other node shape.
    if isinstance(plan, Project):
        assert plan.child is not None
        return Project(
            child=_fold_node(plan.child, catalog, statistics, report, dataflow),
            items=plan.items,
            aggregate_slots=plan.aggregate_slots,
        )
    if isinstance(plan, Sort):
        assert plan.child is not None
        return Sort(
            child=_fold_node(plan.child, catalog, statistics, report, dataflow),
            order_by=plan.order_by,
        )
    if isinstance(plan, Limit):
        assert plan.child is not None
        return Limit(
            child=_fold_node(plan.child, catalog, statistics, report, dataflow),
            count=plan.count,
            offset=plan.offset,
        )
    if isinstance(plan, Distinct):
        assert plan.child is not None
        return Distinct(
            child=_fold_node(plan.child, catalog, statistics, report, dataflow)
        )
    if isinstance(plan, Aggregate):
        assert plan.child is not None
        return Aggregate(
            child=_fold_node(plan.child, catalog, statistics, report, dataflow),
            group_by=plan.group_by,
            aggregates=plan.aggregates,
        )
    if isinstance(plan, CrossJoin):
        assert plan.left is not None and plan.right is not None
        return CrossJoin(
            left=_fold_node(plan.left, catalog, statistics, report, dataflow),
            right=_fold_node(plan.right, catalog, statistics, report, dataflow),
        )
    if isinstance(plan, SubqueryScan):
        assert plan.child is not None
        return SubqueryScan(
            child=_fold_node(plan.child, catalog, statistics, report, dataflow),
            alias=plan.alias,
        )
    return plan


def _apply_fold(
    child: LogicalPlan,
    fold: Any,
    catalog: Catalog,
    report: FoldReport,
) -> LogicalPlan:
    """Rebuild one Filter from its fold outcomes, logging each rewrite."""
    contradiction = fold.contradiction
    if contradiction is not None and _prunable(child, catalog):
        report.actions.append(
            FoldAction(
                "empty_scan",
                f"predicate {contradiction.original.to_sql()} "
                "can never be TRUE",
            )
        )
        return EmptyScan(
            columns=_subtree_columns(child, catalog),
            reason=contradiction.original.to_sql(),
        )
    kept: list[Expression] = []
    for outcome in fold.outcomes:
        if outcome.status == "always_true":
            report.actions.append(
                FoldAction(
                    "drop_true",
                    f"conjunct {outcome.original.to_sql()} is always TRUE",
                )
            )
            continue
        if outcome.folded is not outcome.original:
            report.actions.append(
                FoldAction(
                    "fold",
                    f"{outcome.original.to_sql()} "
                    f"-> {outcome.folded.to_sql()}",
                )
            )
        kept.append(outcome.folded)
    if not kept:
        return child
    predicate = combine_conjuncts(kept)
    return Filter(child=child, predicate=predicate)


def _plan_relations(
    plan: LogicalPlan,
    catalog: Catalog,
    statistics: Optional[StatisticsProvider],
    dataflow: Any,
) -> list[Any]:
    """Seeded relation facts for every scan visible below ``plan``.

    Descends through filters, joins and aggregates (group keys pass
    base-column values through by name) but treats derived tables as
    opaque: a SubqueryScan renames its outputs, so binding its alias to
    inner table stats would be wrong.
    """
    out: list[Any] = []

    def visit(node: LogicalPlan) -> None:
        if isinstance(node, Scan):
            qualifier = node.alias or node.table_name
            if catalog.has(node.table_name) and not catalog.is_view(
                node.table_name
            ):
                table = catalog.get_table(node.table_name)
                stats = (
                    statistics.exact_stats_for(node.table_name)
                    if statistics is not None
                    else None
                )
                out.append(
                    dataflow.relation_facts(
                        qualifier,
                        table.name,
                        # Schema, not columns: reading the columns of a
                        # lazily-partitioned table materializes it.
                        [(c.name, c.dtype) for c in table.schema],
                        stats,
                    )
                )
            else:
                out.append(dataflow.RelationFacts(qualifier, None))
            return
        if isinstance(node, SubqueryScan):
            out.append(dataflow.RelationFacts(node.alias or "", None))
            return
        if isinstance(node, EmptyScan):
            return
        for child in node.children():
            visit(child)

    visit(plan)
    return out


def _prunable(plan: LogicalPlan, catalog: Catalog) -> bool:
    """May this subtree be replaced by an EmptyScan?

    Restricted to plain scan/filter/cross-join shapes over catalog base
    tables (or the dual relation): scans have no side effects, and the
    column layout is fully recoverable from the catalog.  Anything with
    a SubqueryScan, aggregate, UDF-bearing filter, or already-shaped
    join is left alone — the contradicted conjunct still filters every
    row out at runtime, just without the shortcut.
    """
    for node in walk_plan(plan):
        if isinstance(node, Scan):
            if node.table_name == "__dual__":
                continue
            if not catalog.has(node.table_name) or catalog.is_view(
                node.table_name
            ):
                return False
            continue
        if isinstance(node, (CrossJoin, Filter)):
            continue
        return False
    return True


def _subtree_columns(
    plan: LogicalPlan, catalog: Catalog
) -> tuple[tuple[Optional[str], str, Any], ...]:
    """Column layout (qualifier, name, dtype) a prunable subtree yields."""
    from repro.storage.schema import DataType

    columns: list[tuple[Optional[str], str, Any]] = []

    def visit(node: LogicalPlan) -> None:
        if isinstance(node, Scan):
            qualifier = node.alias or node.table_name
            if node.table_name == "__dual__":
                columns.append((qualifier, "__dummy__", DataType.INT64))
                return
            table = catalog.get_table(node.table_name)
            for spec in table.schema:
                columns.append((qualifier, spec.name, spec.dtype))
            return
        for child in node.children():
            visit(child)

    visit(plan)
    return tuple(columns)


# ----------------------------------------------------------------------
# Post-optimization fact annotation (mask-free kernel fast path)
# ----------------------------------------------------------------------
def annotate_plan_facts(
    plan: LogicalPlan,
    catalog: Catalog,
    statistics: Optional[StatisticsProvider],
) -> dict[tuple[str, str], Any]:
    """Mark provably non-NULL column references on Filter/Project nodes.

    For every Filter predicate and Project item in the *optimized* tree,
    any referenced base-table column whose exact statistics show zero
    NULLs is recorded in the node's ``nonnull_columns`` as a lowercase
    ``(qualifier, name)`` pair; the fused kernels then skip the per-batch
    NULL-mask scan for those columns.  Returns the ``(table, column) ->
    fact`` assumptions the annotations rely on (same containment
    contract as :class:`FoldReport.assumptions`): nullability NEVER and
    nothing else, so the column's range may move freely under a cached
    plan while its first NULL invalidates it.
    """
    from repro.analysis import dataflow

    never_null = dataflow.Fact(nullability=dataflow.Nullability.NEVER)
    deps: dict[tuple[str, str], Any] = {}
    for node in walk_plan(plan):
        if isinstance(node, Filter) and node.predicate is not None:
            expressions: list[Expression] = [node.predicate]
        elif isinstance(node, Project):
            expressions = [item.expression for item in node.items]
        else:
            continue
        children = node.children()
        if not children:
            continue
        relations = _plan_relations(children[0], catalog, statistics, dataflow)
        env = dataflow.build_env(relations)
        proven: set[tuple[Optional[str], str]] = set()
        for expression in expressions:
            for ref in referenced_columns(expression):
                canon = env.canonical(ref)
                source = env.table_of.get(canon)
                if source is None:
                    continue
                if env.facts[canon].never_null:
                    qualifier, _, name = canon.rpartition(".")
                    proven.add((qualifier or None, name))
                    deps[source] = never_null
        if proven:
            node.nonnull_columns = frozenset(proven)
    return deps


# ----------------------------------------------------------------------
# Zone-map partition pruning (post-optimization annotation pass)
# ----------------------------------------------------------------------
@dataclass
class PruneAction:
    """One scan's pruning outcome (surfaced through EXPLAIN/metrics)."""

    table: str
    qualifier: str
    kept: int
    total: int


@dataclass
class PruneReport:
    actions: list[PruneAction] = field(default_factory=list)

    @property
    def pruned(self) -> int:
        return sum(action.total - action.kept for action in self.actions)


def prune_partitions(
    plan: LogicalPlan,
    catalog: Catalog,
    statistics: Optional[StatisticsProvider],
) -> PruneReport:
    """Skip partitions a folded conjunct proves empty.

    For every ``Filter`` chain sitting directly on a ``Scan`` of a
    :class:`~repro.storage.partition.PartitionedTable`, each partition's
    zone map (exact per-partition min/max/null stats) is seeded into the
    dataflow environment exactly like table-level statistics, and the
    filter predicate is folded against it.  A partition whose facts make
    some conjunct *never TRUE* cannot contribute a row, so the executor
    skips materializing it — the partitioned analogue of the
    whole-subtree EmptyScan rewrite in :func:`fold_plan`.

    Runs after the plan validators (it only fills ``compare=False``
    annotation slots on Scan nodes).  The executor re-checks the
    catalog data version before honoring a selection, so plans cached
    across table mutations degrade to full scans instead of reading a
    stale selection.
    """
    from repro.analysis import dataflow
    from repro.engine.statistics import TableStats
    from repro.storage.partition import PartitionedTable

    report = PruneReport()
    for node in walk_plan(plan):
        if not isinstance(node, Filter) or node.predicate is None:
            continue
        # Accumulate stacked filter predicates down to the scan.
        conjuncts: list[Expression] = []
        child: Optional[LogicalPlan] = node
        while isinstance(child, Filter) and child.predicate is not None:
            conjuncts.extend(split_conjuncts(child.predicate))
            child = child.child
        if not isinstance(child, Scan):
            continue
        scan = child
        if scan.partition_selection is not None:
            # Already annotated through an enclosing (larger) chain —
            # walk_plan is pre-order, so the first visit saw the most
            # conjuncts.
            continue
        if not catalog.has(scan.table_name) or catalog.is_view(scan.table_name):
            continue
        table = catalog.get_table(scan.table_name)
        if not isinstance(table, PartitionedTable):
            continue
        partitions = table.partitions
        if len(partitions) <= 1:
            continue
        qualifier = scan.alias or scan.table_name
        columns = [(spec.name, spec.dtype) for spec in table.schema]
        predicate = combine_conjuncts(conjuncts)
        kept: list[int] = []
        for index, partition in enumerate(partitions):
            zone_stats = TableStats(
                row_count=partition.rows, columns=partition.zone
            )
            env = dataflow.build_env([
                dataflow.relation_facts(
                    qualifier, table.name, columns, zone_stats
                )
            ])
            fold = dataflow.fold_conjuncts(predicate, env)
            if fold.contradiction is None:
                kept.append(index)
        scan.partition_selection = tuple(kept)
        scan.partition_total = len(partitions)
        scan.partition_data_version = catalog.data_version(scan.table_name)
        report.actions.append(
            PruneAction(
                table=table.name,
                qualifier=qualifier,
                kept=len(kept),
                total=len(partitions),
            )
        )
    return report
