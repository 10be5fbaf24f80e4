"""Abstract-interpretation dataflow over SQL expression trees.

A bottom-up abstract interpreter computes, per expression node, a *fact
triple* over three lattices:

* **constant** — ``TOP`` (unknown) or a known Python value, where
  ``None`` is a known SQL NULL (⊥ never materializes: an infeasible
  conjunction is reported as infeasibility, not as a bottom fact);
* **interval** — a numeric ``[lo, hi]`` range with open/closed bounds,
  seeded from exact per-column min/max statistics
  (:mod:`repro.engine.statistics`);
* **nullability** — definitely-never / maybe / definitely-always NULL,
  extending the semantic analyzer's per-column inference with
  statistics-backed NULL counts.

Boolean-valued nodes additionally carry a Kleene *truth* fact: the set
of three-valued outcomes (TRUE / FALSE / UNKNOWN) the node can still
produce.  Transfer functions mirror the runtime semantics of
:mod:`repro.engine.expressions` exactly — Kleene AND/OR/NOT,
NULL-propagating comparisons and arithmetic, ``x / 0 -> NULL`` on the
scalar path, ``IS [NOT] NULL`` never returning NULL — so that folding a
subtree to a literal can never change query results.

Consumers:

* the linter (L007 contradictory predicate, L008 tautology, L009
  guaranteed division by zero, L010 INT64 overflow on fold);
* the optimizer's folding pass (:func:`repro.engine.optimizer.fold_plan`),
  via :func:`fold_conjuncts`;
* the fused-kernel mask-free fast path (non-nullability proofs);
* EXPLAIN / ``repro lint --format json`` per-output-column facts,
  via :func:`output_facts`.

Soundness notes.  Intervals describe the *non-NULL* values a node can
take; statistics-seeded facts are only valid for the table version they
were computed from, so every consulted ``(table, column)`` pair is
recorded on the :class:`Env` for plan-cache staleness checks.  Interval
bounds seeded from int64 columns are widened by one ulp beyond 2**53
where ``float`` cannot represent the exact value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import TYPE_CHECKING, Any, Optional, Sequence

from repro.sql.ast_nodes import (
    Between,
    BinaryOp,
    CaseExpression,
    ColumnRef,
    DerivedTable,
    Expression,
    FunctionCall,
    InList,
    IsNull,
    Join,
    Literal,
    NamedTable,
    ScalarSubquery,
    SelectStatement,
    Star,
    TableRef,
    UnaryOp,
    split_conjuncts,
)
from repro.sql.spans import set_span, span_of
from repro.errors import StorageError
from repro.storage.schema import DataType, parse_date

if TYPE_CHECKING:  # imported for annotations only (no runtime cycle)
    from repro.engine.statistics import StatisticsProvider, TableStats
    from repro.storage.catalog import Catalog

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

#: Aggregate function names; mirrored from the engine so the analysis
#: layer treats aggregate calls as opaque (their argument text is the
#: physical slot-matching key and must never be rewritten).
AGGREGATE_NAMES = frozenset(
    {
        "sum", "count", "avg", "min", "max", "stddevsamp", "stddevpop",
        "varsamp", "varpop", "countif", "sumif", "any", "grouparray",
    }
)

_COMPARISONS = frozenset({"=", "!=", "<", "<=", ">", ">="})
_ARITHMETIC = frozenset({"+", "-", "*", "/", "%"})
_FLIPPED = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


class _Top:
    """Singleton marker for "not a known constant"."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "TOP"


TOP = _Top()


class Nullability(Enum):
    NEVER = "never"
    MAYBE = "maybe"
    ALWAYS = "always"

    def join(self, other: "Nullability") -> "Nullability":
        if self is other:
            return self
        return Nullability.MAYBE


# ----------------------------------------------------------------------
# Interval lattice
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Interval:
    """Numeric range; ``None`` bounds mean unbounded, flags mean open."""

    lo: Optional[float] = None
    hi: Optional[float] = None
    lo_open: bool = False
    hi_open: bool = False

    @property
    def unbounded(self) -> bool:
        return self.lo is None and self.hi is None

    @property
    def is_empty(self) -> bool:
        if self.lo is None or self.hi is None:
            return False
        if self.lo > self.hi:
            return True
        return self.lo == self.hi and (self.lo_open or self.hi_open)

    @property
    def is_point(self) -> bool:
        return (
            self.lo is not None
            and self.lo == self.hi
            and not self.lo_open
            and not self.hi_open
        )

    @property
    def bounded(self) -> bool:
        return (
            self.lo is not None
            and self.hi is not None
            and math.isfinite(self.lo)
            and math.isfinite(self.hi)
        )

    @staticmethod
    def point(value: float) -> "Interval":
        return Interval(value, value)

    def intersect(self, other: "Interval") -> "Interval":
        lo, lo_open = self.lo, self.lo_open
        if other.lo is not None and (lo is None or other.lo > lo):
            lo, lo_open = other.lo, other.lo_open
        elif other.lo is not None and other.lo == lo:
            lo_open = lo_open or other.lo_open
        hi, hi_open = self.hi, self.hi_open
        if other.hi is not None and (hi is None or other.hi < hi):
            hi, hi_open = other.hi, other.hi_open
        elif other.hi is not None and other.hi == hi:
            hi_open = hi_open or other.hi_open
        return Interval(lo, hi, lo_open, hi_open)

    def hull(self, other: "Interval") -> "Interval":
        if self.lo is None or other.lo is None:
            lo, lo_open = None, False
        elif self.lo < other.lo:
            lo, lo_open = self.lo, self.lo_open
        elif other.lo < self.lo:
            lo, lo_open = other.lo, other.lo_open
        else:
            lo, lo_open = self.lo, self.lo_open and other.lo_open
        if self.hi is None or other.hi is None:
            hi, hi_open = None, False
        elif self.hi > other.hi:
            hi, hi_open = self.hi, self.hi_open
        elif other.hi > self.hi:
            hi, hi_open = other.hi, other.hi_open
        else:
            hi, hi_open = self.hi, self.hi_open and other.hi_open
        return Interval(lo, hi, lo_open, hi_open)

    # -- ordering queries (∀ quantified over both operand sets) --------
    def all_lt(self, other: "Interval") -> bool:
        """True when every value here is < every value of ``other``."""
        if self.hi is None or other.lo is None:
            return False
        if self.hi < other.lo:
            return True
        return self.hi == other.lo and (self.hi_open or other.lo_open)

    def all_le(self, other: "Interval") -> bool:
        if self.hi is None or other.lo is None:
            return False
        return self.hi <= other.lo

    def disjoint(self, other: "Interval") -> bool:
        return self.all_lt(other) or other.all_lt(self)

    def excludes_zero(self) -> bool:
        if self.lo is not None and (self.lo > 0 or (self.lo == 0 and self.lo_open)):
            return True
        if self.hi is not None and (self.hi < 0 or (self.hi == 0 and self.hi_open)):
            return True
        return False

    def is_zero_point(self) -> bool:
        return self.is_point and self.lo == 0

    # -- arithmetic ----------------------------------------------------
    def neg(self) -> "Interval":
        lo = -self.hi if self.hi is not None else None
        hi = -self.lo if self.lo is not None else None
        return Interval(lo, hi, self.hi_open, self.lo_open)

    def add(self, other: "Interval") -> "Interval":
        lo = (
            self.lo + other.lo
            if self.lo is not None and other.lo is not None
            else None
        )
        hi = (
            self.hi + other.hi
            if self.hi is not None and other.hi is not None
            else None
        )
        return Interval(
            lo,
            hi,
            self.lo_open or other.lo_open if lo is not None else False,
            self.hi_open or other.hi_open if hi is not None else False,
        )

    def sub(self, other: "Interval") -> "Interval":
        return self.add(other.neg())

    def mul(self, other: "Interval") -> "Interval":
        if not (self.bounded and other.bounded):
            return UNBOUNDED
        assert self.lo is not None and self.hi is not None
        assert other.lo is not None and other.hi is not None
        products = [
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        ]
        # Openness is dropped (closed hull): strictly wider, hence sound.
        return Interval(min(products), max(products))

    def div(self, other: "Interval") -> "Interval":
        if not (self.bounded and other.bounded and other.excludes_zero()):
            return UNBOUNDED
        assert self.lo is not None and self.hi is not None
        assert other.lo is not None and other.hi is not None
        quotients = [
            self.lo / other.lo,
            self.lo / other.hi,
            self.hi / other.lo,
            self.hi / other.hi,
        ]
        return Interval(min(quotients), max(quotients))

    def render(self) -> str:
        lo = "-inf" if self.lo is None else _render_bound(self.lo)
        hi = "inf" if self.hi is None else _render_bound(self.hi)
        left = "(" if self.lo_open or self.lo is None else "["
        right = ")" if self.hi_open or self.hi is None else "]"
        return f"{left}{lo}, {hi}{right}"


UNBOUNDED = Interval()


def _render_bound(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


# ----------------------------------------------------------------------
# Kleene truth lattice (sets of possible three-valued outcomes)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Truth:
    """Which of TRUE / FALSE / UNKNOWN a boolean node can still yield."""

    can_true: bool = True
    can_false: bool = True
    can_null: bool = True

    @property
    def always_true(self) -> bool:
        return self.can_true and not self.can_false and not self.can_null

    @property
    def never_true(self) -> bool:
        return not self.can_true

    @staticmethod
    def of(value: Optional[bool]) -> "Truth":
        if value is None:
            return Truth(False, False, True)
        if value:
            return Truth(True, False, False)
        return Truth(False, True, False)

    @staticmethod
    def not_(a: "Truth") -> "Truth":
        return Truth(a.can_false, a.can_true, a.can_null)

    @staticmethod
    def and_(a: "Truth", b: "Truth") -> "Truth":
        return Truth(
            a.can_true and b.can_true,
            a.can_false or b.can_false,
            (a.can_null and (b.can_true or b.can_null))
            or (b.can_null and (a.can_true or a.can_null)),
        )

    @staticmethod
    def or_(a: "Truth", b: "Truth") -> "Truth":
        return Truth(
            a.can_true or b.can_true,
            a.can_false and b.can_false,
            (a.can_null and (b.can_false or b.can_null))
            or (b.can_null and (a.can_false or a.can_null)),
        )


def _const_from_truth(truth: Truth) -> Any:
    flags = (truth.can_true, truth.can_false, truth.can_null)
    if flags == (True, False, False):
        return True
    if flags == (False, True, False):
        return False
    if flags == (False, False, True):
        return None
    return TOP


# ----------------------------------------------------------------------
# The fact triple
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fact:
    """Per-node abstract state: constant, interval, nullability, truth."""

    const: Any = TOP
    interval: Interval = UNBOUNDED
    nullability: Nullability = Nullability.MAYBE
    truth: Truth = Truth()
    dtype: Optional[DataType] = None

    @property
    def is_const(self) -> bool:
        return self.const is not TOP

    @property
    def always_null(self) -> bool:
        return self.nullability is Nullability.ALWAYS

    @property
    def never_null(self) -> bool:
        return self.nullability is Nullability.NEVER

    @staticmethod
    def of_const(value: Any, dtype: Optional[DataType] = None) -> "Fact":
        if value is None or (isinstance(value, float) and math.isnan(value)):
            return NULL_FACT if dtype is None else replace(NULL_FACT, dtype=dtype)
        if isinstance(value, bool):
            return Fact(
                const=value,
                interval=Interval.point(int(value)),
                nullability=Nullability.NEVER,
                truth=Truth.of(value),
                dtype=dtype or DataType.BOOL,
            )
        if isinstance(value, (int, float)):
            inferred = DataType.INT64 if isinstance(value, int) else DataType.FLOAT64
            return Fact(
                const=value,
                interval=Interval.point(value),
                nullability=Nullability.NEVER,
                truth=Truth(True, True, False),
                dtype=dtype or inferred,
            )
        if isinstance(value, str):
            return Fact(
                const=value,
                nullability=Nullability.NEVER,
                truth=Truth(True, True, False),
                dtype=dtype or DataType.STRING,
            )
        return Fact(dtype=dtype)

    def join(self, other: "Fact") -> "Fact":
        """Lattice join (hull) for control-flow merges (CASE branches)."""
        const = self.const if _consts_equal(self.const, other.const) else TOP
        return Fact(
            const=const,
            interval=self.interval.hull(other.interval),
            nullability=self.nullability.join(other.nullability),
            truth=Truth(
                self.truth.can_true or other.truth.can_true,
                self.truth.can_false or other.truth.can_false,
                self.truth.can_null or other.truth.can_null,
            ),
            dtype=self.dtype if self.dtype is other.dtype else None,
        )

    def contains(self, other: "Fact") -> bool:
        """True when ``other`` (a fresher seed fact) satisfies every
        assumption this fact encodes — used by plan-cache staleness
        checks: a cached plan folded under ``self`` stays valid while
        the current column facts are contained in it."""
        if self.nullability is Nullability.NEVER and not other.never_null:
            return False
        if self.nullability is Nullability.ALWAYS and not other.always_null:
            return False
        narrowed = self.interval.intersect(other.interval)
        return narrowed == other.interval

    def render(self) -> str:
        parts: list[str] = []
        if self.is_const:
            parts.append(f"const={_render_const(self.const)}")
        if not self.interval.unbounded:
            parts.append(f"range={self.interval.render()}")
        parts.append(f"nullable={_NULLABLE_TEXT[self.nullability]}")
        return " ".join(parts)

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"nullable": _NULLABLE_TEXT[self.nullability]}
        if self.is_const:
            out["const"] = _render_const(self.const)
        if not self.interval.unbounded:
            out["range"] = [self.interval.lo, self.interval.hi]
        return out


NULL_FACT = Fact(
    const=None,
    nullability=Nullability.ALWAYS,
    truth=Truth(False, False, True),
)

_NULLABLE_TEXT = {
    Nullability.NEVER: "no",
    Nullability.MAYBE: "maybe",
    Nullability.ALWAYS: "always",
}


def _render_const(value: Any) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)


def _consts_equal(a: Any, b: Any) -> bool:
    if a is TOP or b is TOP:
        return False
    return bool(type(a) is type(b) and a == b)


def _bool_fact(truth: Truth) -> Fact:
    if not truth.can_null:
        nullability = Nullability.NEVER
    elif not truth.can_true and not truth.can_false:
        nullability = Nullability.ALWAYS
    else:
        nullability = Nullability.MAYBE
    return Fact(
        const=_const_from_truth(truth),
        nullability=nullability,
        truth=truth,
        dtype=DataType.BOOL,
    )


# ----------------------------------------------------------------------
# Diagnostics carried out of an analysis run
# ----------------------------------------------------------------------
class NoteKind(Enum):
    DIVISION_BY_ZERO = "division_by_zero"
    INT64_OVERFLOW = "int64_overflow"


@dataclass(frozen=True)
class Note:
    kind: NoteKind
    node: Expression
    detail: str


# ----------------------------------------------------------------------
# Column-fact environment
# ----------------------------------------------------------------------
@dataclass
class RelationFacts:
    """Ordered column facts of one FROM-clause relation."""

    qualifier: str
    table_name: Optional[str]
    columns: list[tuple[str, Fact]] = field(default_factory=list)


class Env:
    """Column facts keyed canonically, with statistics provenance.

    ``used`` accumulates every stats-backed ``(table, column)`` the
    analysis consulted; consumers persist these (with ``seeds``) as the
    plan's assumptions so cached plans can be revalidated after table
    mutations.  Copies made during conjunct refinement *share* the
    ``used`` set on purpose.
    """

    __slots__ = ("facts", "aliases", "table_of", "stats_tables", "used", "seeds")

    def __init__(self) -> None:
        self.facts: dict[str, Fact] = {}
        self.aliases: dict[str, str] = {}
        self.table_of: dict[str, tuple[str, str]] = {}
        self.stats_tables: dict[str, int] = {}
        self.used: set[tuple[str, str]] = set()
        self.seeds: dict[tuple[str, str], Fact] = {}

    def copy(self) -> "Env":
        out = Env.__new__(Env)
        out.facts = dict(self.facts)
        out.aliases = dict(self.aliases)
        out.table_of = self.table_of
        out.stats_tables = self.stats_tables
        out.used = self.used  # shared: provenance survives refinement
        out.seeds = self.seeds
        return out

    # -- construction --------------------------------------------------
    def add_relation(self, relation: RelationFacts) -> None:
        qualifier = relation.qualifier.lower()
        for name, fact in relation.columns:
            canon = f"{qualifier}.{name.lower()}"
            self.facts[canon] = fact
            self.aliases[canon] = canon
            if relation.table_name is not None:
                self.table_of[canon] = (relation.table_name, name.lower())
            bare = name.lower()
            if bare in self.aliases and self.aliases[bare] != canon:
                self.aliases[bare] = _AMBIGUOUS
            else:
                self.aliases.setdefault(bare, canon)

    # -- lookup / update -----------------------------------------------
    def canonical(self, ref: ColumnRef) -> str:
        if ref.table is not None:
            key = f"{ref.table.lower()}.{ref.name.lower()}"
        else:
            key = ref.name.lower()
        canon = self.aliases.get(key)
        if canon is None or canon == _AMBIGUOUS:
            # Unknown (or ambiguous-bare) column: an ad-hoc slot still
            # lets same-named references unify within one predicate.
            canon = key
            self.aliases.setdefault(key, key)
            self.facts.setdefault(key, Fact())
        return canon

    def lookup(self, ref: ColumnRef) -> Fact:
        canon = self.canonical(ref)
        source = self.table_of.get(canon)
        if source is not None:
            self.used.add(source)
        return self.facts[canon]

    def set_fact(self, canon: str, fact: Fact) -> None:
        self.facts[canon] = fact


_AMBIGUOUS = "\x00ambiguous"


def relation_facts(
    qualifier: str,
    table_name: str,
    columns: Sequence[tuple[str, DataType]],
    stats: Optional["TableStats"],
) -> RelationFacts:
    """Seed facts for one base-table relation from exact statistics."""
    out = RelationFacts(qualifier=qualifier, table_name=table_name)
    for name, dtype in columns:
        fact = column_seed_fact(name, dtype, stats)
        out.columns.append((name, fact))
    return out


def column_seed_fact(
    name: str,
    dtype: DataType,
    stats: Optional["TableStats"],
    *,
    bounds: bool = True,
) -> Fact:
    """Seed one column's fact from exact statistics.

    ``bounds=False`` seeds nullability alone and leaves the column's
    min/max unread (statistics are computed per field on first read).
    """
    interval = UNBOUNDED
    nullability = Nullability.MAYBE
    if stats is not None:
        column = stats.column(name)
        if column is not None:
            null_count = column.null_count
            if null_count == 0:
                nullability = Nullability.NEVER
            elif null_count >= stats.row_count > 0:
                nullability = Nullability.ALWAYS
            if (
                bounds
                and dtype.is_numeric
                and column.min_value is not None
                and column.max_value is not None
                and not math.isnan(column.min_value)
                and not math.isnan(column.max_value)
            ):
                lo: float = column.min_value
                hi: float = column.max_value
                if dtype in (DataType.INT64, DataType.DATE):
                    # Exact Python-int bounds pass through untouched
                    # (int comparisons never round).  Bounds that went
                    # through float64 — legacy stats, overrides — may
                    # have rounded at or above 2**53, so widen by one
                    # ulp where rounding could bite.
                    if isinstance(lo, float) and abs(lo) >= 2**53:
                        lo = math.nextafter(lo, -math.inf)
                    if isinstance(hi, float) and abs(hi) >= 2**53:
                        hi = math.nextafter(hi, math.inf)
                interval = Interval(lo, hi)
    can_null = nullability is not Nullability.NEVER
    truth = Truth(True, True, can_null)
    if nullability is Nullability.ALWAYS:
        truth = Truth(False, False, True)
    return Fact(
        interval=interval, nullability=nullability, truth=truth, dtype=dtype
    )


def build_env(
    relations: Sequence[RelationFacts],
    *,
    stats_versions: Optional[dict[str, int]] = None,
    seeds: Optional[dict[tuple[str, str], Fact]] = None,
) -> Env:
    env = Env()
    for relation in relations:
        env.add_relation(relation)
        if relation.table_name is not None:
            for name, fact in relation.columns:
                env.seeds[(relation.table_name, name.lower())] = fact
    if stats_versions:
        env.stats_tables.update(stats_versions)
    if seeds:
        env.seeds.update(seeds)
    return env


def statement_relations(
    statement: SelectStatement,
    catalog: Optional["Catalog"],
    statistics: Optional["StatisticsProvider"],
) -> list[RelationFacts]:
    """Resolve a statement's FROM clause into seeded relations.

    Derived tables and views contribute a qualifier with no column
    facts (their outputs are treated as unknown)."""
    relations: list[RelationFacts] = []

    def visit(ref: Optional[TableRef]) -> None:
        if ref is None:
            return
        if isinstance(ref, NamedTable):
            qualifier = ref.alias or ref.name
            if (
                catalog is not None
                and catalog.has(ref.name)
                and not catalog.is_view(ref.name)
            ):
                table = catalog.get_table(ref.name)
                stats = (
                    statistics.exact_stats_for(ref.name)
                    if statistics is not None
                    else None
                )
                relations.append(
                    relation_facts(
                        qualifier,
                        table.name,
                        # Schema, not columns: reading the columns of a
                        # lazily-partitioned table materializes it.
                        [(c.name, c.dtype) for c in table.schema],
                        stats,
                    )
                )
            else:
                relations.append(RelationFacts(qualifier, None))
            return
        if isinstance(ref, DerivedTable):
            relations.append(RelationFacts(ref.alias, None))
            return
        if isinstance(ref, Join):
            visit(ref.left)
            visit(ref.right)

    visit(statement.from_clause)
    for extra in statement.cross_tables:
        visit(extra)
    return relations


def statement_env(
    statement: SelectStatement,
    catalog: Optional["Catalog"],
    statistics: Optional["StatisticsProvider"],
) -> tuple[Env, list[RelationFacts]]:
    relations = statement_relations(statement, catalog, statistics)
    versions: dict[str, int] = {}
    if statistics is not None:
        for relation in relations:
            if relation.table_name is not None:
                versions[relation.table_name] = statistics.version(
                    relation.table_name
                )
    return build_env(relations, stats_versions=versions), relations


# ----------------------------------------------------------------------
# The interpreter
# ----------------------------------------------------------------------
def analyze_expression(
    expression: Expression,
    env: Optional[Env] = None,
    notes: Optional[list[Note]] = None,
) -> Fact:
    """Bottom-up fact for one expression (no rewriting)."""
    target = env if env is not None else Env()
    sink = notes if notes is not None else []
    fact, _ = _eval(expression, target, sink, rewrite=False)
    return fact


def fold_expression(
    expression: Expression,
    env: Optional[Env] = None,
    notes: Optional[list[Note]] = None,
) -> tuple[Expression, Fact]:
    """Constant-fold every provably-constant subtree to a literal.

    Only rewrites whose folded value is exactly what the runtime would
    compute are performed (scalar semantics of the expression
    interpreter, including ``x / 0 -> NULL``); aggregate calls and
    scalar subqueries are opaque and never touched.
    """
    target = env if env is not None else Env()
    sink = notes if notes is not None else []
    fact, rewritten = _eval(expression, target, sink, rewrite=True)
    return rewritten, fact


@dataclass
class ConjunctOutcome:
    """One conjunct's fate under folding."""

    original: Expression
    folded: Expression
    fact: Fact
    status: str  # "keep" | "always_true" | "never_true"


@dataclass
class PredicateFold:
    outcomes: list[ConjunctOutcome]
    notes: list[Note]

    @property
    def contradiction(self) -> Optional[ConjunctOutcome]:
        for outcome in self.outcomes:
            if outcome.status == "never_true":
                return outcome
        return None

    @property
    def dropped(self) -> list[ConjunctOutcome]:
        return [o for o in self.outcomes if o.status == "always_true"]

    @property
    def changed(self) -> bool:
        return any(
            o.status != "keep" or o.folded is not o.original
            for o in self.outcomes
        )

    def surviving(self) -> list[Expression]:
        return [o.folded for o in self.outcomes if o.status == "keep"]


def fold_conjuncts(
    predicate: Expression, env: Optional[Env] = None
) -> PredicateFold:
    """Fold a conjunction left-to-right with assume-true refinement.

    Each conjunct is analyzed under the environment refined by the
    conjuncts before it, which is what catches relational
    contradictions like ``x > 5 AND x < 3`` (neither conjunct is
    constant on its own).  A conjunct whose truth set excludes TRUE
    marks the whole predicate as a contradiction; one that can only be
    TRUE is dropped.
    """
    working = (env if env is not None else Env()).copy()
    notes: list[Note] = []
    outcomes: list[ConjunctOutcome] = []
    feasible = True
    for conjunct in split_conjuncts(predicate):
        scope = working if feasible else working.copy()
        fact, folded = _eval(conjunct, scope, notes, rewrite=True)
        if fact.truth.never_true:
            status = "never_true"
        elif fact.truth.always_true:
            status = "always_true"
        else:
            status = "keep"
        outcomes.append(ConjunctOutcome(conjunct, folded, fact, status))
        if feasible and status != "never_true":
            refined = refine(working, conjunct)
            if refined is None:
                # The conjunction as a whole is infeasible even though
                # this conjunct alone still had TRUE in its truth set.
                outcomes[-1].status = "never_true"
                feasible = False
            else:
                working = refined
        elif status == "never_true":
            feasible = False
    return PredicateFold(outcomes=outcomes, notes=notes)


# ----------------------------------------------------------------------
# Core recursive evaluation (+ optional rewriting)
# ----------------------------------------------------------------------
def _eval(
    node: Expression, env: Env, notes: list[Note], rewrite: bool
) -> tuple[Fact, Expression]:
    fact, rebuilt = _eval_inner(node, env, notes, rewrite)
    if rewrite:
        folded = _maybe_fold(rebuilt, fact)
        if folded is not None:
            return fact, folded
    return fact, rebuilt


def _eval_inner(
    node: Expression, env: Env, notes: list[Note], rewrite: bool
) -> tuple[Fact, Expression]:
    if isinstance(node, Literal):
        return Fact.of_const(node.value), node
    if isinstance(node, ColumnRef):
        return env.lookup(node), node
    if isinstance(node, UnaryOp):
        return _eval_unary(node, env, notes, rewrite)
    if isinstance(node, BinaryOp):
        return _eval_binary(node, env, notes, rewrite)
    if isinstance(node, IsNull):
        operand_fact, operand = _eval(node.operand, env, notes, rewrite)
        rebuilt = _rebuild(node, rewrite, operand=operand)
        return _is_null_fact(operand_fact, node.negated), rebuilt
    if isinstance(node, Between):
        return _eval_between(node, env, notes, rewrite)
    if isinstance(node, InList):
        return _eval_in_list(node, env, notes, rewrite)
    if isinstance(node, FunctionCall):
        return _eval_call(node, env, notes, rewrite)
    if isinstance(node, CaseExpression):
        return _eval_case(node, env, notes, rewrite)
    if isinstance(node, (ScalarSubquery, Star)):
        return Fact(), node
    return Fact(), node


def _rebuild(node: Expression, rewrite: bool, **changes: Any) -> Expression:
    if not rewrite or all(
        getattr(node, name) is value for name, value in changes.items()
    ):
        return node
    rebuilt = replace(node, **changes)  # type: ignore[type-var]
    span = span_of(node)
    if span is not None:
        set_span(rebuilt, span)
    return rebuilt


def _maybe_fold(node: Expression, fact: Fact) -> Optional[Expression]:
    """Replace a proven-constant node with a literal, when safe."""
    if not fact.is_const or isinstance(node, (Literal, Star)):
        return None
    value = fact.const
    if isinstance(value, float) and not math.isfinite(value):
        return None  # inf has no literal spelling; NaN folds as None
    if isinstance(value, int) and not isinstance(value, bool):
        if not (INT64_MIN <= value <= INT64_MAX):
            return None
    if not isinstance(value, (bool, int, float, str)) and value is not None:
        return None
    literal = Literal(value)
    span = span_of(node)
    if span is not None:
        set_span(literal, span)
    return literal


def _eval_unary(
    node: UnaryOp, env: Env, notes: list[Note], rewrite: bool
) -> tuple[Fact, Expression]:
    operand_fact, operand = _eval(node.operand, env, notes, rewrite)
    rebuilt = _rebuild(node, rewrite, operand=operand)
    op = node.op.upper()
    if op == "NOT":
        truth = Truth.not_(operand_fact.truth)
        return _bool_fact(truth), rebuilt
    if op == "-":
        const: Any = TOP
        if operand_fact.is_const:
            value = operand_fact.const
            if value is None:
                const = None
            elif isinstance(value, (int, float)) and not isinstance(value, bool):
                const = -value
        fact = Fact(
            const=const,
            interval=operand_fact.interval.neg(),
            nullability=operand_fact.nullability,
            truth=Truth(True, True, not operand_fact.never_null),
            dtype=operand_fact.dtype,
        )
        return fact, rebuilt
    return Fact(), rebuilt


def _eval_binary(
    node: BinaryOp, env: Env, notes: list[Note], rewrite: bool
) -> tuple[Fact, Expression]:
    op = node.op.upper()
    if op == "AND":
        left_fact, left = _eval(node.left, env, notes, rewrite)
        branch = refine(env, left)
        right_fact, right = _eval(
            node.right, branch if branch is not None else env, notes, rewrite
        )
        truth = Truth.and_(left_fact.truth, right_fact.truth)
        if branch is None:
            # Left can never be TRUE: the conjunction cannot be TRUE.
            truth = Truth(False, truth.can_false, truth.can_null)
        return _bool_fact(truth), _rebuild(node, rewrite, left=left, right=right)
    if op == "OR":
        left_fact, left = _eval(node.left, env, notes, rewrite)
        right_fact, right = _eval(node.right, env, notes, rewrite)
        truth = Truth.or_(left_fact.truth, right_fact.truth)
        return _bool_fact(truth), _rebuild(node, rewrite, left=left, right=right)

    left_fact, left = _eval(node.left, env, notes, rewrite)
    right_fact, right = _eval(node.right, env, notes, rewrite)
    rebuilt = _rebuild(node, rewrite, left=left, right=right)
    if node.op in _COMPARISONS:
        return _compare_facts(node.op, left_fact, right_fact), rebuilt
    if node.op in _ARITHMETIC:
        return (
            _arithmetic_facts(node.op, left_fact, right_fact, node, notes),
            rebuilt,
        )
    if node.op == "||":
        return _concat_facts(left_fact, right_fact), rebuilt
    return Fact(), rebuilt


def _concat_facts(left: Fact, right: Fact) -> Fact:
    """``||``: NULL if either side is NULL, else string concatenation —
    mirroring the engine's evaluator (``str(lhs) + str(rhs)``)."""
    if left.always_null or right.always_null:
        return replace(NULL_FACT, dtype=DataType.STRING)
    const: Any = TOP
    if left.is_const and right.is_const:
        if left.const is None or right.const is None:
            const = None
        else:
            const = str(left.const) + str(right.const)
    nullability = (
        Nullability.NEVER
        if left.never_null and right.never_null
        else Nullability.MAYBE
    )
    return Fact(
        const=const,
        nullability=nullability,
        truth=Truth(True, True, nullability is not Nullability.NEVER),
        dtype=DataType.STRING,
    )


def _coerce_date_facts(left: Fact, right: Fact) -> tuple[Fact, Fact]:
    """Mirror the evaluator's DATE/STRING comparison coercion.

    The engine turns string literals into date ordinals when the other
    side is DATE data (``_coerce_date_comparison`` in expressions.py);
    without the same coercion here every ``d >= '1994-01-01'`` predicate
    is a DATE-vs-STRING comparison the transfer function must treat as
    opaque.  Unparseable literals (which raise at runtime) are left
    alone — the comparison then proves nothing, which is sound.
    """
    for a, b in ((left, right), (right, left)):
        if (
            a.dtype is DataType.DATE
            and b.dtype is DataType.STRING
            and b.is_const
            and isinstance(b.const, str)
        ):
            try:
                ordinal = parse_date(b.const)
            except StorageError:
                return left, right
            coerced = replace(
                b,
                const=ordinal,
                interval=Interval.point(ordinal),
                dtype=DataType.DATE,
            )
            return (a, coerced) if a is left else (coerced, a)
    return left, right


def _compare_facts(op: str, left: Fact, right: Fact) -> Fact:
    if left.always_null or right.always_null:
        return _bool_fact(Truth(False, False, True))
    left, right = _coerce_date_facts(left, right)
    can_null = not (left.never_null and right.never_null)

    # Constant fold, mirroring the scalar comparison path exactly.
    if left.is_const and right.is_const:
        result = _fold_comparison(op, left.const, right.const)
        if result is not TOP:
            truth = Truth.of(bool(result))
            if can_null:  # pragma: no cover - consts are non-null here
                truth = Truth(truth.can_true, truth.can_false, True)
            return _bool_fact(truth)

    # Integer semantics: an INT64 expression can never equal a
    # fractional constant (the comparison promotes to float, but every
    # integer stays integral after promotion).
    for int_side, const_side in ((left, right), (right, left)):
        if (
            op in ("=", "!=")
            and int_side.dtype in (DataType.INT64, DataType.DATE)
            and const_side.is_const
            and isinstance(const_side.const, float)
            and math.isfinite(const_side.const)
            and const_side.const != int(const_side.const)
        ):
            truth = Truth.of(op != "=")
            if can_null:
                truth = Truth(truth.can_true, truth.can_false, True)
            return _bool_fact(truth)

    always = False
    never = False
    a, b = left.interval, right.interval
    numeric = _numeric_side(left) and _numeric_side(right)
    if numeric and not a.unbounded and not b.unbounded:
        if op == "<":
            always, never = a.all_lt(b), b.all_le(a)
        elif op == "<=":
            always, never = a.all_le(b), b.all_lt(a)
        elif op == ">":
            always, never = b.all_lt(a), a.all_le(b)
        elif op == ">=":
            always, never = b.all_le(a), a.all_lt(b)
        elif op == "=":
            always = a.is_point and b.is_point and a.lo == b.lo
            never = a.disjoint(b)
        elif op == "!=":
            always = a.disjoint(b)
            never = a.is_point and b.is_point and a.lo == b.lo
    truth = Truth(not never, not always, can_null)
    return _bool_fact(truth)


def _numeric_side(fact: Fact) -> bool:
    if fact.dtype is not None:
        return fact.dtype.is_numeric or fact.dtype is DataType.BOOL
    return not isinstance(fact.const, str)


def _fold_comparison(op: str, lhs: Any, rhs: Any) -> Any:
    numeric_l = isinstance(lhs, (int, float))
    numeric_r = isinstance(rhs, (int, float))
    if not (
        (numeric_l and numeric_r)
        or (isinstance(lhs, str) and isinstance(rhs, str))
    ):
        return TOP
    if op == "=":
        return lhs == rhs
    if op == "!=":
        return lhs != rhs
    if op == "<":
        return lhs < rhs
    if op == "<=":
        return lhs <= rhs
    if op == ">":
        return lhs > rhs
    if op == ">=":
        return lhs >= rhs
    return TOP


def _arithmetic_facts(
    op: str, left: Fact, right: Fact, node: Expression, notes: list[Note]
) -> Fact:
    int_inputs = left.dtype in (DataType.INT64, DataType.DATE) and right.dtype in (
        DataType.INT64,
        DataType.DATE,
    )
    dtype = (
        DataType.FLOAT64
        if op == "/"
        else (DataType.INT64 if int_inputs else DataType.FLOAT64)
    )
    if left.dtype is None or right.dtype is None:
        dtype = DataType.FLOAT64 if op == "/" else None

    divisor_zero = op in ("/", "%") and _definitely_zero(right)
    if divisor_zero:
        notes.append(
            Note(
                NoteKind.DIVISION_BY_ZERO,
                node,
                f"divisor of {op!r} is always zero"
                + (" (inf or NULL result)" if op == "/" else ""),
            )
        )
        if op == "/" and not left.is_const:
            # A column divided by zero yields ±inf for nonzero rows and
            # NULL only for zero (NaN) or NULL rows — opaque beyond the
            # dtype.  (Const/const division folds to NULL below via the
            # scalar path; ``%`` raises at runtime, so it stays opaque.)
            return Fact(
                nullability=(
                    Nullability.ALWAYS if left.always_null else Nullability.MAYBE
                ),
                truth=Truth(True, True, True),
                dtype=dtype,
            )

    if left.always_null or right.always_null:
        return replace(NULL_FACT, dtype=dtype)

    const = _fold_arithmetic(op, left, right, node, notes)
    if const is not TOP:
        fact = Fact.of_const(const)
        if const is None:
            fact = replace(fact, dtype=dtype)
        return fact

    interval = UNBOUNDED
    if op == "+":
        interval = left.interval.add(right.interval)
    elif op == "-":
        interval = left.interval.sub(right.interval)
    elif op == "*":
        interval = left.interval.mul(right.interval)
    elif op == "/":
        interval = left.interval.div(right.interval)

    if dtype is DataType.INT64 and not interval.unbounded:
        lo, hi = interval.lo, interval.hi
        if (lo is not None and lo < INT64_MIN) or (
            hi is not None and hi > INT64_MAX
        ):
            notes.append(
                Note(
                    NoteKind.INT64_OVERFLOW,
                    node,
                    f"{op!r} on INT64 operands can exceed the int64 range "
                    f"(derived range {interval.render()})",
                )
            )

    nullability = _arith_nullability(op, left, right)
    return Fact(
        interval=interval,
        nullability=nullability,
        truth=Truth(True, True, nullability is not Nullability.NEVER),
        dtype=dtype,
    )


def _definitely_zero(fact: Fact) -> bool:
    if fact.is_const and isinstance(fact.const, (int, float)):
        return fact.const == 0
    return fact.interval.is_zero_point()


def _fold_arithmetic(
    op: str, left: Fact, right: Fact, node: Expression, notes: list[Note]
) -> Any:
    if not (left.is_const and right.is_const):
        return TOP
    lhs, rhs = left.const, right.const
    if lhs is None or rhs is None:
        return None
    # bool operands take the FLOAT64 runtime path while Python would
    # produce an int — skip folding rather than change the result dtype.
    if isinstance(lhs, bool) or isinstance(rhs, bool):
        return TOP
    if not isinstance(lhs, (int, float)) or not isinstance(rhs, (int, float)):
        return TOP
    if op == "/":
        # Scalar runtime semantics: division by zero yields NaN == NULL.
        return lhs / rhs if rhs != 0 else None
    if op == "%":
        if rhs == 0:
            # The scalar interpreter raises ZeroDivisionError here;
            # folding would swallow the error, so leave it in place
            # (L009 warns about it).
            return TOP
        return lhs % rhs
    if op == "+":
        result: Any = lhs + rhs
    elif op == "-":
        result = lhs - rhs
    elif op == "*":
        result = lhs * rhs
    else:
        return TOP
    if isinstance(result, int) and not (INT64_MIN <= result <= INT64_MAX):
        notes.append(
            Note(
                NoteKind.INT64_OVERFLOW,
                node,
                f"constant fold of {op!r} overflows int64 ({result})",
            )
        )
        return TOP
    if isinstance(result, float) and math.isnan(result):
        return None
    return result


def _arith_nullability(op: str, left: Fact, right: Fact) -> Nullability:
    if not (left.never_null and right.never_null):
        if left.always_null or right.always_null:
            return Nullability.ALWAYS
        return Nullability.MAYBE
    if op in ("+", "-", "*"):
        # inf - inf (or 0 * inf) produces NaN == NULL; finite bounds or
        # integer dtypes rule infinities out.
        if _finite_operand(left) and _finite_operand(right):
            return Nullability.NEVER
        return Nullability.MAYBE
    # '/' and '%': NULL can appear via a zero (or infinite) divisor.
    if right.interval.excludes_zero() and _finite_operand(right):
        return Nullability.NEVER
    return Nullability.MAYBE


def _finite_operand(fact: Fact) -> bool:
    if fact.dtype in (DataType.INT64, DataType.DATE, DataType.BOOL):
        return True
    return fact.interval.bounded


def _is_null_fact(operand: Fact, negated: bool) -> Fact:
    if operand.never_null:
        return Fact.of_const(bool(negated))
    if operand.always_null:
        return Fact.of_const(not negated)
    return Fact(
        nullability=Nullability.NEVER,
        truth=Truth(True, True, False),
        dtype=DataType.BOOL,
    )


def _eval_between(
    node: Between, env: Env, notes: list[Note], rewrite: bool
) -> tuple[Fact, Expression]:
    operand_fact, operand = _eval(node.operand, env, notes, rewrite)
    low_fact, low = _eval(node.low, env, notes, rewrite)
    high_fact, high = _eval(node.high, env, notes, rewrite)
    rebuilt = _rebuild(node, rewrite, operand=operand, low=low, high=high)
    lower = _compare_facts(">=", operand_fact, low_fact)
    upper = _compare_facts("<=", operand_fact, high_fact)
    truth = Truth.and_(lower.truth, upper.truth)
    if node.negated:
        truth = Truth.not_(truth)
    return _bool_fact(truth), rebuilt


def _eval_in_list(
    node: InList, env: Env, notes: list[Note], rewrite: bool
) -> tuple[Fact, Expression]:
    operand_fact, operand = _eval(node.operand, env, notes, rewrite)
    item_facts: list[Fact] = []
    items: list[Expression] = []
    for item in node.items:
        fact, rebuilt_item = _eval(item, env, notes, rewrite)
        item_facts.append(fact)
        items.append(rebuilt_item)
    rebuilt = _rebuild(
        node,
        rewrite,
        operand=operand,
        items=tuple(items) if rewrite else node.items,
    )
    truth: Optional[Truth] = None
    for fact in item_facts:
        member = _compare_facts("=", operand_fact, fact)
        truth = member.truth if truth is None else Truth.or_(truth, member.truth)
    if truth is None:  # empty IN list: never true
        truth = Truth.of(False)
    if node.negated:
        truth = Truth.not_(truth)
    return _bool_fact(truth), rebuilt


def _eval_case(
    node: CaseExpression, env: Env, notes: list[Note], rewrite: bool
) -> tuple[Fact, Expression]:
    whens: list[tuple[Expression, Expression]] = []
    result: Optional[Fact] = None
    for condition, value in node.whens:
        cond_fact, cond = _eval(condition, env, notes, rewrite)
        value_fact, val = _eval(value, env, notes, rewrite)
        whens.append((cond, val))
        # Branch reachability is not tracked: join every arm.
        result = value_fact if result is None else result.join(value_fact)
        del cond_fact
    if node.default is not None:
        default_fact, default = _eval(node.default, env, notes, rewrite)
        result = default_fact if result is None else result.join(default_fact)
    else:
        default = None
        result = NULL_FACT if result is None else result.join(NULL_FACT)
    rebuilt = _rebuild(
        node,
        rewrite,
        whens=tuple(whens) if rewrite else node.whens,
        default=default,
    )
    # Constants across merged branches are not foldable (branch choice
    # is data-dependent); keep the hull only.
    return replace(result, const=TOP), rebuilt


def _eval_call(
    node: FunctionCall, env: Env, notes: list[Note], rewrite: bool
) -> tuple[Fact, Expression]:
    name = node.name.lower()
    if name in AGGREGATE_NAMES:
        # Opaque: the call's SQL text is the aggregate slot key at
        # execution time, so neither the call nor its arguments may be
        # rewritten; its value is unknown.
        return Fact(), node
    arg_facts: list[Fact] = []
    args: list[Expression] = []
    for arg in node.args:
        fact, rebuilt_arg = _eval(arg, env, notes, rewrite)
        arg_facts.append(fact)
        args.append(rebuilt_arg)
    rebuilt = _rebuild(
        node, rewrite, args=tuple(args) if rewrite else node.args
    )
    handler = _CALL_TRANSFERS.get(name)
    if handler is None:
        return Fact(), rebuilt
    return handler(arg_facts, rebuilt, notes), rebuilt


# -- builtin transfer functions ----------------------------------------
def _call_coalesce(
    args: list[Fact], node: Expression, notes: list[Note]
) -> Fact:
    if not args:
        return Fact()
    interval = UNBOUNDED
    nullability = Nullability.ALWAYS
    first = True
    for fact in args:
        interval = fact.interval if first else interval.hull(fact.interval)
        first = False
        if fact.never_null:
            nullability = Nullability.NEVER
            break
        if not fact.always_null:
            nullability = Nullability.MAYBE
    return Fact(
        interval=interval,
        nullability=nullability,
        truth=Truth(True, True, nullability is not Nullability.NEVER),
    )


def _call_if(args: list[Fact], node: Expression, notes: list[Note]) -> Fact:
    if len(args) != 3:
        return Fact()
    condition, then, otherwise = args
    if condition.truth.always_true:
        return replace(then, const=TOP)
    if condition.truth.never_true:
        # FALSE and NULL conditions both take the else branch.
        return replace(otherwise, const=TOP)
    return replace(then.join(otherwise), const=TOP)


def _call_abs(args: list[Fact], node: Expression, notes: list[Note]) -> Fact:
    if len(args) != 1:
        return Fact()
    (operand,) = args
    iv = operand.interval
    interval = UNBOUNDED
    if iv.lo is not None and iv.hi is not None:
        if iv.lo >= 0:
            interval = Interval(iv.lo, iv.hi)
        elif iv.hi <= 0:
            interval = iv.neg()
        else:
            interval = Interval(0, max(abs(iv.lo), abs(iv.hi)))
    return Fact(
        interval=interval,
        nullability=operand.nullability,
        truth=Truth(True, True, not operand.never_null),
        dtype=DataType.FLOAT64,
    )


def _call_monotone(
    transform: Any,
) -> Any:
    def handler(args: list[Fact], node: Expression, notes: list[Note]) -> Fact:
        if len(args) != 1:
            return Fact()
        (operand,) = args
        iv = operand.interval
        lo = transform(iv.lo) if iv.lo is not None else None
        hi = transform(iv.hi) if iv.hi is not None else None
        return Fact(
            interval=Interval(lo, hi),
            nullability=operand.nullability,
            truth=Truth(True, True, not operand.never_null),
            dtype=DataType.FLOAT64,
        )

    return handler


def _call_sqrt(args: list[Fact], node: Expression, notes: list[Note]) -> Fact:
    if len(args) != 1:
        return Fact()
    (operand,) = args
    iv = operand.interval
    non_negative = iv.lo is not None and iv.lo >= 0
    hi = math.sqrt(iv.hi) if iv.hi is not None and iv.hi >= 0 else None
    lo = math.sqrt(iv.lo) if non_negative else (0.0 if hi is not None else None)
    nullability = (
        operand.nullability if non_negative else Nullability.MAYBE
    )
    return Fact(
        interval=Interval(lo, hi),
        nullability=nullability,
        truth=Truth(True, True, nullability is not Nullability.NEVER),
        dtype=DataType.FLOAT64,
    )


def _call_extreme(pick_min: bool) -> Any:
    def handler(args: list[Fact], node: Expression, notes: list[Note]) -> Fact:
        if not args:
            return Fact()
        nullability = Nullability.NEVER
        for fact in args:
            if fact.always_null:
                nullability = Nullability.ALWAYS
                break
            if not fact.never_null:
                nullability = Nullability.MAYBE
        los = [f.interval.lo for f in args]
        his = [f.interval.hi for f in args]
        if pick_min:
            lo = min((v for v in los if v is not None), default=None)
            lo = None if any(v is None for v in los) else lo
            hi_known = [v for v in his if v is not None]
            hi = min(hi_known) if hi_known else None
        else:
            hi = max((v for v in his if v is not None), default=None)
            hi = None if any(v is None for v in his) else hi
            lo_known = [v for v in los if v is not None]
            lo = max(lo_known) if lo_known else None
        return Fact(
            interval=Interval(lo, hi),
            nullability=nullability,
            truth=Truth(True, True, nullability is not Nullability.NEVER),
            dtype=DataType.FLOAT64,
        )

    return handler


def _call_int_division(op: str) -> Any:
    def handler(args: list[Fact], node: Expression, notes: list[Note]) -> Fact:
        if len(args) != 2:
            return Fact()
        left, right = args
        if _definitely_zero(right):
            notes.append(
                Note(
                    NoteKind.DIVISION_BY_ZERO,
                    node,
                    f"divisor of {op}() is always zero",
                )
            )
        if left.always_null or right.always_null:
            return replace(NULL_FACT, dtype=DataType.INT64)
        nullability = _arith_nullability("/", left, right)
        return Fact(
            nullability=nullability,
            truth=Truth(True, True, nullability is not Nullability.NEVER),
            dtype=DataType.INT64,
        )

    return handler


def _call_length(args: list[Fact], node: Expression, notes: list[Note]) -> Fact:
    if len(args) != 1:
        return Fact()
    (operand,) = args
    return Fact(
        interval=Interval(0, None),
        nullability=operand.nullability,
        truth=Truth(True, True, not operand.never_null),
        dtype=DataType.INT64,
    )


def _call_cast(dtype: DataType) -> Any:
    def handler(args: list[Fact], node: Expression, notes: list[Note]) -> Fact:
        if len(args) != 1:
            return Fact()
        (operand,) = args
        iv = operand.interval
        interval = UNBOUNDED
        if dtype.is_numeric and not iv.unbounded:
            lo = math.floor(iv.lo) if iv.lo is not None else None
            hi = math.ceil(iv.hi) if iv.hi is not None else None
            interval = (
                Interval(lo, hi)
                if dtype is DataType.INT64
                else Interval(iv.lo, iv.hi)
            )
        return Fact(
            interval=interval if dtype.is_numeric else UNBOUNDED,
            nullability=operand.nullability,
            truth=Truth(True, True, not operand.never_null),
            dtype=dtype,
        )

    return handler


def _call_nan_capable(
    args: list[Fact], node: Expression, notes: list[Note]
) -> Fact:
    return Fact(nullability=Nullability.MAYBE, dtype=DataType.FLOAT64)


_CALL_TRANSFERS: dict[str, Any] = {
    "coalesce": _call_coalesce,
    "ifnull": _call_coalesce,
    "if": _call_if,
    "abs": _call_abs,
    "floor": _call_monotone(math.floor),
    "ceil": _call_monotone(math.ceil),
    "sqrt": _call_sqrt,
    "least": _call_extreme(pick_min=True),
    "greatest": _call_extreme(pick_min=False),
    "intdiv": _call_int_division("intDiv"),
    "modulo": _call_int_division("modulo"),
    "length": _call_length,
    "tofloat64": _call_cast(DataType.FLOAT64),
    "toint64": _call_cast(DataType.INT64),
    "ln": _call_nan_capable,
    "log": _call_nan_capable,
    "pow": _call_nan_capable,
    "power": _call_nan_capable,
}


# ----------------------------------------------------------------------
# Assume-true refinement
# ----------------------------------------------------------------------
def refine(env: Env, predicate: Expression) -> Optional[Env]:
    """The environment under the assumption ``predicate`` is TRUE.

    Returns ``None`` when no row can satisfy the predicate given the
    current facts (the conjunction is infeasible)."""
    out = env.copy()
    for conjunct in split_conjuncts(predicate):
        if not _refine_one(out, conjunct):
            return None
    return out


def _refine_one(env: Env, conjunct: Expression) -> bool:
    fact = analyze_expression(conjunct, env)
    if fact.truth.never_true:
        return False
    if isinstance(conjunct, IsNull):
        if isinstance(conjunct.operand, ColumnRef):
            return _refine_nullability(
                env,
                conjunct.operand,
                Nullability.NEVER if conjunct.negated else Nullability.ALWAYS,
            )
        return True
    if isinstance(conjunct, Between) and not conjunct.negated:
        return _refine_one(
            env, BinaryOp(">=", conjunct.operand, conjunct.low)
        ) and _refine_one(env, BinaryOp("<=", conjunct.operand, conjunct.high))
    if isinstance(conjunct, BinaryOp) and conjunct.op in _COMPARISONS:
        return _refine_comparison(env, conjunct)
    return True


def _refine_nullability(
    env: Env, ref: ColumnRef, nullability: Nullability
) -> bool:
    canon = env.canonical(ref)
    fact = env.lookup(ref)
    if nullability is Nullability.NEVER:
        if fact.always_null:
            return False
        truth = Truth(fact.truth.can_true, fact.truth.can_false, False)
        env.set_fact(
            canon, replace(fact, nullability=Nullability.NEVER, truth=truth)
        )
        return True
    if fact.never_null:
        return False
    env.set_fact(
        canon,
        replace(
            fact,
            nullability=Nullability.ALWAYS,
            const=None,
            truth=Truth(False, False, True),
        ),
    )
    return True


def _refine_comparison(env: Env, node: BinaryOp) -> bool:
    # A comparison that is TRUE implies both operands are non-NULL.
    for side in (node.left, node.right):
        if isinstance(side, ColumnRef):
            if not _refine_nullability(env, side, Nullability.NEVER):
                return False
    if isinstance(node.left, ColumnRef):
        other = analyze_expression(node.right, env)
        _, other = _coerce_date_facts(env.lookup(node.left), other)
        if not _refine_bound(env, node.left, node.op, other):
            return False
    if isinstance(node.right, ColumnRef):
        other = analyze_expression(node.left, env)
        _, other = _coerce_date_facts(env.lookup(node.right), other)
        if not _refine_bound(env, node.right, _FLIPPED[node.op], other):
            return False
    return True


def _refine_bound(env: Env, ref: ColumnRef, op: str, other: Fact) -> bool:
    canon = env.canonical(ref)
    fact = env.lookup(ref)
    constraint: Optional[Interval] = None
    if op == "=":
        constraint = other.interval
        if (
            other.is_const
            and other.const is not None
            and not isinstance(other.const, str)
        ):
            fact = replace(fact, const=other.const)
        elif other.is_const and isinstance(other.const, str):
            fact = replace(fact, const=other.const)
    elif op == "<" and other.interval.hi is not None:
        constraint = Interval(None, other.interval.hi, False, True)
    elif op == "<=" and other.interval.hi is not None:
        constraint = Interval(
            None, other.interval.hi, False, other.interval.hi_open
        )
    elif op == ">" and other.interval.lo is not None:
        constraint = Interval(other.interval.lo, None, True, False)
    elif op == ">=" and other.interval.lo is not None:
        constraint = Interval(
            other.interval.lo, None, other.interval.lo_open, False
        )
    if constraint is not None and not constraint.unbounded:
        narrowed = fact.interval.intersect(constraint)
        if narrowed.is_empty:
            return False
        fact = replace(fact, interval=narrowed)
    if op == "=" and other.is_const and isinstance(fact.const, (int, float, str)):
        if not _consts_equal(fact.const, other.const):
            # Conflicting equality constraints on the same column.
            if fact.const is not TOP and other.const is not TOP:
                return False
    env.set_fact(canon, fact)
    return True


# ----------------------------------------------------------------------
# Statement-level output facts (EXPLAIN / lint --format json)
# ----------------------------------------------------------------------
def output_facts(
    statement: SelectStatement,
    catalog: Optional["Catalog"] = None,
    statistics: Optional["StatisticsProvider"] = None,
    notes: Optional[list[Note]] = None,
) -> list[tuple[str, Fact]]:
    """``(output column name, fact)`` per select item, stars expanded.

    WHERE refinement is applied first: facts describe the rows the
    query can actually produce, not the raw table contents."""
    env, relations = statement_env(statement, catalog, statistics)
    if statement.where is not None:
        refined = refine(env, statement.where)
        if refined is not None:
            env = refined
    sink = notes if notes is not None else []
    out: list[tuple[str, Fact]] = []
    for ordinal, item in enumerate(statement.items):
        expression = item.expression
        if isinstance(expression, Star):
            for relation in relations:
                if (
                    expression.table is not None
                    and relation.qualifier.lower() != expression.table.lower()
                ):
                    continue
                for name, _ in relation.columns:
                    ref = ColumnRef(name=name, table=relation.qualifier)
                    out.append((name, analyze_expression(ref, env, sink)))
            continue
        fact = analyze_expression(expression, env, sink)
        out.append((item.output_name(ordinal), fact))
    return out
