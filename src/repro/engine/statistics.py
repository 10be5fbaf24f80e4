"""Table and column statistics for cost estimation.

Base tables get exact statistics computed on demand and cached until the
table mutates.  Intermediate results of a multi-statement DL2SQL script are
*not* materialized at planning time, so the default cost model has to fall
back to heuristics for them — exactly the situation that makes the DBMS
optimizer mis-estimate neural operators in the paper (Section IV).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from repro.storage.catalog import Catalog
from repro.storage.column import Column
from repro.storage.schema import DataType
from repro.storage.table import Table


#: Marks a bound no reader has asked for yet (``None`` is a value: no
#: non-NULL rows).
_UNREAD: Any = object()


class ColumnStats:
    """Summary statistics for one column.

    ``min_value``/``max_value`` cover the *non-NULL* values only (NULLs
    carry no value); ``null_count`` records how many rows are NULL so
    the dataflow layer can prove definite (non-)nullability.

    Integer-typed columns (INT64, DATE ordinals) keep their bounds as
    exact Python ints: coercing them through ``float`` silently rounds
    magnitudes above 2**53, and the dataflow layer folds predicates
    against these bounds as *exact* facts.

    Statistics built by :meth:`of_column` are computed on first read,
    each field on its own: a consumer that only needs nullability never
    pays for the bounds, and only the cost model ever pays for
    ``distinct``.  Columns are immutable, so a field read late still
    describes the same data as one read early.
    """

    __slots__ = ("_column", "_distinct", "_min", "_max", "_null_count")

    def __init__(
        self,
        distinct: int,
        min_value: Optional[float | int] = None,
        max_value: Optional[float | int] = None,
        null_count: int = 0,
    ) -> None:
        self._column: Optional[Column] = None
        self._distinct: Optional[int] = distinct
        self._min: Any = min_value
        self._max: Any = max_value
        self._null_count: Optional[int] = null_count

    @classmethod
    def of_column(cls, column: Column) -> "ColumnStats":
        """Exact statistics of a materialized column, read on demand."""
        stats = cls.__new__(cls)
        stats._column = column
        stats._distinct = stats._null_count = None
        stats._min = stats._max = _UNREAD
        return stats

    @property
    def distinct(self) -> int:
        if self._distinct is None:
            assert self._column is not None
            self._distinct = self._column.distinct_count()
        return self._distinct

    @property
    def null_count(self) -> int:
        if self._null_count is None:
            assert self._column is not None
            # O(1) for a fixed-width column without a validity mask;
            # float and object columns encode NULL in-band (NaN / None)
            # and need the scan.
            self._null_count = self._column.null_count()
        return self._null_count

    @property
    def min_value(self) -> Optional[float | int]:
        if self._min is _UNREAD:
            self._read_bounds()
        return self._min

    @property
    def max_value(self) -> Optional[float | int]:
        if self._max is _UNREAD:
            self._read_bounds()
        return self._max

    def _read_bounds(self) -> None:
        column = self._column
        assert column is not None
        null_mask = column.null_mask()
        null_count = int(null_mask.sum()) if null_mask is not None else 0
        self._null_count = null_count
        min_value = max_value = None
        if column.dtype.is_numeric and len(column) > null_count:
            data = column.data
            if null_mask is not None:
                # NULLs are NaN (float) or sentinel values (fixed-width)
                # in the backing array; either would corrupt the bounds.
                data = data[~null_mask]
            if column.dtype in (DataType.INT64, DataType.DATE):
                # Exact int bounds: float64 rounds above 2**53, and the
                # fold pass treats these as exact (see class docstring).
                min_value = int(np.min(data))
                max_value = int(np.max(data))
            else:
                min_value = float(np.min(data))
                max_value = float(np.max(data))
        self._min = min_value
        self._max = max_value

    def resolve(self) -> None:
        """Compute every field now and let go of the column.

        Zone maps outlive the (possibly memory-mapped) columns they were
        built from and are written to manifests, so they hold values.
        """
        if self._column is not None:
            if self._distinct is None:
                self._distinct = self._column.distinct_count()
            if self._min is _UNREAD:
                self._read_bounds()  # the null count comes with them
            self._column = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColumnStats):
            return NotImplemented
        return (
            self.distinct == other.distinct
            and self.min_value == other.min_value
            and self.max_value == other.max_value
            and self.null_count == other.null_count
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"ColumnStats(distinct={self.distinct}, "
            f"min_value={self.min_value!r}, max_value={self.max_value!r}, "
            f"null_count={self.null_count})"
        )


@dataclass
class TableStats:
    """Row count plus per-column stats (case-insensitive lookup)."""

    row_count: int
    columns: dict[str, ColumnStats] = field(default_factory=dict)

    def column(self, name: str) -> Optional[ColumnStats]:
        return self.columns.get(name.lower())

    def distinct(self, name: str, default_fraction: float = 0.1) -> float:
        """NDV of a column, falling back to a fraction of the row count.

        The fallback is the textbook default that makes the naive model
        over-estimate join output for the DL2SQL feature-map tables.
        """
        stats = self.column(name)
        if stats is not None and stats.distinct > 0:
            return float(stats.distinct)
        return max(1.0, self.row_count * default_fraction)


def compute_table_stats(table: Table) -> TableStats:
    """Exact statistics for a materialized table.

    Partitioned tables are summarized by *merging their zone maps*
    instead of materializing the data: min/max/null-count merge exactly
    (so the dataflow layer's seeded facts stay sound for lazy,
    larger-than-memory tables), while the distinct count — a cost-model
    estimate, never a semantic fact — is approximated by the capped sum
    of per-partition counts.
    """
    from repro.storage.partition import PartitionedTable

    if isinstance(table, PartitionedTable):
        return _merge_zone_maps(table)
    columns: dict[str, ColumnStats] = {}
    for column in table.columns:
        columns[column.name.lower()] = (
            ColumnStats(distinct=len(column))
            if column.dtype is DataType.BLOB
            else ColumnStats.of_column(column)
        )
    return TableStats(row_count=table.num_rows, columns=columns)


def _merge_zone_maps(table: Table) -> TableStats:
    """Fold per-partition zone maps into table-level statistics."""
    partitions = table.partitions  # type: ignore[attr-defined]
    row_count = sum(p.rows for p in partitions)
    names = dict.fromkeys(
        name for partition in partitions for name in partition.zone
    )
    columns: dict[str, ColumnStats] = {}
    for name in names:
        distinct = null_count = 0
        min_value = max_value = None
        for partition in partitions:
            stats = partition.zone.get(name)
            if stats is None:
                continue
            distinct += stats.distinct
            null_count += stats.null_count
            if stats.min_value is not None and (
                min_value is None or stats.min_value < min_value
            ):
                min_value = stats.min_value
            if stats.max_value is not None and (
                max_value is None or stats.max_value > max_value
            ):
                max_value = stats.max_value
        columns[name] = ColumnStats(
            min(distinct, row_count), min_value, max_value, null_count
        )
    return TableStats(row_count=row_count, columns=columns)


class StatisticsProvider:
    """Caches :class:`TableStats` per catalog table.

    ``override`` entries let cost models inject *estimated* stats for
    tables that do not exist yet (intermediate DL2SQL results during
    whole-script costing).
    """

    def __init__(self, catalog: Catalog) -> None:
        self._catalog = catalog
        #: name -> (stats, catalog data_version they were computed at).
        #: The data_version lives on the *shared* catalog, so a write
        #: from any session invalidates every session's cached stats,
        #: not just the writer's own provider.
        self._cache: dict[str, tuple[TableStats, int]] = {}
        self._sweep_at = 64
        self._overrides: dict[str, TableStats] = {}
        self._versions: dict[str, int] = {}

    def stats_for(self, table_name: str) -> Optional[TableStats]:
        key = table_name.lower()
        if key in self._overrides:
            return self._overrides[key]
        return self.exact_stats_for(table_name)

    def exact_stats_for(self, table_name: str) -> Optional[TableStats]:
        """Exact stats only, never overrides.

        Overrides are *estimates* injected for cost-model experiments;
        semantic consumers (the dataflow lattice, predicate folding)
        must never treat them as truths about stored data.
        """
        key = table_name.lower()
        data_version = self._catalog.data_version(table_name)
        cached = self._cache.get(key)
        if cached is not None and cached[1] == data_version:
            return cached[0]
        if not self._catalog.has(table_name) or self._catalog.is_view(table_name):
            return None
        stats = compute_table_stats(self._catalog.get_table(table_name))
        self._cache[key] = (stats, data_version)
        if len(self._cache) > self._sweep_at:
            # Lazy stats reference the columns they describe, and
            # Catalog.drop does not pass through here: let go of dropped
            # tables once the cache has doubled, so the scan is amortized.
            for name in [n for n in self._cache if not self._catalog.has(n)]:
                del self._cache[name]
            self._sweep_at = max(64, 2 * len(self._cache))
        return stats

    def set_override(self, table_name: str, stats: TableStats) -> None:
        self._overrides[table_name.lower()] = stats

    def clear_overrides(self) -> None:
        self._overrides.clear()

    def version(self, table_name: str) -> int:
        """Monotonic counter bumped on every invalidation of a table.

        Plans whose rewrites were justified by statistics record the
        versions they read; a mismatch on a later cache hit forces a
        containment re-check (see ``Database._optimized_plan``).

        The catalog's shared per-table data version is folded in so a
        mutation performed through *another* session's facade (which
        calls its own provider's :meth:`invalidate`, not ours) still
        advances the version every session observes.
        """
        key = table_name.lower()
        return self._versions.get(key, 0) + self._catalog.data_version(key)

    def invalidate(self, table_name: str) -> None:
        key = table_name.lower()
        self._cache.pop(key, None)
        self._versions[key] = self._versions.get(key, 0) + 1

    def invalidate_all(self) -> None:
        for key in list(self._cache) + list(self._versions):
            self._versions[key] = self._versions.get(key, 0) + 1
        self._cache.clear()
