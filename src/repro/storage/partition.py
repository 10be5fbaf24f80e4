"""Horizontally partitioned columnar tables with per-partition zone maps.

A :class:`PartitionedTable` stores its rows as a sequence of fixed-size
horizontal :class:`Partition` chunks instead of one monolithic column
set.  Each partition carries

* its own ``Column`` objects (with validity masks) — either resident in
  memory or *lazily materialized* through a loader that memory-maps the
  per-partition ``.npz`` file written by :mod:`repro.storage.persist`;
* a **zone map**: per-column min/max/null-count statistics (reusing
  :class:`~repro.engine.statistics.ColumnStats`, so integer bounds stay
  exact Python ints) that the optimizer's pruning pass consults to skip
  partitions a folded predicate proves empty;
* an approximate byte footprint, so memory admission and the catalog's
  storage accounting work without touching the data.

The table subclasses :class:`~repro.storage.table.Table` through a
``_columns`` *property*: reading it materializes and concatenates every
partition (full-table paths — row access, UPDATE — keep working
unchanged), while writing it re-chunks the new column list into fresh
resident partitions and rebuilds their zone maps (so ``append_rows`` /
``replace_column`` stay correct).  Scan-path operators special-case the
class and stream partition-at-a-time instead; see
``repro.engine.physical``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from repro.errors import StorageError
from repro.storage.column import Column
from repro.storage.schema import Schema
from repro.storage.table import Table

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.engine.statistics import ColumnStats

#: Default rows per partition.  Small enough that a partition of the
#: widest workload table stays a few megabytes; large enough that the
#: per-partition fold during zone-map pruning is amortized.
DEFAULT_PARTITION_ROWS = 8192


def build_zone_map(columns: Sequence[Column]) -> dict[str, "ColumnStats"]:
    """Per-column stats for one partition (lower-cased name keyed).

    Reuses the statistics collector so the zone map and the table-level
    stats agree byte-for-byte — including the exact-int bounds for
    INT64/DATE columns that predicate folding relies on.
    """
    # Imported lazily: repro.engine pulls in the whole engine package,
    # which must stay importable before this module.
    from repro.engine.statistics import compute_table_stats

    zone = compute_table_stats(Table("__zone__", list(columns))).columns
    for stats in zone.values():
        stats.resolve()
    return zone


class Partition:
    """One horizontal chunk of a partitioned table.

    Either *resident* (``columns`` given) or *lazy* (``loader`` given —
    called on every materialization, returning fresh ``Column`` objects
    backed by memory-mapped arrays; nothing is cached here, which is
    exactly the larger-than-memory property).
    """

    __slots__ = ("rows", "nbytes", "zone", "checksum", "source", "_resident", "_loader")

    def __init__(
        self,
        rows: int,
        nbytes: int,
        zone: dict[str, "ColumnStats"],
        *,
        columns: Optional[Sequence[Column]] = None,
        loader: Optional[Callable[[], list[Column]]] = None,
        checksum: Optional[str] = None,
        source: Optional[str] = None,
    ) -> None:
        if (columns is None) == (loader is None):
            raise StorageError(
                "a Partition needs exactly one of resident columns or a loader"
            )
        self.rows = int(rows)
        self.nbytes = int(nbytes)
        self.zone = zone
        self.checksum = checksum
        self.source = source
        self._resident = list(columns) if columns is not None else None
        self._loader = loader

    @classmethod
    def from_columns(cls, columns: Sequence[Column]) -> "Partition":
        columns = list(columns)
        rows = len(columns[0]) if columns else 0
        return cls(
            rows=rows,
            nbytes=sum(column.nbytes() for column in columns),
            zone=build_zone_map(columns),
            columns=columns,
        )

    @property
    def resident(self) -> bool:
        return self._resident is not None

    def materialize(self) -> list[Column]:
        """The partition's columns; loads lazily when not resident."""
        if self._resident is not None:
            return list(self._resident)
        assert self._loader is not None
        return self._loader()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "resident" if self.resident else f"lazy({self.source})"
        return f"Partition({self.rows} rows, {kind})"


def concat_partition_columns(
    chunks: list[list[Column]], schema: Schema
) -> list[Column]:
    """Concatenate per-partition column lists positionally."""
    if not chunks:
        return [Column.empty(spec.name, spec.dtype) for spec in schema]
    if len(chunks) == 1:
        return list(chunks[0])
    out: list[Column] = []
    for position, spec in enumerate(schema):
        parts = [chunk[position] for chunk in chunks]
        data = np.concatenate([part.data for part in parts])
        valid: Optional[np.ndarray] = None
        if any(part.valid is not None for part in parts):
            valid = np.concatenate([
                part.valid
                if part.valid is not None
                else np.ones(len(part.data), dtype=bool)
                for part in parts
            ])
        out.append(Column(spec.name, spec.dtype, data, valid))
    return out


class _PartitionedColumns:
    """Data descriptor implementing ``PartitionedTable._columns``.

    ``Table`` keeps its column list in the ``_columns`` attribute and
    both reads and swaps it directly; intercepting that attribute is
    what lets every inherited method (mutation included) keep working
    against partitioned storage.  Reads materialize + concatenate,
    writes re-chunk into fresh resident partitions.
    """

    def __get__(self, table: Optional["PartitionedTable"], owner: type) -> list[Column]:
        if table is None:  # pragma: no cover - class-level access
            raise AttributeError("_columns")
        schema = getattr(table, "_schema", None)
        if schema is None:  # mid-__init__, before Table sets the schema
            return []
        chunks = [partition.materialize() for partition in table._partitions]
        return concat_partition_columns(chunks, schema)

    def __set__(self, table: "PartitionedTable", columns: Sequence[Column]) -> None:
        columns = list(columns)
        step = table._partition_rows
        rows = len(columns[0]) if columns else 0
        partitions: list[Partition] = []
        for start in range(0, rows, step):
            chunk = [
                Column(
                    c.name,
                    c.dtype,
                    c.data[start:start + step],
                    c.valid[start:start + step] if c.valid is not None else None,
                )
                for c in columns
            ]
            partitions.append(Partition.from_columns(chunk))
        table._partitions = partitions


class PartitionedTable(Table):
    """A table whose rows live in fixed-size horizontal partitions.

    Construction from columns chunks them immediately; construction via
    :meth:`from_partitions` (the persistence path) attaches lazy
    partitions without materializing anything.
    """

    _columns = _PartitionedColumns()  # type: ignore[assignment]

    def __init__(
        self,
        name: str,
        columns: Sequence[Column] = (),
        *,
        partition_rows: int = DEFAULT_PARTITION_ROWS,
    ) -> None:
        if partition_rows <= 0:
            raise StorageError(
                f"table {name!r}: partition_rows must be positive, "
                f"got {partition_rows}"
            )
        self._partition_rows = int(partition_rows)
        self._partitions: list[Partition] = []
        super().__init__(name, list(columns))

    @classmethod
    def from_partitions(
        cls,
        name: str,
        schema: Schema,
        partitions: Sequence[Partition],
        *,
        partition_rows: int = DEFAULT_PARTITION_ROWS,
    ) -> "PartitionedTable":
        """Attach pre-built (typically lazy) partitions; loads nothing."""
        table = cls(name, [], partition_rows=partition_rows)
        table._schema = schema
        table._partitions = list(partitions)
        return table

    # -- partition introspection ---------------------------------------
    @property
    def partitions(self) -> list[Partition]:
        return list(self._partitions)

    @property
    def num_partitions(self) -> int:
        return len(self._partitions)

    @property
    def partition_rows(self) -> int:
        return self._partition_rows

    # -- metadata-only overrides (avoid materializing) ------------------
    @property
    def num_rows(self) -> int:
        return sum(partition.rows for partition in self._partitions)

    @property
    def num_columns(self) -> int:
        return len(self._schema)

    def nbytes(self) -> int:
        return sum(partition.nbytes for partition in self._partitions)

    def column(self, name: str) -> Column:
        """Materialize a single column (all partitions, one position)."""
        position = self._schema.position_of(name)
        spec = self._schema.spec_of(name)
        chunks = [[p.materialize()[position]] for p in self._partitions]
        return concat_partition_columns(chunks, Schema([spec]))[0]

    def head(self, n: int) -> Table:
        """Materialize only the partitions needed for the first ``n`` rows."""
        chunks: list[list[Column]] = []
        remaining = max(0, int(n))
        for partition in self._partitions:
            if remaining <= 0:
                break
            columns = partition.materialize()
            if partition.rows > remaining:
                columns = [
                    Column(
                        c.name,
                        c.dtype,
                        c.data[:remaining],
                        c.valid[:remaining] if c.valid is not None else None,
                    )
                    for c in columns
                ]
            chunks.append(columns)
            remaining -= partition.rows
        return Table(self.name, concat_partition_columns(chunks, self._schema))

    def snapshot(self) -> "PartitionedTable":
        """Copy-on-write view sharing the current partition list."""
        copy = PartitionedTable.from_partitions(
            self.name,
            self._schema,
            self._partitions,
            partition_rows=self._partition_rows,
        )
        copy.version = self.version
        return copy

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PartitionedTable({self.name!r}, {self.num_rows} rows, "
            f"{self.num_partitions} partitions, {self._schema!r})"
        )
