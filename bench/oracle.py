"""stdlib ``sqlite3`` as the reference engine for relational results."""

from __future__ import annotations

import datetime
import math
import re
import sqlite3
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from repro.storage.schema import DataType

_SQLITE_TYPES = {
    DataType.INT64: "INTEGER",
    DataType.BOOL: "INTEGER",
    DataType.FLOAT64: "REAL",
}
_ISO_DATE = re.compile(r"\d{4}-\d{2}-\d{2}")


def sqlite_from_tables(
    tables: Mapping[str, Any],
    queries: Iterable[str],
    indexes: Sequence[tuple[str, str]] = (),
) -> sqlite3.Connection:
    """Load the columns the queries mention into an in-memory SQLite.

    DATE columns are stored as ISO text so the queries' string literals
    compare the same way in both engines; BLOB columns are left out.
    """
    text = " ".join(queries)
    conn = sqlite3.connect(":memory:")
    for name, table in tables.items():
        specs = [
            spec
            for spec in table.schema
            if spec.dtype is not DataType.BLOB and spec.name in text
        ]
        if name not in text or not specs:
            continue
        columns = []
        for spec in specs:
            data = table.column(spec.name).data
            if spec.dtype is DataType.DATE:
                low, high = int(data.min()), int(data.max())
                names = np.array(
                    [
                        datetime.date.fromordinal(day).isoformat()
                        for day in range(low, high + 1)
                    ],
                    dtype=object,
                )
                columns.append(names[data - low].tolist())
            else:
                columns.append(data.tolist())
        declarations = ", ".join(
            f'"{spec.name}" {_SQLITE_TYPES.get(spec.dtype, "TEXT")}'
            for spec in specs
        )
        conn.execute(f'CREATE TABLE "{name}" ({declarations})')
        conn.executemany(
            f'INSERT INTO "{name}" VALUES ({", ".join("?" * len(specs))})',
            zip(*columns),
        )
    for table_name, column in indexes:
        conn.execute(f'CREATE INDEX "ix_{table_name}_{column}" ON "{table_name}" ("{column}")')
    conn.execute("ANALYZE")
    conn.commit()
    return conn


def _plain(value: Any) -> Any:
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value != value:
        return None
    if isinstance(value, str) and _ISO_DATE.fullmatch(value):
        return datetime.date.fromisoformat(value).toordinal()
    return value


def _same(ours: Any, theirs: Any) -> bool:
    if isinstance(ours, (int, float)) and isinstance(theirs, (int, float)):
        return math.isclose(ours, theirs, rel_tol=1e-9, abs_tol=1e-9)
    return ours == theirs


def _sort_key(row: tuple) -> tuple:
    return tuple(
        (v is None, float(f"{v:.6g}") if isinstance(v, float) else v) for v in row
    )


def same_rows(
    ours: Sequence[Sequence[Any]], theirs: Sequence[Sequence[Any]], sql: str
) -> bool:
    """Do two result sets agree?  In order when the query has ORDER BY.

    Sums over 10^5 rows differ in the last digits between the engines
    (different summation order), hence the relative tolerance.
    """
    left = [tuple(_plain(v) for v in row) for row in ours]
    right = [tuple(_plain(v) for v in row) for row in theirs]
    if len(left) != len(right):
        return False
    if "order by" not in sql.lower():
        left.sort(key=_sort_key)
        right.sort(key=_sort_key)
    return all(
        len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
        for a, b in zip(left, right)
    )
