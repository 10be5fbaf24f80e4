"""Hash indexes over single columns.

The paper builds indexes on ``MatrixID``, ``OrderID`` and ``KernelID`` to
speed up the FeatureMap ⋈ Kernel joins (Section IV-A).  Here a
:class:`HashIndex` maps each distinct key to the numpy array of row
positions holding it.  ``CREATE INDEX`` and ``Dl2SqlModel.load`` build
them and :mod:`repro.storage.persist` saves them, but no operator or
cost model reads one: hash joins build their own tables, and costs
charge a scan whether or not an index exists.  ROADMAP item 4b decides
whether the join consumes an index or the index goes.
"""

from __future__ import annotations

from typing import Any, Iterator

import numpy as np

from repro.errors import StorageError
from repro.storage.column import Column
from repro.storage.schema import DataType


class HashIndex:
    """An equality index: distinct key -> int64 array of row positions."""

    def __init__(self, table_name: str, column: Column) -> None:
        if column.dtype is DataType.BLOB:
            raise StorageError("cannot build a hash index on a BLOB column")
        self.table_name = table_name
        self.column_name = column.name
        self._buckets: dict[Any, np.ndarray] = {}
        self._build(column)

    def _build(self, column: Column) -> None:
        data = column.data
        if len(data) == 0:
            return
        # NULL rows are never indexed: an equality probe can't match NULL
        # (the comparison is UNKNOWN), so they have no bucket to live in.
        null = column.null_mask()
        if column.dtype is DataType.STRING:
            groups: dict[Any, list[int]] = {}
            for position, key in enumerate(data):
                if key is None or (null is not None and null[position]):
                    continue
                groups.setdefault(key, []).append(position)
            self._buckets = {
                key: np.asarray(rows, dtype=np.int64) for key, rows in groups.items()
            }
            return
        # Numeric path: argsort once, then slice runs of equal keys.
        positions = (
            np.flatnonzero(~null) if null is not None else None
        )
        if positions is not None:
            if len(positions) == 0:
                return
            data = data[positions]
        order = np.argsort(data, kind="stable")
        sorted_keys = data[order]
        if positions is not None:
            order = positions[order]
        boundaries = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
        starts = np.concatenate([[0], boundaries])
        ends = np.concatenate([boundaries, [len(sorted_keys)]])
        for start, end in zip(starts, ends):
            self._buckets[sorted_keys[start].item()] = order[start:end]

    # ------------------------------------------------------------------
    @property
    def num_keys(self) -> int:
        return len(self._buckets)

    def lookup(self, key: Any) -> np.ndarray:
        """Row positions whose column value equals ``key`` (possibly empty)."""
        key = _normalize(key)
        return self._buckets.get(key, _EMPTY)

    def probe_many(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Probe a vector of keys.

        Returns ``(probe_positions, match_positions)``: parallel arrays where
        ``probe_positions[i]`` is an index into ``keys`` and
        ``match_positions[i]`` is a matching row in the indexed table.
        """
        probe_out: list[np.ndarray] = []
        match_out: list[np.ndarray] = []
        for position, key in enumerate(keys.tolist()):
            rows = self._buckets.get(key)
            if rows is None:
                continue
            probe_out.append(np.full(len(rows), position, dtype=np.int64))
            match_out.append(rows)
        if not probe_out:
            return _EMPTY, _EMPTY
        return np.concatenate(probe_out), np.concatenate(match_out)

    def __contains__(self, key: Any) -> bool:
        return _normalize(key) in self._buckets

    def keys(self) -> Iterator[Any]:
        return iter(self._buckets)


def _normalize(key: Any) -> Any:
    if isinstance(key, (np.integer,)):
        return int(key)
    if isinstance(key, (np.floating,)):
        return float(key)
    if isinstance(key, np.bool_):
        return bool(key)
    return key


_EMPTY = np.empty(0, dtype=np.int64)
