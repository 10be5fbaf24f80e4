"""Grace hash join spill: differential correctness and accounting.

Under a query memory budget, a hash join whose build side exceeds a
quarter of the budget hash-partitions both sides, writes the build
partitions to disk, and probes partition-at-a-time.  The join result
must be the same multiset as the in-memory join — including NULL-key
rows (never matching), string payloads with NULLs (spilled as unicode
arrays + validity), and residual predicates applied after the join.
"""

import numpy as np
import pytest

from repro.engine import Database
from repro.obs.metrics import MetricsRegistry
from tests.engine.differential import normalize_rows

N_BUILD = 4_000
N_PROBE = 6_000
#: Small enough that the ~200KB build side trips the budget // 4 spill
#: threshold, large enough that every partition still sees real data.
BUDGET = 512 * 1024


def tables():
    rng = np.random.default_rng(11)
    build_key = [int(k) if k % 7 else None for k in
                 rng.integers(0, 2_000, N_BUILD)]
    return {
        "build": {
            "bk": build_key,
            "tag": [f"tag{k % 13}" if k % 5 else None for k in range(N_BUILD)],
            "score": rng.normal(size=N_BUILD).round(3).tolist(),
        },
        "probe": {
            "pk": [int(k) if k % 9 else None for k in
                   rng.integers(0, 2_000, N_PROBE)],
            "w": rng.normal(size=N_PROBE).round(3).tolist(),
        },
    }


QUERIES = [
    "SELECT count(*) FROM build b JOIN probe p ON b.bk = p.pk",
    "SELECT b.tag, count(*) FROM build b JOIN probe p ON b.bk = p.pk "
    "GROUP BY b.tag",
    "SELECT count(*) FROM build b JOIN probe p ON b.bk = p.pk "
    "WHERE b.score > p.w",
    "SELECT b.bk, b.tag FROM build b JOIN probe p ON b.bk = p.pk "
    "WHERE p.w > 2.5",
]


@pytest.fixture(scope="module")
def databases():
    data = tables()
    budgeted = Database(query_memory_bytes=BUDGET)
    unbudgeted = Database()
    for db in (budgeted, unbudgeted):
        for name, cols in data.items():
            db.create_table_from_dict(name, dict(cols))
    return budgeted, unbudgeted


class TestSpillDifferential:
    @pytest.mark.parametrize("sql", QUERIES)
    def test_spilled_join_matches_in_memory(self, databases, sql):
        budgeted, unbudgeted = databases
        assert normalize_rows(budgeted.query(sql)) == normalize_rows(
            unbudgeted.query(sql)
        )


class TestSpillAccounting:
    def test_spill_metrics_and_stats(self):
        metrics = MetricsRegistry()
        db = Database(query_memory_bytes=BUDGET, metrics=metrics)
        for name, cols in tables().items():
            db.create_table_from_dict(name, dict(cols))
        db.query("SELECT count(*) FROM build b JOIN probe p ON b.bk = p.pk")
        assert metrics.counter("join_spill_partitions_total").value >= 2
        assert metrics.counter("join_spill_bytes_total").value > 0

    def test_no_spill_without_budget(self):
        metrics = MetricsRegistry()
        db = Database(metrics=metrics)
        for name, cols in tables().items():
            db.create_table_from_dict(name, dict(cols))
        db.query("SELECT count(*) FROM build b JOIN probe p ON b.bk = p.pk")
        assert "join_spill_partitions_total" not in metrics._metrics

    def test_small_build_side_stays_in_memory(self):
        metrics = MetricsRegistry()
        db = Database(query_memory_bytes=64 * 1024 * 1024, metrics=metrics)
        for name, cols in tables().items():
            db.create_table_from_dict(name, dict(cols))
        db.query("SELECT count(*) FROM build b JOIN probe p ON b.bk = p.pk")
        assert "join_spill_partitions_total" not in metrics._metrics
