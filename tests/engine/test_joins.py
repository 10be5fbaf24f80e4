"""Join execution: hash joins, cross joins, multi-key, symmetric."""

import numpy as np
import pytest

from repro.engine import Database
from repro.engine.frame import Frame
from repro.engine.physical import (
    ExecutionContext,
    _match_numeric_keys,
    _symmetric_hash_join,
)
from repro.engine.expressions import FunctionRegistry
from repro.engine.udf import UdfRegistry


@pytest.fixture()
def db():
    database = Database()
    database.create_table_from_dict(
        "left_t", {"k": [1, 2, 2, 3], "lv": [10, 20, 21, 30]}
    )
    database.create_table_from_dict(
        "right_t", {"k": [2, 3, 3, 4], "rv": ["b", "c", "d", "e"]}
    )
    return database


class TestInnerJoin:
    def test_comma_syntax(self, db):
        rows = db.query(
            "SELECT lv, rv FROM left_t, right_t "
            "WHERE left_t.k = right_t.k ORDER BY lv, rv"
        )
        assert rows == [(20, "b"), (21, "b"), (30, "c"), (30, "d")]

    def test_join_syntax_equivalent(self, db):
        a = db.query(
            "SELECT lv, rv FROM left_t, right_t "
            "WHERE left_t.k = right_t.k ORDER BY lv, rv"
        )
        b = db.query(
            "SELECT lv, rv FROM left_t INNER JOIN right_t "
            "ON left_t.k = right_t.k ORDER BY lv, rv"
        )
        assert a == b

    def test_join_with_extra_filter(self, db):
        rows = db.query(
            "SELECT lv FROM left_t, right_t "
            "WHERE left_t.k = right_t.k AND rv = 'b' ORDER BY lv"
        )
        assert rows == [(20,), (21,)]

    def test_empty_result(self, db):
        rows = db.query(
            "SELECT lv FROM left_t, right_t "
            "WHERE left_t.k = right_t.k AND lv > 999"
        )
        assert rows == []

    def test_three_way_join(self, db):
        db.create_table_from_dict("third", {"rv": ["b", "c"], "tv": [1, 2]})
        rows = db.query(
            "SELECT lv, tv FROM left_t, right_t, third "
            "WHERE left_t.k = right_t.k AND right_t.rv = third.rv "
            "ORDER BY lv, tv"
        )
        assert (30, 2) in rows

    def test_expression_join_key(self, db):
        rows = db.query(
            "SELECT lv FROM left_t, right_t "
            "WHERE left_t.k + 1 = right_t.k ORDER BY lv"
        )
        # k=1 matches the one right k=2 row; k=2 (twice) matches the two
        # right k=3 rows; k=3 matches the one right k=4 row.
        assert [r[0] for r in rows] == [10, 20, 20, 21, 21, 30]

    def test_cross_join_no_condition(self, db):
        rows = db.query("SELECT count(*) FROM left_t, right_t")
        assert rows == [(16,)]

    def test_self_join_aliases(self, db):
        rows = db.query(
            "SELECT a.lv, b.lv FROM left_t a, left_t b "
            "WHERE a.k = b.k AND a.lv < b.lv"
        )
        assert rows == [(20, 21)]


class TestMultiKeyJoin:
    """Regression: composite keys must factorize over *both* sides.

    Per-side ``np.unique`` codes made each side's second-smallest value
    get code 1 regardless of what the value was, so rows with different
    key tuples matched (and genuinely equal tuples could miss).  The
    differential against SQLite pins value-correct matching.
    """

    TABLES = {
        "ml": {"x": [1, 5, 5, 7, 8], "y": [10, 20, 30, 1, 2], "lv": list(range(5))},
        "mr": {"x": [5, 2, 5, 7, 9], "y": [20, 10, 99, 1, 3], "rv": list(range(5))},
    }

    @pytest.fixture()
    def pair(self):
        from tests.engine.differential import build_engine, build_sqlite

        engine = build_engine(self.TABLES)
        reference = build_sqlite(self.TABLES)
        yield engine, reference
        reference.close()

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT ml.x, ml.y FROM ml JOIN mr "
            "ON ml.x = mr.x AND ml.y = mr.y",
            "SELECT lv, rv FROM ml JOIN mr "
            "ON ml.x = mr.x AND ml.y = mr.y",
            "SELECT count(*) FROM ml, mr "
            "WHERE ml.x = mr.x AND ml.y = mr.y",
            # One matching key pair, one disjoint: join must be empty.
            "SELECT count(*) FROM ml, mr "
            "WHERE ml.x = mr.x AND ml.y = mr.rv",
        ],
    )
    def test_matches_sqlite(self, pair, sql):
        from tests.engine.differential import assert_equivalent

        engine, reference = pair
        assert_equivalent(engine, reference, sql)

    def test_known_answer(self, pair):
        engine, _ = pair
        rows = engine.query(
            "SELECT ml.x, ml.y FROM ml JOIN mr ON ml.x = mr.x AND ml.y = mr.y"
        )
        assert rows == [(5, 20), (7, 1)]

    def test_three_keys_mixed_dtypes(self):
        db = Database()
        db.create_table_from_dict(
            "a3",
            {
                "i": [1, 1, 2, 2],
                "f": [0.5, 0.5, 1.5, 2.5],
                "s": ["p", "q", "p", "q"],
            },
        )
        db.create_table_from_dict(
            "b3",
            {
                "i": [1, 2, 2],
                "f": [0.5, 2.5, 1.5],
                "s": ["q", "q", "x"],
            },
        )
        rows = db.query(
            "SELECT a3.i, a3.f, a3.s FROM a3 JOIN b3 "
            "ON a3.i = b3.i AND a3.f = b3.f AND a3.s = b3.s"
        )
        assert rows == [(1, 0.5, "q"), (2, 2.5, "q")]

    def test_symmetric_join_uses_shared_dictionary(self):
        # The symmetric (hint rule 3) matcher shares the combine step.
        left = [np.array([1, 5, 5]), np.array([10, 20, 30])]
        right = [np.array([5, 2, 5]), np.array([20, 10, 99])]
        left_idx, right_idx = _symmetric_hash_join(left, right, _ctx())
        assert list(zip(left_idx.tolist(), right_idx.tolist())) == [(1, 0)]


class TestMatchKernels:
    def test_match_numeric_keys_pairs(self):
        build = np.array([1, 2, 2, 3])
        probe = np.array([2, 3, 5])
        build_idx, probe_idx = _match_numeric_keys(build, probe)
        pairs = sorted(zip(build_idx.tolist(), probe_idx.tolist()))
        assert pairs == [(1, 0), (2, 0), (3, 1)]

    def test_match_empty(self):
        empty = np.empty(0, dtype=np.int64)
        build_idx, probe_idx = _match_numeric_keys(empty, np.array([1]))
        assert len(build_idx) == 0 and len(probe_idx) == 0


def _ctx(**kwargs) -> ExecutionContext:
    from repro.storage.catalog import Catalog

    return ExecutionContext(
        catalog=Catalog(),
        functions=FunctionRegistry(),
        udfs=UdfRegistry(),
        **kwargs,
    )


class TestSymmetricHashJoin:
    def test_same_result_as_plain_match(self):
        rng = np.random.default_rng(0)
        left = rng.integers(0, 50, 500)
        right = rng.integers(0, 50, 400)
        ctx = _ctx()
        sym_l, sym_r = _symmetric_hash_join([left], [right], ctx, chunk_size=64)
        plain_l, plain_r = _match_numeric_keys(left, right)
        assert sorted(zip(sym_l.tolist(), sym_r.tolist())) == sorted(
            zip(plain_l.tolist(), plain_r.tolist())
        )

    def test_lru_counters_under_pressure(self):
        rng = np.random.default_rng(1)
        left = rng.integers(0, 2000, 3000)
        right = rng.integers(0, 2000, 3000)
        ctx = _ctx(symmetric_join_memory=1024)  # tiny budget forces eviction
        _symmetric_hash_join([left], [right], ctx, chunk_size=128)
        stats = ctx.last_symmetric_stats
        assert stats["buckets"] > 0
        assert stats["cache_misses"] > 0
        assert stats["bucket_reloads"] >= stats["cache_misses"]

    def test_no_eviction_with_big_budget(self):
        left = np.arange(100)
        right = np.arange(100)
        ctx = _ctx()
        _symmetric_hash_join([left], [right], ctx)
        assert ctx.last_symmetric_stats["cache_misses"] == 0


class TestBucketEvictionAccounting:
    """Regression: eviction must refund the bucket's full byte weight.

    A flat per-entry refund under-credits heavy buckets, leaving ``used``
    inflated so every subsequent insert triggers another (phantom)
    eviction cascade.
    """

    def test_single_eviction_per_overflow(self):
        # 10 entries x 24 B fill a 240 B budget exactly; bucket 0 holds
        # five of them (120 B) and is the LRU bucket afterwards.
        left = np.array([0, 0, 0, 0, 0, 1, 2, 3, 4, 5])
        right = np.array([6, 7])
        ctx = _ctx(symmetric_join_memory=240)
        _symmetric_hash_join([left], [right], ctx)
        stats = ctx.last_symmetric_stats
        # Inserting key 6 overflows by 24 B; evicting bucket 0 refunds
        # its full 120 B, leaving room for key 7 without a second
        # eviction.  The flat-24 refund would have evicted twice.
        assert stats["evictions"] == 1
        assert stats["used_bytes"] == (10 + 2 - 5) * 24

    def test_eviction_then_reload_stays_exact(self):
        rng = np.random.default_rng(3)
        left = rng.integers(0, 300, 2000)
        right = rng.integers(0, 300, 2000)
        tight = _ctx(symmetric_join_memory=2048)
        loose = _ctx()
        t_l, t_r = _symmetric_hash_join([left], [right], tight)
        l_l, l_r = _symmetric_hash_join([left], [right], loose)
        assert tight.last_symmetric_stats["evictions"] > 0
        assert loose.last_symmetric_stats["evictions"] == 0
        assert sorted(zip(t_l.tolist(), t_r.tolist())) == sorted(
            zip(l_l.tolist(), l_r.tolist())
        )

    def test_used_bytes_never_exceed_budget_with_heavy_buckets(self):
        # Skewed keys create buckets of very different weights; as long
        # as no single bucket outweighs the whole budget, resident bytes
        # must respect it (the flat-refund bug broke this invariant).
        left = np.array([1] * 10 + [2] * 6 + list(range(10, 40)))
        right = np.array([1] * 5 + list(range(100, 140)))
        ctx = _ctx(symmetric_join_memory=512)
        _symmetric_hash_join([left], [right], ctx, chunk_size=16)
        assert ctx.last_symmetric_stats["used_bytes"] <= 512
