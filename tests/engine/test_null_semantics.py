"""NULL semantics: differential corpus vs SQLite plus targeted regressions.

The corpus covers every layer the validity-mask refactor touched:
predicate 3VL (Kleene AND/OR/NOT), NULL-propagating comparisons and
arithmetic, string kernels, CASE/coalesce/IN/BETWEEN, aggregates
(COUNT(*) vs COUNT(col), empty-group NULLs), GROUP BY and DISTINCT with
NULL keys, joins that must drop NULL keys, and scalar subqueries.
"""

import numpy as np
import pytest

from repro.engine import Database
from tests.engine.differential import (
    assert_equivalent,
    assert_equivalent_ordered,
    build_engine,
    build_sqlite,
)

TABLES = {
    "r": {
        "id": [1, 2, 3, 4, 5, 6, 7, 8],
        "a": [10, None, 30, None, 50, 60, None, 80],
        "f": [1.5, 2.5, None, None, 5.5, 6.5, 7.5, None],
        "s": ["alpha", None, "beta", "gamma", None, "beta", "delta", None],
        "g": ["x", "x", None, "y", "y", None, "x", None],
    },
    "k": {
        "key": [10, None, 30, 60, None, 90],
        "w": [1.0, 2.0, None, 4.0, 5.0, None],
        "label": ["m", "n", None, "m", None, "n"],
    },
}

CORPUS = [
    # projection and the transfer boundary
    "SELECT a FROM r",
    "SELECT id, a, f, s FROM r",
    "SELECT a, f, s, g FROM r WHERE id > 3",
    # comparisons: NULL operands yield UNKNOWN, filtered out
    "SELECT a FROM r WHERE a > 20",
    "SELECT id FROM r WHERE a = 10",
    "SELECT id FROM r WHERE a != 30",
    "SELECT id FROM r WHERE f <= 5.5",
    "SELECT id FROM r WHERE f > a",
    "SELECT s FROM r WHERE s = 'beta'",
    # Kleene three-valued logic
    "SELECT id FROM r WHERE NOT (a > 20)",
    "SELECT id FROM r WHERE a > 20 AND f < 7.0",
    "SELECT id FROM r WHERE a > 20 OR f < 2.0",
    "SELECT id FROM r WHERE a IS NULL AND f IS NOT NULL",
    "SELECT id FROM r WHERE NOT (a IS NULL OR f IS NULL)",
    "SELECT s FROM r WHERE s = 'beta' OR s IS NULL",
    # IS [NOT] NULL
    "SELECT id FROM r WHERE a IS NULL",
    "SELECT id FROM r WHERE a IS NOT NULL",
    "SELECT id FROM r WHERE s IS NULL OR a IS NULL",
    # IN / BETWEEN under 3VL (NULL in the list, NULL operand)
    "SELECT id FROM r WHERE a IN (10, 30, 80)",
    "SELECT id FROM r WHERE a NOT IN (10, 30)",
    "SELECT id FROM r WHERE a IN (10, NULL)",
    "SELECT id FROM r WHERE a BETWEEN 20 AND 60",
    # string kernels propagate NULL (no str(None) artifacts)
    "SELECT id FROM r WHERE s LIKE 'b%'",
    "SELECT id FROM r WHERE s LIKE '%a%'",
    # LIKE is ASCII-case-insensitive with DOTALL wildcards + ESCAPE,
    # exactly like SQLite
    "SELECT id FROM r WHERE s LIKE 'B%'",
    "SELECT id FROM r WHERE s LIKE 'BETA'",
    "SELECT id FROM r WHERE s NOT LIKE '%A%'",
    "SELECT id FROM r WHERE s LIKE 'al!_%' ESCAPE '!'",
    "SELECT id FROM r WHERE s LIKE 'alph_'",
    "SELECT id FROM r WHERE s LIKE '%t!%' ESCAPE '!'",
    "SELECT s || '_tail' FROM r",
    "SELECT upper(s) FROM r",
    "SELECT lower(s), length(s) FROM r",
    # arithmetic propagation
    "SELECT a + 1, f * 2.0 FROM r",
    "SELECT a + f FROM r",
    "SELECT -a FROM r",
    "SELECT abs(f) FROM r",
    # CASE and coalesce
    "SELECT CASE WHEN a > 30 THEN 'big' WHEN a IS NULL THEN 'none' "
    "ELSE 'small' END FROM r",
    "SELECT CASE WHEN a > 30 THEN 'big' END FROM r",
    "SELECT coalesce(a, 0) FROM r",
    "SELECT coalesce(s, 'missing') FROM r",
    "SELECT coalesce(f, a * 1.0, -1.0) FROM r",
    # aggregates: COUNT(*) vs COUNT(col), NULL-skipping, empty -> NULL
    "SELECT count(*) FROM r",
    "SELECT count(a), count(f), count(s) FROM r",
    "SELECT sum(a), min(a), max(a) FROM r",
    "SELECT avg(f) FROM r",
    "SELECT sum(a) FROM r WHERE a > 100",
    "SELECT count(*) FROM r WHERE a > 100",
    "SELECT count(DISTINCT g) FROM r",
    # GROUP BY: NULL is one group; per-group NULL skipping
    "SELECT g, count(*) FROM r GROUP BY g",
    "SELECT g, count(a), sum(a) FROM r GROUP BY g",
    "SELECT g, avg(f) FROM r GROUP BY g",
    "SELECT g, min(f), max(a) FROM r GROUP BY g",
    "SELECT g, sum(a) FROM r GROUP BY g HAVING sum(a) > 20",
    # DISTINCT: NULL appears exactly once
    "SELECT DISTINCT g FROM r",
    "SELECT DISTINCT a, g FROM r",
    # sorts run through the NULL-aware codes (multiset compare)
    "SELECT id FROM r ORDER BY a",
    "SELECT a FROM r ORDER BY a DESC",
    # joins: NULL keys match nothing, on either side
    "SELECT r.id, k.w FROM r, k WHERE r.a = k.key",
    "SELECT r.id, k.label FROM r JOIN k ON r.a = k.key",
    "SELECT r.id FROM r JOIN k ON r.a = k.key WHERE k.w IS NOT NULL",
    "SELECT count(*) FROM r, k WHERE r.a = k.key",
    "SELECT k.label, count(*) FROM r JOIN k ON r.a = k.key GROUP BY k.label",
    # scalar subqueries
    "SELECT id, (SELECT sum(w) FROM k) FROM r",
    "SELECT id FROM r WHERE a > (SELECT avg(key) FROM k)",
]


@pytest.fixture(scope="module")
def engine_db():
    return build_engine(TABLES)


@pytest.fixture(scope="module")
def sqlite_db():
    conn = build_sqlite(TABLES)
    yield conn
    conn.close()


class TestDifferentialCorpus:
    def test_corpus_is_large_enough(self):
        assert len(CORPUS) >= 40

    @pytest.mark.parametrize("sql", CORPUS)
    def test_matches_sqlite(self, engine_db, sqlite_db, sql):
        assert_equivalent(engine_db, sqlite_db, sql)


#: Order-sensitive corpus: (engine SQL, SQLite SQL with the engine's
#: NULL placement — last ascending, first descending — spelled out).
#: The multiset corpus above can't see ordering bugs; these queries
#: caught the mixed-ASC/DESC lexsort bug where code negation flipped
#: the NULL sentinel to the wrong end of DESC keys (and overflowed on
#: int64 extremes).  All queries are tie-free: they project exactly
#: their sort keys or end on the unique ``id``.
ORDERED_CORPUS = [
    (
        "SELECT g, a FROM r ORDER BY g, a",
        "SELECT g, a FROM r ORDER BY g NULLS LAST, a NULLS LAST",
    ),
    (
        "SELECT g, a FROM r ORDER BY g, a DESC",
        "SELECT g, a FROM r ORDER BY g NULLS LAST, a DESC NULLS FIRST",
    ),
    (
        "SELECT g, a FROM r ORDER BY g DESC, a",
        "SELECT g, a FROM r ORDER BY g DESC NULLS FIRST, a NULLS LAST",
    ),
    (
        "SELECT g, a FROM r ORDER BY g DESC, a DESC",
        "SELECT g, a FROM r ORDER BY g DESC NULLS FIRST, a DESC NULLS FIRST",
    ),
    (
        "SELECT a, f FROM r ORDER BY a DESC, f",
        "SELECT a, f FROM r ORDER BY a DESC NULLS FIRST, f NULLS LAST",
    ),
    (
        "SELECT g, f, id FROM r ORDER BY g, f DESC, id",
        "SELECT g, f, id FROM r "
        "ORDER BY g NULLS LAST, f DESC NULLS FIRST, id",
    ),
    (
        "SELECT s, a, id FROM r ORDER BY s DESC, a, id",
        "SELECT s, a, id FROM r "
        "ORDER BY s DESC NULLS FIRST, a NULLS LAST, id",
    ),
]


class TestOrderedDifferentialCorpus:
    @pytest.mark.parametrize(
        "sql,sqlite_sql", ORDERED_CORPUS, ids=[q for q, _ in ORDERED_CORPUS]
    )
    def test_matches_sqlite_in_order(
        self, engine_db, sqlite_db, sql, sqlite_sql
    ):
        assert_equivalent_ordered(engine_db, sqlite_db, sql, sqlite_sql)

    def test_int64_extremes_do_not_overflow(self):
        # Rank-based sort codes regression: the old implementation
        # negated codes for DESC keys, which wraps INT64_MIN, and
        # computed ``max - min`` spans that overflow on extreme values.
        db = Database()
        extremes = [-(2**63), 2**63 - 1, 0, None, -1]
        db.create_table_from_dict("e", {"x": extremes})
        ascending = [r[0] for r in db.query("SELECT x FROM e ORDER BY x")]
        assert ascending == [-(2**63), -1, 0, 2**63 - 1, None]
        descending = [
            r[0] for r in db.query("SELECT x FROM e ORDER BY x DESC")
        ]
        assert descending == [None, 2**63 - 1, 0, -1, -(2**63)]

    def test_mixed_direction_with_extreme_secondary(self):
        db = Database()
        db.create_table_from_dict(
            "e",
            {
                "g": ["a", "a", "b", "b", None],
                "x": [2**63 - 1, -(2**63), None, 5, 7],
            },
        )
        rows = db.query("SELECT g, x FROM e ORDER BY g, x DESC")
        assert rows == [
            ("a", 2**63 - 1),
            ("a", -(2**63)),
            ("b", None),
            ("b", 5),
            (None, 7),
        ]


# ----------------------------------------------------------------------
# Targeted regressions for the individual NULL bugs the refactor fixed.
# ----------------------------------------------------------------------
@pytest.fixture()
def db():
    database = Database()
    database.create_table_from_dict(
        "t",
        {
            "id": [1, 2, 3, 4],
            "a": [10, None, 30, None],
            "s": ["None", None, "beta", "nonesuch"],
        },
    )
    return database


class TestStringNullRegressions:
    def test_like_does_not_match_literal_none_string(self, db):
        # str(None) == "None" used to make NULLs match 'None%' patterns.
        # LIKE is ASCII-case-insensitive (sqlite semantics), so 'None%'
        # and 'none%' both match "None" and "nonesuch" — but never NULL.
        assert db.query("SELECT id FROM t WHERE s LIKE 'None%'") == [
            (1,), (4,),
        ]
        assert db.query("SELECT id FROM t WHERE s LIKE 'none%'") == [
            (1,), (4,),
        ]

    def test_upper_of_null_is_null(self, db):
        rows = db.query("SELECT upper(s) FROM t")
        assert [r[0] for r in rows] == ["NONE", None, "BETA", "NONESUCH"]

    def test_length_of_null_is_null(self, db):
        rows = db.query("SELECT length(s) FROM t")
        assert [r[0] for r in rows] == [4, None, 4, 8]

    def test_concat_propagates_null(self, db):
        rows = db.query("SELECT s || '!' FROM t")
        assert rows[1][0] is None


class TestJoinNullKeys:
    def test_null_keys_never_match(self, db):
        db.create_table_from_dict("j", {"key": [10, None, 30], "v": [1, 2, 3]})
        rows = db.query("SELECT t.id, j.v FROM t JOIN j ON t.a = j.key")
        assert sorted(rows) == [(1, 1), (3, 3)]

    def test_null_float_keys_never_match(self, db):
        db.create_table_from_dict("fl", {"key": [10.0, None], "v": [1, 2]})
        db.create_table_from_dict("fr", {"key": [None, 10.0], "w": [7, 8]})
        rows = db.query("SELECT fl.v, fr.w FROM fl JOIN fr ON fl.key = fr.key")
        assert rows == [(1, 8)]

    def test_symmetric_hash_join_drops_null_keys(self, db):
        from repro.engine.physical import (
            ExecutionContext,
            _symmetric_hash_join,
        )

        ctx = ExecutionContext(
            catalog=db.catalog,
            functions=db.functions,
            udfs=db.udfs,
        )
        left = np.array([1.0, np.nan, 3.0, 4.0])
        right = np.array([np.nan, 1.0, 4.0])
        left_idx, right_idx = _symmetric_hash_join(
            [left],
            [right],
            ctx,
            chunk_size=2,
            left_null=np.isnan(left),
            right_null=np.isnan(right),
        )
        pairs = sorted(zip(left_idx.tolist(), right_idx.tolist()))
        assert pairs == [(0, 1), (3, 2)]

    def test_indexed_join_skips_null_keys(self, db):
        db.create_table_from_dict("ij", {"key": [10, None, 30], "v": [1, 2, 3]})
        db.execute("CREATE INDEX idx ON ij(key)")
        assert db.catalog.get_index("ij", "key") is not None
        rows = db.query("SELECT t.id, ij.v FROM t JOIN ij ON t.a = ij.key")
        assert sorted(rows) == [(1, 1), (3, 3)]


class TestConditionalNulls:
    def test_if_with_null_condition_takes_else(self, db):
        rows = db.query("SELECT if(a > 15, 'hi', 'lo') FROM t")
        assert [r[0] for r in rows] == ["lo", "lo", "hi", "lo"]

    def test_if_null_branches(self, db):
        rows = db.query("SELECT if(id = 1, NULL, id) FROM t")
        assert [r[0] for r in rows] == [None, 2, 3, 4]

    def test_coalesce_three_way(self, db):
        rows = db.query("SELECT coalesce(a, id) FROM t")
        assert [r[0] for r in rows] == [10, 2, 30, 4]


class TestSortAndUpdateNulls:
    def test_order_by_nulls_last_asc_first_desc(self, db):
        ascending = db.query("SELECT a FROM t ORDER BY a ASC")
        assert [r[0] for r in ascending] == [10, 30, None, None]
        descending = db.query("SELECT a FROM t ORDER BY a DESC")
        assert [r[0] for r in descending] == [None, None, 30, 10]

    def test_update_set_null(self, db):
        db.execute("UPDATE t SET a = NULL WHERE id = 1")
        rows = db.query("SELECT a FROM t WHERE a IS NULL")
        assert len(rows) == 3
        assert db.execute("SELECT sum(a) FROM t").scalar() == 30

    def test_update_overwrites_null(self, db):
        db.execute("UPDATE t SET a = 99 WHERE id = 2")
        assert db.query("SELECT a FROM t WHERE id = 2") == [(99,)]


class TestPersistNullRoundTrip:
    def test_all_types_round_trip(self, tmp_path):
        from repro.storage.persist import load_database, save_database

        db = Database()
        db.create_table_from_dict(
            "p",
            {
                "i": [1, None, 3],
                "x": [1.5, None, 3.5],
                "s": ["a", None, "c"],
            },
        )
        save_database(db, str(tmp_path / "store"))
        fresh = Database()
        load_database(fresh, str(tmp_path / "store"))
        assert fresh.query("SELECT i, x, s FROM p") == [
            (1, 1.5, "a"),
            (None, None, None),
            (3, 3.5, "c"),
        ]
        assert fresh.execute("SELECT count(i) FROM p").scalar() == 2
