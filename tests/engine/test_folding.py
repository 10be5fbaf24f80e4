"""Dataflow folding: differential correctness, pruning, cache staleness.

The folding pass rewrites plans before the optimizer sees them, so its
correctness argument is differential: with folding on (the default) and
off (``Database(fold_constants=False)``) every query must produce the
same result multiset — over the NULL-semantics corpus (folding interacts
with 3VL) and over a folding-specific corpus seeded with the rewrites
the pass performs (constant folds, tautology drops, contradiction
pruning, statistics-driven range proofs).
"""

import json

import pytest

from repro.engine import Database, statistics
from repro.engine.logical import EmptyScan, walk_plan
from repro.obs.metrics import MetricsRegistry
from repro.storage import persist
from repro.storage.column import Column
from repro.storage.partition import build_zone_map
from tests.engine.differential import build_engine, normalize_rows
from tests.engine.test_null_semantics import CORPUS, ORDERED_CORPUS, TABLES


def build_unfolded(tables) -> Database:
    db = Database(fold_constants=False)
    for name, columns in tables.items():
        db.create_table_from_dict(name, dict(columns))
    return db


@pytest.fixture(scope="module")
def folded_db():
    return build_engine(TABLES)


@pytest.fixture(scope="module")
def unfolded_db():
    return build_unfolded(TABLES)


def assert_fold_parity(folded: Database, unfolded: Database, sql: str) -> None:
    ours = normalize_rows(folded.query(sql))
    theirs = normalize_rows(unfolded.query(sql))
    if ours == theirs:
        return
    raise AssertionError(
        f"folding changed results for {sql!r}\n"
        f"  folded-only rows: {sorted((ours - theirs).elements(), key=repr)}\n"
        f"  unfolded-only rows: "
        f"{sorted((theirs - ours).elements(), key=repr)}"
    )


class TestNullCorpusParity:
    """The full NULL-semantics corpus, folded vs unfolded."""

    @pytest.mark.parametrize("sql", CORPUS)
    def test_multiset_parity(self, folded_db, unfolded_db, sql):
        assert_fold_parity(folded_db, unfolded_db, sql)

    @pytest.mark.parametrize("sql", [pair[0] for pair in ORDERED_CORPUS])
    def test_ordered_parity(self, folded_db, unfolded_db, sql):
        assert folded_db.query(sql) == unfolded_db.query(sql)


#: Queries chosen to trigger each fold action at least once.
FOLDING_CORPUS = [
    # constant subexpression folding
    "SELECT 1 + 2 * 3 FROM r",
    "SELECT a + (2 - 2) FROM r",
    "SELECT id FROM r WHERE a > 10 + 20",
    "SELECT upper('ab') || s FROM r",
    # tautology deletion
    "SELECT id FROM r WHERE 1 = 1",
    "SELECT id FROM r WHERE a > 20 AND 2 < 3",
    "SELECT id FROM r WHERE id >= 1 AND id >= 0",
    # relational contradiction -> empty scan
    "SELECT id FROM r WHERE a > 5 AND a < 3",
    "SELECT id FROM r WHERE id = 1 AND id = 2",
    "SELECT count(*) FROM r WHERE a > 5 AND a < 3",
    "SELECT g, count(*) FROM r WHERE a > 5 AND a < 3 GROUP BY g",
    "SELECT id FROM r WHERE a > 5 AND a < 3 ORDER BY id LIMIT 2",
    # statistics-driven contradiction (id is 1..8, a is 10..80)
    "SELECT id FROM r WHERE id > 100",
    "SELECT id FROM r WHERE a < 0",
    "SELECT sum(a) FROM r WHERE id > 100",
    # statistics-driven tautology (conjunct dropped, rows kept)
    "SELECT id FROM r WHERE id < 100",
    "SELECT id FROM r WHERE id < 100 AND a > 20",
    # NULL-literal predicates (never TRUE under 3VL)
    "SELECT id FROM r WHERE a = NULL",
    "SELECT id FROM r WHERE NULL",
    # division by a constant zero: +-inf for nonzero rows, NULL for
    # zero/NULL rows, never an error — folding must not prune on it
    "SELECT f / 0 FROM r",
    "SELECT id FROM r WHERE f / 0 = 1",
    "SELECT id FROM r WHERE f / 0 > 1",
    "SELECT f / 0 + 1 FROM r",
    "SELECT 7 / 0 FROM r",
    # int-vs-fractional equality can never match
    "SELECT id FROM r WHERE id = 1.5",
    "SELECT id FROM r WHERE id != 1.5",
    # folding inside joins and subqueries
    "SELECT r.id FROM r JOIN k ON r.a = k.key WHERE 1 = 1",
    "SELECT r.id, k.w FROM r, k WHERE r.a = k.key AND r.id >= 1",
    "SELECT id FROM r WHERE a > (SELECT avg(key) FROM k) AND 2 > 1",
]


class TestFoldingCorpusParity:
    @pytest.mark.parametrize("sql", FOLDING_CORPUS)
    def test_multiset_parity(self, folded_db, unfolded_db, sql):
        assert_fold_parity(folded_db, unfolded_db, sql)


class TestContradictionPruning:
    def test_empty_scan_in_plan(self):
        db = build_engine(TABLES)
        plan = db.explain("SELECT id FROM r WHERE a > 5 AND a < 3").plan
        scans = [n for n in walk_plan(plan) if isinstance(n, EmptyScan)]
        assert len(scans) == 1
        assert "a < 3" in scans[0].reason
        assert db.query("SELECT id FROM r WHERE a > 5 AND a < 3") == []

    def test_empty_scan_preserves_output_schema(self):
        db = build_engine(TABLES)
        result = db.execute("SELECT id, a FROM r WHERE a > 5 AND a < 3")
        assert result.column_names == ["id", "a"]
        assert result.num_rows == 0

    def test_aggregate_over_empty_scan(self):
        db = build_engine(TABLES)
        assert db.query("SELECT count(*) FROM r WHERE a > 5 AND a < 3") == [
            (0,)
        ]
        rows = db.query("SELECT sum(a) FROM r WHERE a > 5 AND a < 3")
        assert rows == [(None,)]

    def test_join_subtree_not_pruned_blindly(self):
        # A contradiction above a join must still produce zero rows
        # whether or not the pass chose to prune.
        db = build_engine(TABLES)
        sql = (
            "SELECT r.id FROM r JOIN k ON r.a = k.key "
            "WHERE r.id > 5 AND r.id < 3"
        )
        assert db.query(sql) == []

    def test_explain_mentions_derived_facts(self):
        db = build_engine(TABLES)
        text = db.explain("SELECT id FROM r WHERE id > 3").text
        assert "Derived facts:" in text
        assert "id:" in text

    def test_fold_off_keeps_original_plan(self):
        db = build_unfolded(TABLES)
        plan = db.explain("SELECT id FROM r WHERE a > 5 AND a < 3").plan
        assert not any(isinstance(n, EmptyScan) for n in walk_plan(plan))


class TestStatisticsStaleness:
    """Stats-justified folds must not survive table mutations."""

    def test_insert_outside_proven_range_forces_replan(self):
        db = Database()
        db.execute("CREATE TABLE s (v INT64)")
        db.execute("INSERT INTO s VALUES (1), (2), (3)")
        sql = "SELECT v FROM s WHERE v < 100"
        # First run folds the always-true conjunct away (v in [1, 3]).
        assert sorted(db.query(sql)) == [(1,), (2,), (3,)]
        # 200 falsifies the assumption; the cached plan must not be
        # reused as-is.
        db.execute("INSERT INTO s VALUES (200)")
        assert sorted(db.query(sql)) == [(1,), (2,), (3,)]

    def test_insert_outside_range_unprunes_contradiction(self):
        db = Database()
        db.execute("CREATE TABLE s (v INT64)")
        db.execute("INSERT INTO s VALUES (1), (2), (3)")
        sql = "SELECT v FROM s WHERE v > 100"
        assert db.query(sql) == []
        db.execute("INSERT INTO s VALUES (200)")
        assert db.query(sql) == [(200,)]

    def test_first_null_invalidates_nonnull_proof(self):
        db = Database()
        db.execute("CREATE TABLE s (v FLOAT64)")
        db.execute("INSERT INTO s VALUES (1.0), (2.0)")
        sql = "SELECT v + 1.0 FROM s"
        assert sorted(db.query(sql)) == [(2.0,), (3.0,)]
        db.execute("INSERT INTO s VALUES (NULL)")
        rows = db.query(sql)
        assert normalize_rows(rows) == normalize_rows(
            [(2.0,), (3.0,), (None,)]
        )

    def test_insert_inside_proven_range_reuses_plan(self):
        db = Database(metrics=None)
        db.execute("CREATE TABLE s (v INT64)")
        db.execute("INSERT INTO s VALUES (1), (9)")
        sql = "SELECT v FROM s WHERE v > 100"
        assert db.query(sql) == []
        # 5 is inside [1, 9]: the containment re-check passes and the
        # cached (pruned) plan stays valid.
        db.execute("INSERT INTO s VALUES (5)")
        assert db.query(sql) == []


class TestRevalidationContract:
    """A plan assumes only what justified a rewrite of it; reading a
    statistic assumes nothing."""

    @staticmethod
    def build(**options):
        metrics = MetricsRegistry()
        return Database(metrics=metrics, **options), metrics

    @staticmethod
    def misses(metrics) -> float:
        return metrics.get("plan_cache_misses_total").value

    def test_fold_without_action_survives_any_data(self):
        # v carries a NULL from the start, so nothing is proven about it:
        # the fold reads v's range, rewrites nothing, and no kernel
        # annotation is made.
        sql = "SELECT v FROM s WHERE v > 2.0"
        folded, metrics = self.build()
        unfolded, _ = self.build(fold_constants=False)
        contents = [
            {"k": [1, 2, 3], "v": [1.0, None, 3.0]},
            {"k": [1, 2, 3], "v": [100.0, -100.0, 2.5]},  # out of range
            {"k": [1, None, 3], "v": [None, None, 7.0]},  # first NULL in k
        ]
        for step, data in enumerate(contents):
            for db in (folded, unfolded):
                db.create_table_from_dict("s", data, replace=True)
            assert_fold_parity(folded, unfolded, sql)
            assert self.misses(metrics) == 1, f"re-planned at step {step}"

    @pytest.mark.parametrize(
        "sql, rows_after",
        [
            ("SELECT v FROM s WHERE v < 100", [(1,), (2,), (3,)]),  # drop_true
            ("SELECT v FROM s WHERE v > 100", [(200,)]),  # empty_scan
        ],
    )
    def test_rewritten_plan_replans_only_outside_its_range(
        self, sql, rows_after
    ):
        db, metrics = self.build()
        db.execute("CREATE TABLE s (v INT64)")
        db.execute("INSERT INTO s VALUES (1), (3)")
        db.query(sql)
        db.execute("INSERT INTO s VALUES (2)")  # inside [1, 3]
        db.query(sql)
        assert self.misses(metrics) == 1
        db.execute("INSERT INTO s VALUES (200)")
        assert sorted(db.query(sql)) == rows_after
        assert self.misses(metrics) == 2

    def test_nonnull_annotation_survives_widening_not_first_null(self):
        sql = "SELECT v + 1.0 FROM s"
        db, metrics = self.build()
        db.execute("CREATE TABLE s (v FLOAT64)")
        db.execute("INSERT INTO s VALUES (1.0), (2.0)")
        db.query(sql)
        db.execute("INSERT INTO s VALUES (-1000.0), (1000.0)")
        assert len(db.query(sql)) == 4
        assert self.misses(metrics) == 1
        db.execute("INSERT INTO s VALUES (NULL)")
        assert normalize_rows(db.query(sql)) == normalize_rows(
            [(2.0,), (3.0,), (-999.0,), (1001.0,), (None,)]
        )
        assert self.misses(metrics) == 2

    def test_nullability_revalidation_leaves_bounds_unread(self):
        db, _ = self.build()
        db.execute("CREATE TABLE s (v FLOAT64)")
        db.execute("INSERT INTO s VALUES (1.0), (2.0)")
        sql = "SELECT v + 1.0 FROM s"
        db.query(sql)
        db.execute("INSERT INTO s VALUES (3.0)")
        db.query(sql)
        stats = db.statistics.exact_stats_for("s").column("v")
        assert stats._null_count == 0 and stats._min is statistics._UNREAD

    def test_distinct_is_computed_on_first_read(self, monkeypatch):
        calls = []
        distinct_count = Column.distinct_count
        monkeypatch.setattr(
            Column,
            "distinct_count",
            lambda column: calls.append(column.name) or distinct_count(column),
        )
        db, _ = self.build()
        db.create_table_from_dict("s", {"k": [1, 2, 2], "v": [1.0, 2.0, 3.0]})
        stats = db.statistics.exact_stats_for("s")
        assert stats.column("k").null_count == 0
        assert (stats.column("v").min_value, stats.column("v").max_value) == (
            1.0,
            3.0,
        )
        assert calls == []
        assert stats.column("k").distinct == 2
        assert stats.column("k").distinct == 2
        assert calls == ["k"]

    def test_zone_map_round_trips_through_manifest(self):
        table = Database().create_table_from_dict(
            "s", {"k": [1, 2, 2, None], "v": [1.0, 2.0, 3.0, 4.0]}
        )
        zone = build_zone_map(table.columns)
        payload = json.loads(json.dumps(persist._zone_to_json(zone)))
        assert persist._zone_from_json(payload) == zone
        assert payload["k"] == {"distinct": 3, "min": 1, "max": 2, "nulls": 1}


class TestMaskFreeKernels:
    def test_nonnull_annotation_on_plan(self):
        db = Database()
        db.execute("CREATE TABLE m (a FLOAT64, b FLOAT64)")
        db.execute("INSERT INTO m VALUES (1.0, 2.0), (3.0, 4.0)")
        plan = db.explain("SELECT a + b FROM m WHERE a > 0.5").plan
        annotated = [
            n
            for n in walk_plan(plan)
            if getattr(n, "nonnull_columns", None)
        ]
        assert annotated, "no node carries a nonnull annotation"
        names = {pair for n in annotated for pair in n.nonnull_columns}
        assert ("m", "a") in names

    def test_annotation_absent_when_column_has_nulls(self):
        db = Database()
        db.execute("CREATE TABLE m (a FLOAT64)")
        db.execute("INSERT INTO m VALUES (1.0), (NULL)")
        plan = db.explain("SELECT a + 1.0 FROM m").plan
        for node in walk_plan(plan):
            assert ("m", "a") not in getattr(node, "nonnull_columns", ())

    def test_mask_free_results_match(self):
        folded = Database()
        unfolded = Database(fold_constants=False)
        for d in (folded, unfolded):
            d.execute("CREATE TABLE m (a FLOAT64, b FLOAT64)")
            d.execute(
                "INSERT INTO m VALUES (1.0, 2.0), (3.0, 4.0), (5.0, 6.0)"
            )
        for sql in (
            "SELECT a + b FROM m WHERE a > 2.0",
            "SELECT a * 2.0 FROM m WHERE a + b < 100.0",
        ):
            assert sorted(folded.query(sql)) == sorted(unfolded.query(sql))
