"""Odds and ends: explain errors, plan cache, soft keywords, edge cases."""

import numpy as np
import pytest

from repro.engine import Database
from repro.errors import SqlError


@pytest.fixture()
def db():
    database = Database()
    database.create_table_from_dict(
        "t", {"a": [1, 2, 3], "s": ["x", "y", "z"]}
    )
    return database


class TestExplain:
    def test_explain_rejects_non_select(self, db):
        with pytest.raises(SqlError):
            db.explain("DROP TABLE t")

    def test_explain_renders_tree(self, db):
        text = db.explain("SELECT a FROM t WHERE a > 1").text
        assert "Scan t" in text
        assert "Filter" in text
        assert "rows=" in text


class TestPlanCache:
    def test_repeated_execution_reuses_plan(self, db):
        sql = "SELECT sum(a) FROM t"
        db.execute(sql)
        cached_plans = len(db._plan_cache)
        db.execute(sql)
        assert len(db._plan_cache) == cached_plans

    def test_view_change_clears_cache(self, db):
        db.execute("CREATE VIEW v AS SELECT a FROM t")
        assert db.query("SELECT count(*) FROM v") == [(3,)]
        db.execute("DROP VIEW v")
        db.execute("CREATE VIEW v AS SELECT a FROM t WHERE a > 1")
        # The new definition must be in force (no stale cached plan).
        assert db.query("SELECT count(*) FROM v") == [(2,)]

    def test_optimizer_config_change_misses_cache(self, db):
        from repro.engine.optimizer import OptimizerConfig

        sql = "SELECT a FROM t WHERE a > 1"
        first = db.explain(sql).plan
        db.optimizer_config = OptimizerConfig(use_hints=True)
        second = db.explain(sql).plan
        assert first is not second

    def test_recycled_config_id_does_not_alias_a_plan(self, db):
        """A collected config's id() can be handed to a new one; the
        entry keeps its config and the hit compares with ``is``."""
        from repro.engine.optimizer import OptimizerConfig

        sql = "SELECT a FROM t WHERE a > 1"
        db.execute(sql)
        statement = db._parse_cached(sql)
        old_key = (id(statement), id(db.optimizer_config))
        entry = db._plan_cache[old_key]
        assert entry.config is db.optimizer_config
        # What a recycled id would look like: the other config's key
        # leads to the entry planned under the first one.
        db.optimizer_config = OptimizerConfig(use_hints=True)
        db._plan_cache[(id(statement), id(db.optimizer_config))] = entry
        assert db._optimized_plan(statement) is not entry.plan

    def test_clear_plan_cache(self, db):
        db.execute("SELECT a FROM t")
        db.clear_plan_cache()
        assert db._plan_cache == {}


class TestSoftKeywords:
    def test_temp_as_column_name(self, db):
        db.execute("CREATE TABLE sensors (id Int64, temp Float64)")
        db.execute("INSERT INTO sensors VALUES (1, 21.5)")
        assert db.query("SELECT temp FROM sensors WHERE temp > 20") == [(21.5,)]

    def test_key_and_index_as_columns(self, db):
        db.execute("CREATE TABLE k (key Int64, index Int64)")
        db.execute("INSERT INTO k VALUES (1, 2)")
        assert db.query("SELECT key + index FROM k") == [(3,)]


class TestStringEdgeCases:
    def test_empty_string_comparison(self, db):
        db.execute("INSERT INTO t VALUES (4, '')")
        assert db.query("SELECT a FROM t WHERE s = ''") == [(4,)]

    def test_quote_escaping_roundtrip(self, db):
        db.execute("INSERT INTO t VALUES (5, 'it''s')")
        assert db.query("SELECT a FROM t WHERE s = 'it''s'") == [(5,)]

    def test_order_by_strings_desc(self, db):
        rows = db.query("SELECT s FROM t ORDER BY s DESC")
        assert [r[0] for r in rows] == ["z", "y", "x"]

    def test_case_over_strings_in_where(self, db):
        rows = db.query(
            "SELECT a FROM t WHERE "
            "CASE WHEN s = 'y' THEN TRUE ELSE FALSE END = TRUE"
        )
        assert rows == [(2,)]


class TestNumericEdgeCases:
    def test_division_by_zero_is_inf_or_nan(self, db):
        # Scalar 1/0 produces NaN, which the engine treats as NULL at the
        # SQL surface (matching SQLite's NULL for division by zero).
        value = db.execute("SELECT 1 / 0").scalar()
        assert value is None or value == float("inf")

    def test_negative_modulo(self, db):
        # numpy semantics: result takes the divisor's sign.
        assert db.execute("SELECT -7 % 3").scalar() == 2

    def test_large_integers(self, db):
        db.create_table_from_dict("big", {"x": [2**40, 2**41]})
        assert db.execute("SELECT sum(x) FROM big").scalar() == 2**40 + 2**41

    def test_float_aggregation_precision(self, db):
        db.create_table_from_dict("f", {"x": [0.1] * 10})
        assert db.execute("SELECT sum(x) FROM f").scalar() == pytest.approx(1.0)


class TestResultOrdering:
    def test_multi_key_mixed_directions(self, db):
        db.create_table_from_dict(
            "m", {"g": ["a", "a", "b", "b"], "v": [1, 2, 1, 2]}
        )
        rows = db.query("SELECT g, v FROM m ORDER BY g ASC, v DESC")
        assert rows == [("a", 2), ("a", 1), ("b", 2), ("b", 1)]

    def test_order_by_expression(self, db):
        rows = db.query("SELECT a FROM t ORDER BY a * -1")
        assert [r[0] for r in rows] == [3, 2, 1]


class TestStorageBytes:
    def test_storage_bytes_counts_data(self, db):
        before = db.storage_bytes()
        db.create_table_from_dict("extra", {"x": list(range(10_000))})
        assert db.storage_bytes() > before
