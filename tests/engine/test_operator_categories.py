"""Fig. 10's category view: operator spans summed per category."""

import time

import numpy as np

from repro.engine import BatchUdf, Database
from repro.obs.trace import CategoryTotals, Tracer, operator_categories
from repro.storage.schema import DataType


class FakeClock:
    """Deterministic clock: every read advances by one second."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        value = self.now
        self.now += 1.0
        return value


def _traced_db() -> Database:
    db = Database(tracer=Tracer(enabled=True))
    db.create_table_from_dict(
        "t", {"k": list(range(50)), "g": [i % 5 for i in range(50)]}
    )
    db.create_table_from_dict("s", {"k": list(range(10))})
    return db


def _slow_udf(seconds: float) -> BatchUdf:
    def slow(values: np.ndarray) -> np.ndarray:
        time.sleep(seconds)
        return values >= 0

    return BatchUdf(name="slow", fn=slow, return_dtype=DataType.BOOL)


def _category_seconds(tracer: Tracer) -> float:
    return sum(
        entry.seconds
        for entry in operator_categories([tracer.last_trace()]).values()
    )


class TestCategoryView:
    def test_spans_accumulate_per_category(self):
        tracer = Tracer(enabled=True, clock=FakeClock())
        with tracer.span("query"):  # t=0
            with tracer.span("operator:join") as join:  # 1..4
                join.set("rows", 10)
                with tracer.span("operator:scan") as scan:  # 2..3
                    scan.set("rows", 4)
            with tracer.span("operator:join") as join:  # 5..6
                join.set("rows", 5)
        totals = operator_categories(tracer.traces)
        # The first join's self time excludes its scan: 3 - 1 + 1.
        assert totals == {
            "join": CategoryTotals(seconds=3.0, calls=2, rows=15),
            "scan": CategoryTotals(seconds=1.0, calls=1, rows=4),
        }

    def test_self_seconds_sum_to_root_wall_time(self):
        tracer = Tracer(enabled=True, clock=FakeClock())
        with tracer.span("operator:project") as root:
            with tracer.span("operator:groupby"):
                with tracer.span("operator:scan"):
                    pass
        totals = operator_categories([root])
        assert sum(entry.seconds for entry in totals.values()) == root.duration

    def test_no_traces_no_categories(self):
        assert operator_categories([]) == {}

    def test_disabled_tracer_records_no_categories(self):
        tracer = Tracer(enabled=False)
        with tracer.span("operator:join") as join:
            join.set("rows", 10)
        assert tracer.traces == []
        assert operator_categories(tracer.traces) == {}


class TestQueryCategories:
    def test_query_populates_categories(self):
        db = _traced_db()
        db.query(
            "SELECT t.g, count(*) FROM t, s WHERE t.k = s.k "
            "GROUP BY t.g ORDER BY t.g"
        )
        totals = operator_categories([db.tracer.last_trace()])
        assert {"scan", "join", "groupby", "sort", "project"} <= set(totals)
        assert totals["scan"].calls == 2
        assert totals["scan"].rows == 60
        assert totals["join"].rows == 10

    def test_scan_emits_operator_span_with_rows(self):
        db = Database(tracer=Tracer(enabled=True))
        db.create_table_from_dict("t", {"a": [1, 2, 3, 4]})
        db.query("SELECT a FROM t")
        trace = db.tracer.last_trace()
        assert trace.find("operator:scan").attributes["rows"] == 4
        assert operator_categories([trace])["scan"].rows == 4

    def test_untraced_database_records_nothing(self):
        db = Database()
        db.create_table_from_dict("t", {"a": [1]})
        db.query("SELECT a FROM t")
        assert db.tracer.traces == []

    def test_udf_time_is_counted_once(self):
        db = _traced_db()
        db.register_udf(_slow_udf(0.2))
        started = time.perf_counter()
        db.execute("SELECT k FROM s WHERE slow(k)")
        wall = time.perf_counter() - started
        totals = operator_categories([db.tracer.last_trace()])
        # The UDF runs inside the filter and is timed there, only there.
        assert totals["filter"].seconds >= 0.2
        assert set(totals) == {"scan", "filter", "project"}
        assert _category_seconds(db.tracer) <= wall + 0.005

    def test_insert_select_counts_each_operator_once(self):
        db = _traced_db()
        db.register_udf(_slow_udf(0.1))
        db.execute("CREATE TABLE u (k Int64)")
        started = time.perf_counter()
        db.execute("INSERT INTO u SELECT k FROM s WHERE slow(k)")
        wall = time.perf_counter() - started
        trace = db.tracer.last_trace()
        totals = operator_categories([trace])
        assert {name: entry.calls for name, entry in totals.items()} == {
            "insert": 1, "scan": 1, "filter": 1, "project": 1,
        }
        assert totals["insert"].rows == 10
        # The SELECT nests inside the insert span.
        assert trace.find("operator:insert").find("operator:filter") is not None
        assert _category_seconds(db.tracer) <= wall + 0.005
