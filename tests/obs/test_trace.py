"""Span nesting, timing, rendering, and the zero-overhead guarantee."""

import repro.obs.trace as trace_module
from repro.engine import Database
from repro.obs.trace import (
    NULL_SPAN,
    Span,
    Tracer,
    format_span_tree,
    trace_to_json,
)


class FakeClock:
    """Deterministic clock: every read advances by ``step`` seconds."""

    def __init__(self, step: float = 1.0) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


class TestSpanNesting:
    def test_children_follow_the_stack(self):
        tracer = Tracer(enabled=True)
        with tracer.span("query") as query:
            with tracer.span("parse"):
                pass
            with tracer.span("execute") as execute:
                with tracer.span("operator:scan"):
                    pass
        assert [c.name for c in query.children] == ["parse", "execute"]
        assert [c.name for c in execute.children] == ["operator:scan"]
        assert tracer.traces == [query]

    def test_current_tracks_innermost_open_span(self):
        tracer = Tracer(enabled=True)
        assert tracer.current is None
        with tracer.span("outer") as outer:
            assert tracer.current is outer
            with tracer.span("inner") as inner:
                assert tracer.current is inner
            assert tracer.current is outer
        assert tracer.current is None

    def test_find_and_walk(self):
        tracer = Tracer(enabled=True)
        with tracer.span("query") as query:
            with tracer.span("execute"):
                with tracer.span("operator:scan"):
                    pass
                with tracer.span("operator:scan"):
                    pass
        assert query.find("execute").name == "execute"
        assert query.find("missing") is None
        assert len(query.find_all("operator:scan")) == 2
        assert [s.name for s in query.walk()] == [
            "query", "execute", "operator:scan", "operator:scan",
        ]

    def test_exception_is_recorded_and_stack_unwinds(self):
        tracer = Tracer(enabled=True)
        try:
            with tracer.span("query") as query:
                raise ValueError("boom")
        except ValueError:
            pass
        assert query.attributes["error"] == "ValueError"
        assert tracer.current is None
        assert tracer.last_trace() is query

    def test_out_of_order_exit_yields_one_trace(self):
        tracer = Tracer(enabled=True)
        parent = tracer.span("parent")
        parent.__enter__()
        child = tracer.span("child")
        child.__enter__()
        parent.__exit__(None, None, None)
        child.__exit__(None, None, None)
        assert tracer.traces == [parent]
        assert parent.children == [child]
        assert tracer.current is None

    def test_closing_a_root_walks_no_retained_trace(self, monkeypatch):
        tracer = Tracer(enabled=True)
        for _ in range(tracer.max_traces):
            with tracer.span("query"):
                with tracer.span("execute"):
                    pass
        walked = []
        original_walk = Span.walk

        def spy_walk(self):
            walked.append(self)
            return original_walk(self)

        monkeypatch.setattr(trace_module.Span, "walk", spy_walk)
        with tracer.span("query") as newest:
            pass
        assert walked == []
        assert len(tracer.traces) == 64
        assert tracer.last_trace() is newest

    def test_max_traces_keeps_newest(self):
        tracer = Tracer(enabled=True, max_traces=3)
        for i in range(5):
            with tracer.span(f"q{i}"):
                pass
        assert [s.name for s in tracer.traces] == ["q2", "q3", "q4"]


class TestSpanTiming:
    def test_duration_from_clock(self):
        tracer = Tracer(enabled=True, clock=FakeClock(step=1.0))
        with tracer.span("query") as query:
            pass
        # Enter reads t=0, exit reads t=1.
        assert query.duration == 1.0

    def test_self_duration_subtracts_children(self):
        clock = FakeClock(step=1.0)
        tracer = Tracer(enabled=True, clock=clock)
        with tracer.span("parent") as parent:
            with tracer.span("child") as child:
                pass
        # Reads: parent enter(0), child enter(1), child exit(2),
        # parent exit(3): parent=3s, child=1s, self=2s.
        assert parent.duration == 3.0
        assert child.duration == 1.0
        assert parent.self_duration == 2.0

    def test_open_span_reports_zero(self):
        tracer = Tracer(enabled=True)
        span = tracer.span("open")
        span.__enter__()
        assert span.duration == 0.0
        span.__exit__(None, None, None)
        assert span.duration > 0.0


class TestAttributes:
    def test_set_and_add(self):
        tracer = Tracer(enabled=True)
        with tracer.span("transfer", direction="db_to_dl") as span:
            span.set("rows", 10)
            span.add("transfer_bytes", 100)
            span.add("transfer_bytes", 50)
        assert span.attributes == {
            "direction": "db_to_dl", "rows": 10, "transfer_bytes": 150,
        }


class TestDisabledTracer:
    def test_disabled_returns_shared_null_span(self):
        tracer = Tracer(enabled=False)
        assert tracer.span("anything") is NULL_SPAN
        assert tracer.span("other", rows=1) is NULL_SPAN
        with tracer.span("x") as span:
            span.set("ignored", 1)
            span.add("ignored", 2)
        assert tracer.traces == []

    def test_disabled_tracing_allocates_no_spans(self, monkeypatch):
        """Regression: a default Database must never instantiate a Span."""
        instantiated = []
        original_init = Span.__init__

        def spy_init(self, *args, **kwargs):
            instantiated.append(self)
            original_init(self, *args, **kwargs)

        monkeypatch.setattr(trace_module.Span, "__init__", spy_init)
        db = Database()
        db.create_table_from_dict("t", {"a": [1, 2, 3], "b": [4, 5, 6]})
        db.execute("SELECT a, sum(b) FROM t WHERE a > 1 GROUP BY a")
        assert instantiated == []
        # EXPLAIN ANALYZE times its operators on a private tracer: the
        # database's own tracer keeps nothing and stays off afterwards.
        db.execute("EXPLAIN ANALYZE SELECT count(*) FROM t")
        assert db.tracer.traces == []
        instantiated.clear()
        db.execute("SELECT a FROM t WHERE b > 4")
        assert instantiated == []

    def test_enable_disable_toggle(self):
        tracer = Tracer()
        assert not tracer.enabled
        tracer.enable()
        with tracer.span("q"):
            pass
        tracer.disable()
        assert tracer.span("r") is NULL_SPAN
        assert len(tracer.traces) == 1


class TestRendering:
    def test_format_span_tree(self):
        tracer = Tracer(enabled=True, clock=FakeClock(step=0.001))
        with tracer.span("query", sql="SELECT 1") as query:
            with tracer.span("execute") as execute:
                execute.set("rows", 7)
        text = format_span_tree(query)
        lines = text.splitlines()
        assert lines[0].startswith("query")
        assert "sql=SELECT 1" in lines[0]
        assert lines[1].startswith("  execute")
        assert "rows=7" in lines[1]
        assert "ms" in lines[0]

    def test_long_attribute_is_truncated(self):
        tracer = Tracer(enabled=True)
        with tracer.span("query", sql="x" * 100) as span:
            pass
        assert "..." in format_span_tree(span)

    def test_to_dict_and_json(self):
        tracer = Tracer(enabled=True)
        with tracer.span("query") as query:
            with tracer.span("parse") as parse:
                parse.set("cached", False)
        data = query.to_dict()
        assert data["name"] == "query"
        assert data["children"][0]["name"] == "parse"
        assert data["children"][0]["attributes"] == {"cached": False}
        assert "duration_ms" in data
        assert '"name": "query"' in trace_to_json(query)


class TestDatabaseIntegration:
    def test_query_lifecycle_spans(self):
        tracer = Tracer(enabled=True)
        db = Database(tracer=tracer)
        db.create_table_from_dict("t", {"a": [1, 2, 3]})
        db.execute("SELECT sum(a) FROM t WHERE a > 1")
        root = tracer.last_trace()
        assert root.name == "query"
        stages = [c.name for c in root.children]
        assert stages == [
            "parse", "analyze", "plan", "fold", "optimize", "prune", "execute",
        ]
        execute = root.find("execute")
        assert execute.attributes["rows"] == 1
        assert root.find("operator:scan") is not None

    def test_parse_cache_attribute(self):
        tracer = Tracer(enabled=True)
        db = Database(tracer=tracer)
        db.create_table_from_dict("t", {"a": [1]})
        db.execute("SELECT a FROM t")
        db.execute("SELECT a FROM t")
        first, second = tracer.traces[-2:]
        assert first.find("parse").attributes["cached"] is False
        assert second.find("parse").attributes["cached"] is True

    def test_operator_spans_carry_rows(self):
        tracer = Tracer(enabled=True)
        db = Database(tracer=tracer)
        db.create_table_from_dict("t", {"a": list(range(10))})
        db.execute("SELECT a FROM t WHERE a >= 5")
        root = tracer.last_trace()
        scan = root.find("operator:scan")
        filter_span = root.find("operator:filter")
        assert scan.attributes["rows"] == 10
        assert filter_span.attributes["rows"] == 5

        # One span per plan node, nested like the plan, with its rows.
        db.create_table_from_dict(
            "f", {"k": list(range(50)), "g": [i % 5 for i in range(50)]}
        )
        db.create_table_from_dict("d", {"k": list(range(10))})
        sql = (
            "SELECT f.g, count(*) FROM f, d WHERE f.k = d.k "
            "GROUP BY f.g ORDER BY f.g"
        )
        db.execute(sql)
        execute = tracer.last_trace().find("execute")
        plan = db.explain(sql).plan  # same shape as the executed plan
        expected_rows = {
            "Project": 5, "Sort": 5, "Aggregate": 5, "HashJoin": 10,
            "Scan f": 50, "Scan d": 10,
        }
        categories = {
            "Project": "project", "Sort": "sort", "Aggregate": "groupby",
            "HashJoin": "join", "Scan": "scan",
        }
        node_ids = set()

        def check(span, node):
            kind = type(node).__name__
            assert span.name == f"operator:{categories[kind]}"
            key = f"Scan {node.table_name}" if kind == "Scan" else kind
            assert span.attributes["rows"] == expected_rows.pop(key)
            assert isinstance(span.attributes["node"], int)
            node_ids.add(span.attributes["node"])
            children = node.children()
            assert len(span.children) == len(children)
            for child_span, child in zip(span.children, children):
                check(child_span, child)

        assert len(execute.children) == 1
        check(execute.children[0], plan)
        assert expected_rows == {}
        assert len(node_ids) == 6
        assert len(execute.find_all("operator:scan")) == 2
