"""EXPLAIN / EXPLAIN ANALYZE: SQL surface and the analyzer's output shape."""

import pytest

from repro.engine import Database
from repro.engine.analyze import (
    ExplainAnalyzeOutput,
    OperatorActuals,
    format_analysis,
)
from repro.errors import SqlError


@pytest.fixture
def db():
    database = Database()
    database.create_table_from_dict(
        "t", {"g": [1, 1, 2, 2, 3], "v": [10.0, 20.0, 30.0, 40.0, 50.0]}
    )
    return database


SQL = "SELECT g, sum(v) AS total FROM t WHERE v > 15 GROUP BY g ORDER BY g"


class TestExplainAnalyzeApi:
    def test_operators_pair_estimates_with_actuals(self, db):
        output = db.explain_analyze(SQL)
        assert isinstance(output, ExplainAnalyzeOutput)
        assert output.result_rows == 3
        assert output.total_seconds > 0
        kinds = [op.operator.split(None, 1)[0] for op in output.operators]
        assert "Scan" in kinds
        assert "Filter" in kinds
        assert "Aggregate" in kinds
        for op in output.operators:
            assert op.actual_seconds >= 0
            assert op.actual_rows >= 0
            assert op.calls >= 1
            assert op.row_qerror >= 1.0

    def test_tracer_on_and_off_agree(self, db):
        from repro.obs.trace import Tracer

        traced = Database(tracer=Tracer(enabled=True))
        traced.create_table_from_dict(
            "t", {"g": [1, 1, 2, 2, 3], "v": [10.0, 20.0, 30.0, 40.0, 50.0]}
        )

        def shape(output):
            return [
                (op.operator, op.depth, op.actual_rows, op.calls)
                for op in output.operators
            ]

        on, off = traced.explain_analyze(SQL), db.explain_analyze(SQL)
        assert shape(on) == shape(off)
        assert len(on.operators) == 5
        # Tracing on: the actuals come from the database's own trace.
        execute = traced.tracer.last_trace()
        assert execute.attributes["analyze"] is True
        assert len(execute.find_all("operator:scan")) == 1
        assert db.tracer.traces == []

    def test_self_seconds_exclude_child_operators(self, db):
        # The plan is a chain: each operator's one child is the next.
        ops = db.explain_analyze(SQL).operators
        for parent, child in zip(ops, ops[1:]):
            assert child.depth == parent.depth + 1
            assert parent.actual_self_seconds == pytest.approx(
                max(0.0, parent.actual_seconds - child.actual_seconds)
            )

    def test_scan_actual_rows(self, db):
        output = db.explain_analyze(SQL)
        scan = next(
            op for op in output.operators if op.operator.startswith("Scan")
        )
        assert scan.actual_rows == 5

    def test_accepts_explain_analyze_text(self, db):
        output = db.explain_analyze(f"EXPLAIN ANALYZE {SQL}")
        assert output.result_rows == 3

    def test_rejects_non_select(self, db):
        with pytest.raises(SqlError):
            db.explain_analyze("INSERT INTO t (g, v) VALUES (4, 60.0)")

    def test_max_qerror_and_to_dict(self, db):
        output = db.explain_analyze(SQL)
        assert output.max_qerror() >= 1.0
        data = output.to_dict()
        assert data["result_rows"] == 3
        assert len(data["operators"]) == len(output.operators)
        first = data["operators"][0]
        assert set(first) >= {
            "operator", "depth", "estimated_rows", "actual_rows",
            "actual_seconds", "row_qerror",
        }


class TestQError:
    def _actuals(self, estimated_rows, actual_rows):
        return OperatorActuals(
            operator="Scan t",
            depth=0,
            estimated_rows=estimated_rows,
            estimated_cost=1.0,
            actual_rows=actual_rows,
            actual_seconds=0.001,
            actual_self_seconds=0.001,
            calls=1,
        )

    def test_perfect_estimate(self):
        assert self._actuals(10, 10).row_qerror == 1.0

    def test_symmetric(self):
        assert self._actuals(100, 10).row_qerror == 10.0
        assert self._actuals(10, 100).row_qerror == 10.0

    def test_floored_at_one_row(self):
        assert self._actuals(0.0, 0).row_qerror == 1.0
        assert self._actuals(0.5, 2).row_qerror == 2.0


class TestTextFormat:
    def test_format_analysis_lines(self, db):
        output = db.explain_analyze(SQL)
        lines = output.text.splitlines()
        assert output.text == format_analysis(output)
        # Every operator line carries estimates, actuals, and a q-error.
        for line in lines[:-1]:
            assert "(est rows=" in line
            assert "(actual time=" in line
            assert "q-err=" in line
        assert lines[-1].startswith("Execution time:")
        assert "(3 rows)" in lines[-1]

    def test_depth_indentation(self, db):
        output = db.explain_analyze(SQL)
        root, child = output.operators[0], output.operators[1]
        lines = output.text.splitlines()
        assert child.depth == root.depth + 1
        assert lines[1].startswith("  " * child.depth)


class TestSqlSurface:
    def test_explain_analyze_statement_returns_plan_column(self, db):
        result = db.execute(f"EXPLAIN ANALYZE {SQL}")
        assert result.column_names == ["plan"]
        text = "\n".join(result.frame.columns[0].data)
        assert "(actual time=" in text
        assert "q-err=" in text
        assert "Execution time:" in text

    def test_plain_explain_has_no_actuals(self, db):
        result = db.execute(f"EXPLAIN {SQL}")
        text = "\n".join(result.frame.columns[0].data)
        assert "Scan" in text
        assert "actual" not in text

    def test_explain_runs_the_query_exactly_when_analyzing(self, db):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        database = Database(metrics=registry)
        database.create_table_from_dict("t", {"a": [1, 2, 3]})
        database.execute("EXPLAIN SELECT a FROM t")
        assert registry.get("rows_scanned_total") is None
        database.execute("EXPLAIN ANALYZE SELECT a FROM t")
        assert registry.get("rows_scanned_total").value == 3
