"""Adversarial semantic-error suite.

Every S0xx code the analyzer can emit is triggered here through the
public ``Database.execute()`` path, asserting both the stable error code
and the source span (the span's snippet must be the offending text, not
just "somewhere in the query").
"""

import pytest

from repro.analysis import SemanticAnalyzer, analyze_query
from repro.engine import BatchUdf, Database
from repro.errors import SemanticError, UdfError, UnknownFunctionError
from repro.sql import parse_statement
from repro.storage.schema import DataType


@pytest.fixture()
def db():
    database = Database()
    database.create_table_from_dict(
        "t",
        {"a": [1, 2, 3], "b": [1.0, 2.0, 3.0], "g": ["x", "y", "z"]},
    )
    database.create_table_from_dict("u", {"a": [1], "c": ["k"]})
    database.register_udf(
        BatchUdf(
            name="nudf_one",
            fn=lambda values: values * 2.0,
            return_dtype=DataType.FLOAT64,
        )
    )
    database.register_udf(
        BatchUdf(
            name="nudf_str",
            fn=lambda values: values,
            return_dtype=DataType.FLOAT64,
            arg_dtypes=(DataType.STRING,),
        )
    )
    return database


def reject(db, sql):
    with pytest.raises(SemanticError) as excinfo:
        db.execute(sql)
    return excinfo.value


def snippet(sql, error):
    assert error.span is not None, "semantic error lost its source span"
    return sql[error.span.start : error.span.end]


class TestErrorCodes:
    def test_s001_unknown_column(self, db):
        sql = "SELECT missing FROM t"
        error = reject(db, sql)
        assert error.code == "S001"
        assert snippet(sql, error) == "missing"

    def test_s001_unknown_qualified_column(self, db):
        sql = "SELECT t.missing FROM t"
        error = reject(db, sql)
        assert error.code == "S001"
        assert snippet(sql, error) == "t.missing"
        # the message hints at the columns the relation does have
        assert "'a'" in str(error)

    def test_s002_ambiguous_column(self, db):
        sql = "SELECT a FROM t JOIN u ON t.a = u.a"
        error = reject(db, sql)
        assert error.code == "S002"
        assert snippet(sql, error) == "a"
        assert "t" in str(error) and "u" in str(error)

    def test_s003_int_vs_string_comparison(self, db):
        sql = "SELECT * FROM t WHERE a = 'x'"
        error = reject(db, sql)
        assert error.code == "S003"
        assert snippet(sql, error) == "a = 'x'"
        assert "CAST" in str(error)

    def test_s003_string_vs_float_comparison(self, db):
        error = reject(db, "SELECT * FROM t WHERE g < 3.5")
        assert error.code == "S003"

    def test_s004_arithmetic_on_string(self, db):
        sql = "SELECT g + 1 FROM t"
        error = reject(db, sql)
        assert error.code == "S004"
        assert snippet(sql, error) == "g + 1"

    def test_s004_unary_minus_on_string(self, db):
        error = reject(db, "SELECT -g FROM t")
        assert error.code == "S004"

    def test_s005_aggregate_in_where(self, db):
        sql = "SELECT a FROM t WHERE sum(a) > 1"
        error = reject(db, sql)
        assert error.code == "S005"
        assert snippet(sql, error) == "sum(a)"

    def test_s006_wrong_udf_arity(self, db):
        sql = "SELECT nudf_one(a, b) FROM t"
        error = reject(db, sql)
        assert error.code == "S006"
        assert snippet(sql, error) == "nudf_one(a, b)"
        assert "takes 1" in str(error)

    def test_s007_group_by_select_alias(self, db):
        sql = "SELECT a AS x FROM t GROUP BY x"
        error = reject(db, sql)
        assert error.code == "S007"
        assert snippet(sql, error) == "x"

    def test_s008_unknown_function(self, db):
        sql = "SELECT nosuchfn(a) FROM t"
        error = reject(db, sql)
        assert error.code == "S008"
        assert snippet(sql, error) == "nosuchfn(a)"
        # dual inheritance: both the analyzer-era and runtime-era handlers
        # catch it
        assert isinstance(error, UnknownFunctionError)
        assert isinstance(error, SemanticError)
        assert isinstance(error, UdfError)

    def test_s009_scalar_subquery_width(self, db):
        sql = "SELECT (SELECT a, b FROM t)"
        error = reject(db, sql)
        assert error.code == "S009"
        assert snippet(sql, error) == "(SELECT a, b FROM t)"

    def test_s010_unknown_table(self, db):
        sql = "SELECT * FROM missing_table"
        error = reject(db, sql)
        assert error.code == "S010"
        assert snippet(sql, error) == "missing_table"

    def test_s011_udf_argument_type(self, db):
        sql = "SELECT nudf_str(a) FROM t"
        error = reject(db, sql)
        assert error.code == "S011"
        assert snippet(sql, error) == "a"
        assert "expects String" in str(error)

    def test_s012_star_argument(self, db):
        sql = "SELECT sum(*) FROM t"
        error = reject(db, sql)
        assert error.code == "S012"
        assert snippet(sql, error) == "*"

    def test_errors_fire_before_execution(self, db):
        """The rejection happens at analysis time: EXPLAIN (which never
        executes) rejects the same statements."""
        with pytest.raises(SemanticError):
            db.execute("EXPLAIN SELECT missing FROM t")

    def test_create_table_as_select_is_analyzed(self, db):
        with pytest.raises(SemanticError):
            db.execute("CREATE TABLE t2 AS SELECT missing FROM t")

    def test_span_line_and_column(self, db):
        sql = "SELECT a,\n       missing\nFROM t"
        error = reject(db, sql)
        from repro.sql.spans import line_and_column

        line, column = line_and_column(sql, error.span.start)
        assert (line, column) == (2, 8)


class TestAcceptedQueries:
    """Queries that must keep passing the analyzer unchanged."""

    def test_date_string_comparison(self, db):
        db.create_table_from_dict(
            "d", {"day": ["2024-01-01", "2024-01-02"], "v": [1, 2]}
        )
        # strings compare with strings...
        db.execute("SELECT * FROM d WHERE day = '2024-01-01'")
        # ...and DATE (toDate's return type) stays comparable with STRING
        db.execute("SELECT * FROM d WHERE toDate(day) = '2024-01-01'")
        db.execute("SELECT * FROM d WHERE toDate(day) >= toDate('2024-01-01')")

    def test_explicit_cast_resolves_s003(self, db):
        reject(db, "SELECT * FROM t WHERE a = 'x'")
        db.execute("SELECT * FROM t WHERE CAST(a AS STRING) = 'x'")
        db.execute("SELECT * FROM t WHERE a = CAST('2' AS INT64)")

    def test_cast_output_types(self, db):
        report = analyze_query(
            "SELECT CAST(a AS STRING), CAST(g AS FLOAT64) FROM t",
            catalog=db.catalog,
            functions=db.functions,
            udfs=db.udfs,
        )
        assert report.ok
        assert [c.dtype for c in report.schema.columns] == [
            DataType.STRING,
            DataType.FLOAT64,
        ]

    def test_cast_round_trip_executes(self, db):
        rows = db.query("SELECT CAST(CAST(a AS STRING) AS INT64) FROM t")
        assert rows == [(1,), (2,), (3,)]

    def test_zero_row_table_types_are_not_trusted(self, db):
        # from_dict types empty columns as STRING; comparisons against
        # numbers must not be rejected on that default.
        db.create_table_from_dict("empty", {"x": []})
        db.execute("SELECT * FROM empty WHERE x > 0")

    def test_self_join_bare_column_not_ambiguous(self, db):
        # Both sides of the self-join expose the same physical column, so
        # a bare reference is not ambiguous (mirrors the runtime's
        # same-source rule).  Distinct columns with the same name stay
        # ambiguous (S002, above).
        statement = parse_statement(
            "SELECT a FROM t AS x JOIN t AS y ON x.a = y.a"
        )
        analyzer = SemanticAnalyzer(db.catalog, db.functions, db.udfs)
        schema = analyzer.analyze(statement)
        assert schema.names() == ["a"]

    def test_view_columns_resolve(self, db):
        db.execute("CREATE VIEW v AS SELECT a AS alpha, b FROM t")
        db.execute("SELECT alpha FROM v WHERE alpha > 1")
        error = reject(db, "SELECT a FROM v")
        assert error.code == "S001"


class TestTypeInference:
    def _schema(self, db, sql):
        report = analyze_query(
            sql, catalog=db.catalog, functions=db.functions, udfs=db.udfs
        )
        assert report.ok, report.findings
        return report.schema

    def test_column_types(self, db):
        schema = self._schema(db, "SELECT a, b, g FROM t")
        assert schema.render() == "a Int64, b Float64, g String"

    def test_arithmetic_types(self, db):
        schema = self._schema(db, "SELECT a + 1, a / 2, a * b FROM t")
        assert [c.dtype for c in schema.columns] == [
            DataType.INT64,
            DataType.FLOAT64,
            DataType.FLOAT64,
        ]

    def test_aggregate_types(self, db):
        schema = self._schema(
            db, "SELECT count(*), sum(a), avg(a), min(g) FROM t"
        )
        assert [c.dtype for c in schema.columns] == [
            DataType.INT64,
            DataType.INT64,
            DataType.FLOAT64,
            DataType.FLOAT64,
        ]

    def test_sum_if_types_match_runtime(self, db):
        # sumIf is sum over the qualifying rows: integer arguments stay
        # Int64 (exact above 2**53), everything else is Float64.
        sql = "SELECT sumIf(a, a > 1), sumIf(b, a > 1) FROM t"
        schema = self._schema(db, sql)
        assert [c.dtype for c in schema.columns] == [
            DataType.INT64,
            DataType.FLOAT64,
        ]
        frame = db.execute(sql).frame
        assert [c.dtype for c in frame.columns] == [
            DataType.INT64,
            DataType.FLOAT64,
        ]

    def test_udf_return_type(self, db):
        schema = self._schema(db, "SELECT nudf_one(a) FROM t")
        assert schema.columns[0].dtype is DataType.FLOAT64

    def test_explain_shows_output_schema(self, db):
        text = str(db.explain("SELECT a, b, g FROM t"))
        assert "Output: a Int64, b Float64, g String" in text

    def test_unknown_types_render_as_question_mark(self):
        report = analyze_query("SELECT x FROM anywhere")
        assert report.ok
        assert report.schema.render() == "x ?"


class TestLenientMode:
    def test_unknown_table_is_open_without_catalog(self):
        assert analyze_query("SELECT whatever FROM nowhere").ok

    def test_structural_errors_still_raise(self):
        # a misplaced star is wrong no matter what the catalog holds
        report = analyze_query("SELECT sum(*) FROM nowhere")
        assert not report.ok
        assert report.errors[0].code == "S012"

    def test_strict_functions_split(self, db):
        # the independent strategy wants strict tables, lenient functions
        analyzer = SemanticAnalyzer(
            db.catalog, db.functions, db.udfs, strict_functions=False
        )
        analyzer.analyze(parse_statement("SELECT not_registered(a) FROM t"))
        with pytest.raises(SemanticError) as excinfo:
            analyzer.analyze(parse_statement("SELECT a FROM missing_table"))
        assert excinfo.value.code == "S010"

    def test_analysis_can_be_disabled(self):
        database = Database(semantic_analysis=False, validate_plans=False)
        database.create_table_from_dict("t", {"a": [1]})
        # falls through to the planner, which raises its own PlanError
        from repro.errors import PlanError

        with pytest.raises(PlanError):
            database.execute("SELECT missing FROM t")


class TestNullabilityInference:
    """The analyzer's nullable verdict per output column.

    Base-table nullability is read off the stored data: columns of ``t``
    hold no NULLs, so references to them are NOT NULL; ``nt.x`` holds a
    NULL and stays nullable.
    """

    @pytest.fixture()
    def ndb(self, db):
        db.create_table_from_dict("nt", {"x": [1, None, 3], "s": ["a", "b", "c"]})
        return db

    def _schema(self, db, sql):
        report = analyze_query(
            sql, catalog=db.catalog, functions=db.functions, udfs=db.udfs
        )
        assert report.ok, report.findings
        return report.schema

    def test_null_free_column_is_not_nullable(self, ndb):
        schema = self._schema(ndb, "SELECT a, g FROM t")
        assert [c.nullable for c in schema.columns] == [False, False]

    def test_column_with_nulls_is_nullable(self, ndb):
        schema = self._schema(ndb, "SELECT x, s FROM nt")
        assert [c.nullable for c in schema.columns] == [True, False]

    def test_star_expansion_carries_nullability(self, ndb):
        schema = self._schema(ndb, "SELECT * FROM nt")
        assert [c.nullable for c in schema.columns] == [True, False]

    def test_null_literal_is_nullable(self, ndb):
        schema = self._schema(ndb, "SELECT NULL, 1, 'k' FROM t")
        assert [c.nullable for c in schema.columns] == [True, False, False]

    def test_count_never_nullable_sum_nullable(self, ndb):
        schema = self._schema(ndb, "SELECT count(*), count(x), sum(x) FROM nt")
        assert [c.nullable for c in schema.columns] == [False, False, True]

    def test_sum_if_never_nullable(self, ndb):
        # No qualifying row sums to 0, never NULL, as at run time.
        sql = "SELECT sumIf(x, x > 100) FROM nt"
        schema = self._schema(ndb, sql)
        assert schema.columns[0].nullable is False
        assert ndb.query(sql) == [(0,)]

    def test_min_over_null_free_column_still_nullable(self, ndb):
        # The group can be empty (zero qualifying rows), which yields NULL
        # even when the column itself has no NULLs.
        schema = self._schema(ndb, "SELECT min(a) FROM t")
        assert schema.columns[0].nullable is True

    def test_is_null_is_definite(self, ndb):
        schema = self._schema(ndb, "SELECT x IS NULL FROM nt")
        assert schema.columns[0].nullable is False

    def test_coalesce_with_definite_fallback(self, ndb):
        schema = self._schema(ndb, "SELECT coalesce(x, 0) FROM nt")
        assert schema.columns[0].nullable is False

    def test_coalesce_all_nullable_stays_nullable(self, ndb):
        schema = self._schema(ndb, "SELECT coalesce(x, x) FROM nt")
        assert schema.columns[0].nullable is True

    def test_arithmetic_propagates_nullability(self, ndb):
        schema = self._schema(ndb, "SELECT x + 1, a + 1 FROM nt, t")
        assert [c.nullable for c in schema.columns] == [True, False]

    def test_division_always_nullable(self, ndb):
        # 1/0 produces NaN, which the engine reads back as NULL.
        schema = self._schema(ndb, "SELECT a / 1 FROM t")
        assert schema.columns[0].nullable is True

    def test_case_without_else_is_nullable(self, ndb):
        schema = self._schema(
            ndb, "SELECT CASE WHEN a > 1 THEN 1 END FROM t"
        )
        assert schema.columns[0].nullable is True

    def test_case_with_definite_else_is_not(self, ndb):
        schema = self._schema(
            ndb, "SELECT CASE WHEN a > 1 THEN 1 ELSE 0 END FROM t"
        )
        assert schema.columns[0].nullable is False

    def test_derived_table_carries_nullability(self, ndb):
        schema = self._schema(
            ndb,
            "SELECT k, c FROM (SELECT x AS k, count(*) AS c FROM nt "
            "GROUP BY x) AS d",
        )
        assert [c.nullable for c in schema.columns] == [True, False]

    def test_render_nullable_marks_not_null(self, ndb):
        schema = self._schema(ndb, "SELECT a FROM t")
        assert schema.columns[0].render_nullable() == "a Int64 NOT NULL"
        # render() itself must stay stable for plan headers.
        assert schema.columns[0].render() == "a Int64"

    def test_empty_table_columns_stay_nullable(self, ndb):
        ndb.execute("CREATE TABLE z (q Int64)")
        schema = self._schema(ndb, "SELECT q FROM z")
        assert schema.columns[0].nullable is True


#: One query per analyzer raise path, labelled with the expected code.
#: The guarantee under test: every S001-S012 rejection carries a
#: non-empty source span, so editors and ``repro lint`` can always
#: point at the offending text.
SPAN_BATTERY = [
    ("S001", "SELECT missing FROM t"),
    ("S001", "SELECT t.missing FROM t"),
    ("S001", "SELECT z.a FROM t"),
    ("S001", "SELECT z.* FROM t"),
    ("S002", "SELECT a FROM t JOIN u ON t.a = u.a"),
    ("S003", "SELECT * FROM t WHERE a = 'x'"),
    ("S003", "SELECT * FROM t WHERE g < 3.5"),
    ("S004", "SELECT g + 1 FROM t"),
    ("S004", "SELECT -g FROM t"),
    ("S005", "SELECT a FROM t WHERE sum(a) > 1"),
    ("S005", "SELECT sum(sum(a)) FROM t"),
    ("S006", "SELECT nudf_one(a, b) FROM t"),
    ("S007", "SELECT a AS x FROM t GROUP BY x"),
    ("S008", "SELECT nosuchfn(a) FROM t"),
    ("S009", "SELECT (SELECT a, b FROM t)"),
    ("S010", "SELECT * FROM missing_table"),
    ("S011", "SELECT nudf_str(a) FROM t"),
    ("S012", "SELECT sum(*) FROM t"),
    ("S012", "SELECT a FROM t WHERE * > 1"),
    ("S012", "SELECT length(*) FROM t"),
]


class TestEveryErrorCarriesSpan:
    @pytest.mark.parametrize("code,sql", SPAN_BATTERY)
    def test_span_attached(self, db, code, sql):
        error = reject(db, sql)
        assert error.code == code
        assert error.span is not None, f"{code} lost its span: {sql!r}"
        assert error.span.end > error.span.start
        assert sql[error.span.start : error.span.end].strip()

    def test_battery_covers_all_codes(self):
        covered = {code for code, _ in SPAN_BATTERY}
        assert covered == {f"S{n:03d}" for n in range(1, 13)}
