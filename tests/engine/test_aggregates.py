"""Aggregation: grouping, aggregate functions, HAVING, edge cases."""

import math

import numpy as np
import pytest

from repro.engine import Database
from repro.errors import PlanError


@pytest.fixture()
def db():
    database = Database()
    database.create_table_from_dict(
        "t",
        {
            "g": ["x", "y", "x", "y", "x"],
            "v": [1.0, 2.0, 3.0, 4.0, 5.0],
            "n": [1, 2, 3, 4, 5],
            "flag": [True, False, True, True, False],
        },
    )
    return database


class TestGlobalAggregates:
    def test_sum_int(self, db):
        assert db.execute("SELECT sum(n) FROM t").scalar() == 15

    def test_sum_float(self, db):
        assert db.execute("SELECT sum(v) FROM t").scalar() == 15.0

    def test_count_star(self, db):
        assert db.execute("SELECT count(*) FROM t").scalar() == 5

    def test_avg(self, db):
        assert db.execute("SELECT avg(v) FROM t").scalar() == 3.0

    def test_min_max(self, db):
        assert db.query("SELECT min(n), max(n) FROM t") == [(1, 5)]

    def test_stddev_samp_matches_numpy(self, db):
        import numpy as np

        expected = np.std([1, 2, 3, 4, 5], ddof=1)
        assert db.execute("SELECT stddevSamp(v) FROM t").scalar() == (
            pytest.approx(expected)
        )

    def test_var_pop(self, db):
        import numpy as np

        expected = np.var([1, 2, 3, 4, 5])
        assert db.execute("SELECT varPop(v) FROM t").scalar() == (
            pytest.approx(expected)
        )

    def test_count_boolean_expression_is_count_if(self, db):
        # Dialect choice matching the paper's Type-2 query:
        # count(<condition>) counts rows where the condition holds.
        assert db.execute("SELECT count(flag = TRUE) FROM t").scalar() == 3

    def test_count_if(self, db):
        assert db.execute("SELECT countIf(n > 3) FROM t").scalar() == 2

    def test_sum_if(self, db):
        assert db.execute("SELECT sumIf(n, g = 'x') FROM t").scalar() == 9.0

    def test_count_distinct(self, db):
        assert db.execute("SELECT count(DISTINCT g) FROM t").scalar() == 2

    def test_any(self, db):
        assert db.execute("SELECT any(g) FROM t").scalar() == "x"

    def test_group_array(self, db):
        value = db.execute("SELECT groupArray(n) FROM t").scalar()
        assert value == [1, 2, 3, 4, 5]

    def test_empty_input(self, db):
        assert db.execute("SELECT count(*) FROM t WHERE n > 99").scalar() == 0
        # SQL: SUM/AVG/MIN/MAX over zero rows yield NULL, not 0.
        assert db.execute("SELECT sum(n) FROM t WHERE n > 99").scalar() is None
        assert db.execute("SELECT avg(n) FROM t WHERE n > 99").scalar() is None
        assert db.execute("SELECT min(n) FROM t WHERE n > 99").scalar() is None


class TestGroupBy:
    def test_basic(self, db):
        rows = db.query("SELECT g, sum(n) FROM t GROUP BY g ORDER BY g")
        assert rows == [("x", 9), ("y", 6)]

    def test_group_keys_first_appearance_order(self, db):
        rows = db.query("SELECT g, count(*) FROM t GROUP BY g")
        assert [r[0] for r in rows] == ["x", "y"]

    def test_expression_over_aggregates(self, db):
        rows = db.query(
            "SELECT g, sum(v) / count(*) FROM t GROUP BY g ORDER BY g"
        )
        assert rows == [("x", 3.0), ("y", 3.0)]

    def test_group_by_expression(self, db):
        rows = db.query(
            "SELECT n % 2, count(*) FROM t GROUP BY n % 2 ORDER BY n % 2"
        )
        assert rows == [(0, 2), (1, 3)]

    def test_group_by_int_div(self, db):
        rows = db.query(
            "SELECT intDiv(n, 3), count(*) FROM t "
            "GROUP BY intDiv(n, 3) ORDER BY intDiv(n, 3)"
        )
        assert rows == [(0, 2), (1, 3)]

    def test_multi_key(self, db):
        rows = db.query(
            "SELECT g, flag, count(*) FROM t GROUP BY g, flag ORDER BY g, flag"
        )
        assert ("x", True, 2) in rows

    def test_having(self, db):
        rows = db.query(
            "SELECT g, count(*) FROM t GROUP BY g HAVING count(*) > 2"
        )
        assert rows == [("x", 3)]

    def test_order_by_aggregate(self, db):
        rows = db.query(
            "SELECT g, sum(n) FROM t GROUP BY g ORDER BY sum(n) DESC"
        )
        assert rows[0] == ("x", 9)

    def test_ungrouped_column_rejected(self, db):
        with pytest.raises(PlanError):
            db.query("SELECT g, n FROM t GROUP BY g")

    def test_having_without_group_rejected(self, db):
        with pytest.raises(PlanError):
            db.query("SELECT n FROM t HAVING n > 1")

    def test_aggregate_in_where_rejected(self, db):
        with pytest.raises(PlanError):
            db.query("SELECT n FROM t WHERE sum(n) > 1")


class TestAggregateOverJoin:
    def test_paper_type2_shape(self, db):
        db.create_table_from_dict(
            "s", {"g": ["x", "y"], "w": [100.0, 200.0]}
        )
        rows = db.query(
            "SELECT t.g, count(t.flag = TRUE) / sum(s.w) "
            "FROM t, s WHERE t.g = s.g GROUP BY t.g ORDER BY t.g"
        )
        assert rows[0][0] == "x"
        assert rows[0][1] == pytest.approx(2 / 300.0)


class TestInt64SumPrecision:
    """Regression: INT64 SUM went through float64 bincount, losing
    precision above 2**53."""

    def test_global_sum_near_2_to_60(self):
        db = Database()
        big = 2**60
        db.create_table_from_dict("big", {"v": [big, 1, big, 3]})
        result = db.execute("SELECT sum(v) FROM big").scalar()
        assert result == 2 * big + 4  # off by 4 under float64 rounding
        assert isinstance(result, (int, np.integer))

    def test_grouped_sum_exact(self):
        db = Database()
        big = 2**60
        db.create_table_from_dict(
            "big", {"g": ["a", "a", "b", "b"], "v": [big, 1, big, 3]}
        )
        rows = db.query("SELECT g, sum(v) FROM big GROUP BY g ORDER BY g")
        assert rows == [("a", big + 1), ("b", big + 3)]

    def test_bool_sum_is_integer_count(self):
        db = Database()
        db.create_table_from_dict("f", {"b": [True, False, True, True]})
        assert db.execute("SELECT sum(b) FROM f").scalar() == 3

    def test_float_sum_unchanged(self, db):
        assert db.execute("SELECT sum(v) FROM t").scalar() == 15.0


class TestSumIfPrecision:
    """sumIf is sum over the rows whose condition holds: integer
    arguments accumulate as int64 like ``sum``."""

    def test_int_sum_if_exact_above_2_to_53(self):
        db = Database()
        db.create_table_from_dict("n", {"n": [2**53 + 1, 2]})
        result = db.execute("SELECT sumIf(n, n > 0) FROM n").scalar()
        assert result == 2**53 + 3  # 2**53 + 4 under float64 rounding
        assert isinstance(result, (int, np.integer))
        assert db.execute("SELECT sum(n) FROM n").scalar() == result

    def test_group_without_qualifying_rows_is_zero(self):
        db = Database()
        db.create_table_from_dict(
            "t",
            {
                "g": ["a", "a", "b", "c"],
                "n": [1, 2, 3, None],
                "f": [0.5, 1.5, 2.5, 3.5],
            },
        )
        rows = db.query(
            "SELECT g, sumIf(n, n > 1), sumIf(f, n > 1) FROM t GROUP BY g"
        )
        # "c" qualifies on its condition only through a NULL: 0, not NULL.
        assert rows == [("a", 2, 1.5), ("b", 3, 2.5), ("c", 0, 0.0)]

    def test_bool_sum_if_counts(self):
        db = Database()
        db.create_table_from_dict(
            "f", {"b": [True, False, True, True], "k": [1, 2, 3, 4]}
        )
        assert db.execute("SELECT sumIf(b, k > 1) FROM f").scalar() == 2


class TestVectorizedHolistic:
    """``any`` and ``groupArray`` against plain-Python references over
    more than 100 groups, NULL values and a NULL group key."""

    @pytest.fixture()
    def many_groups(self):
        rng = np.random.default_rng(26)
        rows = 2000
        keys = rng.integers(0, 150, rows).tolist()
        values = rng.integers(-50, 50, rows).tolist()
        floats = rng.normal(size=rows).round(3).tolist()
        for index in rng.choice(rows, 300, replace=False):
            values[index] = None
        for index in rng.choice(rows, 300, replace=False):
            floats[index] = None
        for index in rng.choice(rows, 40, replace=False):
            keys[index] = None
        # Group 149's values are all NULL: any() is NULL, groupArray [].
        for row, key in enumerate(keys):
            if key == 149:
                values[row] = None
                floats[row] = None
        db = Database()
        db.create_table_from_dict(
            "h", {"k": keys, "v": values, "f": floats}
        )
        return db, keys, {"v": values, "f": floats}

    @staticmethod
    def _reference(keys, values):
        groups: dict = {}
        for key, value in zip(keys, values):
            members = groups.setdefault(key, [])
            if value is not None:
                members.append(value)
        return groups

    @pytest.mark.parametrize("column", ["v", "f"])
    def test_any_is_first_non_null(self, many_groups, column):
        db, keys, data = many_groups
        expected = self._reference(keys, data[column])
        assert len(expected) > 100
        rows = db.query(f"SELECT k, any({column}) FROM h GROUP BY k")
        assert [key for key, _ in rows] == list(expected)
        assert {key: value for key, value in rows} == {
            key: members[0] if members else None
            for key, members in expected.items()
        }

    @pytest.mark.parametrize("column", ["v", "f"])
    def test_group_array_keeps_row_order(self, many_groups, column):
        db, keys, data = many_groups
        expected = self._reference(keys, data[column])
        rows = db.query(f"SELECT k, groupArray({column}) FROM h GROUP BY k")
        assert dict(rows) == expected

    def test_empty_input(self):
        db = Database()
        db.create_table_from_dict("e", {"k": [1], "v": [2]})
        assert db.query(
            "SELECT k, any(v), groupArray(v) FROM e WHERE v > 5 GROUP BY k"
        ) == []
        assert db.query(
            "SELECT any(v), groupArray(v) FROM e WHERE v > 5"
        ) == [(None, [])]


class TestVectorizedDistinct:
    """``_distinct_counts`` now runs on the ``_factorize`` machinery;
    results must be identical to the old per-row set loop."""

    def test_matches_python_reference(self):
        rng = np.random.default_rng(5)
        groups = rng.integers(0, 7, 500)
        values = rng.integers(0, 20, 500)
        from repro.engine.physical import _distinct_counts

        reference = [
            len({v for g, v in zip(groups, values) if g == group})
            for group in range(7)
        ]
        got = _distinct_counts(values, groups.astype(np.int64), 7)
        assert got.tolist() == reference
        assert got.dtype == np.int64

    def test_object_values_and_empty_groups(self):
        from repro.engine.physical import _distinct_counts

        values = np.array(["x", "y", "x", "z"], dtype=object)
        groups = np.array([0, 0, 2, 2], dtype=np.int64)
        assert _distinct_counts(values, groups, 4).tolist() == [2, 0, 2, 0]

    def test_empty_input(self):
        from repro.engine.physical import _distinct_counts

        out = _distinct_counts(
            np.array([], dtype=np.int64), np.array([], dtype=np.int64), 3
        )
        assert out.tolist() == [0, 0, 0]

    def test_sql_count_distinct_grouped(self):
        db = Database()
        db.create_table_from_dict(
            "cd", {"g": [1, 1, 2, 2, 2], "v": ["x", "x", "y", "z", "y"]}
        )
        rows = db.query(
            "SELECT g, count(DISTINCT v) FROM cd GROUP BY g ORDER BY g"
        )
        assert rows == [(1, 1), (2, 2)]
