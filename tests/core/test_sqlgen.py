"""Statement templates: parseability and structural checks."""

import re

import pytest

from repro.core import sqlgen
from repro.sql.ast_nodes import CreateTable, UpdateStatement
from repro.sql.parser import parse_statement


def assert_create(sql, table):
    statement = parse_statement(sql)
    assert isinstance(statement, CreateTable)
    assert statement.name == table
    assert statement.temp
    assert statement.as_select is not None
    return statement


class TestTemplates:
    def test_reshape_is_q2(self):
        sql = sqlgen.reshape_sql("fm", "flat", "mapping")
        statement = assert_create(sql, "fm")
        names = [i.output_name(n) for n, i in enumerate(statement.as_select.items)]
        assert names == ["MatrixID", "OrderID", "Value"]

    def test_conv_is_q1(self):
        sql = sqlgen.conv_sql("out", "fm", "kern", 16)
        statement = assert_create(sql, "out")
        assert "INNER JOIN" in sql
        assert "GROUP BY" in sql
        assert "SUM((A.Value * B.Value))" in statement.as_select.to_sql() or (
            "SUM(A.Value * B.Value)" in sql
        )

    def test_conv_fold_composes_subquery(self):
        sql = sqlgen.conv_fold_sql("out", "flat", "map", "kern", 16)
        assert_create(sql, "out")
        assert sql.count("SELECT") == 2  # outer + inner mapping join

    def test_conv_prejoined_single_join(self):
        sql = sqlgen.conv_prejoined_sql("out", "flat", "kmap", 16)
        assert_create(sql, "out")
        assert "INNER JOIN" not in sql  # single comma join on TupleID
        assert sql.count("SELECT") == 1

    def test_pooling_two_step_is_q3(self):
        first, second = sqlgen.pooling_two_step_sql(
            "mid", "out", "flat", "pmap", "max"
        )
        assert_create(first, "mid")
        statement = assert_create(second, "out")
        assert "GROUP BY" in second
        assert "max(Value)" in second

    def test_pooling_fused(self):
        sql = sqlgen.pooling_fused_sql("out", "flat", "pmap", "avg")
        assert_create(sql, "out")
        assert "avg(A.Value)" in sql

    def test_bn_stats_groups_by_channel(self):
        sql = sqlgen.bn_stats_sql("stats", "flat", 64)
        assert_create(sql, "stats")
        assert "intDiv(TupleID, 64)" in sql
        assert "varPop" in sql

    def test_bn_apply_eq1(self):
        sql = sqlgen.bn_apply_sql("out", "flat", "stats", "params", 64)
        assert_create(sql, "out")
        assert "sqrt" in sql  # (x - mean)/sqrt(var + eps)

    def test_bn_running(self):
        sql = sqlgen.bn_running_sql("out", "flat", "params", 64, eps=1e-5)
        assert_create(sql, "out")
        assert "P.MeanV" in sql

    def test_relu_is_the_paper_update(self):
        sql = sqlgen.relu_sql("t")
        statement = parse_statement(sql)
        assert isinstance(statement, UpdateStatement)
        assert sql == "UPDATE t SET Value = 0 WHERE Value < 0"

    def test_residual_add_is_q5(self):
        sql = sqlgen.residual_add_sql("out", "main", "short")
        assert_create(sql, "out")
        assert "A.Value + B.Value" in sql

    def test_fc(self):
        sql = sqlgen.fc_sql("out", "flat", "w")
        assert_create(sql, "out")
        assert "A.TupleID = B.OrderID" in sql

    def test_softmax_pair(self):
        first, second = sqlgen.softmax_sql("e", "s", "flat")
        assert_create(first, "e")
        assert_create(second, "s")
        assert "exp(" in first
        assert "SELECT sum(Value)" in second

    def test_elementwise_product_scale(self):
        scaled = sqlgen.elementwise_product_sql("o", "a", "b", 0.5)
        plain = sqlgen.elementwise_product_sql("o", "a", "b")
        assert "0.5" in scaled
        assert "* 1.0" not in plain

    def test_concat_insert(self):
        sql = sqlgen.concat_insert_sql("concat", "stage", 128)
        statement = parse_statement(sql)
        assert statement.table_name == "concat"
        assert "TupleID + 128" in sql

    def test_bias_add(self):
        sql = sqlgen.bias_add_sql("out", "flat", "bias", 16)
        assert_create(sql, "out")
        assert "intDiv(A.TupleID, 16) = B.KernelID" in sql

    def test_copy(self):
        assert_create(sqlgen.copy_sql("out", "src"), "out")


#: template -> (render(batched), whether it groups, its per-frame join).
BATCHED_CASES = {
    "reshape": (lambda b: sqlgen.reshape_sql("o", "flat", "map", batched=b),
                False, None),
    "conv": (lambda b: sqlgen.conv_sql("o", "fm", "kern", 16, batched=b),
             True, None),
    "conv_fold": (lambda b: sqlgen.conv_fold_sql(
        "o", "flat", "map", "kern", 16, batched=b), True, None),
    "conv_prejoined": (lambda b: sqlgen.conv_prejoined_sql(
        "o", "flat", "kmap", 16, batched=b), True, None),
    "bias_add": (lambda b: sqlgen.bias_add_sql("o", "flat", "bias", 16, batched=b),
                 False, None),
    "pooling_two_step": (lambda b: sqlgen.pooling_two_step_sql(
        "mid", "o", "flat", "pmap", "max", batched=b), True, None),
    "pooling_fused": (lambda b: sqlgen.pooling_fused_sql(
        "o", "flat", "pmap", "avg", batched=b), True, None),
    "bn_stats": (lambda b: sqlgen.bn_stats_sql("s", "flat", 64, batched=b),
                 True, None),
    "bn_apply": (lambda b: sqlgen.bn_apply_sql(
        "o", "flat", "s", "p", 64, batched=b), False, "A.BatchID = S.BatchID"),
    "bn_running": (lambda b: sqlgen.bn_running_sql(
        "o", "flat", "p", 64, batched=b), False, None),
    "copy": (lambda b: sqlgen.copy_sql("o", "src", batched=b), False, None),
    "residual_add": (lambda b: sqlgen.residual_add_sql(
        "o", "main", "short", batched=b), False, "A.BatchID = B.BatchID"),
    "fc": (lambda b: sqlgen.fc_sql("o", "flat", "w", batched=b), True, None),
    "fc_bias": (lambda b: sqlgen.fc_bias_sql("o", "flat", "bias", batched=b),
                False, None),
    "softmax": (lambda b: sqlgen.softmax_sql("e", "o", "flat", batched=b),
                True, "A.BatchID = M.BatchID"),
    "elementwise_product": (lambda b: sqlgen.elementwise_product_sql(
        "o", "a", "b", 0.5, batched=b), False, "A.BatchID = B.BatchID"),
    "concat_insert": (lambda b: sqlgen.concat_insert_sql(
        "concat", "stage", 128, batched=b), False, None),
}


class TestBatchedTemplates:
    @pytest.mark.parametrize("name", list(BATCHED_CASES))
    def test_batch_key_everywhere(self, name):
        render, grouped, frame_join = BATCHED_CASES[name]
        plain, batched = render(False), render(True)
        plain = plain if isinstance(plain, tuple) else (plain,)
        batched = batched if isinstance(batched, tuple) else (batched,)
        assert not any("BatchID" in sql for sql in plain)
        for sql in batched:
            parse_statement(sql)
            # Projected first, so positional INSERT ... SELECT lines up.
            assert re.search(r"SELECT (\w+\.)?BatchID, ", sql)
        if grouped:
            assert re.search(r"GROUP BY (\w+\.)?BatchID", batched[-1])
        if frame_join is not None:
            assert frame_join in batched[0]
