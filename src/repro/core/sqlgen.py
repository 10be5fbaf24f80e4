"""SQL statement templates for the neural operators (Q1–Q5 generalized).

Each function renders one statement of the compiled program.  The running
data format between operators is the *flat* table ``{TupleID, Value}``
with ``TupleID = channel·H·W + y·W + x``; convolution internally passes
through the FeatureMap format ``{MatrixID, OrderID, Value}``.

The templates correspond to the paper's queries:

* :func:`reshape_sql`   — Q2 (mapping join, flat -> FeatureMap);
* :func:`conv_sql`      — Q1 (FeatureMap ⋈ Kernel + SUM/GROUP BY);
* :func:`pooling_*`     — Q3 (MAX/AVG over sub-matrices);
* :func:`bn_*`          — Q4 (normalization via aggregate statistics);
* :func:`relu_sql`      — the UPDATE clamp of Q5;
* :func:`residual_add_sql` — the element-wise add of Q5.

Every template that reads a per-frame table takes ``batched``.  Off (the
default), it renders the per-keyframe statement.  On, the statement runs a
whole batch: every per-frame table carries a leading ``BatchID`` column,
which the template projects, adds to each ``GROUP BY``, and adds to the
join condition wherever two per-frame tables meet.  Static tables (kernels,
mappings, parameters) have no ``BatchID`` and are shared by every frame.
"""

from __future__ import annotations

EPSILON = 5e-5


def _key(batched: bool, alias: str = "") -> str:
    """``BatchID`` as a leading select or ``GROUP BY`` item."""
    return f"{alias}BatchID, " if batched else ""


def _same_frame(batched: bool, left: str, right: str) -> str:
    """The join condition that keeps two per-frame tables' rows paired."""
    return f"{left}.BatchID = {right}.BatchID AND " if batched else ""


def reshape_sql(out_table: str, flat_table: str, mapping_table: str,
                batched: bool = False) -> str:
    """Q2: rebuild the FeatureMap table from flat output + mapping table."""
    return (
        f"CREATE TEMP TABLE {out_table} AS "
        f"SELECT {_key(batched, 'A.')}"
        f"B.MatrixID AS MatrixID, B.OrderID AS OrderID, A.Value AS Value "
        f"FROM {flat_table} A, {mapping_table} B "
        f"WHERE A.TupleID = B.TupleID"
    )


def conv_sql(out_table: str, feature_table: str, kernel_table: str,
             out_plane: int, batched: bool = False) -> str:
    """Q1: the convolution join, emitting flat TupleIDs directly.

    ``out_plane`` is ``H_out * W_out``; the output channel (KernelID) is
    folded into the flat index so downstream operators see one format.
    """
    return (
        f"CREATE TEMP TABLE {out_table} AS "
        f"SELECT {_key(batched, 'A.')}"
        f"B.KernelID * {out_plane} + A.MatrixID AS TupleID, "
        f"SUM(A.Value * B.Value) AS Value "
        f"FROM {feature_table} A INNER JOIN {kernel_table} B "
        f"ON A.OrderID = B.OrderID "
        f"GROUP BY {_key(batched, 'A.')}B.KernelID, A.MatrixID"
    )


def conv_fold_sql(out_table: str, flat_table: str, mapping_table: str,
                  kernel_table: str, out_plane: int,
                  batched: bool = False) -> str:
    """Q1+Q2 composed (Fig. 11 strategy 2): the mapping join runs inside
    the convolution statement, skipping the FeatureMap materialization."""
    return (
        f"CREATE TEMP TABLE {out_table} AS "
        f"SELECT {_key(batched, 'FM.')}"
        f"B.KernelID * {out_plane} + FM.MatrixID AS TupleID, "
        f"SUM(FM.Value * B.Value) AS Value "
        f"FROM (SELECT {_key(batched, 'A.')}"
        f"M.MatrixID AS MatrixID, M.OrderID AS OrderID, "
        f"A.Value AS Value FROM {flat_table} A, {mapping_table} M "
        f"WHERE A.TupleID = M.TupleID) FM "
        f"INNER JOIN {kernel_table} B ON FM.OrderID = B.OrderID "
        f"GROUP BY {_key(batched, 'FM.')}B.KernelID, FM.MatrixID"
    )


def conv_prejoined_sql(out_table: str, flat_table: str, kernel_map_table: str,
                       out_plane: int, batched: bool = False) -> str:
    """Fig. 11 strategy 3: the kernel was pre-joined with the mapping table
    offline, so inference needs a single join against the flat input."""
    return (
        f"CREATE TEMP TABLE {out_table} AS "
        f"SELECT {_key(batched, 'A.')}"
        f"B.KernelID * {out_plane} + B.MatrixID AS TupleID, "
        f"SUM(A.Value * B.Value) AS Value "
        f"FROM {flat_table} A, {kernel_map_table} B "
        f"WHERE A.TupleID = B.TupleID "
        f"GROUP BY {_key(batched, 'A.')}B.KernelID, B.MatrixID"
    )


def bias_add_sql(out_table: str, flat_table: str, bias_table: str,
                 out_plane: int, batched: bool = False) -> str:
    """Add a per-output-channel bias after a convolution."""
    return (
        f"CREATE TEMP TABLE {out_table} AS "
        f"SELECT {_key(batched, 'A.')}"
        f"A.TupleID AS TupleID, A.Value + B.Value AS Value "
        f"FROM {flat_table} A, {bias_table} B "
        f"WHERE intDiv(A.TupleID, {out_plane}) = B.KernelID"
    )


def pooling_two_step_sql(
    intermediate_table: str,
    out_table: str,
    flat_table: str,
    pool_mapping_table: str,
    aggregate: str,
    batched: bool = False,
) -> tuple[str, str]:
    """Q3 in the paper's two-statement form: materialize sub-matrices, then
    aggregate per MatrixID."""
    first = (
        f"CREATE TEMP TABLE {intermediate_table} AS "
        f"SELECT {_key(batched, 'A.')}"
        f"B.MatrixID AS MatrixID, A.Value AS Value "
        f"FROM {flat_table} A, {pool_mapping_table} B "
        f"WHERE A.TupleID = B.TupleID"
    )
    second = (
        f"CREATE TEMP TABLE {out_table} AS "
        f"SELECT {_key(batched)}"
        f"MatrixID AS TupleID, {aggregate}(Value) AS Value "
        f"FROM {intermediate_table} "
        f"GROUP BY {_key(batched)}MatrixID"
    )
    return first, second


def pooling_fused_sql(out_table: str, flat_table: str,
                      pool_mapping_table: str, aggregate: str,
                      batched: bool = False) -> str:
    """Q3 fused into one statement (pre-join strategies 2 and 3)."""
    return (
        f"CREATE TEMP TABLE {out_table} AS "
        f"SELECT {_key(batched, 'A.')}"
        f"B.MatrixID AS TupleID, {aggregate}(A.Value) AS Value "
        f"FROM {flat_table} A, {pool_mapping_table} B "
        f"WHERE A.TupleID = B.TupleID "
        f"GROUP BY {_key(batched, 'A.')}B.MatrixID"
    )


def bn_stats_sql(stats_table: str, flat_table: str, plane: int,
                 batched: bool = False) -> str:
    """Per-channel mean/variance of the current feature table (Q4's
    AVG/stddev subqueries, generalized to multi-channel)."""
    return (
        f"CREATE TEMP TABLE {stats_table} AS "
        f"SELECT {_key(batched)}intDiv(TupleID, {plane}) AS Channel, "
        f"avg(Value) AS MeanV, varPop(Value) AS VarV "
        f"FROM {flat_table} "
        f"GROUP BY {_key(batched)}intDiv(TupleID, {plane})"
    )


def bn_apply_sql(
    out_table: str,
    flat_table: str,
    stats_table: str,
    params_table: str,
    plane: int,
    eps: float = EPSILON,
    batched: bool = False,
) -> str:
    """Q4's normalization step using computed statistics."""
    return (
        f"CREATE TEMP TABLE {out_table} AS "
        f"SELECT {_key(batched, 'A.')}A.TupleID AS TupleID, "
        f"((A.Value - S.MeanV) / sqrt(S.VarV + {eps!r})) * P.Gamma + P.Beta "
        f"AS Value "
        f"FROM {flat_table} A, {stats_table} S, {params_table} P "
        f"WHERE {_same_frame(batched, 'A', 'S')}"
        f"intDiv(A.TupleID, {plane}) = S.Channel "
        f"AND intDiv(A.TupleID, {plane}) = P.Channel"
    )


def bn_running_sql(
    out_table: str,
    flat_table: str,
    params_table: str,
    plane: int,
    eps: float = EPSILON,
    batched: bool = False,
) -> str:
    """Normalization with stored running statistics (params carry
    MeanV/VarV columns)."""
    return (
        f"CREATE TEMP TABLE {out_table} AS "
        f"SELECT {_key(batched, 'A.')}A.TupleID AS TupleID, "
        f"((A.Value - P.MeanV) / sqrt(P.VarV + {eps!r})) * P.Gamma + P.Beta "
        f"AS Value "
        f"FROM {flat_table} A, {params_table} P "
        f"WHERE intDiv(A.TupleID, {plane}) = P.Channel"
    )


def relu_sql(table: str) -> str:
    """The ReLU clamp exactly as the paper writes it in Q5 (the same
    statement in both modes: it touches only ``Value``)."""
    return f"UPDATE {table} SET Value = 0 WHERE Value < 0"


def copy_sql(out_table: str, source_table: str, batched: bool = False) -> str:
    return (
        f"CREATE TEMP TABLE {out_table} AS "
        f"SELECT {_key(batched)}TupleID, Value FROM {source_table}"
    )


def residual_add_sql(out_table: str, main_table: str, shortcut_table: str,
                     batched: bool = False) -> str:
    """Q5's element-wise addition of main path and shortcut."""
    return (
        f"CREATE TEMP TABLE {out_table} AS "
        f"SELECT {_key(batched, 'A.')}"
        f"A.TupleID AS TupleID, A.Value + B.Value AS Value "
        f"FROM {main_table} A, {shortcut_table} B "
        f"WHERE {_same_frame(batched, 'A', 'B')}A.TupleID = B.TupleID"
    )


def fc_sql(out_table: str, flat_table: str, weight_table: str,
           batched: bool = False) -> str:
    """Full connection — 'a specific CNN operator with kernel size 1'."""
    return (
        f"CREATE TEMP TABLE {out_table} AS "
        f"SELECT {_key(batched, 'A.')}"
        f"B.KernelID AS TupleID, SUM(A.Value * B.Value) AS Value "
        f"FROM {flat_table} A INNER JOIN {weight_table} B "
        f"ON A.TupleID = B.OrderID "
        f"GROUP BY {_key(batched, 'A.')}B.KernelID"
    )


def fc_bias_sql(out_table: str, flat_table: str, bias_table: str,
                batched: bool = False) -> str:
    return (
        f"CREATE TEMP TABLE {out_table} AS "
        f"SELECT {_key(batched, 'A.')}"
        f"A.TupleID AS TupleID, A.Value + B.Value AS Value "
        f"FROM {flat_table} A, {bias_table} B "
        f"WHERE A.TupleID = B.KernelID"
    )


def softmax_sql(exp_table: str, out_table: str, flat_table: str,
                batched: bool = False) -> tuple[str, str]:
    """Numerically-stable softmax as two statements with scalar subqueries.

    A batch has one max and one sum per frame, so the batched form joins a
    ``GROUP BY BatchID`` subquery instead."""
    if batched:
        first = (
            f"CREATE TEMP TABLE {exp_table} AS "
            f"SELECT A.BatchID, A.TupleID AS TupleID, "
            f"exp(A.Value - M.MaxV) AS Value "
            f"FROM {flat_table} A, "
            f"(SELECT BatchID, max(Value) AS MaxV FROM {flat_table} "
            f"GROUP BY BatchID) M "
            f"WHERE A.BatchID = M.BatchID"
        )
        second = (
            f"CREATE TEMP TABLE {out_table} AS "
            f"SELECT A.BatchID, A.TupleID AS TupleID, "
            f"A.Value / S.SumV AS Value "
            f"FROM {exp_table} A, "
            f"(SELECT BatchID, sum(Value) AS SumV FROM {exp_table} "
            f"GROUP BY BatchID) S "
            f"WHERE A.BatchID = S.BatchID"
        )
        return first, second
    first = (
        f"CREATE TEMP TABLE {exp_table} AS "
        f"SELECT TupleID, exp(Value - (SELECT max(Value) FROM {flat_table})) "
        f"AS Value FROM {flat_table}"
    )
    second = (
        f"CREATE TEMP TABLE {out_table} AS "
        f"SELECT TupleID, Value / (SELECT sum(Value) FROM {exp_table}) "
        f"AS Value FROM {exp_table}"
    )
    return first, second


def elementwise_product_sql(
    out_table: str, left_table: str, right_table: str, scale: float = 1.0,
    batched: bool = False,
) -> str:
    """Element-wise product of two flat tables (attention's q·k and w·v)."""
    scale_text = f" * {scale!r}" if scale != 1.0 else ""
    return (
        f"CREATE TEMP TABLE {out_table} AS "
        f"SELECT {_key(batched, 'A.')}"
        f"A.TupleID AS TupleID, A.Value * B.Value{scale_text} AS Value "
        f"FROM {left_table} A, {right_table} B "
        f"WHERE {_same_frame(batched, 'A', 'B')}A.TupleID = B.TupleID"
    )


def concat_insert_sql(concat_table: str, stage_table: str, offset: int,
                      batched: bool = False) -> str:
    """Append a dense-block stage's channels after the existing ones."""
    return (
        f"INSERT INTO {concat_table} "
        f"SELECT {_key(batched)}TupleID + {offset} AS TupleID, Value "
        f"FROM {stage_table}"
    )
