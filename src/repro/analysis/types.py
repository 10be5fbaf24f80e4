"""Static type tables for the semantic analyzer.

These mirror what the runtime actually produces (``engine/expressions.py``
for scalar builtins, ``engine/physical.py`` for aggregates) so the types
the analyzer annotates onto a plan are the types execution delivers.  When
a rule here and the runtime disagree, the runtime wins — fix this table.

``None`` stands for *unknown*: expressions whose type cannot be pinned
down statically (open relations in lenient mode, BLOB-typed payloads fed
to nUDFs).  Unknown is contagious and never produces an error on its own.
"""

from __future__ import annotations

from typing import Optional

from repro.storage.schema import DataType

#: Scalar builtins with a fixed result type, keyed by lowercase name.
#: ``if`` is absent on purpose — its result type is its THEN-branch type
#: and is special-cased in the analyzer.
SCALAR_RETURNS: dict[str, DataType] = {
    "abs": DataType.FLOAT64,
    "sqrt": DataType.FLOAT64,
    "exp": DataType.FLOAT64,
    "ln": DataType.FLOAT64,
    "log": DataType.FLOAT64,
    "floor": DataType.FLOAT64,
    "ceil": DataType.FLOAT64,
    "tanh": DataType.FLOAT64,
    "sign": DataType.FLOAT64,
    "sigmoid": DataType.FLOAT64,
    "round": DataType.FLOAT64,
    "pow": DataType.FLOAT64,
    "power": DataType.FLOAT64,
    "greatest": DataType.FLOAT64,
    "least": DataType.FLOAT64,
    "intdiv": DataType.INT64,
    "modulo": DataType.INT64,
    "length": DataType.INT64,
    "like": DataType.BOOL,
    "lower": DataType.STRING,
    "upper": DataType.STRING,
    "tostring": DataType.STRING,
    "tofloat64": DataType.FLOAT64,
    "toint64": DataType.INT64,
    "todate": DataType.DATE,
}


def aggregate_return_type(
    name: str, arg_dtype: Optional[DataType]
) -> Optional[DataType]:
    """Result type of aggregate ``name`` over an argument of ``arg_dtype``.

    Mirrors ``physical._finalize_aggregate`` and ``_compute_holistic``
    exactly, including the integer accumulation path for ``sum`` /
    ``sumIf`` and the min/max numeric passthrough.
    """
    lowered = name.lower()
    if lowered in ("count", "countif"):
        return DataType.INT64
    if lowered == "grouparray":
        return DataType.BLOB
    if lowered == "any":
        return arg_dtype
    if lowered in ("sum", "sumif"):
        if arg_dtype is None:
            return None
        if arg_dtype in (DataType.INT64, DataType.BOOL):
            return DataType.INT64
        return DataType.FLOAT64
    if lowered in ("min", "max"):
        if arg_dtype is None:
            return None
        return arg_dtype if arg_dtype.is_numeric else DataType.FLOAT64
    if lowered in ("avg", "stddevsamp", "stddevpop", "varsamp", "varpop"):
        return DataType.FLOAT64
    return None


#: Aggregates whose result can never be NULL, regardless of input.
#: ``count``/``countIf``/``sumIf`` return 0 over empty groups and
#: ``groupArray`` returns an empty list; every other aggregate yields
#: NULL when its group has no non-NULL argument rows
#: (``physical._group_validity``).
_NON_NULLABLE_AGGREGATES = frozenset(
    ("count", "countif", "sumif", "grouparray")
)


def aggregate_nullable(name: str) -> bool:
    """Whether aggregate ``name`` can produce NULL.

    Mirrors ``physical._finalize_aggregate`` and ``_compute_holistic``:
    SUM/AVG/MIN/MAX/stddev/var/any over an empty or all-NULL group are
    NULL; COUNT variants, sumIf and groupArray always produce a definite
    value.
    """
    return name.lower() not in _NON_NULLABLE_AGGREGATES


def comparison_ok(
    left: Optional[DataType], right: Optional[DataType]
) -> bool:
    """Whether comparing ``left`` against ``right`` is statically legal.

    The engine's runtime comparison is deliberately permissive (numpy
    coercion plus the DATE/STRING literal path); this codifies the pairs
    that are *meaningful* and rejects the rest before execution.  Either
    side unknown is always OK — lenient mode must not guess.
    """
    if left is None or right is None:
        return True
    if left is right:
        return True
    # DATE literals arrive as strings ('2021-01-31') and are coerced by
    # the evaluator; this pair must stay legal in both directions.
    if {left, right} == {DataType.DATE, DataType.STRING}:
        return True
    # BLOB columns hold arbitrary payloads (keyframes, grouped arrays);
    # the analyzer cannot see inside them.
    if DataType.BLOB in (left, right):
        return True
    numeric_like = (DataType.INT64, DataType.FLOAT64, DataType.BOOL, DataType.DATE)
    if left in numeric_like and right in numeric_like:
        return True
    return False


def arithmetic_ok(
    left: Optional[DataType], right: Optional[DataType]
) -> bool:
    """Whether ``left <op> right`` arithmetic is statically legal."""
    if left is None or right is None:
        return True
    if DataType.BLOB in (left, right):
        return True
    if DataType.STRING in (left, right):
        return False
    return True


def arithmetic_result(
    op: str, left: Optional[DataType], right: Optional[DataType]
) -> Optional[DataType]:
    """Result type of numeric ``left <op> right``; None when either side
    is unknown.  Division always goes through float64, everything else
    stays int64 only when both operands are integral (INT64 or DATE)."""
    if left is None or right is None:
        return None
    if op == "/":
        return DataType.FLOAT64
    integral = (DataType.INT64, DataType.DATE)
    if left in integral and right in integral:
        return DataType.INT64
    return DataType.FLOAT64
