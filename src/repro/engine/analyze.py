"""EXPLAIN ANALYZE: per-operator actual time/rows next to the estimates.

The paper's cost-model evaluation (Fig. 12/13) compares *predicted*
operator cost against *actual* runtime.  The executor opens one
``operator:<category>`` span per plan node with ``node=id(plan)`` and
its output ``rows`` (see :func:`repro.engine.physical.execute_plan`);
:func:`collect_actuals` matches those spans back to the plan's nodes,
lines them up with the optimizer's ``estimated_rows``/``estimated_cost``
annotations and derives a per-operator cardinality q-error the
cost-model experiment consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.engine.logical import LogicalPlan
from repro.obs.trace import Span


@dataclass
class OperatorActuals:
    """One plan operator's estimated vs. actual numbers."""

    operator: str
    depth: int
    estimated_rows: float
    estimated_cost: float
    actual_rows: int
    actual_seconds: float
    actual_self_seconds: float
    calls: int

    @property
    def row_qerror(self) -> float:
        """Cardinality q-error: max(est, actual) / min(est, actual).

        1.0 is a perfect estimate; the default cost model's compounding
        join over-estimates show up as exponentially growing q-errors.
        Both sides are floored at one row so empty results stay finite.
        """
        estimated = max(self.estimated_rows, 1.0)
        actual = float(max(self.actual_rows, 1))
        return max(estimated, actual) / min(estimated, actual)


@dataclass
class ExplainAnalyzeOutput:
    """Everything ``EXPLAIN ANALYZE`` produces for one SELECT."""

    plan: LogicalPlan
    operators: list[OperatorActuals]
    total_seconds: float
    result_rows: int
    text: str = ""
    #: Inference-cache activity during this execution (hits / misses /
    #: evictions, plus current resident bytes); None when no cache is
    #: attached to the database.
    udf_cache: Optional[dict] = None

    def max_qerror(self) -> float:
        return max((op.row_qerror for op in self.operators), default=1.0)

    def to_dict(self) -> dict:
        return {
            "total_seconds": self.total_seconds,
            "result_rows": self.result_rows,
            "udf_cache": self.udf_cache,
            "operators": [
                {
                    "operator": op.operator,
                    "depth": op.depth,
                    "estimated_rows": op.estimated_rows,
                    "estimated_cost": op.estimated_cost,
                    "actual_rows": op.actual_rows,
                    "actual_seconds": op.actual_seconds,
                    "actual_self_seconds": op.actual_self_seconds,
                    "calls": op.calls,
                    "row_qerror": op.row_qerror,
                }
                for op in self.operators
            ],
        }


def collect_actuals(
    plan: LogicalPlan, execute_span: Span
) -> list[OperatorActuals]:
    """Pre-order operator list pairing estimates with measured actuals.

    Each plan node's actuals are read from the spans under
    ``execute_span`` tagged with its ``node`` id: inclusive seconds and
    calls summed over them, rows from the last.  Self seconds subtract
    the node's child plan operators only.
    """
    spans: dict[int, list[Span]] = {}
    for span in execute_span.walk():
        node_id = span.attributes.get("node")
        if node_id is not None:
            spans.setdefault(node_id, []).append(span)

    def seconds(node: LogicalPlan) -> float:
        return sum(span.duration for span in spans.get(id(node), ()))

    out: list[OperatorActuals] = []

    def visit(node: LogicalPlan, depth: int) -> None:
        children = node.children()
        node_spans = spans.get(id(node))
        if node_spans:
            inclusive = seconds(node)
            out.append(
                OperatorActuals(
                    operator=node.describe(),
                    depth=depth,
                    estimated_rows=node.estimated_rows,
                    estimated_cost=node.estimated_cost,
                    actual_rows=node_spans[-1].attributes.get("rows", 0),
                    actual_seconds=inclusive,
                    actual_self_seconds=max(
                        0.0, inclusive - sum(seconds(c) for c in children)
                    ),
                    calls=len(node_spans),
                )
            )
        for child in children:
            visit(child, depth + 1)

    visit(plan, 0)
    return out


def format_analysis(output: ExplainAnalyzeOutput) -> str:
    """Render the annotated plan, one line per operator (Postgres-style)::

        Project g, count(*)  (est rows=50 cost=1234.0) (actual time=0.412 ms rows=50) q-err=1.00
          Aggregate ...
    """
    lines = []
    for op in output.operators:
        pad = "  " * op.depth
        estimated = f"(est rows={op.estimated_rows:.0f}"
        if op.estimated_cost >= 0:
            estimated += f" cost={op.estimated_cost:.1f}"
        estimated += ")"
        actual = (
            f"(actual time={op.actual_seconds * 1e3:.3f} ms "
            f"rows={op.actual_rows}"
        )
        if op.calls > 1:
            actual += f" calls={op.calls}"
        actual += ")"
        lines.append(
            f"{pad}{op.operator}  {estimated} {actual} "
            f"q-err={op.row_qerror:.2f}"
        )
    if output.udf_cache is not None:
        cache = output.udf_cache
        lines.append(
            f"UDF cache: hits={cache['hits']} misses={cache['misses']} "
            f"evictions={cache['evictions']} bytes={cache['bytes']}"
        )
    lines.append(
        f"Execution time: {output.total_seconds * 1e3:.3f} ms "
        f"({output.result_rows} rows)"
    )
    return "\n".join(lines)
