"""Hierarchical query-lifecycle tracing.

A :class:`Tracer` produces nested :class:`Span` trees covering the whole
query path — ``query → parse → plan → optimize → execute →
operator:<kind>`` — plus the strategy-boundary stages (``decompose``,
``db_subquery``, ``transfer``, ``inference``, ``assemble``) the three
collaborative-query strategies emit.  Spans carry attributes (row counts,
transfer bytes, estimated costs), which is how the paper's Fig. 10 time
breakdown (:func:`operator_categories`) and the DB↔DL boundary costs
become visible per query instead of per process.

Zero overhead when disabled: ``Tracer.span`` returns a module-level null
span without allocating anything, so benchmark hot paths are unaffected
by default (``tests/obs/test_trace.py`` pins this with a call-count spy).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional


class Span:
    """One timed stage of a query, with attributes and child spans.

    Spans are context managers; entering pushes onto the tracer's stack so
    any span opened inside becomes a child, exiting pops and finalizes the
    duration.  Attribute access after completion is the normal use.
    """

    __slots__ = (
        "name",
        "started",
        "ended",
        "attributes",
        "children",
        "_tracer",
        "_has_parent",
    )

    def __init__(
        self,
        name: str,
        tracer: "Tracer",
        attributes: Optional[dict[str, Any]] = None,
    ) -> None:
        self.name = name
        self.started = 0.0
        self.ended = 0.0
        self.attributes: dict[str, Any] = attributes or {}
        self.children: list[Span] = []
        self._tracer = tracer
        #: Set on enter: a span opened under another is never a root,
        #: even if its parent exits first.
        self._has_parent = False

    # ------------------------------------------------------------------
    def __enter__(self) -> "Span":
        self._tracer._push(self)
        self.started = self._tracer.clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.ended = self._tracer.clock()
        if exc_type is not None:
            self.attributes.setdefault("error", exc_type.__name__)
        self._tracer._pop(self)
        return False

    # ------------------------------------------------------------------
    def set(self, key: str, value: Any) -> None:
        """Attach (or overwrite) one attribute."""
        self.attributes[key] = value

    def add(self, key: str, delta: float) -> None:
        """Accumulate a numeric attribute (e.g. transfer bytes)."""
        self.attributes[key] = self.attributes.get(key, 0) + delta

    @property
    def duration(self) -> float:
        """Wall-clock seconds between enter and exit (0 while open)."""
        if self.ended <= 0.0:
            return 0.0
        return self.ended - self.started

    @property
    def self_duration(self) -> float:
        """Duration minus the time spent in direct children."""
        return max(
            0.0, self.duration - sum(c.duration for c in self.children)
        )

    # ------------------------------------------------------------------
    def find(self, name: str) -> Optional["Span"]:
        """First descendant (pre-order, including self) with ``name``."""
        if self.name == name:
            return self
        for child in self.children:
            found = child.find(name)
            if found is not None:
                return found
        return None

    def find_all(self, name: str) -> list["Span"]:
        """Every descendant (pre-order, including self) with ``name``."""
        out = [self] if self.name == name else []
        for child in self.children:
            out.extend(child.find_all(name))
        return out

    def walk(self):
        """Yield self and all descendants, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable representation of the subtree."""
        return {
            "name": self.name,
            "duration_ms": round(self.duration * 1e3, 6),
            "attributes": dict(self.attributes),
            "children": [c.to_dict() for c in self.children],
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Span({self.name!r}, {self.duration * 1e3:.3f}ms, "
            f"{len(self.children)} children)"
        )


class _NullSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    name = "<disabled>"
    attributes: dict[str, Any] = {}
    children: list[Span] = []
    duration = 0.0
    self_duration = 0.0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, key: str, value: Any) -> None:
        pass

    def add(self, key: str, delta: float) -> None:
        pass

    def find(self, name: str) -> None:
        return None

    def find_all(self, name: str) -> list[Span]:
        return []

    def walk(self):
        return iter(())

    def to_dict(self) -> dict[str, Any]:
        return {}


NULL_SPAN = _NullSpan()


class Tracer:
    """Collects span trees for the queries executed while enabled.

    One tracer serves one execution context (typically one
    :class:`~repro.engine.database.Database`).  Completed root spans are
    kept in :attr:`traces`, newest last, capped at ``max_traces``.
    """

    def __init__(
        self,
        enabled: bool = False,
        clock: Callable[[], float] = time.perf_counter,
        max_traces: int = 64,
    ) -> None:
        self.enabled = enabled
        self.clock = clock
        self.max_traces = max_traces
        self.traces: list[Span] = []
        self._stack: list[Span] = []

    # ------------------------------------------------------------------
    def span(self, name: str, **attributes: Any) -> Span | _NullSpan:
        """Open a new span (nested under the current one, if any)."""
        if not self.enabled:
            return NULL_SPAN
        return Span(name, self, attributes or None)

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    # ------------------------------------------------------------------
    def _push(self, span: Span) -> None:
        if self._stack:
            self._stack[-1].children.append(span)
            span._has_parent = True
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        # Tolerate out-of-order exits (a span leaked across an exception
        # boundary): unwind down to and including the span.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
        if not self._stack and span.ended > 0.0 and not span._has_parent:
            self.traces.append(span)
            if len(self.traces) > self.max_traces:
                del self.traces[: len(self.traces) - self.max_traces]

    # ------------------------------------------------------------------
    @property
    def current(self) -> Optional[Span]:
        """The innermost open span, or None."""
        return self._stack[-1] if self._stack else None

    def last_trace(self) -> Optional[Span]:
        """The most recently completed root span."""
        return self.traces[-1] if self.traces else None

    def reset(self) -> None:
        self.traces.clear()
        self._stack.clear()


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
@dataclass
class CategoryTotals:
    """One operator category summed over a set of traces."""

    seconds: float = 0.0
    calls: int = 0
    rows: int = 0


def operator_categories(roots: Iterable[Span]) -> dict[str, CategoryTotals]:
    """Self seconds, span count and rows per ``operator:<category>`` span.

    This is the paper's Fig. 10 view.  Self time excludes every child
    span, so a nested operator (a plan node's input, the SELECT of an
    INSERT ... SELECT) counts once, in its own category, and the seconds
    sum to at most the wall time of ``roots``.
    """
    totals: dict[str, CategoryTotals] = {}
    for root in roots:
        for span in root.walk():
            kind, _, category = span.name.partition(":")
            if kind == "operator":
                entry = totals.setdefault(category, CategoryTotals())
                entry.seconds += span.self_duration
                entry.calls += 1
                entry.rows += span.attributes.get("rows", 0)
    return totals


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def format_span_tree(span: Span, indent: int = 0) -> str:
    """Render a span tree as indented text, one line per span.

    Example::

        query                         12.345 ms  sql=SELECT ...
          parse                        0.120 ms
          plan                         0.210 ms
          optimize                     0.530 ms
          execute                     11.400 ms
            operator:scan              3.100 ms  rows=50000
    """
    pad = "  " * indent
    attributes = "  ".join(
        f"{key}={_format_attr(value)}"
        for key, value in sorted(span.attributes.items())
    )
    line = f"{pad}{span.name:<{max(1, 36 - len(pad))}} {span.duration * 1e3:>10.3f} ms"
    if attributes:
        line += f"  {attributes}"
    lines = [line]
    for child in span.children:
        lines.append(format_span_tree(child, indent + 1))
    return "\n".join(lines)


def _format_attr(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, str) and len(value) > 60:
        return value[:57] + "..."
    return str(value)


def trace_to_json(span: Span) -> str:
    """One span tree as a JSON document."""
    return json.dumps(span.to_dict(), indent=2, sort_keys=False)
