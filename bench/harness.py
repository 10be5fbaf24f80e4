"""Timing, statistics, spans and provenance shared by every workload.

Nothing here imports ``repro``: the harness measures the program from
outside, and ``bench/serve_child.py`` reuses the same span recorder inside
the server process.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import threading
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "bench"
OUT_DIR = BENCH_DIR / "out"
TMP_DIR = OUT_DIR / "tmp"

#: A percentile is reported only when at least this many samples lie
#: beyond it (choosing-metrics, section 1).
MIN_SAMPLES_BEYOND = 10


def prepare_environment() -> None:
    """Make ``repro`` importable and keep every scratch file in the checkout.

    The engine's grace-hash spill uses :func:`tempfile.mkdtemp`; pointing
    ``tempfile.tempdir`` below ``bench/out`` keeps those files (and the
    reload workload's stores) inside the checkout, as the driver requires.
    """
    source = ROOT / "src"
    if not (source / "repro").is_dir():
        raise SystemExit(
            f"bench: no program to measure: {source / 'repro'} is missing"
        )
    if str(source) not in sys.path:
        sys.path.insert(0, str(source))
    TMP_DIR.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(TMP_DIR)
    os.environ["TMPDIR"] = str(TMP_DIR)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile); a lone sample is all three."""
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def percentile(values: Sequence[float], share: float) -> float:
    """The ``share`` quantile (0 < share < 1) by nearest rank.

    Raises ``ValueError`` when fewer than :data:`MIN_SAMPLES_BEYOND`
    samples lie beyond it: a tail estimated from a handful of samples is
    noise, and the caller must ask for a lower percentile instead.
    """
    if not 0.0 < share < 1.0:
        raise ValueError(f"share {share} out of (0, 1)")
    beyond = int(round(len(values) * (1.0 - share), 9))  # 100 * 0.1 is 9.99...
    if beyond < MIN_SAMPLES_BEYOND:
        raise ValueError(
            f"p{share * 100:g} of {len(values)} samples has {beyond} beyond "
            f"it; need {MIN_SAMPLES_BEYOND}"
        )
    ordered = sorted(values)
    return ordered[len(ordered) - beyond - 1]


def summarize(values: Sequence[float]) -> dict[str, Any]:
    """Sample count, quartiles and min of one metric's samples."""
    q1, q2, q3 = quartiles(values)
    return {"n": len(values), "q1": q1, "median": q2, "q3": q3, "min": min(values)}


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def git_sha(root: Path = ROOT) -> str:
    """HEAD of the checkout, read from ``.git`` directly.

    The driver's checkout is not a repository; running ``git`` there would
    walk up into directories the benchmark must not read.
    """
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def host_fingerprint() -> dict[str, Any]:
    import numpy

    blas = "unknown"
    try:
        config = numpy.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "machine": platform.machine(),
        "system": platform.system(),
    }


def op_list_hash(lines: Iterable[str]) -> str:
    digest = hashlib.blake2b(digest_size=8)
    for line in lines:
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def peak_rss_mb() -> float:
    """High-water resident set of this process (``ru_maxrss`` is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class SpanTracer:
    """In-memory spans recorded around calls into the program's layers.

    A span is ``[name, start, end, parent, op]``: ``parent`` indexes the
    span that was open on the same thread when this one began (-1 for a
    root) and ``op`` identifies the benchmark operation it belongs to.
    Spans are written out once, by :meth:`dump`, when the run ends.
    """

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, op: int = -1) -> Iterator[None]:
        """Record a span; a nested span belongs to its parent's operation."""
        stack = self._stack()
        parent = stack[-1] if stack else -1
        if parent >= 0:
            op = self.spans[parent][4]
        record = [name, time.perf_counter(), 0.0, parent, op]
        with self._lock:  # the server child records from several threads
            self.spans.append(record)
            index = len(self.spans) - 1
        stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def wrap(self, owner: Any, attribute: str, name: str) -> None:
        """Replace ``owner.attribute`` with a version that records a span."""
        original = getattr(owner, attribute)

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return original(*args, **kwargs)

        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, traced)

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- aggregation ---------------------------------------------------
    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive seconds and self seconds.

        Self time is a span's duration minus the part covered by its
        direct children; children run sequentially on the parent's
        thread, so their durations add.
        """
        child_seconds = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_seconds[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "seconds": 0.0, "self_seconds": 0.0})
            entry["calls"] += 1
            entry["seconds"] += end - start
            entry["self_seconds"] += max(0.0, end - start - child_seconds[index])
        return out

    def dump(self, path: Path) -> None:
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        origin = self.spans[0][1] if self.spans else 0.0
        payload = {
            "fields": ["name", "start_us", "end_us", "parent", "op"],
            "names": names,
            "spans": [
                [index[n], round((s - origin) * 1e6), round((e - origin) * 1e6), p, o]
                for n, s, e, p, o in self.spans
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, separators=(",", ":")))


# ----------------------------------------------------------------------
# Operations
# ----------------------------------------------------------------------
class OpRecorder:
    """Times the operations of a pass and counts the ones that raise."""

    def __init__(self, tracer: Optional[SpanTracer] = None) -> None:
        self.tracer = tracer
        self.latencies: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def __call__(self, name: str, fn: Callable[[], Any]) -> Any:
        """Run one operation; returns its result, or None when it raised."""
        self.attempted += 1
        started = time.perf_counter()
        try:
            with self.span(f"op.{name}", self.attempted):
                result = fn()
        except Exception as exc:  # noqa: BLE001 - a failed op is a data point
            self.failed += 1
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            result = None
        self.latencies.setdefault(name, []).append(time.perf_counter() - started)
        return result

    def span(self, name: str, op: int = -1) -> Any:
        """A span on the recorder's tracer; nothing when the run is untraced."""
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name, op)
