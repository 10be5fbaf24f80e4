"""Multi-session serving on top of one shared storage engine.

Concurrency model
-----------------

* **One engine, many facades.**  The :class:`Server` owns a root
  :class:`~repro.engine.database.Database` (catalog, function/UDF
  registries, inference cache, kernel cache, morsel pool); every
  :class:`Session` wraps a lightweight ``Database`` facade that borrows
  all of those and adds only per-session state (temp tables, parse/plan
  caches, tracer, the active query slot).
* **Snapshot reads.**  Each read statement pins a copy-on-write
  :meth:`~repro.storage.catalog.Catalog.snapshot` for its whole
  duration: writers swap column lists and bump versions, so a pinned
  reader keeps the exact bytes it started on and can never observe a
  concurrent ``INSERT``/``UPDATE`` partially.  Readers take no lock and
  never block behind writers.
* **Serialized writes.**  Write statements funnel through one server
  write lock and execute against the live base catalog.  Statements
  *within* one session are serialized too (a session behaves like one
  SQL connection).
* **Overload protection.**  A bounded admission queue guards the
  execution slots.  When the queue is full — or a session exceeds its
  in-flight cap, or the server-wide memory accountant refuses the
  query's reservation — the statement is *shed* with a typed
  :class:`~repro.errors.ServerOverloaded` (code ``R006``) carrying
  ``retry_after_s``, instead of queueing without bound and collapsing.
  Queue wait time charges the query's own
  :class:`~repro.engine.qcontext.QueryContext` deadline.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.engine.database import Database, Result
from repro.engine.memory import MemoryAccountant
from repro.engine.qcontext import CancellationToken, QueryContext
from repro.errors import QueryMemoryExceeded, ServerOverloaded
from repro.obs.metrics import MetricsRegistry
from repro.sql.ast_nodes import ExplainStatement, SelectStatement
from repro.storage.catalog import SessionCatalog

#: Latency buckets for the serve histogram (seconds).
_LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_UNSET: Any = object()


@dataclass
class ServerConfig:
    """Knobs for admission, shedding, and the shared engine."""

    #: Statements executing at once, across all sessions.
    max_concurrent: int = 8
    #: Statements allowed to *wait* for a slot beyond ``max_concurrent``;
    #: arrivals past this are shed with ``R006``.
    max_queue: int = 16
    #: Longest a statement may wait for a slot before being shed (its
    #: own deadline, if sooner, wins).
    queue_timeout_s: float = 5.0
    #: Per-session cap on statements admitted (queued + running).
    session_inflight_cap: int = 4
    #: Default deadline stamped on statements that pass no ``timeout_s``;
    #: ``None`` means no default deadline.
    default_timeout_s: Optional[float] = None
    #: Inference-cache budget shared by every session (single-flight
    #: deduplication lives inside this cache).
    udf_cache_bytes: int = 32 << 20
    #: Per-query materialization budget (0 disables admission control
    #: inside the engine).
    query_memory_bytes: int = 256 << 20
    #: Server-wide reservation budget: each admitted statement reserves
    #: ``query_memory_bytes`` (or this floor when that is 0) against a
    #: shared :class:`~repro.engine.memory.MemoryAccountant`; refusal
    #: sheds instead of queueing.  0 disables server-wide accounting.
    server_memory_bytes: int = 0
    #: Engine morsel-pool workers (``None`` consults ``REPRO_WORKERS``).
    workers: Optional[int] = None
    #: Sessions plan with constant folding off by default: fold prunes
    #: are justified by *live* statistics, which may already disagree
    #: with the snapshot a concurrent reader has pinned.
    session_fold_constants: bool = False


class Session:
    """One client's view of the server.

    Carries private temp tables/views (a :class:`SessionCatalog`
    overlay), a default deadline, a metrics label, and per-session
    settings.  Statements within a session run one at a time, like a
    SQL connection; concurrency comes from many sessions.
    """

    def __init__(
        self,
        server: "Server",
        name: str,
        *,
        timeout_s: Optional[float] = _UNSET,
        max_inflight: Optional[int] = None,
        label: Optional[str] = None,
    ) -> None:
        self._server = server
        self.name = name
        #: Shown on labeled serve metrics (defaults to the session name).
        self.label = label if label is not None else name
        config = server.config
        self.default_timeout_s = (
            config.default_timeout_s if timeout_s is _UNSET else timeout_s
        )
        self.max_inflight = (
            config.session_inflight_cap if max_inflight is None else max_inflight
        )
        #: Free-form per-session settings (clients stash dialect quirks,
        #: experiment tags, ...); the server never interprets them.
        self.settings: dict[str, Any] = {}
        self.catalog = SessionCatalog(server.catalog)
        self.db = Database(
            catalog=self.catalog,
            functions=server.functions,
            udfs=server.udfs.shared_view(),
            infer_cache=server.infer_cache,
            kernel_cache=server.kernels,
            parallel_pool=server.parallel,
            metrics=server.metrics,
            fault_plan=server.faults,
            query_memory_bytes=config.query_memory_bytes,
            fold_constants=config.session_fold_constants,
        )
        self._exec_lock = threading.RLock()
        self._state_lock = threading.Lock()
        self._inflight = 0
        self.closed = False

    # ------------------------------------------------------------------
    @property
    def inflight(self) -> int:
        with self._state_lock:
            return self._inflight

    def execute(
        self,
        sql: str,
        *,
        timeout_s: Optional[float] = _UNSET,
        cancel_token: Optional[CancellationToken] = None,
    ) -> Result:
        """Run one statement through the server's admission control.

        Raises :class:`~repro.errors.ServerOverloaded` when shed, and
        whatever the engine raises otherwise (timeouts, typed faults).
        """
        if self.closed:
            raise ServerOverloaded(
                f"session {self.name!r} is closed", reason="session_closed",
                retry_after_s=0.0,
            )
        timeout = self.default_timeout_s if timeout_s is _UNSET else timeout_s
        qctx = QueryContext(timeout_s=timeout, cancel_token=cancel_token)
        return self._server._run(self, sql, qctx)

    def query(self, sql: str) -> list[tuple[Any, ...]]:
        return self.execute(sql).rows()

    def drop_temp_objects(self) -> int:
        return self.catalog.drop_temp_objects()

    def close(self) -> None:
        """Drop session temp objects and detach from the server."""
        if self.closed:
            return
        self.closed = True
        self.catalog.drop_temp_objects()
        self.db.close()  # releases nothing shared (components are borrowed)
        self._server._forget(self)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


@dataclass
class ServeStats:
    """Point-in-time serving counters (CLI / sidecar friendly)."""

    executed: int = 0
    shed: dict[str, int] = field(default_factory=dict)
    timeouts: int = 0
    sessions: int = 0
    inflight: int = 0
    waiting: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "executed": self.executed,
            "shed": dict(self.shed),
            "shed_total": sum(self.shed.values()),
            "timeouts": self.timeouts,
            "sessions": self.sessions,
            "inflight": self.inflight,
            "waiting": self.waiting,
        }


class Server:
    """The shared engine plus admission control over it."""

    def __init__(
        self,
        config: Optional[ServerConfig] = None,
        *,
        metrics: Optional[MetricsRegistry] = None,
        fault_plan: Any = None,
    ) -> None:
        self.config = config or ServerConfig()
        self.metrics = metrics
        #: The root facade owns every shared component; sessions borrow.
        self.root = Database(
            udf_cache_bytes=self.config.udf_cache_bytes,
            query_memory_bytes=self.config.query_memory_bytes,
            workers=self.config.workers,
            metrics=metrics,
            fault_plan=fault_plan,
        )
        self.catalog = self.root.catalog
        self.functions = self.root.functions
        self.udfs = self.root.udfs
        self.infer_cache = self.root.infer_cache
        self.kernels = self.root.kernels
        self.parallel = self.root.parallel
        self.faults = self.root.faults
        self.memory: Optional[MemoryAccountant] = (
            MemoryAccountant(self.config.server_memory_bytes)
            if self.config.server_memory_bytes > 0
            else None
        )
        self._slots = threading.Semaphore(max(1, self.config.max_concurrent))
        self._write_lock = threading.RLock()
        self._queue_lock = threading.Lock()
        self._waiting = 0
        self._sessions: dict[str, Session] = {}
        self._session_counter = itertools.count(1)
        self._stats_lock = threading.Lock()
        self._executed = 0
        self._timeouts = 0
        self._shed: dict[str, int] = {}
        self._inflight = 0
        self.closed = False

    # ------------------------------------------------------------------
    # Sessions
    # ------------------------------------------------------------------
    def session(self, name: Optional[str] = None, **options: Any) -> Session:
        """Open a session (auto-named ``s1``, ``s2``, ... by default)."""
        if self.closed:
            raise ServerOverloaded(
                "server is closed", reason="server_closed", retry_after_s=0.0
            )
        if name is None:
            name = f"s{next(self._session_counter)}"
        with self._queue_lock:
            if name in self._sessions:
                raise ValueError(f"session {name!r} already exists")
            session = Session(self, name, **options)
            self._sessions[name] = session
        return session

    def _forget(self, session: Session) -> None:
        with self._queue_lock:
            self._sessions.pop(session.name, None)

    def sessions(self) -> list[str]:
        with self._queue_lock:
            return sorted(self._sessions)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _run(self, session: Session, sql: str, qctx: QueryContext) -> Result:
        self._admit(session, qctx)
        started = qctx.clock()
        try:
            # One statement at a time per session: the facade's active
            # query/context slots and the catalog pin are per-session
            # state, exactly like one SQL connection's.
            with session._exec_lock:
                statement = session.db._parse_cached(sql)
                is_read = isinstance(
                    statement, (SelectStatement, ExplainStatement)
                )
                if is_read:
                    session.catalog.pin(self.catalog.snapshot())
                    try:
                        return session.db.execute(sql, query_context=qctx)
                    finally:
                        session.catalog.unpin()
                with self._write_lock:
                    return session.db.execute(sql, query_context=qctx)
        except BaseException as exc:
            from repro.errors import QueryTimeoutError

            if isinstance(exc, QueryTimeoutError):
                with self._stats_lock:
                    self._timeouts += 1
            raise
        finally:
            self._release(session)
            elapsed = qctx.clock() - started
            with self._stats_lock:
                self._executed += 1
            if self.metrics is not None:
                self.metrics.histogram(
                    "serve_latency_seconds",
                    "End-to-end statement latency through the serving layer",
                    buckets=_LATENCY_BUCKETS,
                ).observe(elapsed)
                self.metrics.labeled_counter(
                    "serve_queries_total",
                    "Statements executed per session label",
                    label="session",
                ).inc(session.label)

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def _admit(self, session: Session, qctx: QueryContext) -> None:
        with session._state_lock:
            if session._inflight >= max(1, session.max_inflight):
                self._count_shed("session_cap")
                raise ServerOverloaded(
                    f"session {session.name!r} has {session._inflight} "
                    f"statements in flight (cap {session.max_inflight})",
                    reason="session_cap",
                    retry_after_s=self._retry_hint(),
                )
            session._inflight += 1
        try:
            self._reserve_memory(session)
            if self._slots.acquire(blocking=False):
                self._note_inflight(+1)
                return
            with self._queue_lock:
                if self._waiting >= self.config.max_queue:
                    self._count_shed("queue_full")
                    raise ServerOverloaded(
                        f"admission queue is full "
                        f"({self._waiting} waiting, "
                        f"{self.config.max_concurrent} executing)",
                        reason="queue_full",
                        retry_after_s=self._retry_hint(),
                    )
                self._waiting += 1
            try:
                wait_s = self.config.queue_timeout_s
                if qctx.deadline is not None:
                    wait_s = min(wait_s, max(0.0, qctx.deadline - qctx.clock()))
                acquired = self._slots.acquire(timeout=wait_s)
            finally:
                with self._queue_lock:
                    self._waiting -= 1
            if not acquired:
                qctx.check()  # deadline hit while queued -> typed timeout
                self._count_shed("queue_timeout")
                raise ServerOverloaded(
                    f"no execution slot within {wait_s:.3f}s",
                    reason="queue_timeout",
                    retry_after_s=self._retry_hint(),
                )
            self._note_inflight(+1)
        except BaseException:
            with session._state_lock:
                session._inflight -= 1
            raise

    def _reserve_memory(self, session: Session) -> None:
        """Server-wide admission via the shared memory accountant."""
        if self.memory is None:
            return
        nbytes = self.config.query_memory_bytes or (1 << 20)
        try:
            self.memory.admit(nbytes, f"admitting session {session.name!r}")
        except QueryMemoryExceeded as exc:
            self._count_shed("memory")
            raise ServerOverloaded(
                f"server memory accountant refused the reservation: {exc}",
                reason="memory",
                retry_after_s=self._retry_hint(),
            ) from exc

    def _release(self, session: Session) -> None:
        self._slots.release()
        self._note_inflight(-1)
        with session._state_lock:
            session._inflight -= 1

    def _note_inflight(self, delta: int) -> None:
        with self._stats_lock:
            self._inflight += delta

    def _retry_hint(self) -> float:
        """Backoff hint scaled by current queue pressure.

        Reads ``_waiting`` without the queue lock on purpose: one shed
        path raises while *holding* that lock, and a hint may be racy.
        """
        depth = self._waiting
        return round(min(2.0, 0.05 * (depth + 1)), 3)

    def _count_shed(self, reason: str) -> None:
        with self._stats_lock:
            self._shed[reason] = self._shed.get(reason, 0) + 1
        if self.metrics is not None:
            self.metrics.labeled_counter(
                "serve_shed_total",
                "Statements shed by admission control, by reason",
                label="reason",
            ).inc(reason)

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> ServeStats:
        with self._stats_lock, self._queue_lock:
            return ServeStats(
                executed=self._executed,
                shed=dict(self._shed),
                timeouts=self._timeouts,
                sessions=len(self._sessions),
                inflight=self._inflight,
                waiting=self._waiting,
            )

    def close(self) -> None:
        """Close every session and shut down the shared engine."""
        if self.closed:
            return
        self.closed = True
        with self._queue_lock:
            doomed = list(self._sessions.values())
        for session in doomed:
            session.close()
        self.root.close()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
