"""User-defined functions, including the paper's nUDFs.

A :class:`BatchUdf` receives whole numpy argument vectors per call, which
is how the paper's inference UDFs work: "the nUDF is performed in a batch
manner (a batch of feature maps are fed to the model together)".  The
registry also carries per-UDF metadata the optimizer consumes:

* ``cost_per_row`` — estimated seconds per evaluated row, used to decide
  eager vs. lazy nUDF placement (hint rule 1);
* ``selectivity_of`` — a callable mapping a compared-against class label to
  the estimated fraction of rows passing, backed by the training-time class
  histograms of Section IV-B (Eqs. 9–10).
"""

from __future__ import annotations

import inspect
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional

import numpy as np

from repro.errors import (
    CircuitOpenError,
    QueryCancelledError,
    QueryTimeoutError,
    UdfError,
)
from repro.engine.expressions import Vector
from repro.engine.infer_cache import (
    MISSING,
    InferenceCache,
    group_key,
    hash_rows,
)
from repro.obs.metrics import DEFAULT_SIZE_BUCKETS

from repro.sql.ast_nodes import (
    BinaryOp,
    Expression,
    FunctionCall,
    Literal,
    UnaryOp,
)
from repro.storage.schema import DataType

if TYPE_CHECKING:  # imported for annotations only
    from repro.engine.parallel import MorselPool
    from repro.engine.qcontext import QueryContext
    from repro.faults.breaker import CircuitBreaker
    from repro.faults.injector import FaultInjector

#: Rows per UDF morsel.  Smaller than the engine's morsels: one row of
#: model inference costs orders of magnitude more than one row of a
#: relational kernel, so a batch splits across workers much sooner.
UDF_MORSEL_ROWS = 256


@dataclass
class UdfStats:
    """Runtime accounting for one UDF (drives the inference-cost breakdown).

    ``rows`` counts rows the model actually evaluated; with an inference
    cache attached, cache hits show up in ``cache_hits`` instead, so the
    paper's "inferred rows" metric keeps meaning *model work done*.
    Updates go through :meth:`record` / :meth:`record_cache` under a lock
    so parallel UDF morsels never lose increments.
    """

    calls: int = 0
    rows: int = 0
    seconds: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def record(self, rows: int, seconds: float) -> None:
        with self._lock:
            self.calls += 1
            self.rows += rows
            self.seconds += seconds

    def record_cache(self, hits: int, misses: int) -> None:
        with self._lock:
            self.cache_hits += hits
            self.cache_misses += misses

    def reset(self) -> None:
        with self._lock:
            self.calls = 0
            self.rows = 0
            self.seconds = 0.0
            self.cache_hits = 0
            self.cache_misses = 0


@dataclass(frozen=True)
class UdfSignature:
    """The declared (or inferred) call signature of one UDF.

    This is the single source of truth the static analyzer checks nUDF
    calls against (arity, argument dtypes, output dtype) and that the
    registry's result-conversion path uses when normalizing model output
    into the representation the content-hashed inference cache stores —
    both layers read the same object, so a signature change can never
    leave one of them believing the old types.

    ``arg_dtypes`` is None when the registration did not declare argument
    types (arity is still inferred from ``fn``); an individual entry of
    None means "any type" for that position.  ``max_args`` of None means
    variadic (``*args`` in the implementation).
    """

    return_dtype: DataType
    arg_dtypes: Optional[tuple[Optional[DataType], ...]] = None
    min_args: Optional[int] = None
    max_args: Optional[int] = None

    def accepts_arity(self, count: int) -> bool:
        if self.min_args is not None and count < self.min_args:
            return False
        if self.max_args is not None and count > self.max_args:
            return False
        return True

    def arity_text(self) -> str:
        if self.min_args is None:
            return "any number of"
        if self.max_args is None:
            return f"at least {self.min_args}"
        if self.min_args == self.max_args:
            return str(self.min_args)
        return f"{self.min_args}..{self.max_args}"


def _infer_arity(fn: Callable[..., Any]) -> tuple[Optional[int], Optional[int]]:
    """(min_args, max_args) from ``fn``'s Python signature; (None, None)
    when it cannot be introspected (C builtins, odd callables)."""
    try:
        signature = inspect.signature(fn)
    except (TypeError, ValueError):
        return None, None
    minimum = 0
    maximum: Optional[int] = 0
    for parameter in signature.parameters.values():
        if parameter.kind in (
            inspect.Parameter.POSITIONAL_ONLY,
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
        ):
            if parameter.default is inspect.Parameter.empty:
                minimum += 1
            if maximum is not None:
                maximum += 1
        elif parameter.kind is inspect.Parameter.VAR_POSITIONAL:
            maximum = None
    return minimum, maximum


@dataclass
class BatchUdf:
    """A batched scalar UDF.

    Attributes:
        name: SQL-visible function name (e.g. ``nUDF_detect``).
        fn: Callable taking numpy argument arrays, returning a numpy array
            of per-row results.
        return_dtype: Logical type of the result column.
        arg_dtypes: Optional declared argument types; when given, the
            static analyzer rejects calls whose argument types mismatch.
            When omitted, only the arity (inferred from ``fn``) is checked.
        cost_per_row: Optimizer's per-row cost estimate in seconds.
        selectivity_of: Optional estimator ``label -> fraction`` from class
            histograms; None means the optimizer falls back to a default.
        is_neural: Marks inference UDFs so their runtime is accounted as
            *inference* cost rather than relational cost.
        cacheable: Results may be served from the inference cache.  Only
            set False for non-deterministic or stateful functions.
        parallel_safe: ``fn`` may run on worker threads (morsel
            dispatch).  Set False when the implementation touches shared
            engine state — e.g. DL2SQL's SQL-backed nUDFs, which execute
            nested statements on the owning database.
    """

    name: str
    fn: Callable[..., np.ndarray]
    return_dtype: DataType
    arg_dtypes: Optional[tuple[Optional[DataType], ...]] = None
    cost_per_row: float = 0.0
    selectivity_of: Optional[Callable[[Any], float]] = None
    is_neural: bool = False
    cacheable: bool = True
    parallel_safe: bool = True
    stats: UdfStats = field(default_factory=UdfStats)
    signature: UdfSignature = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.arg_dtypes is not None:
            self.arg_dtypes = tuple(self.arg_dtypes)
            minimum: Optional[int] = len(self.arg_dtypes)
            maximum: Optional[int] = len(self.arg_dtypes)
        else:
            minimum, maximum = _infer_arity(self.fn)
        self.signature = UdfSignature(
            return_dtype=self.return_dtype,
            arg_dtypes=self.arg_dtypes,
            min_args=minimum,
            max_args=maximum,
        )


class UdfRegistry:
    """Case-insensitive name -> :class:`BatchUdf` mapping with accounting."""

    def __init__(self) -> None:
        self._udfs: dict[str, BatchUdf] = {}
        #: Bumped on every (un)registration.  Kernel caches key on it so
        #: a fused builtin compiled before a same-named UDF appeared can
        #: never serve a batch afterwards.  Held in a one-element list so
        #: :meth:`shared_view` views observe each other's registrations.
        self._generation_ref = [0]
        #: Guards registration and breaker creation across shared views.
        self._registry_lock = threading.RLock()
        self._metrics = None
        self._cache: Optional[InferenceCache] = None
        self._pool: Optional["MorselPool"] = None
        self._faults: Optional["FaultInjector"] = None
        #: Called per batch/morsel to fetch the active QueryContext so
        #: worker threads observe deadlines and cancellation.
        self._query_provider: Optional[
            Callable[[], Optional["QueryContext"]]
        ] = None
        #: name -> breaker; created lazily per UDF.  threshold 0 disables.
        self._breakers: dict[str, "CircuitBreaker"] = {}
        self._breaker_threshold = 5
        self._breaker_reset_s = 30.0
        self._breaker_clock: Callable[[], float] = time.monotonic

    def shared_view(self) -> "UdfRegistry":
        """A session-scoped view over this registry.

        The UDF table, generation counter, circuit breakers, breaker
        policy, and inference cache are shared — every session sees one
        set of models and one breaker per model, and a model swap in one
        session invalidates everyone's cached results.  Observers,
        morsel pool, fault injector, and query-context provider stay
        **per view**, so each session's :class:`Database` attaches its
        own without clobbering the other sessions' (the query provider
        in particular must resolve to *that* session's active query).
        """
        view = UdfRegistry()
        view._udfs = self._udfs
        view._generation_ref = self._generation_ref
        view._registry_lock = self._registry_lock
        view._cache = self._cache
        view._breakers = self._breakers
        view._breaker_threshold = self._breaker_threshold
        view._breaker_reset_s = self._breaker_reset_s
        view._breaker_clock = self._breaker_clock
        return view

    def attach_observers(self, metrics=None) -> None:
        """Report UDF calls into a metrics registry (batch-size histogram).

        UDF wall-clock is kept per UDF in :attr:`BatchUdf.stats`.  In a
        trace it is part of the self time of the filter/project operator
        that evaluates the UDF expression; it has no operator category of
        its own.
        """
        self._metrics = metrics

    def attach_cache(self, cache: Optional[InferenceCache]) -> None:
        """Serve repeated inputs of cacheable UDFs from ``cache``."""
        self._cache = cache

    def attach_pool(self, pool: Optional["MorselPool"]) -> None:
        """Dispatch batches of parallel-safe UDFs larger than
        :data:`UDF_MORSEL_ROWS` as morsels on ``pool``."""
        self._pool = pool

    def attach_faults(self, faults: Optional["FaultInjector"]) -> None:
        """Honor the ``udf.batch_call`` injection site on every dispatch."""
        self._faults = faults

    def attach_query_provider(
        self, provider: Optional[Callable[[], Optional["QueryContext"]]]
    ) -> None:
        """Check the active query's deadline/cancellation before every
        batch and every morsel, including on pool worker threads."""
        self._query_provider = provider

    def configure_breakers(
        self,
        *,
        failure_threshold: int = 5,
        reset_timeout_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        """Set circuit-breaker policy for all UDFs.

        ``failure_threshold <= 0`` disables breakers entirely.  Existing
        breaker state is discarded (tests reconfigure with a fake clock).
        """
        self._breaker_threshold = int(failure_threshold)
        self._breaker_reset_s = float(reset_timeout_s)
        self._breaker_clock = clock
        self._breakers.clear()

    def breaker_for(self, name: str) -> Optional["CircuitBreaker"]:
        """The breaker guarding ``name``, if one has been created."""
        return self._breakers.get(name.lower())

    def breaker_states(self) -> dict[str, str]:
        """``{udf_name: state}`` for every breaker that has seen traffic."""
        return {
            name: breaker.state.value
            for name, breaker in sorted(self._breakers.items())
        }

    def _breaker_get_or_create(
        self, udf: BatchUdf
    ) -> Optional["CircuitBreaker"]:
        if self._breaker_threshold <= 0:
            return None
        key = udf.name.lower()
        breaker = self._breakers.get(key)
        if breaker is None:
            from repro.faults.breaker import CircuitBreaker

            with self._registry_lock:
                breaker = self._breakers.get(key)
                if breaker is None:
                    breaker = CircuitBreaker(
                        failure_threshold=self._breaker_threshold,
                        reset_timeout_s=self._breaker_reset_s,
                        clock=self._breaker_clock,
                    )
                    self._breakers[key] = breaker
        return breaker

    @property
    def cache(self) -> Optional[InferenceCache]:
        return self._cache

    @property
    def generation(self) -> int:
        """Monotonic registration counter (kernel-cache invalidation)."""
        return self._generation_ref[0]

    def register(self, udf: BatchUdf, *, replace: bool = False) -> None:
        key = udf.name.lower()
        with self._registry_lock:
            if key in self._udfs and not replace:
                raise UdfError(f"UDF {udf.name!r} is already registered")
            if key in self._udfs and self._cache is not None:
                # Re-registration swaps the model: its cached results are
                # stale the moment the new function could answer differently.
                self._cache.invalidate(key)
            self._udfs[key] = udf
            self._generation_ref[0] += 1

    def unregister(self, name: str) -> None:
        with self._registry_lock:
            removed = self._udfs.pop(name.lower(), None)
            if removed is not None:
                self._generation_ref[0] += 1
                if self._cache is not None:
                    self._cache.invalidate(name.lower())

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._udfs

    def get(self, name: str) -> BatchUdf:
        try:
            return self._udfs[name.lower()]
        except KeyError:
            raise UdfError(f"unknown UDF {name!r}") from None

    def names(self) -> list[str]:
        return sorted(udf.name for udf in self._udfs.values())

    def invoke(
        self,
        name: str,
        args: list[np.ndarray],
        nulls: Optional[np.ndarray] = None,
    ) -> Vector:
        """Run a UDF over argument vectors with strict NULL propagation.

        ``nulls`` is the union NULL mask over the argument vectors.  Rows
        where any argument is NULL never reach the model, the cache
        hasher, or the morsel dispatcher — they are compressed out up
        front and scattered back as NULL afterwards.  This fixes two bugs
        in one move: fixed-width NULL sentinels can no longer leak
        through a UDF as real values (``dbl(NULL)`` returning ``0``), and
        the cache can no longer conflate ``f(NULL)`` with ``f(0)``
        (row hashes are computed over present rows only).  It also means
        validity masks never ride alongside morsel slicing, so argument
        slices and masks cannot fall out of step.

        With an inference cache attached, the (present-row) batch is
        served with partial-hit semantics: every input row is
        content-hashed, the model runs only over missed rows (as
        parallel morsels when a live pool is attached), and cached plus
        fresh results are scattered back into one output vector.
        """
        udf = self.get(name)
        num_rows = len(args[0]) if args else 0
        if nulls is not None and not nulls.any():
            nulls = None
        if nulls is None:
            return Vector(self._invoke_dense(udf, args, num_rows), udf.return_dtype)
        present = np.flatnonzero(~nulls)
        out = self._null_filled_result(udf, num_rows)
        if present.size:
            dense = self._invoke_dense(
                udf, [array[present] for array in args], int(present.size)
            )
            out[present] = dense
        return Vector(out, udf.return_dtype, valid=~nulls)

    def _invoke_dense(
        self, udf: BatchUdf, args: list[np.ndarray], num_rows: int
    ) -> np.ndarray:
        """The NULL-free batch path (cache lookup + model dispatch)."""
        cache = self._cache
        if cache is None or not udf.cacheable or not args or num_rows == 0:
            return self._infer(udf, args, num_rows)

        namespace = udf.name.lower()
        keys = hash_rows(args, num_rows)
        cached_values, missed = cache.get_many(namespace, keys)
        udf.stats.record_cache(
            hits=num_rows - len(missed), misses=len(missed)
        )

        out = self._empty_result(udf, num_rows)
        if missed:
            self._compute_missed(udf, cache, namespace, args, keys, missed, out)
        for row, value in enumerate(cached_values):
            if value is not MISSING:
                out[row] = value
        self._record_cache_metrics(cache, num_rows - len(missed), len(missed))
        return out

    def _compute_missed(
        self,
        udf: BatchUdf,
        cache: InferenceCache,
        namespace: str,
        args: list[np.ndarray],
        keys: list[bytes],
        missed: list[int],
        out: np.ndarray,
    ) -> None:
        """Run the model over the missed rows, single-flight deduplicated.

        The first caller for an identical miss-group leads (computes and
        populates the cache); concurrent identical callers follow (block
        on the leader, then read the leader's results back out of the
        cache).  A follower recomputes only rows the leader's results no
        longer cover — evicted under memory pressure, or dropped by an
        injected ``cache.insert`` fault — so deduplication can degrade
        but never return wrong or missing values.
        """
        flight_key = group_key(namespace, (keys[row] for row in missed))
        role, flight = cache.singleflight.begin(flight_key)
        if role == "follower":
            assert flight is not None
            query = (
                self._query_provider() if self._query_provider is not None else None
            )
            # Leader failure propagates here: followers re-raise instead
            # of stampeding a failing model.
            cache.singleflight.wait(flight, query=query)
            values, leftover = cache.peek_many(
                namespace, [keys[row] for row in missed]
            )
            for position, value in enumerate(values):
                if value is not MISSING:
                    out[missed[position]] = value
            if not leftover:
                return
            missed = [missed[position] for position in leftover]
            role = "bypass"  # compute the leftovers inline, no new flight
        try:
            indices = np.asarray(missed, dtype=np.int64)
            fresh = self._infer(
                udf, [array[indices] for array in args], len(missed)
            )
            out[indices] = fresh
            # Duplicate rows within one batch hash to the same key; the
            # last write wins, which is fine — results are identical.
            for position, row in enumerate(missed):
                cache.put(namespace, keys[row], fresh[position])
        except BaseException as exc:
            if role == "leader":
                assert flight is not None
                cache.singleflight.finish(flight_key, flight, exc)
            raise
        if role == "leader":
            assert flight is not None
            cache.singleflight.finish(flight_key, flight)

    def _empty_result(self, udf: BatchUdf, num_rows: int) -> np.ndarray:
        dtype = udf.signature.return_dtype
        if dtype in (DataType.STRING, DataType.BLOB):
            return np.empty(num_rows, dtype=object)
        return np.empty(num_rows, dtype=dtype.numpy_dtype)

    def _null_filled_result(self, udf: BatchUdf, num_rows: int) -> np.ndarray:
        """An output buffer pre-filled with the dtype's NULL sentinel."""
        dtype = udf.signature.return_dtype
        if dtype in (DataType.STRING, DataType.BLOB):
            out = np.empty(num_rows, dtype=object)
            out[:] = None
            return out
        if dtype is DataType.FLOAT64:
            return np.full(num_rows, np.nan)
        return np.zeros(num_rows, dtype=dtype.numpy_dtype)

    def _record_cache_metrics(
        self, cache: InferenceCache, hits: int, misses: int
    ) -> None:
        if self._metrics is None:
            return
        self._metrics.counter(
            "udf_cache_hits", "UDF rows served from the inference cache"
        ).inc(hits)
        self._metrics.counter(
            "udf_cache_misses", "UDF rows that required model evaluation"
        ).inc(misses)
        self._metrics.counter(
            "udf_cache_evictions", "Inference-cache entries evicted (LRU)"
        ).set_to_at_least(cache.evictions)
        self._metrics.gauge(
            "udf_cache_bytes", "Resident bytes in the inference cache"
        ).set(cache.bytes_used)

    def _infer(
        self, udf: BatchUdf, args: list[np.ndarray], num_rows: int
    ) -> np.ndarray:
        """Evaluate the model, guarded by the UDF's circuit breaker.

        Query deadline/cancellation errors pass through without charging
        the breaker — a slow query is not a broken model.  Note the
        cache-hit path in :meth:`invoke` never reaches this method, so a
        UDF with an open breaker still serves fully-cached batches.
        """
        breaker = self._breaker_get_or_create(udf)
        if breaker is not None and not breaker.allow():
            if self._metrics is not None:
                self._metrics.counter(
                    "udf_breaker_rejections_total",
                    "UDF invocations rejected by an open circuit breaker",
                ).inc()
            raise CircuitOpenError(
                f"UDF {udf.name!r} circuit breaker is open "
                f"(retry in {breaker.retry_after_s():.3f}s)",
                udf_name=udf.name,
                retry_after_s=breaker.retry_after_s(),
            )
        try:
            result = self._infer_inner(udf, args, num_rows)
        except (QueryCancelledError, QueryTimeoutError):
            raise
        except Exception:
            if breaker is not None:
                breaker.record_failure()
                if self._metrics is not None:
                    self._metrics.counter(
                        "udf_breaker_opened_total",
                        "Times any UDF circuit breaker tripped open",
                    ).set_to_at_least(
                        sum(b.times_opened for b in self._breakers.values())
                    )
            raise
        if breaker is not None:
            breaker.record_success()
        return result

    def _infer_inner(
        self, udf: BatchUdf, args: list[np.ndarray], num_rows: int
    ) -> np.ndarray:
        """Evaluate the model over ``args``, with stats and conversion.

        Returns the result as a plain ndarray already converted to the
        UDF's declared return dtype (the representation the cache
        stores, so cached and fresh values are bit-identical).
        """
        started = time.perf_counter()
        try:
            result = self._dispatch_fn(udf, args, num_rows)
        except (QueryCancelledError, QueryTimeoutError, UdfError):
            raise
        except Exception as exc:  # noqa: BLE001 - rewrap with UDF context
            raise UdfError(f"UDF {udf.name!r} failed: {exc}") from exc
        elapsed = time.perf_counter() - started
        udf.stats.record(rows=num_rows, seconds=elapsed)
        if self._metrics is not None:
            self._metrics.histogram(
                "udf_batch_rows",
                "Rows per batched UDF invocation",
                buckets=DEFAULT_SIZE_BUCKETS,
            ).observe(num_rows)

        result = np.asarray(result)
        if result.shape != (num_rows,):
            raise UdfError(
                f"UDF {udf.name!r} returned shape {result.shape}, "
                f"expected ({num_rows},)"
            )
        # Conversion target comes from the shared signature object — the
        # same one the static analyzer checks calls against — so the cache
        # stores exactly the representation the analyzer promised callers.
        dtype = udf.signature.return_dtype
        if dtype in (DataType.STRING, DataType.BLOB):
            if result.dtype != object:
                boxed = np.empty(num_rows, dtype=object)
                boxed[:] = result
                result = boxed
        else:
            result = result.astype(dtype.numpy_dtype)
        return result

    def _before_batch(self, udf: BatchUdf, rows: int) -> None:
        """Per-batch / per-morsel preamble, also run on worker threads:
        observe the query's deadline or cancellation, then honor the
        ``udf.batch_call`` injection site."""
        if self._query_provider is not None:
            qctx = self._query_provider()
            if qctx is not None:
                qctx.check()
        if self._faults is not None:
            self._faults.fire("udf.batch_call", udf=udf.name, rows=rows)

    def _dispatch_fn(
        self, udf: BatchUdf, args: list[np.ndarray], num_rows: int
    ) -> np.ndarray:
        """Run ``udf.fn``, split into morsels on the pool when it pays off.

        :meth:`MorselPool.run` fails fast: the first morsel error cancels
        every morsel still queued, so a poisoned batch stops burning
        worker slots.
        """
        pool = self._pool
        morsel = UDF_MORSEL_ROWS
        if (
            pool is None
            or not pool.enabled
            or not udf.parallel_safe
            or num_rows <= morsel
        ):
            self._before_batch(udf, num_rows)
            return udf.fn(*args)

        def make_thunk(start: int) -> Callable[[], np.ndarray]:
            stop = min(start + morsel, num_rows)

            def run_morsel() -> np.ndarray:
                self._before_batch(udf, stop - start)
                piece = np.asarray(udf.fn(*[a[start:stop] for a in args]))
                if piece.shape != (stop - start,):
                    raise UdfError(
                        f"UDF {udf.name!r} returned shape {piece.shape} for "
                        f"a morsel of {stop - start} rows"
                    )
                return piece

            return run_morsel

        return np.concatenate(
            pool.run([make_thunk(start) for start in range(0, num_rows, morsel)])
        )

    def neural_seconds(self) -> float:
        """Total wall-clock spent inside neural UDFs since the last reset."""
        return sum(u.stats.seconds for u in self._udfs.values() if u.is_neural)

    def reset_stats(self) -> None:
        for udf in self._udfs.values():
            udf.stats.reset()


def parse_udf_comparison(
    conjunct: Expression,
) -> Optional[tuple[str, Any, bool]]:
    """Recognize ``nUDF(x) = literal`` / ``nUDF(x) != literal`` shapes.

    Returns ``(udf_name, literal_value, negated)`` or None.  ``NOT
    (nUDF(x) = lit)`` also resolves, with the negation folded in.  Used by
    the hint-aware cost model (selectivity lookup) and by the executor's
    multi-nUDF conjunct ordering (the paper's detect-before-classify
    example).
    """
    if isinstance(conjunct, UnaryOp) and conjunct.op.upper() == "NOT":
        inner = parse_udf_comparison(conjunct.operand)
        if inner is None:
            return None
        name, label, negated = inner
        return name, label, not negated
    if not isinstance(conjunct, BinaryOp) or conjunct.op not in ("=", "!="):
        return None
    left, right = conjunct.left, conjunct.right
    call: Optional[FunctionCall] = None
    literal: Optional[Literal] = None
    if isinstance(left, FunctionCall) and isinstance(right, Literal):
        call, literal = left, right
    elif isinstance(right, FunctionCall) and isinstance(left, Literal):
        call, literal = right, left
    if call is None or literal is None:
        return None
    return call.name, literal.value, conjunct.op == "!="
