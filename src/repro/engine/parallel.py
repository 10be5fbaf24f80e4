"""Morsel-driven parallelism for the whole relational pipeline.

A :class:`MorselPool` owns the one thread pool of a database.  Every
data-parallel stage runs on it: filter and project evaluation,
partitioned hash-join matching, partial aggregation, and batches of
parallel-safe UDFs.  It hands them three primitives:

* :meth:`MorselPool.partition` — split ``num_rows`` into contiguous
  ``[start, stop)`` morsels of ``morsel_rows`` rows each;
* :meth:`MorselPool.run` — execute thunks with fail-fast semantics (the
  first worker error cancels every queued sibling);
* :meth:`MorselPool.run_rows` — the combination operators actually use:
  partition, then run one task per morsel with the cooperative
  preamble (deadline/cancellation check plus the ``operator.morsel``
  fault-injection site) executed *on the worker thread*, so a timeout,
  a cancel, or a chaos rule lands inside the morsel that is running,
  not merely between operators.

Numpy releases the GIL inside its kernels, so morsels overlap on real
multi-core hosts; on a single core the pool degrades to ordered serial
execution with identical results (the parallel-vs-serial differential
suite pins this equivalence).

Thread-safety contract (see ``docs/parallelism.md``): worker tasks only
touch the frame slice they were handed, the shared
:class:`~repro.engine.qcontext.QueryContext`/
:class:`~repro.faults.injector.FaultInjector` (both thread-safe), and
the metrics registry (lock-protected).  Expressions containing UDF
calls or scalar subqueries never enter the pool as operator morsels —
a UDF splits its own batch into morsels from the coordinator thread, so
no pool task ever waits on another, and subqueries execute nested
statements on the owning database, which is coordinator-only state.
"""

from __future__ import annotations

import threading
from concurrent.futures import FIRST_EXCEPTION, Future, ThreadPoolExecutor, wait
from typing import TYPE_CHECKING, Callable, Optional, TypeVar

if TYPE_CHECKING:  # imported for annotations only
    from repro.engine.qcontext import QueryContext
    from repro.faults.injector import FaultInjector
    from repro.obs.metrics import MetricsRegistry

T = TypeVar("T")

#: Default rows per engine morsel.  Larger than a UDF morsel (256):
#: relational kernels are orders of magnitude cheaper per row than model
#: inference, so smaller morsels would drown in dispatch overhead.
DEFAULT_MORSEL_ROWS = 8192


class MorselPool:
    """A shared worker pool dispatching contiguous row-range morsels.

    Args:
        workers: Worker thread count.  ``1`` (the default everywhere)
            disables the pool entirely — no threads are created and
            :meth:`run` executes thunks inline, so the serial engine
            pays nothing for this feature existing.
        morsel_rows: Rows per morsel for :meth:`partition`.
        metrics: Optional registry receiving the per-worker
            ``parallel_morsels_total`` / ``parallel_morsel_rows_total``
            labeled counters.
    """

    def __init__(
        self,
        workers: int = 1,
        morsel_rows: int = DEFAULT_MORSEL_ROWS,
        *,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> None:
        if morsel_rows < 1:
            raise ValueError("morsel_rows must be positive")
        self.workers = max(1, int(workers))
        self.morsel_rows = int(morsel_rows)
        self.metrics = metrics
        self._executor: Optional[ThreadPoolExecutor] = None
        if self.workers > 1:
            self._executor = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-morsel"
            )

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self._executor is not None

    def should_parallelize(self, num_rows: int) -> bool:
        """True when splitting ``num_rows`` buys anything: the pool is
        live and there is more than one morsel of work."""
        return self.enabled and num_rows > self.morsel_rows

    def partition(self, num_rows: int) -> list[tuple[int, int]]:
        """Contiguous ``[start, stop)`` morsel ranges covering ``num_rows``."""
        if num_rows <= 0:
            return []
        step = self.morsel_rows
        return [
            (start, min(start + step, num_rows))
            for start in range(0, num_rows, step)
        ]

    # ------------------------------------------------------------------
    def run(self, thunks: list[Callable[[], T]]) -> list[T]:
        """Execute thunks, preserving order, failing fast.

        With the pool disabled (or a single thunk) execution is inline
        on the calling thread.  Otherwise the first worker exception
        cancels every still-queued sibling and re-raises with the
        worker's original traceback, so a poisoned morsel never keeps
        burning pool slots.
        """
        if self._executor is None or len(thunks) <= 1:
            return [thunk() for thunk in thunks]
        futures: list[Future[T]] = [
            self._executor.submit(thunk) for thunk in thunks
        ]
        done, pending = wait(futures, return_when=FIRST_EXCEPTION)
        failed = next(
            (
                future
                for future in done
                if not future.cancelled() and future.exception() is not None
            ),
            None,
        )
        if failed is not None:
            cancelled = sum(1 for future in pending if future.cancel())
            if self.metrics is not None and cancelled:
                self.metrics.counter(
                    "parallel_morsels_cancelled_total",
                    "Queued morsels cancelled after a sibling failed",
                ).inc(cancelled)
            failed.result()  # re-raises with the worker's traceback
        return [future.result() for future in futures]

    def run_rows(
        self,
        num_rows: int,
        fn: Callable[[int, int], T],
        *,
        query: Optional["QueryContext"] = None,
        faults: Optional["FaultInjector"] = None,
        op: str = "",
    ) -> list[T]:
        """Run ``fn(start, stop)`` over every morsel of ``num_rows`` rows.

        Each task begins with the cooperative preamble *on its worker
        thread*: the query's deadline/cancellation check, then the
        ``operator.morsel`` fault-injection site (tagged with the
        operator name, the row range, and the worker thread).  Results
        come back in morsel order, so ``np.concatenate`` over them
        reproduces the serial row order exactly.
        """
        spans = self.partition(num_rows)
        metrics = self.metrics

        def make_task(start: int, stop: int) -> Callable[[], T]:
            def task() -> T:
                if query is not None:
                    query.check()
                worker = threading.current_thread().name
                if faults is not None:
                    faults.fire(
                        "operator.morsel",
                        op=op,
                        rows=f"{start}:{stop}",
                        worker=worker,
                    )
                result = fn(start, stop)
                if metrics is not None:
                    metrics.labeled_counter(
                        "parallel_morsels_total",
                        "Engine morsels executed, by worker thread",
                        label="worker",
                    ).inc(worker)
                    metrics.labeled_counter(
                        "parallel_morsel_rows_total",
                        "Rows processed by engine morsels, by worker thread",
                        label="worker",
                    ).inc(worker, stop - start)
                return result

            return task

        return self.run([make_task(start, stop) for start, stop in spans])

    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Release the worker threads (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
