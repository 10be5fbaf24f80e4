"""Fail-fast morsel dispatch, breaker wiring, and cache-insert absorption."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.engine import BatchUdf, Database
from repro.engine import udf as udf_module
from repro.errors import CircuitOpenError, UdfError
from repro.faults.injector import InjectedFault
from repro.obs.metrics import MetricsRegistry
from repro.storage.schema import DataType


ROWS = 200
MORSEL_ROWS = 8


@pytest.fixture(autouse=True)
def small_udf_morsels(monkeypatch):
    monkeypatch.setattr(udf_module, "UDF_MORSEL_ROWS", MORSEL_ROWS)


def make_parallel_db(**kwargs) -> tuple[Database, MetricsRegistry]:
    metrics = MetricsRegistry()
    db = Database(metrics=metrics, workers=2, **kwargs)
    db.create_table_from_dict("t", {"a": [float(i) for i in range(ROWS)]})
    return db, metrics


class TestFailFastMorsels:
    def test_first_morsel_error_cancels_the_queue(self):
        """A permanent ``udf.batch_call`` fault poisons one morsel; the
        dispatcher must cancel the queued rest instead of running them."""
        db, metrics = make_parallel_db(
            fault_plan="seed=1; udf.batch_call:permanent#1",
            udf_breaker_threshold=0,  # isolate dispatch from the breaker
        )
        calls: list[int] = []
        lock = threading.Lock()

        def slow_echo(values: np.ndarray) -> np.ndarray:
            with lock:
                calls.append(len(values))
            time.sleep(0.01)
            return values.astype(np.float64)

        db.register_udf(
            BatchUdf(name="slow", fn=slow_echo, return_dtype=DataType.FLOAT64)
        )
        with pytest.raises(UdfError) as exc_info:
            db.query("SELECT slow(a) FROM t")
        # The worker's original fault rides along as the cause.
        assert isinstance(exc_info.value.__cause__, InjectedFault)

        total_morsels = ROWS // MORSEL_ROWS
        cancelled = metrics.counter("parallel_morsels_cancelled_total").value
        assert cancelled > 0
        # Fail fast: most morsels never ran the model.
        assert len(calls) + cancelled <= total_morsels
        assert len(calls) < total_morsels

    def test_clean_parallel_run_unaffected(self):
        db, metrics = make_parallel_db()
        db.register_udf(
            BatchUdf(
                name="double_it",
                fn=lambda values: values * 2,
                return_dtype=DataType.FLOAT64,
            )
        )
        rows = db.query("SELECT double_it(a) FROM t WHERE a < 32")
        assert sorted(r[0] for r in rows) == [2.0 * i for i in range(32)]
        assert metrics.counter("parallel_morsels_cancelled_total").value == 0


class TestBreaker:
    def test_breaker_opens_after_repeated_failures(self):
        db, metrics = make_parallel_db(
            fault_plan="udf.batch_call:permanent",
            udf_breaker_threshold=2,
        )
        db.register_udf(
            BatchUdf(
                name="doomed",
                fn=lambda values: values,
                return_dtype=DataType.FLOAT64,
            )
        )
        for _ in range(2):
            with pytest.raises(UdfError):
                db.query("SELECT doomed(a) FROM t WHERE a < 4")
        # Threshold reached: the third call is rejected up front.
        with pytest.raises(CircuitOpenError) as exc_info:
            db.query("SELECT doomed(a) FROM t WHERE a < 4")
        assert exc_info.value.udf_name == "doomed"
        assert exc_info.value.retry_after_s > 0
        assert db.udfs.breaker_states()["doomed"] == "open"
        assert metrics.counter("udf_breaker_rejections_total").value == 1
        assert metrics.counter("udf_breaker_opened_total").value == 1

    def test_breaker_recovers_after_cooldown(self):
        clock_now = [0.0]
        db, _ = make_parallel_db(
            udf_breaker_threshold=2, udf_breaker_reset_s=5.0
        )
        db.udfs.configure_breakers(
            failure_threshold=2, reset_timeout_s=5.0, clock=lambda: clock_now[0]
        )
        boom = {"on": True}

        def sometimes(values: np.ndarray) -> np.ndarray:
            if boom["on"]:
                raise RuntimeError("model crashed")
            return values.astype(np.float64)

        db.register_udf(
            BatchUdf(name="flappy", fn=sometimes, return_dtype=DataType.FLOAT64)
        )
        for _ in range(2):
            with pytest.raises(UdfError):
                db.query("SELECT flappy(a) FROM t WHERE a < 4")
        with pytest.raises(CircuitOpenError):
            db.query("SELECT flappy(a) FROM t WHERE a < 4")
        # Cooldown passes, the model is healthy again: probe succeeds
        # and the breaker closes.
        clock_now[0] = 6.0
        boom["on"] = False
        rows = db.query("SELECT flappy(a) FROM t WHERE a < 4")
        assert len(rows) == 4
        assert db.udfs.breaker_states()["flappy"] == "closed"


class TestCacheInsertAbsorbed:
    def test_insert_fault_degrades_not_fails(self):
        """``cache.insert`` faults must never fail the query — the cache
        is an accelerator, so a dropped insert is just a future miss."""
        db, _ = make_parallel_db(
            udf_cache_bytes=1 << 20,
            fault_plan="cache.insert:permanent",
        )
        db.register_udf(
            BatchUdf(
                name="half",
                fn=lambda values: values / 2,
                return_dtype=DataType.FLOAT64,
                is_neural=True,
            )
        )
        rows = db.query("SELECT half(a) FROM t WHERE a < 16")
        assert sorted(r[0] for r in rows) == [i / 2 for i in range(16)]
        assert db.infer_cache.insert_failures > 0
        assert len(db.infer_cache) == 0  # nothing was admitted
