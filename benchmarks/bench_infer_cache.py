"""Inference-cache ablation: cold vs warm nUDF invocation cost.

The content-hashed cache (:mod:`repro.engine.infer_cache`) short-circuits
repeated model invocations on previously-seen rows.  This bench measures
the cold-run/warm-run asymmetry — the acceptance bar is a warm run doing
at least 5x fewer model invocations than the cold one with bit-identical
results — and morsel-parallel dispatch of UDF batches on the engine's
worker pool (``Database(workers=...)``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import BatchUdf, Database
from repro.storage.schema import DataType

#: The stand-in "model": a few vectorized passes so a batch costs more
#: than a hash lookup, deterministic so cached results can be compared
#: bit-for-bit.
_PASSES = 6


def _model(batch: np.ndarray) -> np.ndarray:
    out = np.asarray(batch, dtype=np.float64)
    for _ in range(_PASSES):
        out = np.tanh(out * 0.5 + 0.25)
    return out


def _make_db(
    counter: list,
    *,
    cache_bytes: int,
    workers: int = 1,
    num_rows: int,
    num_distinct: int,
) -> Database:
    db = Database(udf_cache_bytes=cache_bytes, workers=workers)
    rng = np.random.default_rng(11)
    values = rng.integers(0, num_distinct, num_rows).astype(np.float64)
    db.create_table_from_dict("readings", {"value": values})

    def fn(batch: np.ndarray) -> np.ndarray:
        counter.append(len(batch))  # list.append is thread-safe
        return _model(batch)

    db.register_udf(
        BatchUdf(name="score", fn=fn, return_dtype=DataType.FLOAT64)
    )
    return db


_SQL = "SELECT score(value) FROM readings"


def test_cold_vs_warm_cache(benchmark, quick_mode):
    num_rows = 2_000 if quick_mode else 20_000
    counter: list[int] = []
    db = _make_db(
        counter,
        cache_bytes=64 * 1024 * 1024,
        num_rows=num_rows,
        num_distinct=max(64, num_rows // 50),
    )
    try:
        cold_rows_result = db.query(_SQL)
        cold_model_rows = sum(counter)

        warm_rows_result = benchmark.pedantic(
            lambda: db.query(_SQL), rounds=3, iterations=1
        )
        warm_model_rows = (sum(counter) - cold_model_rows) / 3

        print(
            f"\nmodel rows: cold={cold_model_rows} "
            f"warm(avg)={warm_model_rows:.0f} "
            f"cache={db.infer_cache.stats_dict()}"
        )
        # Acceptance bar: the warm run invokes the model on at least 5x
        # fewer rows than the cold run, and results are bit-identical.
        assert cold_model_rows == num_rows
        assert warm_model_rows * 5 <= cold_model_rows
        assert warm_rows_result == cold_rows_result
    finally:
        db.close()


def test_cold_run_with_duplicates_still_exact(quick_mode):
    """Heavy duplication doesn't change results, only model work."""
    num_rows = 1_000 if quick_mode else 8_000
    cached_counter: list[int] = []
    plain_counter: list[int] = []
    cached = _make_db(
        cached_counter,
        cache_bytes=64 * 1024 * 1024,
        num_rows=num_rows,
        num_distinct=32,
    )
    plain = _make_db(
        plain_counter,
        cache_bytes=0,
        num_rows=num_rows,
        num_distinct=32,
    )
    try:
        assert cached.query(_SQL) == plain.query(_SQL)
        assert sum(plain_counter) == num_rows
        # Second cached pass hits for every row.
        cached.query(_SQL)
        assert sum(cached_counter) == num_rows
    finally:
        cached.close()
        plain.close()


def test_worker_scaling(benchmark, quick_mode):
    """1 vs N morsel workers: identical output, timings printed."""
    num_rows = 2_000 if quick_mode else 20_000
    worker_counts = (1, 4)
    results = {}

    def sweep():
        import time

        for workers in worker_counts:
            counter: list[int] = []
            db = _make_db(
                counter,
                cache_bytes=0,  # isolate dispatch cost from caching
                workers=workers,
                num_rows=num_rows,
                num_distinct=num_rows,
            )
            try:
                started = time.perf_counter()
                rows = db.query(_SQL)
                elapsed = time.perf_counter() - started
            finally:
                db.close()
            results[workers] = (rows, elapsed, sum(counter))
        return results

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    print("\nworkers -> seconds (model rows):")
    baseline_rows = results[worker_counts[0]][0]
    for workers in worker_counts:
        rows, elapsed, model_rows = results[workers]
        print(f"  {workers:>2}: {elapsed:.4f}s ({model_rows} rows)")
        assert model_rows == num_rows
        # Morsel dispatch must not change results or their order.
        assert rows == baseline_rows


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "--benchmark-only", "-s"])
