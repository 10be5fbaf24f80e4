"""The content-hashed inference cache and parallel UDF dispatch."""

import threading

import numpy as np
import pytest

from repro.engine import BatchUdf, Database, InferenceCache, UdfRegistry
from repro.engine import udf as udf_module
from repro.engine.infer_cache import (
    ENTRY_OVERHEAD_BYTES,
    MISSING,
    CacheSnapshot,
    hash_row,
    make_cache,
)
from repro.engine.parallel import MorselPool
from repro.storage.schema import DataType


class TestRowHashing:
    def test_deterministic(self):
        assert hash_row([1, "x", 2.5]) == hash_row([1, "x", 2.5])
        assert len(hash_row([1])) == 16

    def test_type_tags_prevent_cross_type_collisions(self):
        # 1 == 1.0 == True in Python, but a UDF may distinguish them.
        digests = {
            hash_row([1]),
            hash_row([1.0]),
            hash_row([True]),
            hash_row(["1"]),
            hash_row([b"1"]),
            hash_row([None]),
        }
        assert len(digests) == 6

    def test_ndarray_content_sensitivity(self):
        a = np.arange(6, dtype=np.float64).reshape(2, 3)
        same = np.arange(6, dtype=np.float64).reshape(2, 3)
        different = a + 1e-12
        assert hash_row([a]) == hash_row([same])
        assert hash_row([a]) != hash_row([different])
        # Same bytes, different shape or dtype must not collide.
        assert hash_row([a]) != hash_row([a.reshape(3, 2)])
        assert hash_row([a]) != hash_row([a.astype(np.float32)])


class TestInferenceCache:
    def test_partial_hit_lookup(self):
        cache = InferenceCache(1 << 20)
        k1, k2, k3 = hash_row([1]), hash_row([2]), hash_row([3])
        cache.put("f", k1, 10.0)
        values, missed = cache.get_many("f", [k1, k2, k3])
        assert values[0] == 10.0
        assert values[1] is MISSING and values[2] is MISSING
        assert missed == [1, 2]
        assert cache.hits == 1 and cache.misses == 2

    def test_namespaces_are_isolated(self):
        cache = InferenceCache(1 << 20)
        key = hash_row([1])
        cache.put("f", key, "from_f")
        values, missed = cache.get_many("g", [key])
        assert missed == [0]
        cache.invalidate("g")
        assert cache.get_many("f", [key])[0] == ["from_f"]

    def test_lru_eviction_respects_budget(self):
        per_entry = ENTRY_OVERHEAD_BYTES + 8  # float payload
        cache = InferenceCache(3 * per_entry)
        keys = [hash_row([i]) for i in range(4)]
        for i in range(3):
            cache.put("f", keys[i], float(i))
        # Touch key 0 so key 1 becomes the LRU victim.
        cache.get_many("f", [keys[0]])
        cache.put("f", keys[3], 3.0)
        assert cache.evictions == 1
        assert cache.bytes_used == 3 * per_entry
        values, missed = cache.get_many("f", keys)
        assert missed == [1]
        assert values[0] == 0.0 and values[2] == 2.0 and values[3] == 3.0

    def test_oversized_value_is_not_cached(self):
        cache = InferenceCache(256)
        cache.put("f", hash_row([1]), np.zeros(1024))
        assert len(cache) == 0 and cache.bytes_used == 0

    def test_invalidate_refunds_bytes(self):
        cache = InferenceCache(1 << 20)
        cache.put("f", hash_row([1]), 1.0)
        cache.put("g", hash_row([1]), 2.0)
        dropped = cache.invalidate("f")
        assert dropped == 1 and len(cache) == 1
        assert cache.bytes_used == ENTRY_OVERHEAD_BYTES + 8

    def test_expected_miss_rate(self):
        cache = InferenceCache(1 << 20)
        assert cache.expected_miss_rate("f") == 1.0
        k1, k2 = hash_row([1]), hash_row([2])
        cache.get_many("f", [k1, k2])  # 2 misses
        cache.put("f", k1, 1.0)
        cache.put("f", k2, 2.0)
        cache.get_many("f", [k1, k2])  # 2 hits
        assert cache.expected_miss_rate("f") == pytest.approx(0.5)
        for _ in range(200):
            cache.get_many("f", [k1, k2])
        assert cache.expected_miss_rate("f", floor=0.01) == 0.01

    def test_snapshot_delta(self):
        cache = InferenceCache(1 << 20)
        before = cache.snapshot()
        cache.get_many("f", [hash_row([1])])
        cache.put("f", hash_row([1]), 1.0)
        cache.get_many("f", [hash_row([1])])
        delta = before.delta(cache.snapshot())
        assert delta["hits"] == 1 and delta["misses"] == 1
        assert delta["bytes"] == cache.bytes_used

    def test_make_cache_disabled_by_zero(self):
        assert make_cache(0) is None
        assert make_cache(None) is None
        assert isinstance(make_cache(1024), InferenceCache)
        with pytest.raises(ValueError):
            InferenceCache(0)

    def test_thread_safety_smoke(self):
        cache = InferenceCache(64 * 1024)
        keys = [hash_row([i]) for i in range(200)]

        def worker(seed):
            rng = np.random.default_rng(seed)
            for _ in range(300):
                i = int(rng.integers(0, len(keys)))
                cache.get_many("f", [keys[i]])
                cache.put("f", keys[i], float(i))

        threads = [
            threading.Thread(target=worker, args=(s,)) for s in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert cache.bytes_used <= cache.max_bytes
        assert cache.hits + cache.misses == 8 * 300


def _counting_udf(counter, name="score", dtype=DataType.FLOAT64, fn=None):
    def wrapped(values):
        counter.append(len(values))
        if fn is not None:
            return fn(values)
        return np.asarray(values, dtype=np.float64) * 2.0

    return BatchUdf(name=name, fn=wrapped, return_dtype=dtype)


class TestCachedInvoke:
    def test_partial_hit_runs_model_on_missed_rows_only(self):
        registry = UdfRegistry()
        registry.attach_cache(InferenceCache(1 << 20))
        counter: list[int] = []
        registry.register(_counting_udf(counter))
        first = registry.invoke(
            "score", [np.array([1.0, 2.0, 3.0])]
        ).materialize(3)
        # Overlapping batch: rows 2.0 and 3.0 are warm, 4.0 is not.
        second = registry.invoke(
            "score", [np.array([2.0, 3.0, 4.0])]
        ).materialize(3)
        assert counter == [3, 1]
        assert first.tolist() == [2.0, 4.0, 6.0]
        assert second.tolist() == [4.0, 6.0, 8.0]
        stats = registry.get("score").stats
        assert stats.cache_hits == 2 and stats.cache_misses == 4
        assert stats.rows == 4  # model-evaluated rows only

    def test_cached_results_bit_identical_for_strings(self):
        registry = UdfRegistry()
        registry.attach_cache(InferenceCache(1 << 20))
        counter: list[int] = []
        registry.register(
            _counting_udf(
                counter,
                name="label",
                dtype=DataType.STRING,
                fn=lambda v: np.array(
                    [f"c{x:.1f}" for x in v], dtype=object
                ),
            )
        )
        args = [np.array([1.0, 2.0, 1.0])]
        cold = registry.invoke("label", args).materialize(3)
        warm = registry.invoke("label", args).materialize(3)
        assert cold.tolist() == warm.tolist() == ["c1.0", "c2.0", "c1.0"]
        assert sum(counter) == 3  # duplicate row still cold-batch-evaluated

    def test_replace_and_unregister_invalidate_namespace(self):
        registry = UdfRegistry()
        registry.attach_cache(InferenceCache(1 << 20))
        counter: list[int] = []
        registry.register(_counting_udf(counter))
        args = [np.array([1.0, 2.0])]
        registry.invoke("score", args)
        assert sum(counter) == 2

        # A new model under the same name must not see stale entries.
        registry.register(
            BatchUdf(
                name="score",
                fn=lambda v: np.asarray(v, dtype=np.float64) * 3.0,
                return_dtype=DataType.FLOAT64,
            ),
            replace=True,
        )
        swapped = registry.invoke("score", args).materialize(2)
        assert swapped.tolist() == [3.0, 6.0]

        registry.unregister("score")
        assert len(registry.cache) == 0

    def test_uncacheable_udf_bypasses_cache(self):
        registry = UdfRegistry()
        registry.attach_cache(InferenceCache(1 << 20))
        counter: list[int] = []
        udf = _counting_udf(counter)
        udf.cacheable = False
        registry.register(udf)
        args = [np.array([1.0, 2.0])]
        registry.invoke("score", args)
        registry.invoke("score", args)
        assert counter == [2, 2]
        assert len(registry.cache) == 0


class TestMorselDispatch:
    """UDF batches split into morsels on the engine's one pool."""

    def test_morsels_match_inline_results(self, monkeypatch):
        monkeypatch.setattr(udf_module, "UDF_MORSEL_ROWS", 64)
        values = np.linspace(0.0, 1.0, 1000)
        inline = UdfRegistry()
        inline.register(_counting_udf([]))
        expected = inline.invoke("score", [values]).materialize(1000)

        pool = MorselPool(4)
        try:
            parallel = UdfRegistry()
            parallel.attach_pool(pool)
            counter: list[int] = []
            parallel.register(_counting_udf(counter))
            got = parallel.invoke("score", [values]).materialize(1000)
        finally:
            pool.shutdown()
        assert got.tolist() == expected.tolist()
        assert len(counter) == 16 and sum(counter) == 1000
        assert parallel.get("score").stats.rows == 1000

    def test_parallel_unsafe_udf_runs_inline(self, monkeypatch):
        monkeypatch.setattr(udf_module, "UDF_MORSEL_ROWS", 8)
        seen_threads: list[int] = []

        def fn(values):
            seen_threads.append(threading.get_ident())
            return np.asarray(values, dtype=np.float64)

        pool = MorselPool(4)
        try:
            registry = UdfRegistry()
            registry.attach_pool(pool)
            registry.register(
                BatchUdf(
                    name="stateful",
                    fn=fn,
                    return_dtype=DataType.FLOAT64,
                    parallel_safe=False,
                )
            )
            registry.invoke("stateful", [np.zeros(100)])
        finally:
            pool.shutdown()
        assert seen_threads == [threading.get_ident()]

    def test_bad_morsel_rows_rejected(self):
        with pytest.raises(ValueError):
            MorselPool(2, morsel_rows=0)


class TestDatabaseIntegration:
    def _db(self, **kwargs):
        db = Database(udf_cache_bytes=1 << 20, **kwargs)
        db.create_table_from_dict(
            "t", {"v": [1.0, 2.0, 3.0, 1.0, 2.0, 5.0]}
        )
        return db

    def test_warm_query_skips_inference(self):
        counter: list[int] = []
        db = self._db()
        db.register_udf(_counting_udf(counter))
        cold = db.query("SELECT score(v) FROM t")
        warm = db.query("SELECT score(v) FROM t")
        assert warm == cold
        assert sum(counter) == 6  # second run fully served from cache

    def test_explain_analyze_reports_cache_delta(self):
        counter: list[int] = []
        db = self._db()
        db.register_udf(_counting_udf(counter))
        db.query("SELECT score(v) FROM t")  # warm the cache
        output = db.explain_analyze("SELECT score(v) FROM t")
        assert output.udf_cache == {
            "hits": 6,
            "misses": 0,
            "evictions": 0,
            "bytes": db.infer_cache.bytes_used,
        }
        assert "UDF cache: hits=6 misses=0" in output.text
        assert output.to_dict()["udf_cache"]["hits"] == 6

    def test_workers_with_cache_same_rows(self, monkeypatch):
        counter: list[int] = []
        monkeypatch.setattr(udf_module, "UDF_MORSEL_ROWS", 2)
        db = self._db(workers=2)
        try:
            db.register_udf(_counting_udf(counter))
            rows = db.query("SELECT score(v) FROM t ORDER BY v")
            again = db.query("SELECT score(v) FROM t ORDER BY v")
            assert rows == again
            assert sum(counter) == 6
        finally:
            db.close()

    def test_close_is_idempotent(self):
        db = self._db(workers=3)
        db.close()
        db.close()


class TestCostModelCacheAwareness:
    def _registry_with_cache(self):
        registry = UdfRegistry()
        cache = InferenceCache(1 << 20)
        registry.attach_cache(cache)
        registry.register(
            BatchUdf(
                name="nUDF_detect",
                fn=lambda v: np.zeros(len(v), dtype=bool),
                return_dtype=DataType.BOOL,
                cost_per_row=0.01,
                is_neural=True,
            )
        )
        return registry, cache

    def test_udf_call_cost_scales_with_miss_rate(self):
        from repro.core.hints import HintAwareCostModel
        from repro.sql.parser import parse_statement

        registry, cache = self._registry_with_cache()
        model = HintAwareCostModel(registry, seconds_per_cost_unit=1e-3)
        statement = parse_statement(
            "SELECT * FROM t WHERE nUDF_detect(a) = TRUE"
        )
        call = statement.where.left

        cold_cost = model.udf_call_cost(call)
        assert cold_cost == pytest.approx(10.0)  # no history: miss rate 1

        # Warm history: 1 miss then 3 hits -> 25% expected misses.
        key = hash_row([1])
        cache.get_many("nudf_detect", [key])
        cache.put("nudf_detect", key, True)
        for _ in range(3):
            cache.get_many("nudf_detect", [key])
        assert model.udf_call_cost(call) == pytest.approx(2.5)

    def test_uncacheable_udf_not_scaled(self):
        from repro.core.hints import HintAwareCostModel
        from repro.sql.parser import parse_statement

        registry, cache = self._registry_with_cache()
        registry.get("nUDF_detect").cacheable = False
        key = hash_row([1])
        cache.get_many("nudf_detect", [key])
        cache.put("nudf_detect", key, True)
        for _ in range(9):
            cache.get_many("nudf_detect", [key])
        model = HintAwareCostModel(registry, seconds_per_cost_unit=1e-3)
        call = parse_statement(
            "SELECT * FROM t WHERE nUDF_detect(a) = TRUE"
        ).where.left
        assert model.udf_call_cost(call) == pytest.approx(10.0)


class TestSnapshotDataclass:
    def test_default_snapshot_is_zero(self):
        snap = CacheSnapshot()
        assert snap.delta(CacheSnapshot(hits=2, misses=1, bytes=7)) == {
            "hits": 2,
            "misses": 1,
            "evictions": 0,
            "bytes": 7,
        }
