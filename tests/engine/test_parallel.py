"""Engine-wide morsel parallelism: differentials, chaos, and unit tests.

The load-bearing guarantee is *worker-count transparency*: any query
must return the same result multiset under ``workers=1`` and
``workers=4`` (down to float rounding — partial-aggregate merges
re-associate float addition).  The differential classes below pin that
over the full NULL-semantics corpus plus larger generated tables that
actually cross the morsel threshold on every parallel operator (filter,
project, partitioned join, partial aggregation).

The chaos/cancellation tests pin the *cooperative preamble* contract:
deadline checks and the ``operator.morsel`` fault site fire on the
worker thread that runs the morsel, not merely between operators.
"""

import threading
import time

import numpy as np
import pytest

from repro.engine import Database
from repro.engine.parallel import DEFAULT_MORSEL_ROWS, MorselPool
from repro.engine.qcontext import CancellationToken, QueryContext
from repro.errors import QueryCancelledError
from repro.faults.injector import InjectedFault
from repro.obs.metrics import MetricsRegistry
from repro.storage.schema import DataType
from tests.engine.differential import normalize_rows
from tests.engine.test_null_semantics import CORPUS, TABLES


def _generated_tables(rows: int = 1500, seed: int = 11) -> dict:
    """NULL-bearing tables big enough to cross every parallel threshold."""
    rng = np.random.default_rng(seed)

    def with_nulls(values, fraction=0.1):
        out = list(values)
        for index in rng.choice(len(out), int(len(out) * fraction), False):
            out[index] = None
        return out

    return {
        "big": {
            "id": list(range(rows)),
            "k": with_nulls(rng.integers(0, 40, rows).tolist()),
            "v": with_nulls(rng.normal(size=rows).round(3).tolist()),
            "g": with_nulls(
                [f"g{value}" for value in rng.integers(0, 7, rows)]
            ),
        },
        "dim": {
            "k": with_nulls(list(range(40)), 0.15),
            "w": with_nulls(rng.normal(size=40).round(3).tolist()),
        },
    }


#: Queries that drive every parallel operator over the generated tables.
BIG_QUERIES = [
    "SELECT id FROM big WHERE v > 0.2",
    "SELECT id FROM big WHERE v > 0.2 AND k < 30",
    "SELECT id, k + 1, v * 2.0 FROM big WHERE k IS NOT NULL",
    "SELECT count(*), count(v), sum(k) FROM big",
    "SELECT g, count(*), sum(k), avg(v) FROM big GROUP BY g",
    "SELECT g, min(v), max(k) FROM big GROUP BY g",
    "SELECT big.id, dim.w FROM big JOIN dim ON big.k = dim.k",
    "SELECT count(*) FROM big, dim WHERE big.k = dim.k",
    "SELECT g, count(*) FROM big JOIN dim ON big.k = dim.k GROUP BY g",
    "SELECT id FROM big WHERE v > 0.2 ORDER BY k, v DESC",
    "SELECT DISTINCT g FROM big",
]

#: Queries whose results carry no re-associated float sums: these must
#: be *exactly* identical across worker counts, including row order.
EXACT_QUERIES = [
    "SELECT id, k FROM big WHERE k > 10 ORDER BY k DESC, id",
    "SELECT g, count(*), sum(k), min(k), max(k) FROM big GROUP BY g",
    "SELECT big.id, dim.k FROM big JOIN dim ON big.k = dim.k ORDER BY big.id",
]


@pytest.fixture(scope="module")
def datasets():
    tables = dict(TABLES)
    tables.update(_generated_tables())
    return tables


@pytest.fixture(scope="module")
def serial_db(datasets):
    db = Database(workers=1)
    for name, columns in datasets.items():
        db.create_table_from_dict(name, dict(columns))
    yield db
    db.close()


@pytest.fixture(scope="module")
def parallel_db(datasets):
    # morsel_rows=7 puts even the 8-row corpus fixtures onto the pool
    # and fans the generated tables out over hundreds of morsels.
    db = Database(workers=4, morsel_rows=7)
    for name, columns in datasets.items():
        db.create_table_from_dict(name, dict(columns))
    yield db
    db.close()


class TestParallelSerialDifferential:
    @pytest.mark.parametrize("sql", CORPUS)
    def test_null_corpus_matches_serial(self, serial_db, parallel_db, sql):
        assert normalize_rows(parallel_db.query(sql)) == normalize_rows(
            serial_db.query(sql)
        ), f"worker-count divergence for {sql!r}"

    @pytest.mark.parametrize("sql", BIG_QUERIES)
    def test_generated_tables_match_serial(self, serial_db, parallel_db, sql):
        assert normalize_rows(parallel_db.query(sql)) == normalize_rows(
            serial_db.query(sql)
        ), f"worker-count divergence for {sql!r}"

    @pytest.mark.parametrize("sql", EXACT_QUERIES)
    def test_float_free_queries_identical(self, serial_db, parallel_db, sql):
        assert parallel_db.query(sql) == serial_db.query(sql)


#: Every decomposable aggregate, over integer, float and boolean
#: arguments of the NULL corpus's ``r`` table.
DECOMPOSABLE_CALLS = [
    "count(*)",
    "count(a)",
    "count(f)",
    "count(a > 20)",
    "countIf(f > 2.0)",
    "sum(a)",
    "sum(f)",
    "sumIf(a, f > 2.0)",
    "sumIf(f, a > 20)",
    "avg(a)",
    "avg(f)",
    "min(a)",
    "min(f)",
    "max(a)",
    "max(f)",
    "varPop(f)",
    "varSamp(a)",
    "stddevPop(a)",
    "stddevSamp(f)",
]


@pytest.fixture(scope="module")
def three_row_morsels():
    """Every 8-row corpus table splits into three aggregate morsels."""
    metrics = MetricsRegistry()
    db = Database(workers=4, morsel_rows=3, metrics=metrics)
    for name, columns in TABLES.items():
        db.create_table_from_dict(name, dict(columns))
    yield db, metrics
    db.close()


class TestDecomposableAggregates:
    """Merged morsel partials against the single partial of workers=1:
    integer and count results are equal, float results equal to 1e-9
    relative, and NULL exactly where the single partial has NULL."""

    @pytest.mark.parametrize("group_by", ["", " GROUP BY g"])
    @pytest.mark.parametrize("call", DECOMPOSABLE_CALLS)
    def test_morsel_partials_match_one_partial(
        self, serial_db, three_row_morsels, call, group_by
    ):
        db, metrics = three_row_morsels
        sql = f"SELECT {call} FROM r{group_by}"
        morsels_before = metrics.labeled_counter(
            "parallel_morsels_total", label="worker"
        ).total()
        parallel = db.execute(sql)
        assert (
            metrics.labeled_counter("parallel_morsels_total", label="worker")
            .total() > morsels_before
        ), "the aggregate never reached the pool"
        serial = serial_db.execute(sql)
        dtype = serial.frame.columns[0].dtype
        assert parallel.frame.columns[0].dtype is dtype
        got = [row[0] for row in parallel.rows()]
        expected = [row[0] for row in serial.rows()]
        if dtype is DataType.FLOAT64:
            assert got == [
                None if value is None else pytest.approx(value, rel=1e-9)
                for value in expected
            ]
        else:
            assert got == expected


class TestMorselPool:
    def test_partition_covers_rows_with_tail(self):
        pool = MorselPool(workers=1, morsel_rows=3)
        assert pool.partition(10) == [(0, 3), (3, 6), (6, 9), (9, 10)]
        assert pool.partition(3) == [(0, 3)]
        assert pool.partition(0) == []

    def test_disabled_pool_runs_inline(self):
        pool = MorselPool(workers=1, morsel_rows=4)
        assert not pool.enabled
        assert not pool.should_parallelize(10**9)
        names = set()
        results = pool.run_rows(
            10, lambda start, stop: names.add(threading.current_thread().name)
        )
        assert len(results) == 3
        assert names == {threading.current_thread().name}

    def test_run_preserves_thunk_order(self):
        pool = MorselPool(workers=4, morsel_rows=1)
        try:
            delays = [0.02, 0.0, 0.01, 0.0, 0.015]

            def make(index):
                def thunk():
                    time.sleep(delays[index])
                    return index

                return thunk

            assert pool.run([make(i) for i in range(5)]) == [0, 1, 2, 3, 4]
        finally:
            pool.shutdown()

    def test_run_fails_fast_with_original_error(self):
        pool = MorselPool(workers=2, morsel_rows=1)
        try:

            def boom():
                raise ValueError("poisoned morsel")

            thunks = [lambda: 1] * 4 + [boom] + [lambda: 2] * 60
            with pytest.raises(ValueError, match="poisoned morsel"):
                pool.run(thunks)
        finally:
            pool.shutdown()

    def test_run_rows_cancellation_lands_on_workers(self):
        pool = MorselPool(workers=2, morsel_rows=1)
        try:
            token = CancellationToken()
            query = QueryContext(cancel_token=token)
            workers = set()

            def fn(start, stop):
                workers.add(threading.current_thread().name)
                token.cancel("poison pill from a running morsel")
                time.sleep(0.005)
                return stop - start

            with pytest.raises(QueryCancelledError, match="poison pill"):
                pool.run_rows(64, fn, query=query)
            assert query.checks >= 1
            assert any(name.startswith("repro-morsel") for name in workers)
        finally:
            pool.shutdown()


class TestDatabaseWiring:
    def test_default_is_serial(self, monkeypatch):
        # The parallel CI job exports REPRO_WORKERS=4 for the whole
        # suite; clear it so this test observes the true default.
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        db = Database()
        assert db.workers == 1
        assert not db.parallel.enabled
        db.close()

    def test_repro_workers_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        db = Database()
        assert db.workers == 3 and db.parallel.enabled
        db.close()
        assert not db.parallel.enabled  # released

    def test_explicit_workers_beat_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        db = Database(workers=1)
        assert db.workers == 1 and not db.parallel.enabled
        db.close()

    def test_engine_pool_shared_with_udf_morsels(self, monkeypatch):
        from repro.engine import udf as udf_module
        from repro.engine.udf import BatchUdf
        from repro.storage.schema import DataType

        monkeypatch.setattr(udf_module, "UDF_MORSEL_ROWS", 3)
        db = Database(workers=2, morsel_rows=4)
        seen = set()

        def record(values):
            seen.add(threading.current_thread().name)
            return values * 2.0

        db.register_udf(
            BatchUdf(name="dbl", fn=record, return_dtype=DataType.FLOAT64)
        )
        db.create_table_from_dict("t", {"x": [float(i) for i in range(10)]})
        rows = db.query("SELECT dbl(x) FROM t")
        assert [r[0] for r in rows] == [2.0 * i for i in range(10)]
        assert any(name.startswith("repro-morsel") for name in seen)
        db.close()

    def test_close_is_idempotent(self):
        db = Database(workers=2)
        db.close()
        db.close()


class TestWorkerMetrics:
    def test_labeled_morsel_counters(self):
        metrics = MetricsRegistry()
        db = Database(workers=2, morsel_rows=8, metrics=metrics)
        db.create_table_from_dict("t", {"x": list(range(100))})
        db.execute("SELECT x + 1 FROM t WHERE x > 3")
        snapshot = metrics.to_dict()
        per_worker = snapshot["parallel_morsels_total"]["values"]
        assert per_worker and all(
            worker.startswith("repro-morsel") for worker in per_worker
        )
        # filter: ceil(100/8)=13 morsels; project: ceil(96/8)=12.
        assert sum(per_worker.values()) == 25
        rows = snapshot["parallel_morsel_rows_total"]["values"]
        assert sum(rows.values()) >= 100
        text = metrics.to_prometheus()
        assert 'parallel_morsels_total{worker="repro-morsel' in text
        db.close()


@pytest.mark.chaos
class TestMorselChaos:
    def test_fault_fires_on_worker_thread(self):
        db = Database(
            workers=2,
            morsel_rows=4,
            fault_plan="operator.morsel:transient#1",
        )
        db.create_table_from_dict("t", {"x": list(range(64))})
        with pytest.raises(InjectedFault) as excinfo:
            db.execute("SELECT x FROM t WHERE x + 1 > 3")
        message = str(excinfo.value)
        assert "operator.morsel" in message
        assert "op=Filter" in message
        assert "worker=repro-morsel" in message  # fired on a pool thread
        db.close()

    def test_join_partitions_hit_the_fault_site(self):
        db = Database(
            workers=2,
            morsel_rows=8,
            fault_plan="operator.morsel:transient#1",
        )
        db.create_table_from_dict("a", {"k": list(range(64))})
        db.create_table_from_dict("b", {"k": list(range(0, 64, 2))})
        with pytest.raises(InjectedFault) as excinfo:
            db.execute("SELECT count(*) FROM a JOIN b ON a.k = b.k")
        assert "op=HashJoin" in str(excinfo.value)
        db.close()

    def test_serial_engine_never_reaches_the_site(self):
        db = Database(workers=1, fault_plan="operator.morsel:permanent")
        db.create_table_from_dict("t", {"x": list(range(64))})
        assert db.execute("SELECT count(*) FROM t WHERE x > 3").scalar() == 60
        db.close()


class TestUdfMorselTailAccounting:
    """Regression: batch sizes not divisible by morsel_rows must neither
    drop nor double-count the tail morsel, and NULL arguments must stay
    NULL through morsel dispatch (masks never reach the slicing layer —
    NULL rows are compressed out before dispatch)."""

    def _dbl_db(self, monkeypatch, morsel_rows=3, **kwargs):
        from repro.engine import udf as udf_module
        from repro.engine.udf import BatchUdf
        from repro.storage.schema import DataType

        monkeypatch.setattr(udf_module, "UDF_MORSEL_ROWS", morsel_rows)
        db = Database(**kwargs)
        db.register_udf(
            BatchUdf(
                name="dbl",
                fn=lambda values: values * 2.0,
                return_dtype=DataType.FLOAT64,
            )
        )
        return db

    @pytest.mark.parametrize("rows", [7, 10, 11])
    def test_non_divisible_batch(self, rows, monkeypatch):
        db = self._dbl_db(monkeypatch, workers=2)
        db.create_table_from_dict(
            "t", {"x": [float(i) for i in range(rows)]}
        )
        out = [r[0] for r in db.query("SELECT dbl(x) FROM t")]
        assert out == [2.0 * i for i in range(rows)]
        stats = db.udfs.get("dbl").stats
        assert stats.rows == rows  # tail morsel counted exactly once
        assert stats.calls == 1  # one logical batch, not one per morsel
        db.close()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_null_arguments_stay_null(self, workers, monkeypatch):
        db = self._dbl_db(monkeypatch, morsel_rows=2, workers=workers)
        db.create_table_from_dict("t", {"x": [1.0, None, 3.0, None, 5.0]})
        out = [r[0] for r in db.query("SELECT dbl(x) FROM t")]
        assert out == [2.0, None, 6.0, None, 10.0]
        # Only present rows reach the UDF: 3 of 5.
        assert db.udfs.get("dbl").stats.rows == 3
        db.close()

    def test_null_and_zero_not_conflated_by_cache(self, monkeypatch):
        db = self._dbl_db(monkeypatch, udf_cache_bytes=1 << 20)
        db.create_table_from_dict("t", {"x": [0.0, None, 0.0, None]})
        for _ in range(2):  # second pass reads the cache
            out = [r[0] for r in db.query("SELECT dbl(x) FROM t")]
            assert out == [0.0, None, 0.0, None]
        db.close()


class TestParallelMemoryAdmission:
    def test_partition_state_is_admitted(self):
        from repro.errors import QueryMemoryExceeded

        db = Database(workers=2, morsel_rows=8, query_memory_bytes=512)
        db.create_table_from_dict("a", {"k": list(range(256))})
        db.create_table_from_dict("b", {"k": list(range(256))})
        with pytest.raises(QueryMemoryExceeded):
            db.execute("SELECT count(*) FROM a JOIN b ON a.k = b.k")
        db.close()
