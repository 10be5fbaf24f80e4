"""DL2SQL / DL2SQL-OP strategy specifics."""

import pytest

from repro.core.hints import HintAwareCostModel
from repro.strategies import LooseStrategy, QueryType, TightStrategy
from repro.workload.benchmark import QueryBenchmark
from repro.workload.queries import QueryGenerator


@pytest.fixture()
def setup(tiny_dataset, tiny_repository):
    bench = QueryBenchmark(tiny_dataset, tiny_repository)
    db = bench.fresh_database()
    generator = QueryGenerator(tiny_dataset)
    return bench, db, generator


class TestBinding:
    def test_bind_loads_model_tables(self, setup, detect_task):
        _, db, _ = setup
        strategy = TightStrategy()
        strategy.bind_task(db, detect_task)
        for table in detect_task.compiled.static_tables:
            assert db.catalog.has(table.name)
        assert "nUDF_detect" in db.udfs

    def test_calibrated_cost_per_row(self, setup, detect_task):
        """Binding measures one SQL inference and records it as the UDF's
        per-row cost — the knowledge DL2SQL has that DB-UDF lacks."""
        _, db, _ = setup
        strategy = TightStrategy()
        strategy.bind_task(db, detect_task)
        assert db.udfs.get("nUDF_detect").cost_per_row > 0

    def test_op_config_installed(self, setup, detect_task):
        _, db, _ = setup
        strategy = TightStrategy(optimized=True)
        strategy.bind_task(db, detect_task)
        assert db.optimizer_config.use_hints
        assert isinstance(db.optimizer_config.cost_model, HintAwareCostModel)
        assert (
            db.optimizer_config.cost_model.selectivity_for("nUDF_detect")
            is not None
        )

    def test_plain_config_has_no_hints(self, setup, detect_task):
        _, db, _ = setup
        strategy = TightStrategy(optimized=False)
        strategy.bind_task(db, detect_task)
        assert not db.optimizer_config.use_hints

    def test_unbind_drops_model_tables(self, setup, detect_task):
        _, db, _ = setup
        strategy = TightStrategy()
        strategy.bind_task(db, detect_task)
        strategy.unbind_task(db, detect_task)
        assert "nUDF_detect" not in db.udfs
        leftovers = [
            n
            for n in db.catalog.table_names()
            if n.startswith(detect_task.compiled.table_prefix)
        ]
        assert leftovers == []

    @pytest.mark.parametrize("optimized", [False, True])
    def test_last_unbind_restores_config_and_rebind_reuses_it(
        self, setup, detect_task, classify_task, optimized
    ):
        """The plan cache keys on the config's identity: a fresh object
        per bind would turn every cached statement into a miss."""
        _, db, _ = setup
        before = db.optimizer_config
        strategy = TightStrategy(optimized=optimized)
        strategy.bind_task(db, detect_task)
        installed = db.optimizer_config
        assert installed is not before
        strategy.bind_task(db, classify_task)
        assert db.optimizer_config is installed
        strategy.unbind_task(db, detect_task)
        assert db.optimizer_config is installed  # classify still bound
        strategy.unbind_task(db, classify_task)
        assert db.optimizer_config is before
        strategy.bind_task(db, detect_task)
        assert db.optimizer_config is installed

    def test_db_udf_after_op_unbind_infers_as_on_fresh_database(
        self, setup, detect_task
    ):
        """Ledger observation 6: a leftover hint-aware cost model placed
        DB-UDF's nUDF differently, so fewer keyframes reached the model."""
        bench, used, generator = setup
        query = generator.make_query(QueryType.LEARNING_DEPENDS_ON_DB, 0.3)

        def loose_inferred(db):
            strategy = LooseStrategy()
            strategy.bind_task(db, detect_task)
            try:
                result = strategy.run(db, query, {"detect": detect_task})
            finally:
                strategy.unbind_task(db, detect_task)
            return result.details["inferred_rows"]

        tight = TightStrategy(optimized=True)
        tight.bind_task(used, detect_task)
        tight.unbind_task(used, detect_task)
        assert loose_inferred(used) == loose_inferred(bench.fresh_database())

    def test_names(self):
        assert TightStrategy().name == "DL2SQL"
        assert TightStrategy(optimized=True).name == "DL2SQL-OP"


class TestHintEffect:
    def test_op_infers_fewer_rows(self, setup, detect_task, tiny_dataset):
        bench, _, generator = setup
        query = generator.make_query(QueryType.LEARNING_DEPENDS_ON_DB, 0.4)

        def inferred(strategy):
            db = bench.fresh_database()
            strategy.bind_task(db, detect_task)
            result = strategy.run(db, query, {"detect": detect_task})
            return result.details["inferred_rows"], result.rows

        plain_rows, plain_result = inferred(TightStrategy())
        op_rows, op_result = inferred(TightStrategy(optimized=True))
        assert op_rows < plain_rows
        assert sorted(op_result) == sorted(plain_result)

    def test_no_cross_system_io(self, setup, detect_task):
        """Tight integration's defining property: everything runs in one
        database — the result's details carry no transfer bytes."""
        _, db, generator = setup
        strategy = TightStrategy()
        strategy.bind_task(db, detect_task)
        query = generator.make_query(QueryType.LEARNING_DEPENDS_ON_DB, 0.5)
        result = strategy.run(db, query, {"detect": detect_task})
        assert "transfer_bytes" not in result.details

    def test_inference_counts_in_breakdown(self, setup, detect_task):
        _, db, generator = setup
        strategy = TightStrategy()
        strategy.bind_task(db, detect_task)
        query = generator.make_query(QueryType.LEARNING_DEPENDS_ON_DB, 0.8)
        result = strategy.run(db, query, {"detect": detect_task})
        if result.details["inferred_rows"] > 0:
            assert result.breakdown.inference > 0


class TestGpuMode:
    def test_gpu_offload_cuts_inference_adds_transfer(
        self, setup, detect_task
    ):
        from repro.hardware import SERVER_GPU
        from repro.workload.benchmark import QueryBenchmark

        bench, _, generator = setup
        query = generator.make_query(QueryType.LEARNING_DEPENDS_ON_DB, 0.8)

        def run(use_gpu):
            db = bench.fresh_database()
            strategy = TightStrategy(profile=SERVER_GPU, use_gpu=use_gpu)
            strategy.bind_task(db, detect_task)
            return strategy.run(db, query, {"detect": detect_task})

        cpu = run(False)
        gpu = run(True)
        if gpu.details["inferred_rows"] > 0:
            assert gpu.breakdown.inference < cpu.breakdown.inference
        assert gpu.breakdown.loading >= cpu.breakdown.loading
