"""Dl2SqlModel lifecycle: load/unload/infer/cleanup."""

import numpy as np
import pytest

from repro.core import Dl2SqlModel, compile_model
from repro.engine import Database
from repro.errors import ExecutionError
from repro.obs.metrics import MetricsRegistry
from repro.tensor import build_student_cnn


@pytest.fixture(scope="module")
def compiled():
    model = build_student_cnn(
        input_shape=(1, 8, 8), num_classes=3, channels=(3, 3, 3),
        class_labels=["a", "b", "c"], seed=4,
    )
    return compile_model(model)


class TestLifecycle:
    def test_load_registers_tables_and_indexes(self, compiled):
        db = Database()
        runner = Dl2SqlModel(compiled)
        seconds = runner.load(db)
        assert seconds > 0
        assert runner.is_loaded(db)
        first_index = compiled.index_columns[0]
        assert db.catalog.get_index(*first_index) is not None

    def test_infer_requires_load(self, compiled):
        runner = Dl2SqlModel(compiled)
        with pytest.raises(ExecutionError, match="not loaded"):
            runner.infer(Database(), np.zeros((1, 8, 8)))

    def test_infer_shape_checked(self, compiled):
        db = Database()
        runner = Dl2SqlModel(compiled)
        runner.load(db)
        with pytest.raises(ExecutionError, match="expects input"):
            runner.infer(db, np.zeros((1, 9, 9)))

    def test_unload_removes_all_model_tables(self, compiled):
        db = Database()
        runner = Dl2SqlModel(compiled)
        runner.load(db)
        runner.infer(db, np.zeros((1, 8, 8)))
        dropped = runner.unload(db)
        assert dropped > 0
        leftovers = [
            n
            for n in db.catalog.table_names()
            if n.startswith(compiled.table_prefix)
        ]
        assert leftovers == []

    def test_repeated_inference_cleans_intermediates(self, compiled):
        db = Database()
        runner = Dl2SqlModel(compiled)
        runner.load(db)
        runner.infer(db, np.zeros((1, 8, 8)))
        count_after_first = len(db.catalog.table_names())
        runner.infer(db, np.ones((1, 8, 8)))
        assert len(db.catalog.table_names()) == count_after_first

    def test_reload_replaces(self, compiled):
        db = Database()
        runner = Dl2SqlModel(compiled)
        runner.load(db)
        runner.load(db)  # idempotent
        assert runner.is_loaded(db)


class TestResults:
    def test_result_fields(self, compiled):
        db = Database()
        runner = Dl2SqlModel(compiled)
        runner.load(db)
        result = runner.infer(db, np.zeros((1, 8, 8)))
        assert result.probabilities.shape == (3,)
        assert result.probabilities.sum() == pytest.approx(1.0)
        assert result.label in ("a", "b", "c")
        assert result.exec_seconds > 0
        assert result.load_seconds > 0
        assert result.block_seconds
        assert len(result.step_seconds) == len(compiled.steps)

    def test_block_seconds_cover_all_blocks(self, compiled):
        db = Database()
        runner = Dl2SqlModel(compiled)
        runner.load(db)
        result = runner.infer(db, np.zeros((1, 8, 8)))
        assert set(result.block_seconds) == set(compiled.blocks())

    def test_infer_batch(self, compiled):
        db = Database()
        runner = Dl2SqlModel(compiled)
        runner.load(db)
        rng = np.random.default_rng(0)
        frames = [rng.normal(size=(1, 8, 8)) for _ in range(3)]
        result = runner.infer_batch(db, frames)
        assert result.batch_size == 3
        assert result.probabilities.shape == (3, 3)
        assert result.labels == [runner.infer(db, f).label for f in frames]
        assert set(result.block_seconds) == set(compiled.blocks())

    def test_two_models_coexist(self, compiled):
        db = Database()
        other_model = build_student_cnn(
            input_shape=(1, 8, 8), num_classes=2, channels=(2, 2, 2), seed=9
        )
        other_model.name = "second_model"
        other = compile_model(other_model)
        first = Dl2SqlModel(compiled)
        second = Dl2SqlModel(other)
        first.load(db)
        second.load(db)
        x = np.random.default_rng(1).normal(size=(1, 8, 8))
        first_result = first.infer(db, x)
        second_result = second.infer(db, x)
        assert first_result.probabilities.shape == (3,)
        assert second_result.probabilities.shape == (2,)
        # And the first model still works after the second ran.
        assert first.infer(db, x).probabilities.shape == (3,)


class TestPlannedOncePerModel:
    def test_later_keyframes_are_plan_cache_hits(self):
        """A step is planned on the first inference; every later keyframe
        reuses the plan (folding on), whatever its value range, and the
        program still computes what ``repro.tensor`` does."""
        model = build_student_cnn(
            input_shape=(1, 8, 8), num_classes=3, channels=(3, 3, 3), seed=4
        )
        compiled = compile_model(model)
        metrics = MetricsRegistry()
        folded = Database(metrics=metrics)
        unfolded = Database(fold_constants=False)
        runners = [(db, Dl2SqlModel(compiled)) for db in (folded, unfolded)]
        for db, runner in runners:
            runner.load(db)

        rng = np.random.default_rng(11)
        # Growing magnitudes: each keyframe's values leave the previous
        # keyframe's range, which used to discard the cached plans.
        keyframes = [
            rng.normal(size=(1, 8, 8)) * (index + 1) for index in range(11)
        ]
        misses_after_first = None
        for keyframe in keyframes:
            outputs = []
            for db, runner in runners:
                result = runner.infer(db, keyframe)
                assert result.class_index == model.predict_class(keyframe)
                table = db.table(compiled.output_table)
                outputs.append(
                    (table.column("TupleID").data, table.column("Value").data)
                )
            (ids, values), (expected_ids, expected_values) = outputs
            np.testing.assert_array_equal(ids, expected_ids)
            np.testing.assert_allclose(values, expected_values, rtol=0, atol=1e-12)
            misses = metrics.get("plan_cache_misses_total").value
            if misses_after_first is None:
                misses_after_first = misses
            assert misses == misses_after_first
        assert misses_after_first > 0
