"""Batched DL2SQL: the batched artifact, parity, amortization, one runner."""

import numpy as np
import pytest

from repro.core import (
    Dl2SqlModel,
    PreJoin,
    compile_model,
    compile_model_batched,
)
from repro.engine import Database
from repro.errors import ExecutionError
from repro.tensor import build_resnet, build_student_cnn
from tests.core.test_parity import attention_model, deconv_model, dense_model


@pytest.fixture(scope="module")
def student():
    return build_student_cnn(
        input_shape=(1, 8, 8), num_classes=3, channels=(4, 4, 4),
        class_labels=["a", "b", "c"], seed=11,
    )


@pytest.fixture(scope="module")
def batch():
    rng = np.random.default_rng(5)
    return [rng.normal(size=(1, 8, 8)) for _ in range(6)]


ARTIFACT_MODELS = {
    "student": lambda: build_student_cnn(
        input_shape=(1, 8, 8), num_classes=3, channels=(4, 4, 4), seed=11
    ),
    "resnet8": lambda: build_resnet(
        8, input_shape=(1, 8, 8), num_classes=3, seed=2
    ),
    "attention": attention_model,
    "dense": dense_model,
    "deconv": deconv_model,
}


def artifact_shape(compiled):
    return {
        "layer_infos": [
            (i.kind, i.input_shape, i.output_shape) for i in compiled.layer_infos
        ],
        "table_stats": sorted(compiled.table_stats),
        "blocks": compiled.blocks(),
        "step_kinds": [step.kind for step in compiled.steps],
    }


class TestBatchedArtifact:
    @pytest.mark.parametrize("prejoin", list(PreJoin))
    @pytest.mark.parametrize("name", list(ARTIFACT_MODELS))
    def test_matches_per_sample_artifact(self, name, prejoin):
        """One compiler: batching adds a key column, never a step, a layer
        record or a statistic."""
        model = ARTIFACT_MODELS[name]()
        per_sample = compile_model(model, prejoin=prejoin)
        batched = compile_model_batched(model, prejoin=prejoin)
        assert batched.batched and not per_sample.batched
        assert artifact_shape(batched) == artifact_shape(per_sample)


class TestBatchedParity:
    @pytest.mark.parametrize("prejoin", list(PreJoin))
    def test_matches_tensor_forward(self, student, batch, prejoin):
        compiled = compile_model_batched(student, prejoin=prejoin)
        db = Database()
        runner = Dl2SqlModel(compiled)
        runner.load(db)
        result = runner.infer_batch(db, batch)
        expected = student.forward_batch(batch)
        assert np.allclose(result.probabilities, expected, atol=1e-8)

    def test_labels_match_per_sample_runner(self, student, batch):
        batched = compile_model_batched(student)
        per_sample = compile_model(student)
        db = Database()
        batch_runner = Dl2SqlModel(batched)
        batch_runner.load(db)
        sample_db = Database()
        sample_runner = Dl2SqlModel(per_sample)
        sample_runner.load(sample_db)

        batch_result = batch_runner.infer_batch(db, batch)
        sample_labels = [
            sample_runner.infer(sample_db, image).label for image in batch
        ]
        assert batch_result.labels == sample_labels
        assert sample_runner.infer_batch(sample_db, batch).labels == sample_labels

    def test_resnet_batched(self, batch):
        model = build_resnet(5, input_shape=(1, 8, 8), num_classes=3, seed=2)
        compiled = compile_model_batched(model)
        db = Database()
        runner = Dl2SqlModel(compiled)
        runner.load(db)
        result = runner.infer_batch(db, batch[:3])
        expected = model.forward_batch(batch[:3])
        assert np.allclose(result.probabilities, expected, atol=1e-8)

    def test_single_item_batch(self, student, batch):
        compiled = compile_model_batched(student)
        db = Database()
        runner = Dl2SqlModel(compiled)
        runner.load(db)
        result = runner.infer_batch(db, batch[:1])
        assert result.batch_size == 1


class TestBatchedAmortization:
    def test_batched_is_faster_per_frame(self, student, batch):
        """The point of batch mode: per-frame cost drops vs per-sample."""
        import time

        per_sample = compile_model(student, prejoin=PreJoin.FOLD)
        batched = compile_model_batched(student, prejoin=PreJoin.FOLD)

        db1 = Database()
        sample_runner = Dl2SqlModel(per_sample)
        sample_runner.load(db1)
        sample_runner.infer(db1, batch[0])  # warm caches
        started = time.perf_counter()
        for image in batch:
            sample_runner.infer(db1, image)
        per_sample_seconds = time.perf_counter() - started

        db2 = Database()
        batch_runner = Dl2SqlModel(batched)
        batch_runner.load(db2)
        batch_runner.infer_batch(db2, batch[:1])  # warm caches
        started = time.perf_counter()
        batch_runner.infer_batch(db2, batch)
        batched_seconds = time.perf_counter() - started

        # Wall-clock under CI noise: allow a small margin here; the strict
        # amortization claim is asserted in benchmarks/bench_batch.py.
        assert batched_seconds < per_sample_seconds * 1.25


class TestBatchedErrors:
    def test_empty_batch_rejected(self, student):
        for compiled in (compile_model_batched(student), compile_model(student)):
            db = Database()
            runner = Dl2SqlModel(compiled)
            runner.load(db)
            with pytest.raises(ExecutionError, match="empty batch"):
                runner.infer_batch(db, [])

    def test_shape_mismatch_rejected(self, student, batch):
        compiled = compile_model_batched(student)
        db = Database()
        runner = Dl2SqlModel(compiled)
        runner.load(db)
        with pytest.raises(ExecutionError, match="shape"):
            runner.infer_batch(db, [np.zeros((1, 9, 9))])

    def test_infer_points_to_infer_batch(self, student, batch):
        compiled = compile_model_batched(student)
        db = Database()
        runner = Dl2SqlModel(compiled)
        runner.load(db)
        with pytest.raises(ExecutionError, match="infer_batch"):
            runner.infer(db, batch[0])

    def test_repeated_batches_clean_up(self, student, batch):
        compiled = compile_model_batched(student)
        db = Database()
        runner = Dl2SqlModel(compiled)
        runner.load(db)
        runner.infer_batch(db, batch[:2])
        tables_after_first = len(db.catalog.table_names())
        runner.infer_batch(db, batch[2:4])
        assert len(db.catalog.table_names()) == tables_after_first

    def test_unload(self, student, batch):
        compiled = compile_model_batched(student)
        db = Database()
        runner = Dl2SqlModel(compiled)
        runner.load(db)
        runner.infer_batch(db, batch[:1])
        db.execute(
            f"CREATE VIEW {compiled.table_prefix}top AS "
            f"SELECT BatchID, TupleID FROM {compiled.output_table}"
        )
        assert runner.unload(db) > 0
        leftovers = [
            n
            for n in [*db.catalog.table_names(), *db.catalog.view_names()]
            if n.startswith(compiled.table_prefix)
        ]
        assert leftovers == []
