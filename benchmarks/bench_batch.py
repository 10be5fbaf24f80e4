"""Ablation: batched vs per-sample DL2SQL inference.

The paper runs nUDFs "in a batch manner".  This bench quantifies what the
batched compilation buys on this engine — and where it doesn't: fixed
per-statement costs (dispatch, catalog ops, output materialization)
amortize over the batch, so batching wins when those dominate (small
models); for larger per-frame workloads the vectorized engine is already
batch-efficient sample by sample, and the extra BatchID grouping key
roughly cancels the savings.  The crossover itself is the reproduced
insight.

The per-sample side pays no re-optimization: each statement is planned on
the first frame and is a plan-cache hit on every later one, because a
cached plan assumes only the statistics that justified a rewrite of it
(docs/static_analysis.md) and a new frame's value range justifies none.
Ratios recorded while a wider range still discarded plans (about a third
of the statements were re-planned per frame) overstate batching's win.
"""

import time

import numpy as np
import pytest

from repro.core import (
    Dl2SqlModel,
    PreJoin,
    compile_model,
    compile_model_batched,
)
from repro.engine import Database
from repro.experiments.reporting import print_table
from repro.tensor import build_student_cnn


def _per_frame_costs(model, frames, batch_sizes=(1, 8, 32)):
    per_sample = compile_model(model, prejoin=PreJoin.FOLD)
    batched = compile_model_batched(model, prejoin=PreJoin.FOLD)

    db1 = Database()
    sample_runner = Dl2SqlModel(per_sample)
    sample_runner.load(db1)
    sample_runner.infer(db1, frames[0])          # warm plan caches
    started = time.perf_counter()
    for frame in frames:
        sample_runner.infer(db1, frame)
    per_sample_each = (time.perf_counter() - started) / len(frames)

    db2 = Database()
    batch_runner = Dl2SqlModel(batched)
    batch_runner.load(db2)
    batch_runner.infer_batch(db2, frames[:1])    # warm plan caches
    rows = []
    for batch_size in batch_sizes:
        started = time.perf_counter()
        batch_runner.infer_batch(db2, frames[:batch_size])
        rows.append(
            (
                batch_size,
                (time.perf_counter() - started) / batch_size,
                per_sample_each,
            )
        )
    return rows


def test_batched_amortization_small_model(benchmark, quick_mode):
    """Small model: per-statement overhead dominates -> batching wins."""
    model = build_student_cnn(
        input_shape=(1, 8, 8), num_classes=3, channels=(3, 3, 3), seed=1
    )
    frames = [
        np.random.default_rng(i).normal(size=(1, 8, 8)) for i in range(32)
    ]
    rows = benchmark.pedantic(
        lambda: _per_frame_costs(model, frames), rounds=1, iterations=1
    )
    print_table(
        ["Batch size", "Batched s/frame", "Per-sample s/frame"],
        rows,
        title="Batched vs per-sample (small model, 8x8)",
    )
    # At full batch, batching beats the per-sample loop per frame.
    # (Timing comparison; skipped under --quick where load spikes on
    # shared CI runners make it flaky.)
    if not quick_mode:
        assert rows[-1][1] < rows[-1][2]


def test_batched_crossover_larger_model(benchmark, bench_dataset, quick_mode):
    """Larger per-frame work: vectorized per-sample execution is already
    efficient; batching must stay within ~2x (not collapse), and the bench
    records the observed crossover."""
    model = build_student_cnn(
        input_shape=bench_dataset.config.keyframe_shape, num_classes=4
    )
    frames = bench_dataset.sample_keyframes(32)
    rows = benchmark.pedantic(
        lambda: _per_frame_costs(model, frames), rounds=1, iterations=1
    )
    print_table(
        ["Batch size", "Batched s/frame", "Per-sample s/frame"],
        rows,
        title="Batched vs per-sample (12x12 model)",
    )
    if not quick_mode:  # timing comparison, flaky on loaded runners
        assert rows[-1][1] < rows[-1][2] * 2.0


def test_batched_parity_at_scale(benchmark, bench_dataset):
    model = build_student_cnn(
        input_shape=bench_dataset.config.keyframe_shape, num_classes=4
    )
    frames = bench_dataset.sample_keyframes(16)
    batched = compile_model_batched(model, prejoin=PreJoin.FOLD)
    db = Database()
    runner = Dl2SqlModel(batched)
    runner.load(db)

    result = benchmark.pedantic(
        lambda: runner.infer_batch(db, frames), rounds=1, iterations=1
    )
    expected = model.forward_batch(frames)
    assert np.allclose(result.probabilities, expected, atol=1e-8)
