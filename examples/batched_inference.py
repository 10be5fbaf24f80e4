"""Batched DL2SQL: one SQL program classifies a whole keyframe batch.

The paper notes the nUDF "is performed in a batch manner (a batch of
feature maps are fed to the model together)".  This example compiles the
student CNN in batch mode — every generated statement carries a BatchID
partition — runs 16 keyframes through a single program execution, and
compares per-frame cost against the per-sample runner.

Run:  python examples/batched_inference.py
"""

import time

import numpy as np

from repro.core import (
    Dl2SqlModel,
    PreJoin,
    compile_model,
    compile_model_batched,
)
from repro.engine import Database
from repro.tensor import build_student_cnn

def main() -> None:
    model = build_student_cnn(
        input_shape=(1, 8, 8),
        num_classes=4,
        channels=(3, 3, 3),
        class_labels=["Floral", "Striped", "Checked", "Solid"],
    )
    rng = np.random.default_rng(3)
    frames = [rng.normal(size=(1, 8, 8)) for _ in range(16)]

    batched = compile_model_batched(model, prejoin=PreJoin.FOLD)
    print("a batched statement (note the BatchID partitioning):")
    print(" ", batched.steps[0].sql[:150], "...\n")

    db = Database()
    runner = Dl2SqlModel(batched)
    runner.load(db)
    runner.infer_batch(db, frames[:1])          # warm plan caches
    started = time.perf_counter()
    result = runner.infer_batch(db, frames)
    batched_seconds = time.perf_counter() - started

    expected = model.forward_batch(frames)
    assert np.allclose(result.probabilities, expected, atol=1e-8)
    print(f"batch of {result.batch_size}: labels = {result.labels[:8]} ...")
    print(f"parity with numpy forward passes: OK")
    print(f"batched   : {batched_seconds / len(frames) * 1e3:6.2f} ms/frame")

    per_sample = compile_model(model, prejoin=PreJoin.FOLD)
    db2 = Database()
    sample_runner = Dl2SqlModel(per_sample)
    sample_runner.load(db2)
    sample_runner.infer(db2, frames[0])         # warm plan caches
    started = time.perf_counter()
    for frame in frames:
        sample_runner.infer(db2, frame)
    loop_seconds = time.perf_counter() - started
    print(f"per-sample: {loop_seconds / len(frames) * 1e3:6.2f} ms/frame")
    print(f"\nbatching amortizes the fixed per-statement costs "
          f"({loop_seconds / batched_seconds:.1f}x here).")

if __name__ == "__main__":
    main()
