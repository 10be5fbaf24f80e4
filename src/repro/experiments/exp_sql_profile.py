"""Fig. 10: runtime distribution across SQL clauses in generated queries.

Traces a pure DL2SQL inference run and reports each operator category's
share of the operators' self time, summed over the run's
``operator:<category>`` spans (:func:`repro.obs.trace.operator_categories`).
Reproduction target: Join and GroupBy are the expensive clauses.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.compiler import CompiledModel, PreJoin, compile_model
from repro.core.runner import Dl2SqlModel
from repro.engine.database import Database
from repro.experiments.reporting import print_table
from repro.obs.trace import Tracer, operator_categories
from repro.tensor.resnet import build_student_cnn
from repro.workload.dataset import DatasetConfig, IoTDataset, generate_dataset


@dataclass
class ClauseRow:
    clause: str
    seconds: float
    share: float
    rows: int


def run(
    dataset: Optional[IoTDataset] = None,
    compiled: Optional[CompiledModel] = None,
    *,
    num_keyframes: int = 8,
    prejoin: PreJoin = PreJoin.NONE,
) -> list[ClauseRow]:
    dataset = dataset or generate_dataset(DatasetConfig(scale=1))
    if compiled is None:
        model = build_student_cnn(
            input_shape=dataset.config.keyframe_shape, num_classes=4, seed=3
        )
        compiled = compile_model(model, prejoin=prejoin)

    db = Database(tracer=Tracer(enabled=True))
    runner = Dl2SqlModel(compiled)
    runner.load(db)
    traces = []
    # A collector pause is charged to whichever operator span is open,
    # and on a short run one full collection outweighs whole clauses, so
    # the timed loop runs with the collector paused, as ``timeit`` does.
    collecting = gc.isenabled()
    gc.disable()
    try:
        for keyframe in dataset.sample_keyframes(num_keyframes):
            db.tracer.reset()
            runner.infer(db, np.asarray(keyframe))
            traces.extend(db.tracer.traces)
    finally:
        if collecting:
            gc.enable()

    snapshot = operator_categories(traces)
    total = sum(s.seconds for s in snapshot.values()) or 1.0
    rows = [
        ClauseRow(
            clause=clause,
            seconds=stats.seconds / num_keyframes,
            share=stats.seconds / total,
            rows=stats.rows,
        )
        for clause, stats in snapshot.items()
    ]
    rows.sort(key=lambda r: r.seconds, reverse=True)
    return rows


def main() -> list[ClauseRow]:
    rows = run()
    print_table(
        ["Clause", "Seconds/keyframe", "Share", "Rows"],
        [(r.clause, r.seconds, f"{r.share:.1%}", r.rows) for r in rows],
        title="Fig. 10: Costs of Different SQL Clauses (DL2SQL inference)",
    )
    return rows


if __name__ == "__main__":
    main()
