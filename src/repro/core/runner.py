"""Loading compiled models into a database and running SQL inference.

:class:`Dl2SqlModel` wraps a :class:`~repro.core.compiler.CompiledModel`
and provides the two phases the paper's cost breakdown distinguishes:

* :meth:`load` — register the model's relational tables and build the
  MatrixID/OrderID/KernelID indexes (the paper's Section IV-A indexes);
  measured as *loading* cost, it is the part that grows with model depth
  and eventually lets DB-PyTorch overtake DL2SQL in Table VI.
* :meth:`infer` — materialize the input as a flat table, execute the
  compiled statements, and read back the output distribution; measured as
  *inference* cost, broken down per CNN block for Fig. 9.

:meth:`infer_batch` runs a batched artifact
(:func:`~repro.core.compiler.compile_model_batched`) as one program over
all keyframes, and a per-sample artifact as one :meth:`infer` per keyframe.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.errors import ExecutionError
from repro.core.compiler import CompiledModel
from repro.core.featuremap import flat_rows, tensor_from_flat
from repro.engine.database import Database
from repro.storage.table import Table


@dataclass
class InferenceResult:
    """Output of one SQL-side forward pass."""

    probabilities: np.ndarray
    class_index: int
    label: str
    load_seconds: float
    exec_seconds: float
    block_seconds: dict[str, float] = field(default_factory=dict)
    step_seconds: list[tuple[str, float]] = field(default_factory=list)


@dataclass
class BatchInferenceResult:
    """Output of :meth:`Dl2SqlModel.infer_batch`."""

    probabilities: np.ndarray          # [N, *output_shape]
    class_indices: np.ndarray          # [N]
    labels: list[str]
    load_seconds: float
    exec_seconds: float
    block_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def batch_size(self) -> int:
        return len(self.class_indices)


@dataclass
class _Execution:
    """What one execution of the program cost, in seconds."""

    load_seconds: float
    exec_seconds: float
    block_seconds: dict[str, float]
    step_seconds: list[tuple[str, float]]


class Dl2SqlModel:
    """A compiled model bound to (at most) one database at a time."""

    def __init__(self, compiled: CompiledModel) -> None:
        self.compiled = compiled
        self._loaded_into: Optional[Database] = None
        self.last_load_seconds = 0.0

    # ------------------------------------------------------------------
    def load(self, db: Database) -> float:
        """Install model tables + indexes; returns wall-clock seconds."""
        started = time.perf_counter()
        for table in self.compiled.static_tables:
            db.register_table(table, replace=True)
        for table_name, column_name in self.compiled.index_columns:
            db.catalog.create_index(table_name, column_name)
        elapsed = time.perf_counter() - started
        self._loaded_into = db
        self.last_load_seconds = elapsed
        return elapsed

    def unload(self, db: Database) -> int:
        """Drop every table belonging to this model; returns count."""
        prefix = self.compiled.table_prefix
        dropped = 0
        for name in list(db.catalog.table_names()) + list(db.catalog.view_names()):
            if name.lower().startswith(prefix):
                db.catalog.drop(name)
                dropped += 1
        if self._loaded_into is db:
            self._loaded_into = None
        return dropped

    def is_loaded(self, db: Database) -> bool:
        return all(
            db.catalog.has(table.name) for table in self.compiled.static_tables
        )

    # ------------------------------------------------------------------
    def infer(self, db: Database, image: np.ndarray) -> InferenceResult:
        """Run one forward pass entirely through SQL."""
        if self.compiled.batched:
            raise ExecutionError(
                f"model {self.compiled.model_name!r} is compiled batched; "
                "run it with infer_batch()"
            )
        run = self._run(db, [image])
        probabilities = self.read_output(db)
        class_index = int(np.argmax(probabilities))
        return InferenceResult(
            probabilities=probabilities,
            class_index=class_index,
            label=self._label(class_index),
            load_seconds=run.load_seconds,
            exec_seconds=run.exec_seconds,
            block_seconds=run.block_seconds,
            step_seconds=run.step_seconds,
        )

    def infer_batch(
        self, db: Database, images: Sequence[np.ndarray]
    ) -> BatchInferenceResult:
        """Run a forward pass per keyframe: one program execution for a
        batched artifact, one :meth:`infer` each for a per-sample one."""
        if len(images) == 0:
            raise ExecutionError("empty batch")
        block_seconds: dict[str, float] = {}
        if self.compiled.batched:
            run = self._run(db, images)
            load_seconds, exec_seconds = run.load_seconds, run.exec_seconds
            block_seconds = run.block_seconds
            probabilities = self._read_batch_output(db, len(images))
        else:
            results = [self.infer(db, image) for image in images]
            probabilities = np.stack([r.probabilities for r in results])
            load_seconds = sum(r.load_seconds for r in results)
            exec_seconds = sum(r.exec_seconds for r in results)
            for result in results:
                for block, seconds in result.block_seconds.items():
                    block_seconds[block] = block_seconds.get(block, 0.0) + seconds
        class_indices = probabilities.reshape(len(images), -1).argmax(axis=1)
        return BatchInferenceResult(
            probabilities=probabilities,
            class_indices=class_indices,
            labels=[self._label(int(i)) for i in class_indices],
            load_seconds=load_seconds,
            exec_seconds=exec_seconds,
            block_seconds=block_seconds,
        )

    def read_output(self, db: Database) -> np.ndarray:
        """Read the final flat table back into a dense vector."""
        table = db.table(self.compiled.output_table)
        return tensor_from_flat(
            table.column("TupleID").data,
            table.column("Value").data,
            self.compiled.output_shape,
        )

    def read_intermediate(self, db: Database, table_name: str,
                          shape: tuple[int, ...]) -> np.ndarray:
        """Read any flat intermediate table as a tensor (debug/test aid)."""
        table = db.table(table_name)
        return tensor_from_flat(
            table.column("TupleID").data,
            table.column("Value").data,
            shape,
        )

    # ------------------------------------------------------------------
    def _run(
        self, db: Database, images: Sequence[np.ndarray]
    ) -> _Execution:
        """Install ``images`` and execute the program once."""
        if not self.is_loaded(db):
            raise ExecutionError(
                f"model {self.compiled.model_name!r} is not loaded; call load()"
            )
        with db.tracer.span(
            "inference", model=self.compiled.model_name
        ) as span:
            load_started = time.perf_counter()
            self._cleanup_steps(db)
            self._install_input(db, images)
            load_seconds = time.perf_counter() - load_started

            block_seconds: dict[str, float] = {}
            step_seconds: list[tuple[str, float]] = []
            exec_started = time.perf_counter()
            for step in self.compiled.steps:
                step_started = time.perf_counter()
                db.execute(step.sql)
                elapsed = time.perf_counter() - step_started
                block_seconds[step.block] = (
                    block_seconds.get(step.block, 0.0) + elapsed
                )
                step_seconds.append((step.kind, elapsed))
            exec_seconds = time.perf_counter() - exec_started
            span.set("steps", len(self.compiled.steps))
        return _Execution(load_seconds, exec_seconds, block_seconds, step_seconds)

    def _label(self, class_index: int) -> str:
        labels = self.compiled.class_labels
        return labels[class_index] if labels else str(class_index)

    def _install_input(
        self, db: Database, images: Sequence[np.ndarray]
    ) -> None:
        """Register the input table: one frame, or ``images`` keyed by
        their position as ``BatchID`` for a batched artifact."""
        for index, image in enumerate(images):
            if tuple(image.shape) != self.compiled.input_shape:
                where = f" (batch item {index})" if self.compiled.batched else ""
                raise ExecutionError(
                    f"model {self.compiled.model_name!r} expects input shape "
                    f"{self.compiled.input_shape}, got {tuple(image.shape)}"
                    f"{where}"
                )
        rows = [flat_rows(image) for image in images]
        columns = {
            "TupleID": np.concatenate([ids for ids, _ in rows]),
            "Value": np.concatenate([values for _, values in rows]),
        }
        if self.compiled.batched:
            frame = np.arange(len(images), dtype=np.int64)
            columns = {"BatchID": np.repeat(frame, len(rows[0][0])), **columns}
        table = Table.from_dict(self.compiled.input_table, columns)
        db.register_table(table, temp=True, replace=True)

    def _read_batch_output(self, db: Database, batch_size: int) -> np.ndarray:
        table = db.table(self.compiled.output_table)
        out = np.zeros((batch_size, int(np.prod(self.compiled.output_shape))))
        out[table.column("BatchID").data, table.column("TupleID").data] = (
            table.column("Value").data
        )
        return out.reshape((batch_size, *self.compiled.output_shape))

    def _cleanup_steps(self, db: Database) -> None:
        """Drop the previous inference's intermediate tables."""
        static_names = {t.name.lower() for t in self.compiled.static_tables}
        prefix = self.compiled.table_prefix
        for name in db.catalog.table_names():
            lowered = name.lower()
            if lowered.startswith(prefix) and lowered not in static_names:
                db.catalog.drop(name)
