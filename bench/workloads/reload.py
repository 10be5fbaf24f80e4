"""The restart path: save, load into a fresh process image, first queries."""

from __future__ import annotations

import os
import shutil
import tempfile
from typing import Any

from harness import OpRecorder
from oracle import same_rows, sqlite_from_tables
from workloads.base import (
    TracedPhase,
    Workload,
    engine_layer_metrics,
    engine_trace_targets,
    registry_counters,
)

from repro.engine.database import Database
from repro.obs.metrics import MetricsRegistry
from repro.storage.persist import load_database, save_database
from repro.workload.tpch import TPCH_QUERIES, TpchConfig, generate_tpch

Q6 = TPCH_QUERIES["q6"]


class ReloadCold(Workload):
    """Every pass starts from a fresh directory and a fresh ``Database``.

    There is no warm state to reach: the first pass is as cold as the
    rest, and doubles as the oracle pass.
    """

    name = "reload_cold"
    scale_factor = 0.01

    def setup(self) -> None:
        self.data = generate_tpch(
            TpchConfig(scale_factor=self.scale_factor, seed=self.seed)
        )
        self.source = Database()
        self.data.install(self.source)
        # One registry for the whole run: each pass's fresh database adds
        # to it, so per-pass deltas still come out.
        self.metrics = MetricsRegistry() if self.traced else None
        self.disk_bytes = 0

    def close(self) -> None:
        self.source.close()

    def op_lines(self) -> list[str]:
        return ["save", "load", f"q6_first: {Q6}", f"q6_again: {Q6}"]

    def run_pass(self, op: OpRecorder) -> dict[str, Any]:
        directory = tempfile.mkdtemp(prefix="reload-")
        db = Database(metrics=self.metrics)

        def save() -> None:
            with op.span("storage.save"):
                save_database(self.source, directory)

        def load() -> None:
            with op.span("storage.load"):
                load_database(db, directory)

        try:
            op("save", save)
            op("load", load)
            first = op("q6_first", lambda: db.query(Q6))
            again = op("q6_again", lambda: db.query(Q6))
            self.disk_bytes = sum(
                os.path.getsize(os.path.join(directory, name))
                for name in os.listdir(directory)
            )
        finally:
            db.close()
            shutil.rmtree(directory, ignore_errors=True)
        return {"q6_first": first, "q6_again": again}

    def check(self, outputs: dict[str, Any]) -> tuple[int, list[str]]:
        reference = sqlite_from_tables(self.data.tables, [Q6])
        try:
            expected = reference.execute(Q6).fetchall()
        finally:
            reference.close()
        failures = [
            f"{name} after reload differs from sqlite3"
            for name, rows in outputs.items()
            if rows is None or not same_rows(rows, expected, Q6)
        ]
        return len(outputs), failures

    # -- layers --------------------------------------------------------
    def trace_targets(self) -> list[tuple[Any, str, str]]:
        return engine_trace_targets()

    def counters(self) -> dict[str, float]:
        return registry_counters(self.metrics)

    def layer_metrics(self, phase: TracedPhase) -> dict[str, float]:
        metrics = engine_layer_metrics(phase)
        metrics["storage.save_s"] = phase.ms_per_pass("storage.save") / 1e3
        metrics["storage.load_s"] = phase.ms_per_pass("storage.load") / 1e3
        metrics["storage.disk_bytes_per_user_byte"] = (
            self.disk_bytes / self.source.storage_bytes()
        )
        metrics["storage.first_vs_again_ratio"] = phase.ms_per_pass(
            "op.q6_first"
        ) / phase.ms_per_pass("op.q6_again")
        return metrics
