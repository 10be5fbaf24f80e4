"""Tight integration (DL2SQL / DL2SQL-OP, Section III-C).

Binding a task loads its DL2SQL compilation — the model as relational
tables plus the per-layer SQL program — into the database and registers an
nUDF whose *implementation is the SQL program itself*: each invocation
materializes the keyframe as the input table and executes the compiled
statements.  There is no second system and no cross-system I/O.

``optimized=True`` turns the strategy into DL2SQL-OP: the database's
optimizer runs with the customized cost model and the hint rules of
Section IV (eager/lazy nUDF placement from histogram selectivities,
symmetric hash join for nUDF join keys).
"""

from __future__ import annotations

import time
from typing import Mapping, Optional

import numpy as np

from repro.errors import WorkloadError
from repro.core.compiler import PreJoin
from repro.core.hints import HintAwareCostModel, SECONDS_PER_COST_UNIT
from repro.core.runner import Dl2SqlModel
from repro.engine.cost import DefaultCostModel
from repro.engine.database import Database
from repro.engine.optimizer import OptimizerConfig
from repro.engine.udf import BatchUdf
from repro.storage.schema import DataType
from repro.strategies.base import (
    CollaborativeQuery,
    CostBreakdown,
    ModelTask,
    Strategy,
    StrategyCapabilities,
    StrategyResult,
)


class TightStrategy(Strategy):
    """DL2SQL: neural operators as native SQL inside the database."""

    capabilities = StrategyCapabilities(
        implementation_complexity="Hard",
        flexibility="Translate the query into SQL neural operators",
        optimization=(
            "Create new cost model and apply the database's optimizer"
        ),
        scalability="Medium",
        io_cost="Low",
        gpu_support="Depends on the database",
    )

    def __init__(
        self,
        *args,
        optimized: bool = False,
        prejoin: PreJoin = PreJoin.NONE,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.optimized = optimized
        self.prejoin = prejoin
        self.name = "DL2SQL-OP" if optimized else "DL2SQL"
        self._bound: dict[str, _BoundTask] = {}
        #: This strategy's optimizer configuration on the database it
        #: last bound a task on.  Every bind there installs the *same*
        #: object: the plan cache keys on its identity, so a fresh one per
        #: bind would re-plan every statement.
        self._installed: Optional[_InstalledConfig] = None

    # ------------------------------------------------------------------
    def bind_task(self, db: Database, task: ModelTask) -> float:
        """Load the model's relational tables + indexes, register the
        SQL-backed nUDF, and configure the optimizer."""
        started = time.perf_counter()
        runner = Dl2SqlModel(task.compiled)
        runner.load(db)

        # One calibration inference establishes the per-row cost the hint
        # rules need; its time counts toward model integration (loading).
        warmup = runner.infer(
            db, np.zeros(task.compiled.input_shape, dtype=np.float64)
        )
        cost_per_row = warmup.exec_seconds

        def fn(keyframes: np.ndarray) -> np.ndarray:
            out = np.empty(len(keyframes), dtype=object)
            for i, keyframe in enumerate(keyframes):
                result = runner.infer(db, np.asarray(keyframe))
                if task.returns_bool:
                    out[i] = bool(result.class_index == 1)
                else:
                    out[i] = result.label
            return out

        return_dtype = DataType.BOOL if task.returns_bool else DataType.STRING
        estimator = task.selectivity()
        db.register_udf(
            BatchUdf(
                name=task.udf_name(),
                fn=fn,
                return_dtype=return_dtype,
                cost_per_row=cost_per_row,
                is_neural=True,
                selectivity_of=estimator.selectivity_equals,
                # The implementation executes nested SQL statements on
                # the owning database, whose active-context bookkeeping
                # is per-statement — morsel workers must not run it
                # concurrently.  The inference cache still applies.
                parallel_safe=False,
            ),
            replace=True,
        )

        installed = self._installed
        if installed is None or installed.db is not db:
            installed = self._installed = _InstalledConfig(
                db,
                OptimizerConfig(
                    cost_model=(
                        HintAwareCostModel(db.udfs)
                        if self.optimized
                        else DefaultCostModel()
                    ),
                    use_hints=self.optimized,
                ),
            )
        cost_model = installed.config.cost_model
        if isinstance(cost_model, HintAwareCostModel):
            cost_model.register_selectivity(estimator)
            cost_model.add_compiled(task.compiled)
        else:
            cost_model.udf_cost_per_row = cost_per_row / SECONDS_PER_COST_UNIT
        if not self._has_bound(installed):
            installed.previous = db.optimizer_config
        db.optimizer_config = installed.config

        load_seconds = time.perf_counter() - started
        self._bound[task.udf_name().lower()] = _BoundTask(
            installed=installed,
            task=task,
            runner=runner,
            load_seconds=load_seconds,
            model_bytes=task.compiled.static_bytes(),
        )
        return load_seconds

    def unbind_task(self, db: Database, task: ModelTask) -> None:
        entry = self._bound.pop(task.udf_name().lower(), None)
        if entry is not None:
            entry.runner.unload(db)
        db.udfs.unregister(task.udf_name())
        if entry is None:
            return
        installed = entry.installed
        if installed.previous is not None and not self._has_bound(installed):
            # Last task gone: queries that follow on this database are
            # costed as they were before the first bind.
            if db.optimizer_config is installed.config:
                db.optimizer_config = installed.previous
            installed.previous = None

    def _has_bound(self, installed: "_InstalledConfig") -> bool:
        return any(
            entry.installed is installed for entry in self._bound.values()
        )

    # ------------------------------------------------------------------
    def run(
        self,
        db: Database,
        query: CollaborativeQuery,
        tasks: Mapping[str, ModelTask],
    ) -> StrategyResult:
        bound = []
        for role in query.udf_roles:
            task = tasks.get(role)
            if task is None:
                raise WorkloadError(f"query requires unbound nUDF role {role!r}")
            entry = self._bound.get(task.udf_name().lower())
            if entry is None:
                raise WorkloadError(
                    f"task {task.name!r} is not bound; call bind_task first"
                )
            bound.append(entry)

        self.preflight_analysis(db, query)
        db.udfs.reset_stats()
        with db.tracer.span(
            f"strategy:{self.name}", sql=query.sql
        ) as strategy_span:
            # No second system: the compiled SQL program runs in-database,
            # so inference appears as nested query spans (one per compiled
            # statement) rather than a cross-system transfer.
            with db.tracer.span("db_subquery") as span:
                started = time.perf_counter()
                result = db.execute(query.sql)
                elapsed = time.perf_counter() - started
                span.set("rows", result.num_rows)

            inference_raw = db.udfs.neural_seconds()
            relational_raw = max(0.0, elapsed - inference_raw)
            inferred_rows = sum(
                db.udfs.get(b.task.udf_name()).stats.rows for b in bound
            )
            strategy_span.set("transfer_bytes", 0)
            strategy_span.set("inferred_rows", inferred_rows)
            strategy_span.set("inference_seconds", inference_raw)

        # Everything here is database-kernel work; the GPU variant offloads
        # the inference statements and pays transfer for the model tables.
        if self.use_gpu:
            inference = self.profile.gpu_time(inference_raw)
            transfer = sum(
                self.gpu_transfer_seconds(b.model_bytes) for b in bound
            )
        else:
            inference = self.scale_db_seconds(inference_raw)
            transfer = 0.0

        # Per-bind model loading is charged by the benchmark layer.
        breakdown = CostBreakdown(
            loading=transfer,
            inference=inference,
            relational=self.scale_db_seconds(relational_raw),
        )
        return StrategyResult(
            rows=result.rows(),
            breakdown=breakdown,
            details={"inferred_rows": inferred_rows},
        )


class _InstalledConfig:
    """The configuration a strategy installs on one database, and the
    one it displaced while any of its tasks is bound there."""

    __slots__ = ("db", "config", "previous")

    def __init__(self, db: Database, config: OptimizerConfig) -> None:
        self.db = db
        self.config = config
        self.previous: Optional[OptimizerConfig] = None


class _BoundTask:
    __slots__ = ("installed", "task", "runner", "load_seconds", "model_bytes")

    def __init__(
        self, installed, task, runner, load_seconds, model_bytes
    ) -> None:
        self.installed = installed
        self.task = task
        self.runner = runner
        self.load_seconds = load_seconds
        self.model_bytes = model_bytes
