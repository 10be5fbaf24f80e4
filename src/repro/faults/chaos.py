"""The chaos harness: prove queries survive a seeded fault schedule.

``run_chaos`` executes a fixed sample workload (the IoT dataset plus a
cheap stand-in batched UDF) under each of several seeded
:class:`~repro.faults.injector.FaultPlan`\\ s and classifies every run:

* **survived** — the query returned rows identical to its fault-free
  baseline, *or* failed with a typed :class:`~repro.errors.ReproError`
  (an injected permanent fault is *supposed* to surface as one);
* **failed** — wrong rows, or an exception outside the typed hierarchy
  (the two ways resilience can actually be wrong);
* **hung** — wall clock blew past a hard multiple of the query deadline,
  meaning cooperative cancellation did not bite.

Every query runs with ``timeout_s`` armed, so even a plan that injects
latency everywhere terminates.  Each plan also gets a *transfer probe*:
a checksummed :func:`~repro.strategies.transfer.roundtrip` under retry,
exercising the ``transfer.*`` sites that plain SQL queries never cross.

Determinism: plans carry their own RNG seeds and each plan gets a fresh
:class:`~repro.engine.database.Database`, so a report is reproducible
run to run (modulo wall-clock timings).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.errors import ReproError, TransferError
from repro.faults.injector import FaultPlan
from repro.faults.retry import RetryPolicy, call_with_retry

#: The seeded plans the chaos suite and ``repro chaos`` run by default.
#: Each targets a different failure domain; the last mixes everything.
DEFAULT_PLANS: tuple[FaultPlan, ...] = (
    FaultPlan.parse(
        "seed=11; udf.batch_call:transient@0.3#4", name="udf-transient"
    ),
    FaultPlan.parse("seed=23; udf.batch_call:permanent#2", name="udf-permanent"),
    FaultPlan.parse(
        "seed=37; transfer.serialize:corrupt#2; "
        "transfer.deserialize:transient@0.5#2",
        name="transfer-chaos",
    ),
    FaultPlan.parse(
        "seed=41; cache.insert:permanent@0.5", name="cache-insert-drop"
    ),
    FaultPlan.parse(
        "seed=53; operator.next_batch:latency~0.001@0.2",
        name="operator-latency",
    ),
    FaultPlan.parse("seed=67; *:transient@0.05#6", name="everything-a-little"),
)

#: The workload each plan is judged against.  Mixes scans, a join with
#: aggregation, predicates, and a batched-UDF group-by (so the
#: ``udf.batch_call`` and ``cache.insert`` sites actually fire).
CHAOS_QUERIES: tuple[str, ...] = (
    "SELECT count(*) FROM video",
    "SELECT f.pattern, count(*) AS n FROM video v "
    "INNER JOIN fabric f ON v.transID = f.transID "
    "GROUP BY f.pattern ORDER BY f.pattern",
    "SELECT count(*) FROM orders WHERE amount > 5000",
    "SELECT amount_bucket(amount), count(*) FROM orders "
    "GROUP BY amount_bucket(amount)",
)


@dataclass
class ChaosOutcome:
    """One (plan, check) verdict."""

    plan: str
    check: str
    status: str  # "survived" | "failed" | "hung"
    error: str = ""  # exception type name when one was raised
    elapsed: float = 0.0


@dataclass
class ChaosReport:
    """Everything one chaos run observed."""

    outcomes: list[ChaosOutcome] = field(default_factory=list)
    #: site -> faults actually produced, summed over all plans.
    faults_fired: dict[str, int] = field(default_factory=dict)

    def _count(self, status: str) -> int:
        return sum(1 for o in self.outcomes if o.status == status)

    @property
    def survived(self) -> int:
        return self._count("survived")

    @property
    def failed(self) -> int:
        return self._count("failed")

    @property
    def hung(self) -> int:
        return self._count("hung")

    @property
    def ok(self) -> bool:
        return self.failed == 0 and self.hung == 0

    def to_text(self) -> str:
        lines = []
        plans = []
        for outcome in self.outcomes:
            if outcome.plan not in plans:
                plans.append(outcome.plan)
        for plan in plans:
            mine = [o for o in self.outcomes if o.plan == plan]
            bad = [o for o in mine if o.status != "survived"]
            verdict = "ok" if not bad else "NOT OK"
            lines.append(
                f"plan {plan:<22} {len(mine) - len(bad)}/{len(mine)} "
                f"survived  [{verdict}]"
            )
            for outcome in bad:
                lines.append(
                    f"    {outcome.status.upper()}: {outcome.check}"
                    + (f" ({outcome.error})" if outcome.error else "")
                )
        total_faults = sum(self.faults_fired.values())
        lines.append(
            f"chaos: {self.survived} survived, {self.failed} failed, "
            f"{self.hung} hung; {total_faults} fault(s) injected"
        )
        return "\n".join(lines)


def run_chaos(
    plans: Optional[Sequence[FaultPlan]] = None,
    *,
    scale: int = 1,
    seed: int = 42,
    timeout_s: float = 5.0,
    repetitions: int = 2,
    quick: bool = False,
    sessions: int = 1,
) -> ChaosReport:
    """Run the chaos workload under every plan and report verdicts.

    ``quick`` trims to the first three plans and one repetition (the CI
    smoke configuration).  ``repetitions=2`` re-runs each query so the
    second pass crosses a warm inference cache — with ``cache.insert``
    faults absorbed, both passes must still match the baseline.

    ``sessions > 1`` routes the same workload through a
    :class:`~repro.serve.server.Server` with that many concurrent
    sessions, so every fault site fires while the shared engine is under
    concurrent load (the transfer probe stays single-threaded — it does
    not cross the server).
    """
    from repro.workload.dataset import DatasetConfig, generate_dataset

    chosen = tuple(plans) if plans is not None else DEFAULT_PLANS
    if quick:
        chosen = chosen[:3]
        repetitions = 1

    dataset = generate_dataset(DatasetConfig(scale=scale, seed=seed))
    report = ChaosReport()

    baseline_db = _make_db(dataset, None)
    try:
        baselines = {
            sql: _canonical_rows(baseline_db.execute(sql).rows())
            for sql in CHAOS_QUERIES
        }
    finally:
        baseline_db.close()

    # Past this wall-clock bound a "survived" verdict is a lie: the
    # cooperative checks should have stopped the query near timeout_s.
    hard_limit = timeout_s * 5.0 + 2.0
    probe_payload = [("frame", index, index * 0.5) for index in range(64)]

    for plan in chosen:
        plan_name = plan.name or plan.to_text()
        if sessions > 1:
            _run_plan_concurrent(
                dataset, plan, plan_name, baselines, report,
                sessions, repetitions, timeout_s, hard_limit,
            )
            continue
        db = _make_db(dataset, plan)
        try:
            for repetition in range(repetitions):
                for sql in CHAOS_QUERIES:
                    outcome = _run_one(
                        db, plan_name, sql, repetition,
                        baselines[sql], timeout_s, hard_limit,
                    )
                    report.outcomes.append(outcome)
            report.outcomes.append(
                _transfer_probe(db, plan_name, probe_payload)
            )
            for site, count in db.faults.stats().items():
                report.faults_fired[site] = (
                    report.faults_fired.get(site, 0) + count
                )
        finally:
            db.close()
    return report


def _make_db(dataset, plan: Optional[FaultPlan]):
    """A database wired the way the resilience layer expects: faults,
    inference cache, morsel parallelism, and a memory budget."""
    from repro.engine.database import Database
    from repro.engine.udf import BatchUdf
    from repro.storage.schema import DataType

    db = Database(
        fault_plan=plan,
        udf_cache_bytes=1 << 20,
        workers=2,
        query_memory_bytes=256 << 20,
    )
    dataset.install(db)
    db.register_udf(
        BatchUdf(
            name="amount_bucket",
            fn=lambda amounts: np.floor(np.asarray(amounts) / 1000.0),
            return_dtype=DataType.FLOAT64,
        )
    )
    return db


def _run_plan_concurrent(
    dataset,
    plan: FaultPlan,
    plan_name: str,
    baselines: dict,
    report: ChaosReport,
    sessions: int,
    repetitions: int,
    timeout_s: float,
    hard_limit: float,
) -> None:
    """One plan's chaos workload through ``sessions`` concurrent server
    sessions.  Verdict semantics are identical to the serial path — each
    (session, repetition, query) is judged against the fault-free
    baseline; ``ServerOverloaded`` is a typed error and so survives."""
    from repro.engine.udf import BatchUdf
    from repro.serve.server import Server, ServerConfig
    from repro.storage.schema import DataType

    server = Server(
        ServerConfig(
            max_concurrent=max(2, sessions // 2),
            max_queue=sessions * 4,
            queue_timeout_s=timeout_s,
            udf_cache_bytes=1 << 20,
            query_memory_bytes=256 << 20,
        ),
        fault_plan=plan,
    )
    collected: list[ChaosOutcome] = []
    lock = threading.Lock()

    def worker(index: int) -> None:
        session = server.session(f"chaos{index}")
        mine: list[ChaosOutcome] = []
        try:
            for repetition in range(repetitions):
                for sql in CHAOS_QUERIES:
                    outcome = _run_one(
                        session, plan_name, sql, repetition,
                        baselines[sql], timeout_s, hard_limit,
                    )
                    outcome.check = f"s{index} {outcome.check}"
                    mine.append(outcome)
        finally:
            session.close()
        with lock:
            collected.extend(mine)

    try:
        dataset.install(server.root)
        server.root.register_udf(
            BatchUdf(
                name="amount_bucket",
                fn=lambda amounts: np.floor(np.asarray(amounts) / 1000.0),
                return_dtype=DataType.FLOAT64,
            ),
            replace=True,
        )
        threads = [
            threading.Thread(
                target=worker, args=(index,),
                name=f"chaos-{plan_name}-{index}", daemon=True,
            )
            for index in range(sessions)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if server.faults is not None:
            for site, count in server.faults.stats().items():
                report.faults_fired[site] = (
                    report.faults_fired.get(site, 0) + count
                )
    finally:
        server.close()
    report.outcomes.extend(collected)


def _canonical_rows(rows) -> list[str]:
    """Order- and dtype-stable row fingerprints for comparison."""
    return sorted(
        repr(tuple(v.item() if isinstance(v, np.generic) else v for v in row))
        for row in rows
    )


def _run_one(
    db, plan_name, sql, repetition, baseline, timeout_s, hard_limit
) -> ChaosOutcome:
    check = f"{sql[:48]}... (rep {repetition})" if len(sql) > 48 else (
        f"{sql} (rep {repetition})"
    )
    started = time.perf_counter()
    error = ""
    try:
        result = db.execute(sql, timeout_s=timeout_s)
        status = (
            "survived"
            if _canonical_rows(result.rows()) == baseline
            else "failed"
        )
        if status == "failed":
            error = "rows differ from fault-free baseline"
    except ReproError as exc:
        # Typed failure — the contract holds (never a wrong answer).
        status = "survived"
        error = type(exc).__name__
    except Exception as exc:  # noqa: BLE001 - untyped escape = defect
        status = "failed"
        error = f"untyped {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - started
    if elapsed > hard_limit:
        status = "hung"
    return ChaosOutcome(
        plan=plan_name, check=check, status=status,
        error=error, elapsed=elapsed,
    )


def _transfer_probe(db, plan_name, payload) -> ChaosOutcome:
    """Exercise the serialization boundary under the plan's injector."""
    from repro.strategies.transfer import roundtrip

    started = time.perf_counter()
    error = ""
    try:
        result, _ = call_with_retry(
            lambda: roundtrip(payload, faults=db.faults, stage="probe"),
            policy=RetryPolicy(),
        )
        status = "survived" if result == payload else "failed"
        if status == "failed":
            error = "round-tripped payload differs"
    except TransferError as exc:
        status = "survived"
        error = type(exc).__name__
    except ReproError as exc:
        status = "survived"
        error = type(exc).__name__
    except Exception as exc:  # noqa: BLE001
        status = "failed"
        error = f"untyped {type(exc).__name__}: {exc}"
    return ChaosOutcome(
        plan=plan_name,
        check="transfer probe",
        status=status,
        error=error,
        elapsed=time.perf_counter() - started,
    )
