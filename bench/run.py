"""Run one benchmark workload (or all of them) and print its metrics.

    python3 bench/run.py --workload tpch_scan --seed 1 --seconds 8 --trace 0
    python3 bench/run.py --all --seed 1
    python3 bench/run.py --workload collab_tight --traced --quick

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` the per-layer ones and writes the spans to
``bench/out/<workload>.trace.json``.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from harness import (
    OUT_DIR,
    ROOT,
    OpRecorder,
    SpanTracer,
    git_sha,
    host_fingerprint,
    op_list_hash,
    prepare_environment,
    summarize,
)

#: Set-up is repeated so ``setup_s`` is a median, not a single shot.
SETUP_REPEATS = 3

WORKLOADS = {
    "collab_tight": ("workloads.collab", "CollabTight"),
    "collab_bind": ("workloads.collab", "CollabBind"),
    "collab_udf": ("workloads.collab", "CollabUdf"),
    "tpch_scan": ("workloads.tpch", "TpchScan"),
    "tpch_join_spill": ("workloads.tpch", "TpchJoinSpill"),
    "reload_cold": ("workloads.reload", "ReloadCold"),
    "serve_rw": ("workloads.serve", "ServeRw"),
}


def record_path(stem: str, trace: int) -> Path:
    return OUT_DIR / f"{stem}.{'layers' if trace else 'e2e'}.json"


def load_contract() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def workload_class(name: str) -> type:
    module, attribute = WORKLOADS[name]
    return getattr(importlib.import_module(module), attribute)


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, quick: bool
) -> dict[str, Any]:
    """Set up, check, measure; returns the run's record."""
    from workloads.base import TracedPhase

    cls = workload_class(name)
    setup_times = []
    for repeat in range(1 if trace or quick else SETUP_REPEATS):
        if repeat:
            workload.close()
        workload = cls(seed, quick, trace)
        started = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - started)

    samples: dict[str, list[float]] = {"setup_s": setup_times}
    values: dict[str, float] = {}
    tracer = SpanTracer()
    try:
        # Warm-up: caches fill and the oracle sees every op's output.
        # Neither the pass nor the oracle is part of any timing below.
        warm = OpRecorder()
        started = time.perf_counter()
        outputs = workload.run_pass(warm)
        cold_pass_s = time.perf_counter() - started
        checks, failures = workload.check(outputs)

        timed = OpRecorder()
        budget = seconds / 2 if trace else seconds
        pass_times, wall, succeeded = workload.measure(budget, timed)
        samples["pass_s"] = pass_times
        values["ops_per_s"] = succeeded / wall
        attempted = warm.attempted + timed.attempted + checks
        failed = warm.failed + timed.failed + len(failures)
        errors = warm.errors + timed.errors + failures

        if trace:
            traced = OpRecorder(tracer)
            try:
                for owner, attribute, span in workload.trace_targets():
                    tracer.wrap(owner, attribute, span)
                workload.begin_traced()
                before = workload.counters()
                traced_times, _, _ = workload.measure(budget, traced)
                after = workload.counters()
            finally:
                # Off before anything else is measured, whatever happened.
                tracer.unwrap_all()
            attempted += traced.attempted
            failed += traced.failed
            errors += traced.errors
            phase = TracedPhase(
                tracer.totals(),
                passes=len(traced_times),
                counters={
                    key: (after[key] - before.get(key, 0.0)) / len(traced_times)
                    for key in after
                },
                untraced_pass_s=statistics.median(pass_times),
                seconds_left=max(1.0, seconds / 4),
                spans=tracer.spans,
            )
            values.update(workload.layer_metrics(phase))
            values["cold_pass_s"] = cold_pass_s
            values["obs.bench_trace_overhead_share"] = (
                statistics.median(traced_times) / phase.untraced_pass_s - 1.0
            )
            for op_name, op_samples in timed.latencies.items():
                samples[f"op.{op_name}_ms"] = [s * 1e3 for s in op_samples]
            tracer.dump(OUT_DIR / f"{name}.trace.json")
        values["failed_share"] = failed / attempted
        values["peak_rss_mb"] = workload.peak_rss_mb()
        lines = workload.op_lines()
    finally:
        workload.close()

    contract = load_contract()
    metrics: dict[str, dict[str, Any]] = {}
    for spec in contract["per_layer" if trace else "end_to_end"]:
        metric = spec["name"]
        entry: dict[str, Any] = {"unit": spec["unit"]}
        if metric in samples:
            entry.update(summarize(samples[metric]))
            entry["value"] = entry["median"]
        else:
            # A layer this workload never enters reports zero.
            entry["value"] = values.get(metric, 0.0)
            entry["n"] = int(metric in values)
        metrics[metric] = entry
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "quick": quick,
        "git_sha": git_sha(),
        "host": host_fingerprint(),
        "op_list_hash": op_list_hash(lines),
        "op_count": len(lines),
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:20],
        "metrics": metrics,
    }


def print_record(record: dict[str, Any]) -> None:
    host = record["host"]
    print(
        f"# {record['workload']} seed={record['seed']} "
        f"seconds={record['seconds']} trace={record['trace']} "
        f"git={record['git_sha'][:12]} ops={record['op_count']} "
        f"op_list={record['op_list_hash']}"
    )
    print(
        f"# host: nproc={host['nproc']} python={host['python']} "
        f"numpy={host['numpy']} blas={host['blas']} {host['machine']}"
    )
    if record["quick"]:
        print("# --quick: smoke run, timings are NOT representative")
    print(f"# {'metric':44} {'value':>14} {'unit':8} {'n':>6} {'q1':>12} {'q3':>12}")
    for name, entry in record["metrics"].items():
        if not entry["n"]:
            continue  # not a layer of this workload
        quartile = (
            f"{entry['q1']:12.5g} {entry['q3']:12.5g}" if "q1" in entry else ""
        )
        print(
            f"  {name:44} {entry['value']:14.6g} {entry['unit']:8} "
            f"{entry['n']:6d} {quartile}"
        )
    for error in record["errors"]:
        print(f"# FAILED {error}")
    print(f"# attempted={record['attempted']} failed={record['failed']}")


def run_all(arguments: argparse.Namespace) -> int:
    """Each workload in its own process, so peak RSS is the workload's own."""
    records = []
    status = 0
    for name in WORKLOADS:
        command = [
            sys.executable, __file__, "--workload", name,
            "--seed", str(arguments.seed), "--seconds", str(arguments.seconds),
            "--trace", str(arguments.trace),
        ] + (["--quick"] if arguments.quick else [])
        completed = subprocess.run(command, check=False)
        status = status or completed.returncode
        path = record_path(name, arguments.trace)
        if completed.returncode == 0:
            records.append(json.loads(path.read_text()))
    target = record_path(f"all.seed{arguments.seed}", arguments.trace)
    target.write_text(json.dumps({"records": records}, indent=1))
    print(f"# wrote {target.relative_to(ROOT)}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=sorted(WORKLOADS))
    which.add_argument("--all", action="store_true", help="every workload in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--traced", dest="trace", action="store_const", const=1,
        help="same as --trace 1",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="smoke mode: tiny inputs, one pass, timings not representative",
    )
    arguments = parser.parse_args()
    prepare_environment()
    if arguments.seconds is None:
        arguments.seconds = float(load_contract()["run_seconds"])
    if arguments.all:
        return run_all(arguments)

    record = run_workload(
        arguments.workload, arguments.seed, arguments.seconds,
        bool(arguments.trace), arguments.quick,
    )
    print_record(record)
    path = record_path(arguments.workload, arguments.trace)
    path.write_text(json.dumps(record, indent=1))
    print(
        json.dumps(
            {
                "correct": record["failed"] == 0,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": {
                    name: {"value": entry["value"], "unit": entry["unit"]}
                    for name, entry in record["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
