"""Command-line interface: experiments, a demo, and an interactive shell.

Usage::

    python -m repro list                     # show available experiments
    python -m repro run fig8 [fig14 ...]     # regenerate paper artifacts
    python -m repro demo                     # quickstart parity demo
    python -m repro shell [--scale N]        # SQL shell on the IoT dataset
    python -m repro trace [--strategy S]     # span tree of one traced query
    python -m repro stats [--format F]       # metrics after a sample workload
    python -m repro lint QUERY_OR_FILE ...   # static analysis, no execution
    python -m repro chaos [--quick]          # seeded fault-injection report
    python -m repro serve [--port P]         # line-JSON SQL server
    python -m repro loadgen [--quick]        # serving-layer load benchmark
    python -m repro tpch [--scale-factor F]  # TPC-H suite under a budget

``-v``/``-vv`` raises log verbosity (INFO/DEBUG) for any subcommand.

Exit codes are uniform across subcommands: 0 on success, 1 on runtime
failures (and on lint warnings under ``--strict``), 2 on parse or
semantic errors in the input SQL.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Sequence

from repro.errors import ReproError, SemanticError, SqlError
from repro.obs.log import setup_logging

#: Experiment registry: id -> (description, runner factory).
EXPERIMENTS: dict[str, tuple[str, str]] = {
    "table4": ("Table IV: storage overheads", "exp_storage"),
    "fig8": ("Fig. 8: overall performance", "exp_overall"),
    "table5": ("Table V: selectivity sweep", "exp_selectivity"),
    "table6": ("Table VI: model-depth sweep", "exp_depth"),
    "fig9": ("Fig. 9: CNN block costs", "exp_blocks"),
    "fig10": ("Fig. 10: SQL clause costs", "exp_sql_profile"),
    "fig11": ("Fig. 11: pre-join strategies", "exp_prejoin"),
    "fig12": ("Fig. 12/13: cost model accuracy", "exp_cost_model"),
    "fig14": ("Fig. 14: hint effectiveness", "exp_hints"),
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'A Comparative Study of in-Database Inference "
            "Approaches' (ICDE 2022)"
        ),
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="-v for INFO, -vv for DEBUG logging",
    )
    subparsers = parser.add_subparsers(dest="command")

    subparsers.add_parser("list", help="list available experiments")

    run_parser = subparsers.add_parser("run", help="run experiments by id")
    run_parser.add_argument("ids", nargs="+", choices=sorted(EXPERIMENTS))

    subparsers.add_parser("demo", help="compile a CNN to SQL and verify parity")

    shell_parser = subparsers.add_parser(
        "shell", help="interactive SQL shell over the generated IoT dataset"
    )
    shell_parser.add_argument("--scale", type=int, default=2)
    shell_parser.add_argument("--seed", type=int, default=42)

    trace_parser = subparsers.add_parser(
        "trace",
        help="run one query with tracing enabled and print its span tree",
    )
    trace_parser.add_argument(
        "--sql",
        default=None,
        help="SQL to trace (default: a representative join+aggregate)",
    )
    trace_parser.add_argument(
        "--strategy",
        choices=("sql", "independent", "loose", "tight", "tight-op"),
        default="sql",
        help=(
            "'sql' traces a plain query; the other values run one "
            "collaborative query under that strategy"
        ),
    )
    trace_parser.add_argument(
        "--type",
        dest="query_type",
        type=int,
        choices=(1, 2, 3, 4),
        default=3,
        help="collaborative query type (Table I) for strategy traces",
    )
    trace_parser.add_argument("--selectivity", type=float, default=0.2)
    trace_parser.add_argument("--scale", type=int, default=1)
    trace_parser.add_argument("--seed", type=int, default=42)

    stats_parser = subparsers.add_parser(
        "stats",
        help="run a sample workload and dump the metrics registry",
    )
    stats_parser.add_argument(
        "--format", choices=("json", "prometheus"), default="json"
    )
    stats_parser.add_argument("--scale", type=int, default=1)
    stats_parser.add_argument("--seed", type=int, default=42)
    stats_parser.add_argument(
        "--udf-cache-mb",
        type=int,
        default=16,
        help=(
            "inference-cache budget in MiB for the sample workload "
            "(0 disables the cache)"
        ),
    )

    lint_parser = subparsers.add_parser(
        "lint",
        help="statically check SQL (text, .sql, or .py files) without executing",
    )
    lint_parser.add_argument(
        "sources",
        nargs="+",
        help=(
            "SQL text, a .sql file (';'-separated statements), or a .py "
            "file (SQL-looking string literals are extracted)"
        ),
    )
    lint_parser.add_argument(
        "--format", choices=("text", "json"), default="text"
    )
    lint_parser.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 when any warning is reported",
    )

    chaos_parser = subparsers.add_parser(
        "chaos",
        help=(
            "run the sample workload under seeded fault plans and report "
            "survived/failed/hung"
        ),
    )
    chaos_parser.add_argument(
        "--quick",
        action="store_true",
        help="first three plans, one repetition (the CI smoke mode)",
    )
    chaos_parser.add_argument(
        "--plan",
        default=None,
        help=(
            "run one fault-plan string (e.g. "
            "'seed=7; udf.batch_call:transient@0.5#3') instead of the "
            "built-in set"
        ),
    )
    chaos_parser.add_argument("--scale", type=int, default=1)
    chaos_parser.add_argument("--seed", type=int, default=42)
    chaos_parser.add_argument(
        "--timeout",
        type=float,
        default=5.0,
        help="per-query deadline in seconds (default 5)",
    )
    chaos_parser.add_argument(
        "--sessions",
        type=int,
        default=1,
        help=(
            "run the workload through N concurrent server sessions "
            "instead of one embedded database (default 1)"
        ),
    )

    serve_parser = subparsers.add_parser(
        "serve",
        help="serve the IoT dataset over a line-JSON TCP socket",
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=7878)
    serve_parser.add_argument("--scale", type=int, default=1)
    serve_parser.add_argument("--seed", type=int, default=42)
    serve_parser.add_argument(
        "--max-concurrent",
        type=int,
        default=8,
        help="query slots before admission queues (default 8)",
    )
    serve_parser.add_argument(
        "--max-queue",
        type=int,
        default=16,
        help="queued admissions before shedding R006 (default 16)",
    )

    loadgen_parser = subparsers.add_parser(
        "loadgen",
        help=(
            "run the steady + overload serving scenarios and write "
            "BENCH_serve.json"
        ),
    )
    loadgen_parser.add_argument(
        "--quick",
        action="store_true",
        help="trim to 4 sessions x 12 requests (the CI smoke mode)",
    )
    loadgen_parser.add_argument("--sessions", type=int, default=8)
    loadgen_parser.add_argument("--requests", type=int, default=30)
    loadgen_parser.add_argument("--scale", type=int, default=1)
    loadgen_parser.add_argument("--seed", type=int, default=1234)
    loadgen_parser.add_argument(
        "--timeout",
        type=float,
        default=10.0,
        help="per-query deadline in seconds (default 10)",
    )
    loadgen_parser.add_argument(
        "--fault-plan",
        default=None,
        help=(
            "fault-plan string routed through every session "
            "(e.g. 'seed=7; udf.batch_call:transient@0.5#3')"
        ),
    )
    loadgen_parser.add_argument(
        "--output",
        default="BENCH_serve.json",
        help="report sidecar path (default BENCH_serve.json)",
    )

    tpch_parser = subparsers.add_parser(
        "tpch",
        help=(
            "generate the TPC-H workload and run the query suite under a "
            "memory budget"
        ),
    )
    tpch_parser.add_argument(
        "--scale-factor",
        type=float,
        default=0.01,
        help="TPC-H scale factor in (0, 1] (default 0.01)",
    )
    tpch_parser.add_argument("--seed", type=int, default=7)
    tpch_parser.add_argument(
        "--memory-mb",
        type=float,
        default=None,
        help=(
            "per-query memory budget in MiB; joins too large for a "
            "quarter of it spill to disk (default: unbudgeted)"
        ),
    )
    tpch_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the per-query report as JSON instead of a table",
    )

    args = parser.parse_args(argv)
    setup_logging(args.verbose)
    if args.command is None:
        parser.print_help()
        return 2
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args.ids)
    if args.command == "demo":
        return _cmd_demo()
    if args.command == "shell":
        return _cmd_shell(args.scale, args.seed)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "stats":
        return _cmd_stats(args)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "loadgen":
        return _cmd_loadgen(args)
    if args.command == "tpch":
        return _cmd_tpch(args)
    return 2  # pragma: no cover - argparse guards this


def _cmd_list() -> int:
    width = max(len(k) for k in EXPERIMENTS)
    for key in sorted(EXPERIMENTS):
        description, module = EXPERIMENTS[key]
        print(f"{key:<{width}}  {description}  (repro.experiments.{module})")
    return 0


def _cmd_run(ids: Sequence[str]) -> int:
    import importlib

    for experiment_id in ids:
        _, module_name = EXPERIMENTS[experiment_id]
        module = importlib.import_module(f"repro.experiments.{module_name}")
        print(f"== {experiment_id} ==")
        module.main()
    return 0


def _cmd_demo() -> int:
    import numpy as np

    from repro.core import Dl2SqlModel, PreJoin, compile_model
    from repro.engine import Database
    from repro.tensor import build_student_cnn

    model = build_student_cnn(input_shape=(1, 12, 12), num_classes=4)
    compiled = compile_model(model, prejoin=PreJoin.FOLD)
    db = Database()
    runner = Dl2SqlModel(compiled)
    runner.load(db)
    image = np.random.default_rng(0).normal(size=(1, 12, 12))
    result = runner.infer(db, image)
    expected = model.forward(image)
    ok = np.allclose(result.probabilities, expected, atol=1e-9)
    print(f"model: {model}")
    print(f"SQL statements: {len(compiled.steps)}, "
          f"tables: {len(compiled.static_tables)}")
    print(f"SQL inference  : {np.round(result.probabilities, 5)}")
    print(f"numpy forward  : {np.round(expected, 5)}")
    print(f"parity: {'OK' if ok else 'MISMATCH'}")
    return 0 if ok else 1


#: Default query for ``repro trace --strategy sql``: joins two tables and
#: aggregates, so the span tree shows scan/join/groupby operators.
_TRACE_SQL = (
    "SELECT f.pattern, count(*) AS n FROM video v "
    "INNER JOIN fabric f ON v.transID = f.transID "
    "GROUP BY f.pattern ORDER BY f.pattern"
)


def _cmd_trace(args) -> int:
    from repro.engine import Database
    from repro.obs.trace import Tracer, format_span_tree
    from repro.workload.dataset import DatasetConfig, generate_dataset

    tracer = Tracer(enabled=True)
    dataset = generate_dataset(
        DatasetConfig(scale=args.scale, seed=args.seed)
    )
    db = Database(tracer=tracer)
    dataset.install(db)

    try:
        if args.strategy == "sql":
            db.execute(args.sql or _TRACE_SQL)
        else:
            _run_traced_strategy(db, dataset, args)
    except (SqlError, SemanticError) as exc:
        # Bad input SQL is exit 2 everywhere (shared with `repro lint`);
        # runtime failures below stay exit 1.
        code = getattr(exc, "code", None)
        prefix = f"error: {code}: " if code else "error: "
        print(f"{prefix}{exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    trace = tracer.last_trace()
    if trace is None:
        print("no trace recorded", file=sys.stderr)
        return 1
    print(format_span_tree(trace))
    return 0


def _run_traced_strategy(db, dataset, args) -> None:
    from repro.strategies.base import QueryType
    from repro.strategies.independent import IndependentStrategy
    from repro.strategies.loose import LooseStrategy
    from repro.strategies.tight import TightStrategy
    from repro.workload.models_repo import build_repository
    from repro.workload.queries import QueryGenerator

    strategy = {
        "independent": IndependentStrategy,
        "loose": LooseStrategy,
        "tight": TightStrategy,
        "tight-op": lambda: TightStrategy(optimized=True),
    }[args.strategy]()
    repository = build_repository(
        dataset, num_tasks=4, teacher_depth=3, calibration_samples=8
    )
    query = QueryGenerator(dataset).make_query(
        QueryType(args.query_type), args.selectivity
    )
    tasks = {}
    for role in query.udf_roles:
        task = repository.pick(role)
        strategy.bind_task(db, task)
        tasks[role] = task
    # Binding (model deserialization, DL2SQL warm-up) produces its own
    # traces; drop them so the printed tree is the query itself.
    db.tracer.reset()
    strategy.run(db, query, tasks)


def _cmd_stats(args) -> int:
    import numpy as np

    from repro.engine import BatchUdf, Database
    from repro.obs.metrics import get_registry
    from repro.storage.schema import DataType
    from repro.workload.dataset import DatasetConfig, generate_dataset

    registry = get_registry()
    registry.reset()
    dataset = generate_dataset(
        DatasetConfig(scale=args.scale, seed=args.seed)
    )
    db = Database(
        metrics=registry,
        udf_cache_bytes=args.udf_cache_mb * (1 << 20),
    )
    dataset.install(db)
    # A cheap stand-in nUDF: repeats of the same query surface the
    # inference-cache counters (udf_cache_hits / udf_cache_misses) next
    # to the plan-cache ones.
    db.register_udf(
        BatchUdf(
            name="amount_bucket",
            fn=lambda amounts: np.floor(np.asarray(amounts) / 1000.0),
            return_dtype=DataType.FLOAT64,
        )
    )
    samples = (
        _TRACE_SQL,
        "SELECT count(*) FROM video",
        "SELECT count(*) FROM orders WHERE amount > 5000",
        "SELECT d.deviceID, count(*) FROM device d "
        "INNER JOIN fabric f ON f.transID = d.transID GROUP BY d.deviceID",
        "SELECT amount_bucket(amount), count(*) FROM orders "
        "GROUP BY amount_bucket(amount)",
    )
    try:
        for sql in samples:
            for _ in range(3):  # repeats exercise the cache counters
                db.execute(sql)
    finally:
        db.close()
    _stats_fallback_demo(registry, dataset)
    if args.format == "prometheus":
        print(db.metrics.to_prometheus(), end="")
    else:
        print(db.metrics.to_json())
    return 0


def _stats_fallback_demo(registry, dataset) -> None:
    """One degraded collaborative query, so the resilience counters
    (``strategy_fallbacks_total``, breaker metrics) show up in the dump.

    Runs the loose strategy against a permanently failing nUDF (injected
    at ``udf.batch_call``); the fallback chain degrades to independent
    processing, which evaluates the model outside the database and
    therefore survives.
    """
    from repro.engine import Database
    from repro.strategies import FallbackChain, IndependentStrategy, LooseStrategy
    from repro.strategies.base import QueryType
    from repro.workload.models_repo import build_task
    from repro.workload.queries import QueryGenerator

    db = Database(metrics=registry, fault_plan="udf.batch_call:permanent")
    dataset.install(db)
    task = build_task(
        dataset, "detect", teacher_depth=3, calibration_samples=4
    )
    chain = FallbackChain([LooseStrategy(), IndependentStrategy()])
    chain.bind_task(db, task)
    query = QueryGenerator(dataset).make_query(QueryType(3), 0.2)
    try:
        chain.run(db, query, {"detect": task})
    finally:
        db.close()


#: Statement prefixes the .py extractor treats as SQL worth linting.
_SQL_PREFIXES = ("SELECT", "EXPLAIN", "CREATE", "INSERT", "UPDATE", "DROP")


def _split_sql_statements(text: str) -> list[str]:
    """Split a .sql file on top-level ``;`` using real token positions
    (a naive string split would break on ``';'`` inside literals)."""
    from repro.sql import tokenize
    from repro.sql.tokens import TokenType

    pieces: list[str] = []
    start = 0
    for token in tokenize(text):
        at_boundary = (
            token.type is TokenType.PUNCTUATION and token.value == ";"
        ) or token.type is TokenType.EOF
        if not at_boundary:
            continue
        piece = text[start : token.position].strip()
        if piece:
            pieces.append(piece)
        start = token.position + 1
    return pieces


def _extract_sql_from_python(path: str) -> list[str]:
    """String literals in ``path`` that look like SQL statements."""
    import ast as python_ast

    with open(path, encoding="utf-8") as handle:
        tree = python_ast.parse(handle.read(), filename=path)
    found: list[str] = []
    for node in python_ast.walk(tree):
        if not isinstance(node, python_ast.Constant):
            continue
        if not isinstance(node.value, str):
            continue
        text = node.value.strip()
        if text.split(" ", 1)[0].upper() in _SQL_PREFIXES:
            found.append(text)
    return found


def _cmd_lint(args) -> int:
    import json
    import os

    from repro.analysis import analyze_query
    from repro.errors import SqlError as _SqlError

    documents = []
    had_error = False
    had_warning = False
    for source in args.sources:
        lenient = False  # .py-extracted strings may be SQL fragments
        if source.endswith(".py") and os.path.exists(source):
            try:
                statements = _extract_sql_from_python(source)
            except SyntaxError as exc:
                print(f"{source}: cannot parse python: {exc}", file=sys.stderr)
                had_error = True
                continue
            lenient = True
        elif source.endswith(".sql") and os.path.exists(source):
            with open(source, encoding="utf-8") as handle:
                text = handle.read()
            try:
                statements = _split_sql_statements(text)
            except _SqlError as exc:
                documents.append(
                    {
                        "source": source,
                        "sql": text,
                        "findings": [_parse_error_entry(exc)],
                    }
                )
                had_error = True
                continue
        else:
            statements = [source]
            source = "<sql>"
        for sql in statements:
            try:
                report = analyze_query(sql)
            except _SqlError as exc:
                if lenient:
                    continue  # not actually SQL; .py extraction guessed wrong
                documents.append(
                    {
                        "source": source,
                        "sql": sql,
                        "findings": [_parse_error_entry(exc)],
                    }
                )
                had_error = True
                continue
            had_error = had_error or bool(report.errors)
            had_warning = had_warning or bool(report.warnings)
            documents.append(
                {
                    "source": source,
                    "sql": sql,
                    "findings": [f.to_dict(sql) for f in report.findings],
                    "facts": [
                        {"column": name, **fact.to_dict()}
                        for name, fact in report.column_facts
                    ],
                }
            )

    if args.format == "json":
        print(json.dumps({"documents": documents}, indent=2))
    else:
        _print_lint_text(documents)

    if had_error:
        return 2
    if had_warning and args.strict:
        return 1
    return 0


def _parse_error_entry(exc) -> dict:
    return {"code": "E000", "severity": "error", "message": str(exc)}


def _print_lint_text(documents) -> None:
    total = 0
    for document in documents:
        findings = document["findings"]
        if not findings:
            continue
        print(f"-- {document['source']}: {document['sql']}")
        for finding in findings:
            total += 1
            location = ""
            if "line" in finding:
                location = f"{finding['line']}:{finding['column']}: "
            print(
                f"  {location}{finding['severity']} "
                f"{finding['code']}: {finding['message']}"
            )
    checked = len(documents)
    print(f"{checked} statement(s) checked, {total} finding(s)")


def _cmd_chaos(args) -> int:
    from repro.faults.chaos import run_chaos
    from repro.faults.injector import FaultPlan, FaultPlanError

    plans = None
    if args.plan is not None:
        try:
            plans = (FaultPlan.parse(args.plan),)
        except FaultPlanError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    report = run_chaos(
        plans,
        scale=args.scale,
        seed=args.seed,
        timeout_s=args.timeout,
        quick=args.quick,
        sessions=args.sessions,
    )
    print(report.to_text())
    return 0 if report.ok else 1


def _cmd_serve(args) -> int:
    from repro.serve.loadgen import _install_workload
    from repro.serve.net import serve_forever
    from repro.serve.server import Server, ServerConfig

    server = Server(
        ServerConfig(
            max_concurrent=args.max_concurrent,
            max_queue=args.max_queue,
        )
    )
    _install_workload(server, args.scale, args.seed)
    serve_forever(server, host=args.host, port=args.port)
    return 0


def _cmd_loadgen(args) -> int:
    import json

    from repro.serve.loadgen import LoadgenConfig, run_loadgen, write_sidecar

    report = run_loadgen(
        LoadgenConfig(
            sessions=args.sessions,
            requests_per_session=args.requests,
            seed=args.seed,
            scale=args.scale,
            timeout_s=args.timeout,
            fault_plan=args.fault_plan,
            quick=args.quick,
        )
    )
    path = write_sidecar(report, args.output)
    print(json.dumps(report["scenarios"], indent=2, sort_keys=True))
    overload = report["scenarios"]["overload"]
    print(
        f"wrote {path}: steady p50 "
        f"{report['scenarios']['steady']['p50_ms']}ms, overload shed "
        f"{overload['shed']}/{overload['requests']} "
        f"({overload['untyped_errors']} untyped)"
    )
    # The overload scenario is the point: a run that never shed and never
    # surfaced an untyped error proves nothing, so fail loudly in CI.
    return 1 if overload["untyped_errors"] else 0


def _cmd_tpch(args) -> int:
    import json
    import time

    from repro.engine import Database
    from repro.obs.metrics import MetricsRegistry
    from repro.workload.tpch import (
        SUITE_COUNTERS,
        TpchConfig,
        generate_tpch,
        run_suite,
    )

    started = time.perf_counter()
    data = generate_tpch(TpchConfig(scale_factor=args.scale_factor,
                                    seed=args.seed))
    generated = time.perf_counter() - started
    budget = (
        int(args.memory_mb * 1024 * 1024)
        if args.memory_mb is not None else None
    )
    db = Database(metrics=MetricsRegistry(), query_memory_bytes=budget)
    data.install(db)
    report = run_suite(db)

    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    sizes = {name: t.num_rows for name, t in data.tables.items()}
    print(
        f"generated SF {args.scale_factor} in {generated:.2f}s "
        f"(lineitem: {sizes['lineitem']:,} rows, "
        f"{data.tables['lineitem'].nbytes() / 1e6:.1f} MB resident)"
    )
    if budget is not None:
        print(f"query memory budget: {budget:,} bytes")
    header = ("query", "seconds", "rows", "scanned", "pruned",
              "spill parts", "spill bytes")
    rows = [header]
    for name, entry in report.items():
        rows.append((
            name,
            f"{entry['seconds']:.3f}",
            f"{int(entry['rows'])}",
            f"{int(entry['partitions_scanned_total'])}",
            f"{int(entry['partitions_pruned_total'])}",
            f"{int(entry['join_spill_partitions_total'])}",
            f"{int(entry['join_spill_bytes_total'])}",
        ))
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    for row in rows:
        print("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    totals = {
        counter: sum(entry[counter] for entry in report.values())
        for counter in SUITE_COUNTERS
    }
    print(
        f"total: {totals['partitions_pruned_total']:.0f} partitions pruned, "
        f"{totals['join_spill_bytes_total']:.0f} bytes spilled"
    )
    return 0


def _cmd_shell(scale: int, seed: int) -> int:
    from repro.engine import Database
    from repro.experiments.reporting import print_table
    from repro.workload.dataset import DatasetConfig, generate_dataset

    dataset = generate_dataset(DatasetConfig(scale=scale, seed=seed))
    db = Database()
    dataset.install(db)
    print(
        "IoT dataset loaded:",
        {name: t.num_rows for name, t in dataset.tables.items()},
    )
    print("Enter SQL (exit/quit to leave, \\d to list tables).")
    return run_shell(db, input_fn=input, output_fn=print)


def run_shell(
    db,
    input_fn: Callable[[str], str],
    output_fn: Callable[[str], None],
    max_rows: int = 40,
) -> int:
    """The shell loop, injectable for tests."""
    while True:
        try:
            line = input_fn("sql> ").strip()
        except (EOFError, KeyboardInterrupt):
            output_fn("")
            return 0
        if not line:
            continue
        if line.lower() in ("exit", "quit", "\\q"):
            return 0
        if line == "\\d":
            output_fn("tables: " + ", ".join(db.catalog.table_names()))
            output_fn("views : " + ", ".join(db.catalog.view_names()))
            continue
        try:
            result = db.execute(line.rstrip(";"))
        except ReproError as exc:
            output_fn(f"error: {exc}")
            continue
        if result.has_rows:
            rows = result.rows()
            if result.column_names == ["plan"]:
                # EXPLAIN output: the indentation is the tree structure,
                # so bypass the right-justifying table renderer.
                for (line,) in rows:
                    output_fn(line)
                continue
            shown = rows[:max_rows]
            from repro.experiments.reporting import format_table

            output_fn(format_table(result.column_names, shown))
            if len(rows) > max_rows:
                output_fn(f"... ({len(rows) - max_rows} more rows)")
        else:
            output_fn(result.message or f"ok ({result.affected_rows} rows)")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
