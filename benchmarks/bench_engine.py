"""Engine micro-benchmarks + the vectorization ablation.

DESIGN.md's design decision 1: the engine evaluates expressions over
numpy column vectors (ClickHouse-style).  ``test_vectorized_vs_row_at_a_time``
ablates this against a straightforward Python row interpreter running the
same filter+aggregate workload — the vectorized engine must win by a wide
margin, which is what makes SQL-side inference competitive at all.
"""

import json
import os
import pathlib
import time

import numpy as np
import pytest

from repro.engine import Database


ROWS = 50_000

#: Machine-readable sidecar at the repo root recording the morsel
#: parallelism scenarios (workers=1 vs workers=4 on identical data).
#: CI regenerates it on every run (``--quick``); the committed copy
#: holds the numbers from the last local full run.
BENCH_SIDECAR = pathlib.Path(__file__).resolve().parent.parent / (
    "BENCH_engine.json"
)


def _record_scenario(name: str, payload: dict) -> None:
    data: dict = {}
    if BENCH_SIDECAR.exists():
        try:
            data = json.loads(BENCH_SIDECAR.read_text())
        except (ValueError, OSError):
            data = {}
    data["cpus"] = os.cpu_count()
    data.setdefault("scenarios", {})[name] = payload
    BENCH_SIDECAR.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _best_of(repeats: int, fn) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


@pytest.fixture(scope="module")
def db():
    rng = np.random.default_rng(0)
    database = Database()
    database.create_table_from_dict(
        "t",
        {
            "k": rng.integers(0, 1000, ROWS),
            "v": rng.normal(size=ROWS),
            "g": rng.integers(0, 50, ROWS),
        },
    )
    database.create_table_from_dict(
        "s", {"k": np.arange(1000), "w": rng.normal(size=1000)}
    )
    return database


def test_filter_scan(benchmark, db):
    result = benchmark(lambda: db.execute("SELECT count(*) FROM t WHERE v > 0.5"))
    assert result.scalar() > 0


def test_hash_join(benchmark, db):
    result = benchmark(
        lambda: db.execute(
            "SELECT count(*) FROM t, s WHERE t.k = s.k"
        )
    )
    assert result.scalar() == ROWS


def test_group_by(benchmark, db):
    result = benchmark(
        lambda: db.execute("SELECT g, sum(v), count(*) FROM t GROUP BY g")
    )
    assert result.num_rows == 50


def test_sort_limit(benchmark, db):
    result = benchmark(
        lambda: db.execute("SELECT k FROM t ORDER BY v DESC LIMIT 10")
    )
    assert result.num_rows == 10


def _parallel_pair(tables: dict, **kwargs) -> tuple[Database, Database]:
    serial = Database(workers=1, **kwargs)
    parallel = Database(workers=4, **kwargs)
    for db in (serial, parallel):
        for name, columns in tables.items():
            db.create_table_from_dict(name, dict(columns))
    return serial, parallel


def test_parallel_relational_pipeline(quick_mode):
    """Workers=4 vs workers=1 over the same filter/join/group pipeline.

    On a single-core host numpy morsels cannot overlap, so no speedup
    floor is asserted here — the recorded number documents the host.
    Result equality across worker counts IS asserted (the contract the
    differential suite pins at small scale).
    """
    rows = 30_000 if quick_mode else 200_000
    rng = np.random.default_rng(1)
    tables = {
        "t": {
            "k": rng.integers(0, 1000, rows),
            "v": rng.normal(size=rows),
            "g": rng.integers(0, 50, rows),
        },
        "s": {"k": np.arange(1000), "w": rng.normal(size=1000)},
    }
    serial, parallel = _parallel_pair(tables)
    sql = (
        "SELECT g, count(*), sum(v) FROM t, s "
        "WHERE t.k = s.k AND v > -1.0 GROUP BY g"
    )

    def rounded(rows):
        # Partial-aggregate merges re-associate float addition, so sums
        # agree to rounding (the differential suite's comparison), not
        # to the last ulp.
        return sorted(
            tuple(
                round(float(value), 6)
                if isinstance(value, (float, np.floating))
                else int(value)
                for value in row
            )
            for row in rows
        )

    assert rounded(serial.query(sql)) == rounded(parallel.query(sql))
    serial_s = _best_of(3, lambda: serial.execute(sql))
    parallel_s = _best_of(3, lambda: parallel.execute(sql))
    _record_scenario(
        "relational_pipeline",
        {
            "rows": rows,
            "sql": sql,
            "workers1_seconds": serial_s,
            "workers4_seconds": parallel_s,
            "speedup": serial_s / parallel_s,
            "identical_results": True,
        },
    )
    parallel.close()
    serial.close()


def test_parallel_udf_latency_bound(quick_mode, monkeypatch):
    """The >=2x scenario: a latency-bound UDF (per-row stall, GIL
    released) overlaps across morsel workers even on one core.

    This is the regime the paper's DB-UDF strategy lives in — per-batch
    model inference dominated by accelerator/IO latency rather than
    Python compute — and where 4 workers must beat 1 by >=2x."""
    from repro.engine import udf as udf_module
    from repro.engine.udf import BatchUdf
    from repro.storage.schema import DataType

    monkeypatch.setattr(udf_module, "UDF_MORSEL_ROWS", 64)
    rows = 800 if quick_mode else 2000
    per_row_sleep = 5e-5

    def stall_udf():
        def fn(values):
            time.sleep(len(values) * per_row_sleep)
            return values * 2.0

        return BatchUdf(
            name="stall", fn=fn, return_dtype=DataType.FLOAT64
        )

    tables = {"t": {"x": [float(i) for i in range(rows)]}}
    serial, parallel = _parallel_pair(tables)
    serial.register_udf(stall_udf())
    parallel.register_udf(stall_udf())
    sql = "SELECT sum(stall(x)) FROM t"
    assert serial.execute(sql).scalar() == parallel.execute(sql).scalar()
    serial_s = _best_of(2, lambda: serial.execute(sql))
    parallel_s = _best_of(2, lambda: parallel.execute(sql))
    speedup = serial_s / parallel_s
    _record_scenario(
        "udf_latency_bound",
        {
            "rows": rows,
            "per_row_stall_seconds": per_row_sleep,
            "sql": sql,
            "workers1_seconds": serial_s,
            "workers4_seconds": parallel_s,
            "speedup": speedup,
            "identical_results": True,
        },
    )
    parallel.close()
    serial.close()
    assert speedup >= 2.0, f"latency-bound morsels only reached {speedup:.2f}x"


def test_mask_free_kernels(quick_mode):
    """Dataflow-proven NULL-free columns skip per-batch mask derivation.

    For float columns without an explicit validity mask the engine
    otherwise derives NULL positions with an ``np.isnan`` scan per
    column per batch; when statistics prove the column NULL-free the
    folding pass annotates plan nodes and the fused kernels read the
    data array directly.  Folding on vs ``fold_constants=False`` over
    identical all-non-null data isolates exactly that saving."""
    from repro.engine.logical import walk_plan

    rows = 100_000 if quick_mode else 2_000_000
    rng = np.random.default_rng(7)
    columns = {"a": rng.normal(size=rows), "b": rng.normal(size=rows)}
    folded = Database()
    unfolded = Database(fold_constants=False)
    for db in (folded, unfolded):
        db.create_table_from_dict("m", dict(columns))
    # Filter-dominated: the per-batch mask derivation is a fixed share
    # of the full-column scan, so this is where skipping it shows up.
    sql = "SELECT a + b FROM m WHERE a > 2.0"

    plan = folded.explain(sql).plan
    annotated = {
        pair
        for node in walk_plan(plan)
        for pair in getattr(node, "nonnull_columns", ())
    }
    assert ("m", "a") in annotated, "fold pass did not prove a NULL-free"

    def rounded(result):
        return sorted(round(float(value), 9) for (value,) in result.rows())

    assert rounded(folded.execute(sql)) == rounded(unfolded.execute(sql))
    fold_on_s = _best_of(7, lambda: folded.execute(sql))
    fold_off_s = _best_of(7, lambda: unfolded.execute(sql))
    _record_scenario(
        "mask_free_kernels",
        {
            "rows": rows,
            "sql": sql,
            "fold_on_seconds": fold_on_s,
            "fold_off_seconds": fold_off_s,
            "speedup": fold_off_s / fold_on_s,
            "identical_results": True,
        },
    )
    print(
        f"\nmask-free: fold_on={fold_on_s * 1e3:.2f}ms, "
        f"fold_off={fold_off_s * 1e3:.2f}ms, "
        f"speedup={fold_off_s / fold_on_s:.2f}x"
    )
    folded.close()
    unfolded.close()


def _interpret(expression, row):
    """A tuple-at-a-time (Volcano-style) expression interpreter: what the
    engine would do per row without vectorization."""
    from repro.sql.ast_nodes import BinaryOp, ColumnRef, Literal

    if isinstance(expression, Literal):
        return expression.value
    if isinstance(expression, ColumnRef):
        return row[expression.name]
    if isinstance(expression, BinaryOp):
        left = _interpret(expression.left, row)
        right = _interpret(expression.right, row)
        op = expression.op
        if op == ">":
            return left > right
        if op == "+":
            return left + right
        raise NotImplementedError(op)
    raise NotImplementedError(type(expression))


def _row_at_a_time_filter_sum(rows, predicate):
    total = 0.0
    count = 0
    for row in rows:
        if _interpret(predicate, row):
            total += row["v"]
            count += 1
    return total, count


def test_vectorized_vs_row_at_a_time(benchmark, db):
    """The vectorized engine must beat a Python row interpreter by >5x."""
    import time

    from repro.sql.parser import parse_statement

    table = db.table("t")
    names = table.schema.column_names
    rows = [dict(zip(names, row)) for row in table.iter_rows()]
    predicate = parse_statement("SELECT 1 FROM t WHERE v > 0.5").where

    started = time.perf_counter()
    _row_at_a_time_filter_sum(rows, predicate)
    row_seconds = time.perf_counter() - started

    def vectorized():
        return db.execute(
            "SELECT sum(v), count(*) FROM t WHERE v > 0.5"
        )

    result = benchmark(vectorized)
    assert result.num_rows == 1
    vector_seconds = benchmark.stats.stats.mean
    print(
        f"\nablation: row-at-a-time={row_seconds * 1e3:.1f}ms, "
        f"vectorized={vector_seconds * 1e3:.1f}ms, "
        f"speedup={row_seconds / vector_seconds:.1f}x"
    )
    assert vector_seconds * 5 < row_seconds


def test_dl2sql_single_inference(benchmark, bench_dataset):
    """Microbenchmark: one SQL forward pass of the student model."""
    from repro.core import Dl2SqlModel, PreJoin, compile_model
    from repro.tensor import build_student_cnn

    model = build_student_cnn(
        input_shape=bench_dataset.config.keyframe_shape, num_classes=4
    )
    compiled = compile_model(model, prejoin=PreJoin.FOLD)
    database = Database()
    runner = Dl2SqlModel(compiled)
    runner.load(database)
    keyframe = bench_dataset.sample_keyframes(1)[0]

    result = benchmark(lambda: runner.infer(database, keyframe))
    assert result.probabilities.sum() == pytest.approx(1.0)


def test_tensor_single_inference(benchmark, bench_dataset):
    """The numpy forward pass, for comparison with the SQL pathway."""
    from repro.tensor import build_student_cnn

    model = build_student_cnn(
        input_shape=bench_dataset.config.keyframe_shape, num_classes=4
    )
    keyframe = bench_dataset.sample_keyframes(1)[0]
    out = benchmark(lambda: model.forward(keyframe))
    assert out.shape == (4,)
