"""Harness contract tests.  Run with ``python -m pytest bench/tests -q``.

The workload runs use ``--quick`` (tiny inputs, one pass), so they check
the shape of what is printed, not the numbers.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from functools import lru_cache

import pytest

import compare
from harness import BENCH_DIR, ROOT, SpanTracer, percentile, quartiles
from run import WORKLOADS

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

#: Counts that must repeat exactly for a seed.
EXACT_COUNTERS = (
    "core.inferred_rows",
    "core.model_table_rows",
    "sql.statements",
    "engine.partitions_scanned",
    "engine.partitions_pruned",
    "engine.spill_bytes",
    "engine.spill_partitions",
    "engine.udf_rows",
    "strategies.transfer_bytes",
)


def run_quick(workload: str, trace: int, seed: int = 1) -> dict:
    completed = subprocess.run(
        [
            sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", str(seed), "--trace", str(trace), "--quick",
        ],
        capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    result["stdout"] = completed.stdout
    result["record"] = json.loads(
        (BENCH_DIR / "out" / f"{workload}.{'layers' if trace else 'e2e'}.json").read_text()
    )
    return result


cached_quick = lru_cache(maxsize=None)(run_quick)


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------
def test_contract_names_and_units():
    names = [
        spec["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for spec in CONTRACT[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for spec in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert UNIT.fullmatch(spec["unit"]), spec
        assert spec["better"] in ("lower", "higher")
    assert all(0 < spec["bound"] <= 0.25 for spec in CONTRACT["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        spec for spec in CONTRACT["end_to_end"] if spec["name"] == "setup_s"
    ).items()
    assert [w["name"] for w in CONTRACT["workloads"]] == list(WORKLOADS)
    assert CONTRACT["paths"] == ["bench"]


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    result = cached_quick(workload, trace)
    assert set(result) - {"stdout", "record"} == {
        "correct", "attempted", "failed", "metrics",
    }
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {
        spec["name"]: spec["unit"]
        for spec in CONTRACT["per_layer" if trace else "end_to_end"]
    }
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    record = result["record"]
    for key in ("git_sha", "host", "seed", "op_list_hash", "op_count"):
        assert key in record
    assert {"nproc", "python", "numpy", "blas"} <= set(record["host"])
    assert "NOT representative" in result["stdout"]
    if not trace:
        for name, metric in result["metrics"].items():
            assert metric["value"] > 0, name
            assert re.search(rf"^\s+{re.escape(name)}\s+\S+\s+{metric['unit']}\s", result["stdout"], re.M)
    else:
        assert (BENCH_DIR / "out" / f"{workload}.trace.json").is_file()


def test_each_workload_enters_the_layer_it_was_chosen_for():
    def layers(workload):
        return {n: m["value"] for n, m in cached_quick(workload, 1)["metrics"].items()}

    assert layers("collab_bind")["strategies.tight-op.loading_share"] >= 0.7
    assert layers("collab_bind")["core.inferred_rows"] == 0
    assert layers("collab_tight")["core.inferred_rows"] > 0
    udf = layers("collab_udf")
    assert all(value == 0 for name, value in udf.items() if name.startswith("core."))
    assert udf["strategies.transfer_bytes"] > 0
    assert layers("tpch_scan")["engine.spill_bytes"] == 0
    assert layers("tpch_join_spill")["engine.spill_bytes"] > 0
    assert layers("reload_cold")["storage.save_s"] > 0
    assert layers("serve_rw")["serve.wire_ms"] > 0


@pytest.mark.parametrize("workload", ("collab_tight", "tpch_join_spill"))
def test_same_seed_same_op_list_and_exact_counters(workload):
    first = cached_quick(workload, 1)
    again = run_quick(workload, 1)
    assert first["record"]["op_list_hash"] == again["record"]["op_list_hash"]
    for name in EXACT_COUNTERS:
        assert first["metrics"][name]["value"] == again["metrics"][name]["value"], name
    other = cached_quick(workload, 1, seed=2)
    assert other["record"]["op_list_hash"] != first["record"]["op_list_hash"] or (
        workload.startswith("tpch")  # same SQL text; the data differs
    )


def test_refuses_to_run_without_the_program(tmp_path):
    """Only BENCHMARK.json and bench/: no result line, non-zero exit."""
    import shutil

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    completed = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tpch_scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


# ----------------------------------------------------------------------
# Statistics and spans
# ----------------------------------------------------------------------
def test_percentile_needs_ten_samples_beyond():
    assert percentile(list(range(1000)), 0.99) == 989
    assert percentile(list(range(100)), 0.9) == 89
    with pytest.raises(ValueError, match="need 10"):
        percentile(list(range(999)), 0.99)
    with pytest.raises(ValueError):
        percentile(list(range(30)), 0.9)


def test_quartiles_match_statistics_quantiles():
    import statistics

    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6]
    assert list(quartiles(values)) == statistics.quantiles(values, n=4)
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_span_self_time_excludes_children_and_wrapping_is_undone():
    import types

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        Layer.inner()

    Layer = types.SimpleNamespace(inner=inner, outer=outer)
    tracer = SpanTracer()
    original = Layer.inner
    tracer.wrap(Layer, "inner", "layer.inner")
    tracer.wrap(Layer, "outer", "layer.outer")
    with tracer.span("op.x", op=7):
        Layer.outer()
    tracer.unwrap_all()
    assert Layer.inner is original
    totals = tracer.totals()
    assert totals["layer.inner"]["calls"] == 1
    assert totals["layer.outer"]["seconds"] >= 0.03
    assert 0.01 <= totals["layer.outer"]["self_seconds"] < 0.02
    assert [span[4] for span in tracer.spans] == [7, 7, 7]  # children inherit the op
    assert [span[3] for span in tracer.spans] == [-1, 0, 1]


# ----------------------------------------------------------------------
# compare.py
# ----------------------------------------------------------------------
def test_compare_verdicts():
    steady = {"value": 1.0, "median": 1.0, "q1": 0.99, "q3": 1.01, "n": 20}
    assert compare.verdict(steady, {**steady, "value": 1.05}, "lower", 0.1)[1] == "ok"
    assert compare.verdict(steady, {**steady, "value": 1.2}, "lower", 0.1)[1] == "worse"
    assert compare.verdict(steady, {**steady, "value": 0.8}, "higher", 0.1)[1] == "worse"
    assert compare.verdict(steady, {**steady, "value": 0.8}, "lower", 0.1)[1] == "ok"
    noisy = {"value": 1.0, "median": 1.0, "q1": 0.9, "q3": 1.1, "n": 20}
    assert compare.verdict(steady, noisy, "lower", 0.1)[1] == "unresolved"
    assert compare.verdict(steady, {**noisy, "n": 3}, "lower", 0.1)[1] == "ok"
    assert compare.verdict(steady, {"value": 1.0}, "lower", 0.1)[1] == "ok"


def test_compare_exit_code(tmp_path, capsys):
    record = cached_quick("tpch_scan", 0)["record"]
    slower = json.loads(json.dumps(record))
    slower["metrics"]["pass_s"]["value"] *= 2
    base, change = tmp_path / "a.json", tmp_path / "b.json"
    base.write_text(json.dumps(record))
    change.write_text(json.dumps({"records": [slower]}))
    assert compare.main([str(base), str(base)]) == 0
    assert compare.main([str(base), str(change)]) == 1
    assert "worse" in capsys.readouterr().out


# ----------------------------------------------------------------------
# The server child
# ----------------------------------------------------------------------
CHILD = ["--scale", "1", "--seed", "1", "--events", "10"]


def test_server_child_is_reaped_on_success():
    from workloads.serve import Connection, ServerChild, encode

    child = ServerChild(CHILD)
    connection = Connection(child.port)
    _, reply = connection.request(encode("SELECT count(*) FROM events"))
    connection.close()
    assert reply["ok"] and reply["rows"] == [[10]]
    report = child.stop()
    assert report["peak_rss_kb"] > 0
    assert child.process.returncode == 0


def test_server_child_is_reaped_on_failure():
    from workloads.serve import ServerChild

    with pytest.raises(RuntimeError, match="exited with code"):
        ServerChild(["--scale", "not-a-number"])


def test_server_child_is_reaped_on_timeout(monkeypatch):
    import subprocess as real

    from workloads import serve

    started = []
    popen = real.Popen

    def recording(*args, **kwargs):
        started.append(popen(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(serve.subprocess, "Popen", recording)
    with pytest.raises(TimeoutError):
        serve.ServerChild(CHILD, ready_timeout_s=0.01)
    assert started[0].returncode is not None  # killed and waited for
