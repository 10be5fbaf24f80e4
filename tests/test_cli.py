"""CLI behaviour (list/run/demo/shell loop)."""

import pytest

from repro.cli import EXPERIMENTS, main, run_shell
from repro.engine import Database


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for key in EXPERIMENTS:
            assert key in out

    def test_no_command_shows_help(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out.lower()

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "nonsense"])

    def test_demo_parity(self, capsys):
        assert main(["demo"]) == 0
        assert "parity: OK" in capsys.readouterr().out

    def test_run_table4(self, capsys):
        # The cheapest experiment as a representative run.
        import repro.experiments.exp_storage as exp_storage

        original = exp_storage.main
        exp_storage.main = lambda: original(depths=(5,))
        try:
            assert main(["run", "table4"]) == 0
        finally:
            exp_storage.main = original
        assert "Table IV" in capsys.readouterr().out


class TestTraceCommand:
    def test_sql_trace_prints_lifecycle(self, capsys):
        assert main(["trace", "--scale", "1"]) == 0
        out = capsys.readouterr().out
        for stage in ("query", "parse", "plan", "optimize", "execute"):
            assert stage in out
        assert "operator:scan" in out
        assert "ms" in out

    def test_strategy_trace_has_phase_spans(self, capsys):
        assert main(["trace", "--scale", "1", "--strategy", "independent"]) == 0
        out = capsys.readouterr().out
        assert "strategy:DB-PyTorch" in out
        for phase in ("decompose", "db_subquery", "transfer", "inference",
                      "assemble"):
            assert phase in out
        assert "transfer_bytes=" in out

    def test_custom_sql(self, capsys):
        assert main(
            ["trace", "--scale", "1", "--sql", "SELECT count(*) FROM video"]
        ) == 0
        out = capsys.readouterr().out
        assert "sql=SELECT count(*) FROM video" in out


class TestLintCommand:
    def test_clean_sql_exit_zero(self, capsys):
        assert main(["lint", "SELECT a FROM t"]) == 0
        out = capsys.readouterr().out
        assert "1 statement(s) checked, 0 finding(s)" in out

    def test_warning_is_exit_zero_by_default(self, capsys):
        assert main(["lint", "SELECT * FROM t WHERE lower(g) = 'x'"]) == 0
        out = capsys.readouterr().out
        assert "warning L004" in out
        assert "1 finding(s)" in out

    def test_strict_turns_warnings_into_exit_one(self):
        assert (
            main(["lint", "--strict", "SELECT * FROM t WHERE lower(g) = 'x'"])
            == 1
        )

    def test_parse_error_exit_two(self, capsys):
        assert main(["lint", "SELECT FROM WHERE"]) == 2
        assert "E000" in capsys.readouterr().out

    def test_semantic_error_exit_two(self, capsys):
        assert main(["lint", "SELECT sum(*) FROM t"]) == 2
        assert "S012" in capsys.readouterr().out

    def test_sql_file_statements_split(self, tmp_path, capsys):
        script = tmp_path / "queries.sql"
        script.write_text(
            "SELECT a FROM t;\n"
            "SELECT x FROM u WHERE x = 'a;b' LIMIT 3;\n"
        )
        assert main(["lint", str(script)]) == 0
        assert "2 statement(s) checked" in capsys.readouterr().out

    def test_python_file_extraction(self, tmp_path, capsys):
        module = tmp_path / "example.py"
        module.write_text(
            'QUERY = "SELECT * FROM t WHERE lower(g) = \'x\'"\n'
            'NOT_SQL = "hello world"\n'
            'FRAGMENT = "SELECT ..."  # unparseable, skipped\n'
        )
        assert main(["lint", str(module)]) == 0
        out = capsys.readouterr().out
        assert "warning L004" in out
        assert "1 statement(s) checked, 1 finding(s)" in out

    def test_json_format(self, capsys):
        import json

        sql = "SELECT * FROM t WHERE lower(g) = 'x'"
        assert main(["lint", "--format", "json", sql]) == 0
        data = json.loads(capsys.readouterr().out)
        (document,) = data["documents"]
        assert document["source"] == "<sql>"
        assert document["sql"] == sql
        (finding,) = document["findings"]
        assert finding["code"] == "L004"
        assert finding["severity"] == "warning"
        assert finding["snippet"] == "lower(g) = 'x'"
        assert (finding["line"], finding["column"]) == (1, 23)
        span = finding["span"]
        assert sql[span["start"] : span["end"]] == "lower(g) = 'x'"

    def test_json_format_with_error(self, capsys):
        import json

        assert main(["lint", "--format", "json", "SELECT sum(*) FROM t"]) == 2
        data = json.loads(capsys.readouterr().out)
        (finding,) = data["documents"][0]["findings"]
        assert finding["code"] == "S012"
        assert finding["severity"] == "error"


class TestExitCodes:
    """0 success, 1 runtime failure, 2 parse/semantic errors."""

    def test_trace_semantic_error_exit_two(self, capsys):
        assert (
            main(["trace", "--scale", "1", "--sql", "SELECT nope FROM video"])
            == 2
        )
        assert "S001" in capsys.readouterr().err

    def test_trace_parse_error_exit_two(self, capsys):
        assert main(["trace", "--scale", "1", "--sql", "SELECT )) FROM"]) == 2

    def test_trace_ok_exit_zero(self):
        assert main(["trace", "--scale", "1"]) == 0


class TestStatsCommand:
    def test_json_output(self, capsys):
        import json

        assert main(["stats", "--scale", "1"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["queries_executed_total"]["value"] > 0
        assert data["plan_cache_hits_total"]["value"] > 0
        assert data["rows_scanned_total"]["value"] > 0

    def test_prometheus_output(self, capsys):
        assert main(["stats", "--scale", "1", "--format", "prometheus"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_queries_executed_total counter" in out
        assert "repro_rows_scanned_total" in out

    def test_udf_cache_counters_visible(self, capsys):
        import json

        assert main(
            ["stats", "--scale", "1", "--udf-cache-mb", "4"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        # The sample workload repeats a UDF query: the first run misses,
        # the two repeats hit.
        assert data["udf_cache_misses"]["value"] > 0
        assert (
            data["udf_cache_hits"]["value"]
            >= 2 * data["udf_cache_misses"]["value"]
        )
        assert data["udf_cache_bytes"]["value"] > 0
        assert data["udf_cache_evictions"]["value"] == 0

    def test_cache_can_be_disabled(self, capsys):
        import json

        assert main(["stats", "--scale", "1", "--udf-cache-mb", "0"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert "udf_cache_hits" not in data


class TestShell:
    def _run(self, commands, db=None):
        db = db or Database()
        db.create_table_from_dict("t", {"a": [1, 2, 3]})
        outputs = []
        commands = iter(commands)

        def fake_input(prompt):
            try:
                return next(commands)
            except StopIteration:
                raise EOFError

        code = run_shell(db, input_fn=fake_input, output_fn=outputs.append)
        return code, "\n".join(outputs)

    def test_select(self):
        code, out = self._run(["SELECT sum(a) FROM t", "exit"])
        assert code == 0
        assert "6" in out

    def test_describe(self):
        code, out = self._run(["\\d", "quit"])
        assert "tables: t" in out

    def test_error_recovery(self):
        code, out = self._run(["SELECT nope FROM t", "SELECT 1", "exit"])
        assert code == 0
        assert "error:" in out
        assert "1" in out

    def test_ddl_message(self):
        code, out = self._run(["DROP TABLE t", "exit"])
        assert "dropped t" in out

    def test_row_cap(self):
        db = Database()
        db.create_table_from_dict("big", {"x": list(range(100))})
        outputs = []
        commands = iter(["SELECT x FROM big", "exit"])
        run_shell(
            db,
            input_fn=lambda prompt: next(commands),
            output_fn=outputs.append,
            max_rows=5,
        )
        assert any("more rows" in o for o in outputs)

    def test_eof_exits(self):
        code, _ = self._run([])
        assert code == 0


class TestLoadgenCli:
    def test_quick_run_writes_sidecar(self, capsys, tmp_path):
        import json

        sidecar = str(tmp_path / "BENCH_serve.json")
        assert main(["loadgen", "--quick", "--output", sidecar]) == 0
        out = capsys.readouterr().out
        assert "overload shed" in out
        with open(sidecar) as handle:
            report = json.load(handle)
        assert {"steady", "overload"} <= set(report["scenarios"])
