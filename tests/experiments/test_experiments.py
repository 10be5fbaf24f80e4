"""Smoke + shape tests for every table/figure driver.

Each experiment runs at reduced scale and the *qualitative* reproduction
claims of DESIGN.md are asserted (orderings, monotonicity, dominance) —
not absolute numbers.
"""

import time

import pytest

from repro.core.compiler import PreJoin
from repro.hardware import SERVER_CPU
from repro.experiments import (
    exp_blocks,
    exp_cost_model,
    exp_hints,
    exp_overall,
    exp_prejoin,
    exp_selectivity,
    exp_sql_profile,
    exp_storage,
)
from repro.experiments.reporting import format_series, format_table


class TestReporting:
    def test_format_table_aligns(self):
        text = format_table(
            ["a", "bb"], [[1, 2.5], [10, 0.00001]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert len(lines) == 5

    def test_format_series(self):
        text = format_series("x", [1, 2], {"y": [0.1, 0.2]})
        assert "0.1" in text and "0.2" in text


class TestStorage:
    def test_table4_shape(self):
        rows = exp_storage.run(depths=(5, 8, 11), input_shape=(1, 8, 8))
        for row in rows:
            # DL2SQL's relational storage exceeds both file formats; the
            # heavier-compressed UDF binary is the smallest.
            assert row.dl2sql_kb > row.db_pytorch_kb >= row.db_udf_kb
        sizes = [r.dl2sql_kb for r in rows]
        assert sizes == sorted(sizes)  # grows with depth


class TestBlocks:
    def test_fig9_convs_dominate(self, tiny_dataset):
        rows = exp_blocks.run(tiny_dataset, num_keyframes=2)
        shares = {r.block: r.share for r in rows}
        conv_share = sum(v for k, v in shares.items() if k.startswith("Conv"))
        assert conv_share > 0.4
        assert abs(sum(shares.values()) - 1.0) < 1e-6


class TestSqlProfile:
    def test_fig10_join_groupby_dominate(self, tiny_dataset):
        rows = exp_sql_profile.run(tiny_dataset, num_keyframes=2)
        shares = {r.clause: r.share for r in rows}
        assert shares.get("groupby", 0) + shares.get("join", 0) > 0.5

    def test_fig10_seconds_within_wall_time(self, tiny_dataset):
        started = time.perf_counter()
        rows = exp_sql_profile.run(tiny_dataset, num_keyframes=2)
        wall = time.perf_counter() - started
        assert 0 < sum(r.seconds for r in rows) * 2 <= wall
        assert abs(sum(r.share for r in rows) - 1.0) < 1e-6


class TestPrejoin:
    def test_fig11_prejoins_not_slower(self, tiny_dataset):
        rows = exp_prejoin.run(tiny_dataset, num_keyframes=6)
        totals = exp_prejoin.totals_by_strategy(rows)
        # At test scale the strategies differ by single milliseconds of
        # wall clock, so this test asserts the deterministic structure
        # (FOLD removes the mapping-join statements) plus a loose sanity
        # band; the strict runtime ordering is asserted at benchmark scale
        # in benchmarks/bench_prejoin.py.
        assert set(totals) == {p.value for p in PreJoin}
        assert totals[PreJoin.FOLD.value] < totals[PreJoin.NONE.value] * 1.5
        assert totals[PreJoin.KERNEL.value] < totals[PreJoin.NONE.value] * 1.5

        from repro.core.compiler import compile_model
        from repro.tensor.resnet import build_student_cnn

        model = build_student_cnn(
            input_shape=tiny_dataset.config.keyframe_shape, num_classes=4,
            seed=3,
        )
        none_steps = len(compile_model(model, prejoin=PreJoin.NONE).steps)
        fold_steps = len(compile_model(model, prejoin=PreJoin.FOLD).steps)
        assert fold_steps < none_steps


class TestCostModel:
    def test_fig12a_default_overestimates_growing_with_kernel(self):
        rows = exp_cost_model.run_kernel_sweep(kernels=(2, 4), feature_size=10)
        for row in rows:
            assert row.default_seconds > row.custom_seconds
        ratio_small = rows[0].default_seconds / max(rows[0].actual_seconds, 1e-9)
        ratio_big = rows[-1].default_seconds / max(rows[-1].actual_seconds, 1e-9)
        assert ratio_big > ratio_small

    def test_fig12b_custom_tracks_actual_better(self):
        # Sizes where real work dominates fixed per-statement overheads.
        # Estimates are deterministic; only `actual` is wall-clock, so the
        # robust claims are (a) default over-estimates custom and (b) the
        # customized estimate stays within an order of magnitude of actual
        # while the default drifts beyond it at the larger size.
        rows = exp_cost_model.run_feature_sweep(sizes=(12, 16), kernel=3)
        for row in rows:
            assert row.default_seconds > row.custom_seconds
            assert row.custom_seconds < 10 * row.actual_seconds
        assert rows[-1].default_seconds > 3 * rows[-1].actual_seconds

    def test_fig13_operator_estimates(self):
        rows = exp_cost_model.run_operator_sweep(size=8)
        by_name = {r.setting: r for r in rows}
        assert by_name["conv"].default_seconds > by_name["conv"].custom_seconds


class TestHints:
    def test_fig14_speedup_decreases_with_selectivity(self, tiny_dataset,
                                                      tiny_repository):
        from repro.workload.models_repo import ModelRepository

        repo = ModelRepository(tasks=tiny_repository.by_role("detect"))
        rows = exp_hints.run(
            tiny_dataset, repo,
            selectivities=(0.05, 0.9), profile=SERVER_CPU,
        )
        assert rows[0].with_hints <= rows[0].without_hints
        assert rows[0].inferred_with <= rows[0].inferred_without
        # The advantage at low selectivity exceeds the one at high.
        assert rows[0].speedup >= rows[1].speedup * 0.8


class TestOverall:
    def test_fig8_edge_ordering(self, tiny_dataset, tiny_repository):
        from repro.hardware import EDGE_ARM

        rows = exp_overall.run(
            tiny_dataset,
            tiny_repository,
            selectivity=0.2,
            hardware=((EDGE_ARM, False),),
        )
        totals = {r.strategy: r.total for r in rows}
        # The headline claim: DL2SQL-OP wins on the edge device.
        assert totals["DL2SQL-OP"] == min(totals.values())

    def test_fig8_gpu_cuts_inference_not_loading(self, tiny_dataset,
                                                 tiny_repository):
        from repro.hardware import SERVER_GPU

        rows = exp_overall.run(
            tiny_dataset,
            tiny_repository,
            selectivity=0.2,
            hardware=((SERVER_GPU, False), (SERVER_GPU, True)),
        )
        cpu = {r.strategy: r for r in rows if r.hardware.endswith("cpu")}
        gpu = {r.strategy: r for r in rows if r.hardware.endswith("gpu")}
        assert gpu["DB-PyTorch"].inference < cpu["DB-PyTorch"].inference
        # Loading comparisons are wall-clock (bind + pickle) and noisy at
        # test scale; allow slack, the bench asserts the strict version.
        assert gpu["DB-PyTorch"].loading >= cpu["DB-PyTorch"].loading * 0.5


class TestSelectivitySweep:
    def test_table5_op_always_wins(self, tiny_dataset, tiny_repository):
        from repro.hardware import EDGE_ARM

        # Table V is an edge-device experiment; on the server profile the
        # cheap DL runtime lets DB-UDF win at times (as in Fig. 8).
        rows = exp_selectivity.run(
            tiny_dataset,
            tiny_repository,
            selectivities=(0.1, 0.5),
            profile=EDGE_ARM,
        )
        for selectivity in (0.1, 0.5):
            subset = {
                r.strategy: r.total
                for r in rows
                if r.selectivity == selectivity
            }
            assert subset["DL2SQL-OP"] == min(subset.values())
