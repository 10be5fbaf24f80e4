"""Ablation: symmetric hash join under memory pressure (hint rule 3).

The paper's third hint maintains both hash tables in memory with a
bucket-based LRU policy; this bench measures how the cache-miss/reload
counters respond to the buffer budget, and that the join's output stays
exact regardless of pressure.
"""

import numpy as np
import pytest

from repro.engine.expressions import FunctionRegistry
from repro.engine.physical import (
    ExecutionContext,
    _match_numeric_keys,
    _symmetric_hash_join,
)
from repro.engine.udf import UdfRegistry
from repro.storage.catalog import Catalog


def _ctx(budget):
    return ExecutionContext(
        catalog=Catalog(),
        functions=FunctionRegistry(),
        udfs=UdfRegistry(),
        symmetric_join_memory=budget,
    )


@pytest.fixture(scope="module")
def keys():
    rng = np.random.default_rng(7)
    return (
        rng.integers(0, 5000, 20_000),
        rng.integers(0, 5000, 20_000),
    )


def test_symmetric_join_unconstrained(benchmark, keys):
    left, right = keys
    ctx = _ctx(64 * 1024 * 1024)
    out = benchmark.pedantic(
        lambda: _symmetric_hash_join([left], [right], ctx),
        rounds=1,
        iterations=1,
    )
    assert ctx.last_symmetric_stats["cache_misses"] == 0
    assert len(out[0]) == len(_match_numeric_keys(left, right)[0])


def test_symmetric_join_memory_pressure(benchmark, keys):
    left, right = keys
    budgets = (4096, 16 * 1024, 256 * 1024)
    results = {}

    def sweep():
        for budget in budgets:
            ctx = _ctx(budget)
            pairs = _symmetric_hash_join([left], [right], ctx)
            results[budget] = (ctx.last_symmetric_stats, len(pairs[0]))
        return results

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    expected_pairs = len(_match_numeric_keys(left, right)[0])
    print("\nbudget -> cache misses / bucket reloads:")
    for budget in budgets:
        stats, pairs = results[budget]
        print(
            f"  {budget:>8} B: misses={stats['cache_misses']:>6} "
            f"reloads={stats['bucket_reloads']:>7} pairs={pairs}"
        )
        # Results are exact regardless of pressure.
        assert pairs == expected_pairs
    # Tighter budgets force more LRU evictions and reloads.
    misses = [results[b][0]["cache_misses"] for b in budgets]
    assert misses[0] > misses[-1]
