"""Compare two sets of benchmark records, one row per (metric, workload).

    python3 bench/compare.py bench/out/base.json bench/out/change.json

Each argument is a file written by ``run.py``: one record, or the
``{"records": [...]}`` that ``--all`` writes.  For every end-to-end metric
the second file's median is set against the first's:

* ``ok``          not worse than the base by more than the bound in
                  ``BENCHMARK.json``;
* ``worse``       worse by more than the bound;
* ``unresolved``  either side's own quartile spread is wider than the
                  bound, so the run cannot tell the two apart.

Exits 1 when any row is ``worse``, 0 otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent


def load_records(path: str) -> dict[str, dict[str, Any]]:
    data = json.loads(Path(path).read_text())
    records = data["records"] if "records" in data else [data]
    return {record["workload"]: record for record in records}


#: Quartiles of fewer samples than this say nothing (``setup_s`` has three,
#: the first of which pays for lazy imports).
MIN_SPREAD_SAMPLES = 5


def spread(entry: dict[str, Any]) -> float:
    """Quartile distance as a share of the median; 0 when it cannot be told."""
    if entry.get("n", 0) < MIN_SPREAD_SAMPLES or not entry["median"]:
        return 0.0
    return (entry["q3"] - entry["q1"]) / abs(entry["median"])


def verdict(
    base: dict[str, Any], change: dict[str, Any], better: str, bound: float
) -> tuple[float, str]:
    """(change / base, verdict) for one metric on one workload."""
    ratio = change["value"] / base["value"]
    worsening = ratio - 1.0 if better == "lower" else 1.0 - ratio
    if worsening > bound:
        return ratio, "worse"
    if max(spread(base), spread(change)) > bound:
        return ratio, "unresolved"
    return ratio, "ok"


def compare(
    base: dict[str, dict[str, Any]],
    change: dict[str, dict[str, Any]],
    contract: dict[str, Any],
) -> list[tuple[str, str, float, float, float, float, str]]:
    rows = []
    for workload in base:
        if workload not in change:
            continue
        for spec in contract["end_to_end"]:
            a = base[workload]["metrics"].get(spec["name"])
            b = change[workload]["metrics"].get(spec["name"])
            if a is None or b is None:
                continue
            ratio, result = verdict(a, b, spec["better"], spec["bound"])
            rows.append(
                (spec["name"], workload, a["value"], b["value"], ratio, spec["bound"], result)
            )
    return rows


def main(arguments: list[str]) -> int:
    if len(arguments) != 2:
        print(__doc__)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(load_records(arguments[0]), load_records(arguments[1]), contract)
    print(
        f"{'metric':12} {'workload':16} {'base':>12} {'change':>12} "
        f"{'change/base':>11} {'bound':>6} verdict"
    )
    for metric, workload, a, b, ratio, bound, result in rows:
        print(
            f"{metric:12} {workload:16} {a:12.5g} {b:12.5g} "
            f"{ratio:11.4f} {bound:6.2f} {result}"
        )
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
