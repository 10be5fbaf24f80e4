"""A tour of the columnar SQL engine (the ClickHouse substitute).

The paper's contribution sits on a real database: this example shows the
substrate on its own — DDL/DML, joins, aggregation, views, indexes, the
optimizer's EXPLAIN output, UDFs, and the per-clause operator time behind
Fig. 10, read from the query's trace.

Run:  python examples/sql_engine_tour.py
"""

import numpy as np

from repro.engine import BatchUdf, Database
from repro.obs.trace import format_span_tree, operator_categories
from repro.storage.schema import DataType

def main() -> None:
    db = Database()

    # DDL + bulk loading.
    db.execute("CREATE TABLE sensors (deviceID Int64, temp Float64, d Date)")
    db.execute(
        "INSERT INTO sensors VALUES "
        "(1, 21.5, '2021-01-03'), (1, 35.0, '2021-02-10'), "
        "(2, 18.0, '2021-01-20'), (2, 40.5, '2021-03-01'), "
        "(3, 25.0, '2021-02-14')"
    )
    rng = np.random.default_rng(0)
    db.create_table_from_dict(
        "readings",
        {
            "deviceID": rng.integers(1, 4, 10_000),
            "value": rng.normal(25.0, 10.0, 10_000),
        },
    )

    # Joins + aggregation + dates.
    rows = db.query(
        "SELECT s.deviceID, count(*), avg(r.value) "
        "FROM sensors s, readings r "
        "WHERE s.deviceID = r.deviceID AND s.d < '2021-02-01' "
        "GROUP BY s.deviceID ORDER BY s.deviceID"
    )
    print("per-device averages (devices first seen before February):")
    for device, count, average in rows:
        print(f"  device {device}: {count} readings, avg {average:.2f}")

    # Views + EXPLAIN.
    db.execute(
        "CREATE VIEW hot AS SELECT deviceID, value FROM readings "
        "WHERE value > 40"
    )
    print(f"\nhot readings: {db.execute('SELECT count(*) FROM hot').scalar()}")
    explained = db.explain(
        "SELECT s.deviceID FROM sensors s, readings r "
        "WHERE s.deviceID = r.deviceID AND r.value > 40"
    )
    print("\nEXPLAIN (note the pushdown below the hash join):")
    print(explained.text)
    print(f"estimated rows: {explained.estimated_rows:.0f}, "
          f"cost: {explained.estimated_cost:.0f} units")

    # UDFs: batched, with the registry accounting the paper needs.
    def fahrenheit(values: np.ndarray) -> np.ndarray:
        return values * 9.0 / 5.0 + 32.0

    db.register_udf(
        BatchUdf(name="toF", fn=fahrenheit, return_dtype=DataType.FLOAT64)
    )
    rows = db.query("SELECT deviceID, toF(temp) FROM sensors ORDER BY deviceID LIMIT 3")
    print("\nUDF in a projection:", rows)

    # Fig. 10's per-clause breakdown: every plan node runs in one
    # operator:<category> span, and the view sums their self time.
    db.tracer.enable()
    db.query(
        "SELECT s.deviceID, sum(r.value) FROM sensors s, readings r "
        "WHERE s.deviceID = r.deviceID GROUP BY s.deviceID"
    )
    db.tracer.disable()
    trace = db.tracer.last_trace()
    print("\nthat query's trace:")
    print(format_span_tree(trace.find("execute")))
    categories = operator_categories([trace])
    total = sum(c.seconds for c in categories.values()) or 1.0
    print("\nper-clause time share of that query:")
    for clause, entry in sorted(
        categories.items(), key=lambda kv: -kv[1].seconds
    ):
        print(f"  {clause:<12} {entry.seconds / total:6.1%}")

if __name__ == "__main__":
    main()
