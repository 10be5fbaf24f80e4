"""The server process of the ``serve_rw`` workload.

Started by ``workloads/serve.py``; speaks a line protocol on its standard
streams so the parent never has to guess at its state:

* prints ``{"port": N}`` once the socket accepts connections;
* ``trace_on`` on stdin wraps the layer calls in spans and zeroes the
  counters, answered with ``{"tracing": true}``;
* ``stop`` (or end of input, which is what a dead parent looks like) shuts
  the server down and prints one report line: the process's high-water
  RSS, the counter values and the per-span totals.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys

import numpy as np

from harness import SpanTracer, prepare_environment


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--scale", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--events", type=int, required=True)
    parser.add_argument("--metrics", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    prepare_environment()

    from workloads.base import engine_trace_targets, registry_counters

    from repro.engine.udf import BatchUdf
    from repro.obs.metrics import MetricsRegistry
    from repro.serve import net
    from repro.serve.server import Server
    from repro.storage.schema import DataType
    from repro.workload.dataset import DatasetConfig, generate_dataset

    metrics = MetricsRegistry() if args.metrics else None
    server = Server(metrics=metrics)
    generate_dataset(DatasetConfig(scale=args.scale, seed=args.seed)).install(
        server.root
    )
    server.root.register_udf(
        BatchUdf(
            name="amount_bucket",
            fn=lambda amounts: np.floor(np.asarray(amounts) / 1000.0),
            return_dtype=DataType.FLOAT64,
        ),
        replace=True,
    )
    rng = np.random.default_rng(args.seed)
    server.root.create_table_from_dict(
        "events",
        {
            "k": np.arange(args.events, dtype=np.int64),
            "v": np.round(rng.random(args.events) * 100.0, 3),
        },
    )

    tracer = SpanTracer()
    tcp, thread = net.start(server)
    try:
        print(json.dumps({"port": tcp.server_address[1]}), flush=True)
        for line in sys.stdin:
            command = line.strip()
            if command == "trace_on":
                for owner, attribute, name in engine_trace_targets():
                    tracer.wrap(owner, attribute, name)
                if metrics is not None:
                    metrics.reset()
                print(json.dumps({"tracing": True}), flush=True)
            elif command == "stop":
                break
    finally:
        tcp.shutdown()
        tcp.server_close()
        thread.join(timeout=10)
        server.close()
        tracer.unwrap_all()
    print(
        json.dumps(
            {
                "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "counters": registry_counters(metrics),
                "spans": tracer.totals(),
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
