"""Serving workload: two closed-loop TCP clients against a server process."""

from __future__ import annotations

import json
import random
import select
import socket
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Optional

from harness import BENCH_DIR, OpRecorder, percentile
from oracle import same_rows, sqlite_from_tables
from workloads.base import TracedPhase, Workload, engine_layer_metrics

from repro.serve.loadgen import CORPUS
from repro.workload.dataset import DatasetConfig, generate_dataset

#: A SQL connection waits for its reply, so the loop is closed; one
#: connection per core of the 2-core host.
CONNECTIONS = 2
#: Requests per connection in one "pass": block times make ``pass_s``.
BLOCK = 500
#: Requests generated per connection; more than any run can consume.
MAX_REQUESTS = 40_000
INITIAL_EVENTS = 1000
REQUEST_TIMEOUT_S = 10.0
SCALE = 5

#: The four table-reading SELECTs of ``loadgen.CORPUS`` (the other two
#: entries target a per-session scratch table; here the written table is
#: shared, which is the point).
STATIC_READS = dict(
    zip(
        ("count", "join", "filter", "udf_agg"),
        (sql for sql, _ in CORPUS if "{" not in sql),
    )
)
READ_KINDS = (*STATIC_READS, "events_scan")
#: 80 % reads spread evenly over the five read kinds, 20 % inserts.
KIND_WEIGHTS = {**dict.fromkeys(READ_KINDS, 0.8 / len(READ_KINDS)), "insert": 0.2}


class ServerChild:
    """The server subprocess; always reaped, however the run ends."""

    def __init__(
        self, arguments: list[str], ready_timeout_s: float = 60.0
    ) -> None:
        self.process = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "serve_child.py"), *arguments],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            self.port = int(self._reply(ready_timeout_s)["port"])
        except BaseException:
            self.kill()
            raise

    def _reply(self, timeout_s: float) -> dict[str, Any]:
        ready, _, _ = select.select([self.process.stdout], [], [], timeout_s)
        if not ready:
            raise TimeoutError(f"server child silent for {timeout_s}s")
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(
                f"server child exited with code {self.process.wait()}"
            )
        return json.loads(line)

    def command(self, word: str, timeout_s: float = 30.0) -> dict[str, Any]:
        self.process.stdin.write(word + "\n")
        self.process.stdin.flush()
        return self._reply(timeout_s)

    def stop(self) -> dict[str, Any]:
        """Orderly shutdown; returns the child's final report."""
        try:
            report = self.command("stop")
            self.process.wait(timeout=30)
            return report
        finally:
            self.kill()

    def kill(self) -> None:
        """Make sure the process is gone and waited for (idempotent)."""
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        for stream in (self.process.stdin, self.process.stdout):
            if stream is not None:
                stream.close()


class Connection:
    """One line-JSON client connection."""

    def __init__(self, port: int) -> None:
        self.socket = socket.create_connection(
            ("127.0.0.1", port), timeout=REQUEST_TIMEOUT_S
        )
        self.socket.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.socket.makefile("rb")

    def request(self, line: bytes) -> tuple[float, dict[str, Any]]:
        """(client-side latency in seconds, decoded response)."""
        started = time.perf_counter()
        self.socket.sendall(line)
        raw = self.reader.readline()
        latency = time.perf_counter() - started
        if not raw:
            raise ConnectionError("server closed the connection")
        return latency, json.loads(raw)

    def close(self) -> None:
        self.reader.close()
        self.socket.close()


def encode(sql: str) -> bytes:
    return (json.dumps({"sql": sql, "timeout_s": REQUEST_TIMEOUT_S}) + "\n").encode()


class ServeRw(Workload):
    name = "serve_rw"

    def setup(self) -> None:
        self.child: Optional[ServerChild] = None
        self.connections: list[Connection] = []
        self.block = 100 if self.quick else BLOCK
        # A smoke run sends two blocks per connection in each measured phase.
        limit = 4 * self.block if self.quick else MAX_REQUESTS
        kinds, weights = zip(*KIND_WEIGHTS.items())
        self.requests: list[list[tuple[str, bytes]]] = []
        for index in range(CONNECTIONS + 1):  # the last list is the warm-up's
            rng = random.Random((self.seed << 8) ^ index)
            sequence = []
            count = limit if index < CONNECTIONS else 60
            for number, kind in enumerate(rng.choices(kinds, weights=weights, k=count)):
                if kind == "insert":
                    sql = (
                        f"INSERT INTO events VALUES ({(index + 1) * 1_000_000 + number}, "
                        f"{round(rng.random() * 100, 3)})"
                    )
                elif kind == "events_scan":
                    sql = (
                        "SELECT count(*), sum(v) FROM events "
                        f"WHERE k >= {rng.randrange(INITIAL_EVENTS)}"
                    )
                else:
                    sql = STATIC_READS[kind]
                sequence.append((kind, sql))
            self.requests.append(sequence)
        self.encoded = [
            [(kind, encode(sql)) for kind, sql in sequence]
            for sequence in self.requests[:CONNECTIONS]
        ]
        self.position = [0] * CONNECTIONS
        self.acknowledged_inserts = 0
        self.expected: dict[str, Any] = {}
        self.samples: list[tuple[str, float, float]] = []
        self.outcomes = {"sent": 0, "shed": 0, "timeouts": 0}
        self.child = ServerChild(
            [
                "--scale", str(2 if self.quick else SCALE),
                "--seed", str(self.seed),
                "--events", str(INITIAL_EVENTS),
                "--metrics", str(int(self.traced)),
            ]
        )
        self.child_report: dict[str, Any] = {}
        self.connections = [Connection(self.child.port) for _ in range(CONNECTIONS)]

    def close(self) -> None:
        for connection in self.connections:
            connection.close()
        self.connections = []
        if self.child is not None:
            child, self.child = self.child, None
            self.child_report = child.stop()

    def op_lines(self) -> list[str]:
        return [
            f"{index}.{kind}: {sql}"
            for index, sequence in enumerate(self.requests)
            for kind, sql in sequence
        ]

    # -- warm-up and oracle ---------------------------------------------
    def run_pass(self, op: OpRecorder) -> dict[str, Any]:
        """The warm-up: one connection, sequential, every reply kept."""
        connection = self.connections[0]
        outputs: dict[str, Any] = {}
        for number, (kind, sql) in enumerate(self.requests[CONNECTIONS]):
            reply = op(kind, lambda: connection.request(encode(sql))[1])
            outputs[f"{number}.{kind}"] = (sql, reply)
            if kind == "insert" and reply is not None and reply.get("ok"):
                self.acknowledged_inserts += 1
        return outputs

    def check(self, outputs: dict[str, Any]) -> tuple[int, list[str]]:
        """Every warm-up read equals sqlite3's over a mirror of the data."""
        dataset = generate_dataset(
            DatasetConfig(scale=2 if self.quick else SCALE, seed=self.seed)
        )
        reference = sqlite_from_tables(dataset.tables, STATIC_READS.values())
        reference.create_function(
            "amount_bucket", 1, lambda amount: float(amount // 1000.0)
        )
        _, reply = self.connections[0].request(encode("SELECT k, v FROM events"))
        reference.execute("CREATE TABLE events (k INTEGER, v REAL)")
        failures = []
        try:
            # The mirror starts from the table as it is now and is rolled
            # back to its initial rows, then replays the warm-up in order.
            reference.executemany(
                "INSERT INTO events VALUES (?, ?)",
                [row for row in reply["rows"] if row[0] < INITIAL_EVENTS],
            )
            for name, (sql, reply) in outputs.items():
                kind = name.split(".", 1)[1]
                if reply is None or not reply.get("ok"):
                    failures.append(f"warm-up {name} was not answered ok")
                elif kind == "insert":
                    reference.execute(sql)
                elif not same_rows(
                    reply["rows"], reference.execute(sql).fetchall(), sql
                ):
                    failures.append(f"warm-up {name} differs from sqlite3")
                elif kind in STATIC_READS:
                    self.expected[kind] = reply["rows"]
        finally:
            reference.close()
        return len(outputs), failures

    # -- the timed region ------------------------------------------------
    def measure(
        self, seconds: float, op: OpRecorder
    ) -> tuple[list[float], float, int]:
        per_connection: list[list[tuple[str, float, float, float, str]]] = [
            [] for _ in range(CONNECTIONS)
        ]
        barrier = threading.Barrier(CONNECTIONS + 1)

        def client(index: int) -> None:
            connection = self.connections[index]
            requests = self.encoded[index]
            records = per_connection[index]
            position = self.position[index]
            limit = len(requests)
            if self.quick:
                limit = min(limit, position + 2 * self.block)
            barrier.wait()
            deadline = time.perf_counter() + seconds
            while position < limit and time.perf_counter() < deadline:
                kind, line = requests[position]
                position += 1
                started = time.perf_counter()
                try:
                    with op.span(f"op.{kind}", index * MAX_REQUESTS + position):
                        latency, reply = connection.request(line)
                except (OSError, ValueError) as exc:
                    records.append((kind, started, time.perf_counter() - started, 0.0, repr(exc)))
                    break
                if reply.get("ok"):
                    expected = self.expected.get(kind)
                    outcome = (
                        "ok"
                        if expected is None or reply["rows"] == expected
                        else "wrong"
                    )
                else:
                    outcome = reply.get("code") or reply.get("error", "error")
                records.append(
                    (kind, started, latency, reply.get("elapsed_ms", 0.0), outcome)
                )
            self.position[index] = position

        threads = [
            threading.Thread(target=client, args=(index,), name=f"client-{index}")
            for index in range(CONNECTIONS)
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        started = time.perf_counter()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started

        pass_times = []
        succeeded = 0
        for records in per_connection:
            for first in range(0, len(records) - self.block + 1, self.block):
                last = records[first + self.block - 1]
                pass_times.append(last[1] + last[2] - records[first][1])
            for kind, _, latency, elapsed_ms, outcome in records:
                op.attempted += 1
                op.latencies.setdefault(kind, []).append(latency)
                self.outcomes["sent"] += 1
                if outcome == "ok":
                    succeeded += 1
                    self.acknowledged_inserts += kind == "insert"
                    self.samples.append((kind, latency, elapsed_ms))
                else:
                    op.failed += 1
                    op.errors.append(f"{kind}: {outcome}")
                    self.outcomes["shed"] += outcome == "R006"
                    self.outcomes["timeouts"] += "Timeout" in outcome
        self.events_rows_final = self._final_count(op)
        return pass_times, wall, succeeded

    def _final_count(self, op: OpRecorder) -> int:
        """Every acknowledged INSERT must be there; a lost one is a failure."""
        _, reply = self.connections[0].request(encode("SELECT count(*) FROM events"))
        rows = int(reply["rows"][0][0])
        op.attempted += 1
        if rows != INITIAL_EVENTS + self.acknowledged_inserts:
            op.failed += 1
            op.errors.append(
                f"events has {rows} rows, expected "
                f"{INITIAL_EVENTS + self.acknowledged_inserts}"
            )
        return rows

    # -- layers --------------------------------------------------------
    def begin_traced(self) -> None:
        self.samples.clear()
        self.outcomes = dict.fromkeys(self.outcomes, 0)
        self.child.command("trace_on")

    def peak_rss_mb(self) -> float:
        self.close()
        return self.child_report["peak_rss_kb"] / 1024.0

    def layer_metrics(self, phase: TracedPhase) -> dict[str, float]:
        self.close()
        latency_ms = {
            kind: [s[1] * 1e3 for s in self.samples if s[0] == kind]
            for kind in KIND_WEIGHTS
        }
        reads = [ms for kind in READ_KINDS for ms in latency_ms[kind]]
        everything = reads + latency_ms["insert"]
        sent = self.outcomes["sent"]
        # The server's layers, per block of requests: the pass of this workload.
        passes = sent / (CONNECTIONS * self.block)
        metrics = engine_layer_metrics(
            TracedPhase(
                self.child_report["spans"],
                passes,
                {k: v / passes for k, v in self.child_report["counters"].items()},
            )
        )
        metrics.update(
            {
                "serve.execute_ms": statistics.median(s[2] for s in self.samples),
                "serve.wire_ms": statistics.median(
                    s[1] * 1e3 - s[2] for s in self.samples
                ),
                "serve.read_p50_ms": statistics.median(reads),
                "serve.write_p50_ms": statistics.median(latency_ms["insert"]),
                "serve.op_p50_ms": statistics.median(everything),
                "serve.shed_share": self.outcomes["shed"] / sent,
                "serve.timeouts": float(self.outcomes["timeouts"]),
                "serve.events_rows_final": float(self.events_rows_final),
            }
        )
        if not self.quick:  # a smoke run has too few samples for a p99
            metrics["serve.op_p99_ms"] = percentile(everything, 0.99)
        return metrics
