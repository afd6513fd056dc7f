"""Workload ``serve-chain-rw``: the planning daemon under reads and writes.

``repro serve run --chain corecover --state-dir <dir>`` runs as its own
process with its default 2 workers; set-up registers a seeded 1000-view
chain catalog (Figure 8(a) settings) over the wire, and every pool
query is read once so the context pools are warm.  One generator
process with at most 2 connections then runs two phases:

* **closed loop** — 2 connections, each sending its next read when the
  previous one is answered.
* **open loop** — frames sent on a fixed schedule at ``RATE`` per
  second, about half the daemon's closed-loop capacity when the
  benchmark was defined.  90% are ``plan`` reads drawn by seed from a
  pool of 100 distinct chain queries; 10% are catalog ``update`` frames
  that ``replace`` a view with the same definition under renamed
  variables, which changes the catalog root (so workers take the
  context pool's delta path and the journal appends and fsyncs) while
  every answer stays checkable.
  Each request is timed from when it was due, not when it was sent.

This is the only workload through the wire protocol, admission, the
intake queue, the supervised pool, warm context pools with delta
upgrades and the durable catalog registry.

End to end: all three come from the closed loop, where latency is
tied to throughput (Little's law) and as steady: ``latency_*`` are its
reads' latencies, ``throughput_rps`` its reads answered correctly
within ``LIMIT_MS`` per second.  Open-loop latencies queue behind each
other and behind updates, so they swing too widely between runs on a
2-core host to carry a bound; they are printed beside the end-to-end
metrics.  Per layer, the open loop is the latency phase.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from functools import partial
from pathlib import Path
from queue import Empty, Queue
from typing import Iterator

from perfbench.inputs import (
    CHAIN_CONFIG,
    ServeInputs,
    catalog_texts,
    chain_queries,
    serve_inputs,
)
from perfbench.measure import (
    Metric,
    Result,
    add_median,
    TreePeakMemory,
    child_env,
    median,
    outcome_layers,
    overhead,
    percentile,
)
from perfbench.reference import answer_digest, certify, references
from perfbench.tracing import TASK_MIN_BYTES, Trace, clock

#: Offered open-loop rate, frozen at about half the daemon's closed-loop
#: throughput when the benchmark was defined (15.9-20.6 reads/s, 2 cores).
RATE = 10.0
UPDATE_SHARE = 0.10
#: Open-loop frames: enough for a read and an update median.
MIN_FRAMES = 80
#: Distinct chain queries reads are drawn from: enough that one seed's
#: draw of cheap or expensive queries moves the medians little.
POOL = 100
CONNECTIONS = 2
#: A read answered later than this misses the latency limit.
LIMIT_MS = 500.0
#: Daemon launches per untraced run; ``setup_s`` is their median and
#: the last daemon serves the load.
SETUP_RUNS = 3
#: Shortest closed loop: at the slowest closed-loop rate seen while
#: sizing (13 reads/s), 110 reads leave 10 beyond their p90.
MIN_CLOSED_S = 9.0
#: How long after its phase an unanswered request still counts.
GRACE_S = 10.0
START_TIMEOUT_S = 60.0
CATALOG = "bench"
#: Scheduling priority of the generator's threads (see ``_urgent``).
URGENT_NICE = -10


def frames_for(seconds: int) -> int:
    """Open-loop frames for a run of *seconds* (40% of it, at least 80)."""
    return max(MIN_FRAMES, round(RATE * 0.4 * seconds))


def closed_seconds_for(seconds: int) -> float:
    return max(MIN_CLOSED_S, 0.9 * seconds)


def run(*, seed: int, seconds: int, traced: bool, work: Path, root: Path) -> Result:
    views = catalog_texts(CHAIN_CONFIG, seed)
    pool = chain_queries(seed, POOL, "serve-pool")
    answers = references(
        views, pool, None, work=work, env=child_env(root, work)
    )
    result = Result(uncertified=certify(views, pool, answers, seed))
    closed_s = closed_seconds_for(seconds)
    inputs = serve_inputs(
        seed,
        frames=frames_for(seconds),
        update_share=UPDATE_SHARE,
        pool=POOL,
        views=views,
        connections=CONNECTIONS,
        # Far more reads than a closed loop gets through in its time.
        closed_reads=int(closed_s * 100),
    )
    load = _Load(
        views, pool, [answer_digest(a) for a in answers], inputs,
        _expected_roots(views, inputs), work, root, result,
    )
    plain = load.measure(traced=False, launches=SETUP_RUNS, closed_s=closed_s)
    result.metrics = end_to_end(plain)
    result.extra = extra(plain)
    if traced:
        with_trace = load.measure(traced=True, launches=1, closed_s=closed_s)
        result.layers = per_layer(with_trace)
        result.layers.update(overhead(end_to_end(with_trace), result.metrics))
    return result


def _expected_roots(views: list[str], inputs: ServeInputs) -> list[str]:
    """The catalog root after registration and after each update."""
    from repro.views import ViewCatalog

    catalog = ViewCatalog(views)
    roots = [catalog.content_root()]
    for _, text in inputs.updates:
        catalog.replace_view(text)
        roots.append(catalog.content_root())
    return roots


@contextmanager
def _urgent() -> Iterator[None]:
    """Run this thread ahead of the daemon's, where the OS permits.

    The generator stands in for clients on other machines: on a 2-core
    box it must not queue behind the daemon to send on time or to
    timestamp a response.  It uses little CPU, so the daemon loses
    little.  Children started meanwhile would inherit the priority, so
    daemons are launched outside this block.
    """
    thread = threading.get_native_id()
    try:
        os.setpriority(os.PRIO_PROCESS, thread, URGENT_NICE)
    except OSError:
        pass
    try:
        yield
    finally:
        try:
            os.setpriority(os.PRIO_PROCESS, thread, 0)
        except OSError:
            pass


class _Connection:
    """One client connection; a reader thread timestamps every response."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.responses: dict[str, tuple[float, dict]] = {}
        self.closed = False
        self._cond = threading.Condition()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        try:
            with _urgent(), self.sock.makefile("rb") as stream:
                for line in stream:
                    received = clock()
                    message = json.loads(line)
                    with self._cond:
                        self.responses[str(message.get("id"))] = (
                            received, message
                        )
                        self._cond.notify_all()
        except (OSError, ValueError):
            pass  # counted: requests left unanswered fail
        finally:
            with self._cond:
                self.closed = True
                self._cond.notify_all()

    def send(self, payload: dict) -> bool:
        """Send one frame; ``False`` when the connection is gone."""
        try:
            self.sock.sendall((json.dumps(payload) + "\n").encode("utf-8"))
            return True
        except OSError:
            return False

    def wait(self, rid: str, deadline: float) -> tuple[float, dict] | None:
        with self._cond:
            while rid not in self.responses and not self.closed:
                remaining = deadline - clock()
                if remaining <= 0:
                    break
                self._cond.wait(remaining)
            return self.responses.get(rid)

    def request(self, payload: dict, timeout: float) -> dict | None:
        if not self.send(payload):
            return None
        answer = self.wait(str(payload["id"]), clock() + timeout)
        return answer[1] if answer is not None else None

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()
        self._reader.join(timeout=5.0)


class _Daemon:
    """One ``repro serve run`` process, from launch to drain."""

    def __init__(self, work: Path, root: Path, index: int, spans: str | None) -> None:
        args = [
            "serve", "run", "--chain", "corecover", "--port", "0",
            "--state-dir", str(work / f"state-{index}"),
        ]
        if spans is None:
            command = [sys.executable, "-m", "repro", *args]
        else:
            command = [
                sys.executable, str(root / "perfbench" / "traced_main.py"),
                spans, "serve", "--", *args, "--profile",
            ]
        self.started = clock()
        self._stderr = open(work / f"daemon-{index}.log", "w")
        self.process = subprocess.Popen(
            command, cwd=work, env=child_env(root, work), text=True,
            stdout=subprocess.PIPE, stderr=self._stderr,
        )
        self.memory = TreePeakMemory(self.process.pid)
        self._lines: Queue = Queue()
        self._stdout = threading.Thread(target=self._pump, daemon=True)
        self._stdout.start()

    def _pump(self) -> None:
        for line in self.process.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def wait_ready(self) -> int:
        """The TCP port from the daemon's ready line."""
        deadline = clock() + START_TIMEOUT_S
        while True:
            try:
                line = self._lines.get(timeout=max(0.0, deadline - clock()))
            except Empty:
                line = None
            if line is None:
                raise RuntimeError("serve daemon did not print its ready line")
            if '"event": "ready"' in line:
                return int(json.loads(line)["port"])

    def stop(self, connection: _Connection | None) -> float:
        """Drain the daemon; returns its tree's peak memory in MB."""
        self.memory.sample()
        if connection is not None:
            connection.request({"type": "drain", "id": "drain"}, GRACE_S)
            connection.close()
        try:
            self.process.wait(timeout=60.0)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self._stdout.join(timeout=5.0)
        self._stderr.close()
        return self.memory.stop()

    def kill(self) -> None:
        """Stop a daemon left running by a failed measurement."""
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait()
            self.memory.stop()
        self._stderr.close()


class _Load:
    """Launches daemons and drives both load phases against one."""

    def __init__(
        self, views, pool, digests, inputs, roots, work, root, result
    ) -> None:
        self.views = views
        self.pool = pool
        self.digests = digests
        self.inputs = inputs
        self.roots = roots
        self.work = work
        self.root = root
        self.result = result
        self.daemons: list[_Daemon] = []

    def _launch(self, spans: str | None) -> tuple[_Daemon, _Connection, float]:
        daemon = _Daemon(self.work, self.root, len(self.daemons), spans)
        self.daemons.append(daemon)
        daemon.port = daemon.wait_ready()
        connection = _Connection(daemon.port)
        ack = connection.request(
            {
                "type": "catalog", "action": "register", "name": CATALOG,
                "views": self.views, "id": "register",
            },
            START_TIMEOUT_S,
        )
        setup_s = clock() - daemon.started
        registered = ack is not None and ack.get("status") == "ok"
        wrong = registered and ack.get("content_root") != self.roots[0]
        self.result.count(registered and not wrong, wrong=wrong)
        return daemon, connection, setup_s

    def _stats(self, connection: _Connection, rid: str) -> dict:
        stats = connection.request({"type": "stats", "id": rid}, GRACE_S)
        self.result.count(stats is not None and "pool" in stats)
        return stats or {}

    def measure(self, *, traced: bool, launches: int, closed_s: float) -> dict:
        try:
            return self._measure(traced, launches, closed_s)
        finally:
            for daemon in self.daemons:
                daemon.kill()

    def _measure(self, traced: bool, launches: int, closed_s: float) -> dict:
        spans = str(self.work / "serve.spans.json") if traced else None
        setup = []
        for _ in range(launches - 1):
            daemon, connection, setup_s = self._launch(None)
            setup.append(setup_s)
            daemon.stop(connection)
        daemon, first, setup_s = self._launch(spans)
        setup.append(setup_s)
        second = _Connection(daemon.port)
        connections = [first, second]
        self._warm_up(connections)
        raw = {"setup": setup, "stats": [self._stats(first, "stats-0")]}
        # The closed loop runs first, on the catalog as registered: the
        # open loop's updates leave each worker's context pool with a
        # history of delta upgrades that differs from seed to seed.
        raw["closed_started"] = clock()
        raw["closed"] = self._closed_loop(connections, closed_s)
        raw["stats"].append(self._stats(first, "stats-1"))
        raw["open_started"] = clock()
        with _urgent():
            raw["open"], raw["late_ms"] = self._open_loop(connections)
        raw["stats"].append(self._stats(first, "stats-2"))
        second.close()
        raw["peak_rss_mb"] = daemon.stop(first)
        if traced:
            raw["trace"] = Trace.load(spans)
        return raw

    def _warm_up(self, connections: list[_Connection]) -> None:
        """Read every pool query once, untimed but checked.

        The timed phases then see warm context pools, as the clients of
        a long-running daemon do, instead of a first-sight mix that
        differs from seed to seed.
        """
        for item, query in enumerate(self.pool):
            rid = f"w{item}"
            connection = connections[item % CONNECTIONS]
            due = clock()
            connection.send({"id": rid, "query": query, "catalog": CATALOG})
            self._judge("read", item, due, connection.wait(rid, due + GRACE_S))

    def _open_loop(self, connections: list[_Connection]) -> tuple[list, list]:
        sent = []
        late_ms = []
        started = clock() + 0.05
        for position, frame in enumerate(self.inputs.schedule):
            due = started + position / RATE
            delay = due - clock()
            if delay > 0:
                time.sleep(delay)
            if frame.kind == "read":
                rid = f"o{position}"
                connection = connections[position % CONNECTIONS]
                payload = {
                    "id": rid, "query": self.pool[frame.item],
                    "catalog": CATALOG,
                }
            else:
                # One connection carries every update, so the daemon
                # applies them in send order and each ack's root is known.
                rid = f"u{frame.item}"
                connection = connections[0]
                payload = {
                    "type": "catalog", "action": "update", "name": CATALOG,
                    "replace": [self.inputs.updates[frame.item][1]],
                    "id": rid,
                }
            late_ms.append((clock() - due) * 1000.0)
            connection.send(payload)
            sent.append((frame, rid, due, connection))
        deadline = clock() + GRACE_S
        records = []
        for frame, rid, due, connection in sent:
            answer = connection.wait(rid, deadline)
            records.append(self._judge(frame.kind, frame.item, due, answer))
        return records, late_ms

    def _closed_loop(
        self,
        connections: list[_Connection],
        seconds: float,
    ) -> dict:
        """Each connection sends its next read when the last is answered."""
        started = clock()
        stop_at = started + seconds
        records: list[list] = [[] for _ in connections]

        def client(index: int) -> None:
            with _urgent():
                self._client(
                    connections[index], f"c{index}", self.inputs.closed[index],
                    stop_at, records[index],
                )

        threads = [
            threading.Thread(target=client, args=(index,))
            for index in range(len(connections))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        done = [record for per in records for record in per]
        finished = max((r["answered"] for r in done if r["ok"]), default=stop_at)
        return {"records": done, "elapsed_s": finished - started}

    def _client(
        self, connection: _Connection, name: str, items: tuple[int, ...],
        stop_at: float, records: list,
    ) -> None:
        for position, item in enumerate(items):
            if clock() >= stop_at:
                break
            rid = f"{name}-{position}"
            due = clock()
            connection.send({"id": rid, "query": self.pool[item], "catalog": CATALOG})
            answer = connection.wait(rid, stop_at + GRACE_S)
            records.append(self._judge("read", item, due, answer))
            if answer is None:
                break

    def _judge(self, kind: str, item: int, due: float, answer) -> dict:
        """Check one response against its reference and account it."""
        record = {"kind": kind, "ok": False, "due": due}
        if answer is not None:
            received, message = answer
            record["answered"] = received
            record["latency_ms"] = (received - due) * 1000.0
            record["message"] = message
            if message.get("status") == "ok":
                if kind == "read":
                    got = answer_digest(message.get("rewritings", []))
                    record["ok"] = got == self.digests[item]
                else:
                    record["ok"] = message.get("content_root") == self.roots[item + 1]
                record["wrong"] = not record["ok"]
        self.result.count(record["ok"], wrong=record.get("wrong", False))
        return record


def _reads(records: list[dict]) -> list[float]:
    return [r["latency_ms"] for r in records if r["ok"] and r["kind"] == "read"]


def end_to_end(raw: dict) -> dict[str, Metric]:
    closed = raw["closed"]
    reads = _reads(closed["records"])
    within = [
        r for r in closed["records"] if r["ok"] and r["latency_ms"] <= LIMIT_MS
    ]
    return {
        "setup_s": Metric(median(raw["setup"]), "s", len(raw["setup"])),
        "peak_rss_mb": Metric(raw["peak_rss_mb"], "MB", 1),
        "latency_p50_ms": Metric(median(reads), "ms", len(reads)),
        "latency_p90_ms": Metric(percentile(reads, 0.9), "ms", len(reads)),
        "throughput_rps": Metric(
            len(within) / closed["elapsed_s"],
            "req/s",
            len(closed["records"]),
        ),
    }


def extra(raw: dict) -> dict[str, Metric]:
    """The open loop, printed beside the end-to-end metrics."""
    reads = _reads(raw["open"])
    table = {
        "open.read_p50_ms": Metric(median(reads), "ms", len(reads)),
        # A validity flag: how far behind schedule the generator ever sent.
        "loadgen.late_max_ms": Metric(
            max(raw["late_ms"]), "ms", len(raw["late_ms"])
        ),
    }
    updates = [
        r["latency_ms"] for r in raw["open"] if r["ok"] and r["kind"] == "update"
    ]
    add_median(table, "open.update_p50_ms", updates, "ms")
    return table


def _delta(after: dict, before: dict, *path: str) -> int:
    for key in path:
        after, before = after.get(key, {}), before.get(key, {})
    return int(after or 0) - int(before or 0)


def per_layer(raw: dict) -> dict[str, Metric]:
    trace: Trace = raw["trace"]
    layers: dict[str, Metric] = {}
    windows = {
        "closed": (raw["closed_started"], raw["open_started"]),
        "open": (raw["open_started"], float("inf")),
    }
    prefixes = {"open": "o", "closed": "c"}
    roles = {"open": "latency", "closed": "throughput"}

    add = partial(add_median, layers)

    add(
        "views.catalog_build_ms",
        trace.per_request_ms(["views.catalog_build"]),
        "ms",
    )
    add("datalog.parse_ms", trace.per_request_ms(["datalog.parse"]), "ms")
    for index, (phase, (low, high)) in enumerate(windows.items()):
        prefix = prefixes[phase]
        role = roles[phase]

        def in_window(_rid, start, low=low, high=high) -> bool:
            return low <= start < high

        def of_reads(rid, _start, prefix=prefix) -> bool:
            return str(rid).startswith(prefix)

        reads = [
            r["message"] for r in
            (raw["open"] if phase == "open" else raw[phase]["records"])
            if r["ok"] and r["kind"] == "read"
        ]
        # Plan phases run in the daemon's workers; their profiles say
        # how long.
        layers.update(outcome_layers(reads, role, phases=True))
        results = trace.select("parallel.result", of_reads)
        add(
            f"planner.cache_hit_rate.{role}",
            [a["hit_rate"] for *_, a in results if a["hit_rate"] is not None],
            "ratio",
        )
        add(
            f"parallel.task_bytes.{role}",
            [
                a["bytes"] for *_, a in trace.select("parallel.send", in_window)
                if a["bytes"] >= TASK_MIN_BYTES
            ],
            "B",
        )
        add(
            f"parallel.submit_ms.{role}",
            trace.per_request_ms(["parallel.submit"], of_reads),
            "ms",
        )
        worker_ms = {rid: a["worker_ms"] for rid, *_, a in results}
        add(f"parallel.worker_ms.{role}", list(worker_ms.values()), "ms")
        submitted = {
            rid: end for rid, _, end, _, _ in trace.select("parallel.submit", of_reads)
        }
        add(
            f"parallel.dispatch_ms.{role}",
            [
                (start - submitted[rid]) * 1000.0 - worker_ms[rid]
                for rid, start, *_ in results
                if rid in submitted and worker_ms[rid] is not None
            ],
            "ms",
        )
        before, after = raw["stats"][index], raw["stats"][index + 1]
        hits = _delta(after, before, "pool", "pool", "hits") + _delta(
            after, before, "pool", "pool", "delta_hits"
        )
        lookups = hits + _delta(after, before, "pool", "pool", "misses")
        layers[f"parallel.context_pool_hit_rate.{role}"] = Metric(
            hits / lookups if lookups else 0.0, "ratio", lookups
        )
        add(
            f"serve.codec_ms.{role}",
            trace.per_request_ms(["serve.codec"], of_reads),
            "ms",
        )
        add(
            f"serve.admit_ms.{role}",
            trace.per_request_ms(["serve.admit"], of_reads),
            "ms",
        )
        admitted = {
            rid: end for rid, _, end, _, _ in trace.select("serve.admit", of_reads)
        }
        add(
            f"serve.queue_wait_ms.{role}",
            [
                (start - admitted[rid]) * 1000.0
                for rid, start, *_ in trace.select("parallel.submit", of_reads)
                if rid in admitted
            ],
            "ms",
        )
        shed = sum(
            _delta(after, before, "admission", "shed", reason)
            for reason in ("queue_full", "rate_limited", "draining")
        )
        layers[f"serve.shed.{role}"] = Metric(float(shed), "count", len(reads))

    open_window = windows["open"]

    def in_open(_rid, start) -> bool:
        return open_window[0] <= start < open_window[1]

    add(
        "serve.update_ms.latency",
        [s * 1000.0 for *_, s, _ in trace.select("serve.update", in_open)],
        "ms",
    )
    add(
        "serve.journal_append_ms.latency",
        [s * 1000.0 for *_, s, _ in trace.select("serve.journal_append", in_open)],
        "ms",
    )
    add(
        "serve.register_ms",
        [s * 1000.0 for *_, s, _ in trace.select("serve.register")],
        "ms",
    )
    return layers
