"""The ``serve`` workload: an open-loop load generator against a daemon.

One process (this one) drives a :class:`repro.serve.ServeDaemon` running
in a child process.  Sessions arrive as a Poisson process at
:data:`RATE` per second; session ``i`` is preshared with ``n=8, C=2,
t=1`` and every odd session has the ``random`` jammer.  Its script is
open; 3 x [4 x send of 64 B, flush, 2 x drain]; a rekey on every 4th
session; stats; close.  Request ``k`` of a session is due :data:`GAP`
x ``k`` seconds after the session arrives, and goes out on the session's
connection (at most ``nproc`` connections, sessions round-robin), whether
or not earlier responses are back.  Latency is timed from when a request
was due, so a stalled daemon charges its wait to every request behind it.

The check: every response, drained deliveries included, must equal what
a synchronous :class:`repro.serve.SessionHost` with the daemon's seed
answers to the same script.
"""

from __future__ import annotations

import json
import math
import random
import selectors
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

from common import (
    BENCH_DIR,
    REFERENCE_S,
    ROOT,
    SETUP_SAMPLES,
    Digest,
    Report,
    nproc,
    percentile,
    reference_seconds,
)

RATE = 20.0
"""Session arrivals per second: the daemon is about a quarter busy on a
2-core box.  At half load, queueing amplified the machine's drift
between runs into a 37% spread of the request p50 (README.md)."""

GAP = 0.004
"""Seconds between the due times of a session's consecutive requests."""

N, CHANNELS, T = 8, 2, 1
PAYLOAD_BYTES = 64
DRAIN_TIMEOUT = 60.0

KINDS = ("open-session", "send", "flush", "drain-inbox", "rekey", "stats", "close-session")

SERVE_LAYER_METRICS = [
    *((f"serve.handle_us.{kind}", "us") for kind in KINDS),
    ("serve.wire.decode_us", "us/op"),
    ("serve.wire.encode_us", "us/op"),
    ("serve.transport_ms.p50", "ms"),
    ("serve.transport_ms.p99", "ms"),
    ("serve.failures.busy", "count"),
    ("serve.failures.total", "count"),
    ("serve.sessions_open.max", "count"),
    ("loadgen.late_ms.p99", "ms"),
    ("serve.req_ms.p99", "ms"),
    ("serve.flush_ms.p50", "ms"),
    ("serve.rekey_ms.p50", "ms"),
]
"""Per-layer metrics only the serve workload moves (0 elsewhere)."""


def session_script(rng: random.Random, index: int) -> list:
    from repro.serve import protocol as p

    name = f"s{index:05d}"
    script = [
        p.OpenSession(
            name=name,
            n=N,
            channels=CHANNELS,
            t=T,
            adversary="random" if index % 2 else None,
        )
    ]
    for _cycle in range(3):
        for _ in range(4):
            script.append(
                p.SendMessage(
                    name=name,
                    sender=rng.randrange(N),
                    payload=rng.randbytes(PAYLOAD_BYTES),
                )
            )
        script.append(p.Flush(name=name))
        for member in rng.sample(range(N), 2):
            script.append(p.DrainInbox(name=name, member=member))
    if index % 4 == 3:
        script.append(p.Rekey(name=name))
    script.append(p.SessionStatsReq(name=name))
    script.append(p.CloseSession(name=name))
    return script


def plan_sessions(seed: int, seconds: float) -> list[tuple[float, list]]:
    """``(arrival, script)`` per session arriving within ``seconds``."""
    rng = random.Random(f"perfbench-serve-{seed}")
    sessions = []
    arrival = rng.expovariate(RATE)
    while arrival < seconds:
        sessions.append((arrival, session_script(rng, len(sessions))))
        arrival += rng.expovariate(RATE)
    return sessions


def daemon_seed(seed: int) -> int:
    return seed * 7919 + 11


# ----------------------------------------------------------------------
# The daemon process and its connections
# ----------------------------------------------------------------------


class DaemonProcess:
    """A daemon child process plus this process's connections to it."""

    def __init__(self, seed: int, trace: bool, out: Path, connections: int) -> None:
        from repro.dispatch.socket_pool import FrameDecoder, recv_frame, send_frame
        from repro.serve import protocol as p

        self.proc = subprocess.Popen(
            [sys.executable, "perfbench/daemon.py", str(seed), str(int(trace)), str(out)],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.socks: list[socket.socket] = []
        try:
            line = self.proc.stdout.readline()
            if not line.startswith("port "):
                raise RuntimeError(f"daemon did not start: {line!r}")
            port = int(line.split()[1])
            for index in range(connections):
                sock = socket.create_connection(("127.0.0.1", port), timeout=30)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                self.socks.append(sock)
                send_frame(
                    sock,
                    {"kind": "hello", "protocol": p.SERVE_PROTOCOL, "client": f"load{index}"},
                )
                greeting = recv_frame(sock)
                if not isinstance(greeting, dict) or greeting.get("kind") != "welcome":
                    raise RuntimeError(f"daemon refused the handshake: {greeting!r}")
        except BaseException:
            self.kill()
            raise
        self.decoders = [FrameDecoder() for _ in self.socks]

    def call(self, conn: int, req_id, request):
        """One blocking request/response (set-up and shutdown only)."""
        from repro.dispatch.socket_pool import recv_frame, send_frame
        from repro.serve import protocol as p

        send_frame(self.socks[conn], p.encode_request(req_id, request))
        got_id, response = p.decode_response(recv_frame(self.socks[conn]))
        if got_id != req_id or isinstance(response, p.Failure):
            raise RuntimeError(f"request {req_id} failed: {response!r}")
        return response

    def cpu_seconds(self) -> float:
        """The daemon's time on a CPU so far (its one thread), in ns
        resolution; ``/proc/PID/stat`` would give 10 ms ticks."""
        return int(Path(f"/proc/{self.proc.pid}/schedstat").read_text().split()[0]) / 1e9

    def shutdown(self) -> dict:
        """Stop the daemon; returns its final JSON line."""
        from repro.serve import protocol as p

        try:
            self.call(0, "shutdown", p.Shutdown())
            for sock in self.socks:
                sock.close()
            out, _ = self.proc.communicate(timeout=30)
        finally:
            self.kill()
        return json.loads(out.strip().splitlines()[-1])

    def kill(self) -> None:
        for sock in self.socks:
            sock.close()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def warm_up(daemon: DaemonProcess) -> None:
    """One untimed session outside the timed set, request by request."""
    rng = random.Random("perfbench-serve-warmup")
    script = session_script(rng, 99999)
    for k, request in enumerate(script):
        daemon.call(0, -(k + 1), request)


def start_daemon(seed: int, trace: bool, out: Path, connections: int) -> tuple[DaemonProcess, float]:
    """Spawn, connect, handshake and warm up; returns the set-up seconds,
    scaled to the ``REFERENCE_S`` machine by the reference kernel run
    before and after."""
    before = reference_seconds()
    start = time.perf_counter()
    daemon = DaemonProcess(daemon_seed(seed), trace, out, connections)
    try:
        warm_up(daemon)
    except BaseException:
        daemon.kill()
        raise
    took = time.perf_counter() - start
    return daemon, took * 2 * REFERENCE_S / (before + reference_seconds())


# ----------------------------------------------------------------------
# The open loop
# ----------------------------------------------------------------------


class Request:
    __slots__ = ("req_id", "session", "conn", "request", "due", "sent", "done", "frame")

    def __init__(self, session: int, conn: int, request, due: float) -> None:
        self.req_id = None
        self.session = session
        self.conn = conn
        self.request = request
        self.due = due
        self.sent = None
        self.done = None
        self.frame = None


def drive(daemon: DaemonProcess, sessions) -> tuple[list[Request], float]:
    """Send every request when due; collect every response.  Also returns
    the daemon's CPU seconds over the drive."""
    from repro.dispatch.socket_pool import send_frame
    from repro.serve import protocol as p

    conns = len(daemon.socks)
    plan = [
        Request(i, i % conns, request, arrival + GAP * k)
        for i, (arrival, script) in enumerate(sessions)
        for k, request in enumerate(script)
    ]
    plan.sort(key=lambda r: r.due)
    for req_id, r in enumerate(plan, start=1):
        r.req_id = req_id
    by_id = {r.req_id: r for r in plan}
    outstanding = len(plan)
    cpu_start = daemon.cpu_seconds()

    sel = selectors.DefaultSelector()
    for conn, sock in enumerate(daemon.socks):
        sel.register(sock, selectors.EVENT_READ, conn)
    clock = time.perf_counter
    t0 = clock() + 0.01
    nxt = 0
    deadline = None
    try:
        while outstanding:
            now = clock() - t0
            while nxt < len(plan) and plan[nxt].due <= now:
                r = plan[nxt]
                send_frame(daemon.socks[r.conn], p.encode_request(r.req_id, r.request))
                r.sent = clock() - t0
                nxt += 1
            if nxt < len(plan):
                # Epoll rounds a timeout up to whole milliseconds, which
                # would send each request up to 1 ms late: sleep for the
                # whole milliseconds only (the 0.5 keeps float error from
                # rounding up), then poll until the request is due.
                whole_ms = math.floor((plan[nxt].due - (clock() - t0)) * 1e3)
                timeout = max(0.0, whole_ms - 0.5) / 1e3
            else:
                if deadline is None:
                    deadline = clock() + DRAIN_TIMEOUT
                timeout = deadline - clock()
                if timeout <= 0:
                    break
            for key, _events in sel.select(timeout):
                conn = key.data
                chunk = daemon.socks[conn].recv(1 << 16)
                if not chunk:
                    raise RuntimeError("daemon closed a connection")
                for frame in daemon.decoders[conn].feed(chunk):
                    r = by_id[frame["req"]]
                    r.done = clock() - t0
                    r.frame = frame
                    outstanding -= 1
    finally:
        sel.close()
    return plan, daemon.cpu_seconds() - cpu_start


# ----------------------------------------------------------------------
# The check: a synchronous replay of every session
# ----------------------------------------------------------------------


def play(host, token, script) -> tuple[list[dict], object]:
    """One session's script on a synchronous ``host``: its answers, and
    its network's counters as they stood at the close."""
    from repro.serve import protocol as p

    answers = []
    metrics = None
    for request in script:
        if isinstance(request, p.CloseSession):
            metrics = host.sessions[request.name].session.network.metrics
        answers.append(p.encode_response(None, host.handle(token, request)))
    return answers, metrics


def replay(seed: int, sessions) -> tuple[list[list[dict]], int, int, list[float]]:
    """Answers a synchronous host gives each session's script, the radio
    rounds and honest air units all sessions used, and each session's
    time over the time of the reference kernel run before and after it."""
    from repro.serve import SessionHost

    host = SessionHost(seed=daemon_seed(seed))
    expected = []
    costs = []
    rounds = air_units = 0
    after = reference_seconds()
    for index, (_arrival, script) in enumerate(sessions):
        before = after
        start = time.perf_counter()
        # One connection per session: its own drain cursors.
        answers, metrics = play(host, index, script)
        took = time.perf_counter() - start
        after = reference_seconds()
        costs.append(2 * took / (before + after))
        expected.append(answers)
        rounds += metrics.rounds
        air_units += metrics.payload_units
    return expected, rounds, air_units, costs


def tracing_overhead(seed: int, sessions) -> float:
    """Traced over untraced time of a synchronous replay.  Each session
    plays untraced on one host and then traced on another, so machine
    drift hits both alike."""
    from repro.serve import SessionHost
    from tracing import Tracer, install, install_serve

    hosts = [SessionHost(seed=daemon_seed(seed)) for _ in range(2)]
    scratch = Tracer()
    seconds = [0.0, 0.0]
    for index, (_arrival, script) in enumerate(sessions):
        for traced, host in enumerate(hosts):
            undo = [install(scratch), install_serve(scratch)] if traced else []
            try:
                start = time.perf_counter()
                play(host, index, script)
                seconds[traced] += time.perf_counter() - start
            finally:
                for uninstall in reversed(undo):
                    uninstall()
    return seconds[1] / seconds[0]


def compare(plan: list[Request], expected: list[list[dict]]) -> tuple[int, Digest]:
    """Failed requests (failure frames, no answer, or an answer that
    differs from the replay) and the digest of the expected answers."""
    position = [0] * len(expected)
    failed = 0
    for r in sorted(plan, key=lambda r: (r.session, r.due)):
        k = position[r.session]
        position[r.session] += 1
        want = expected[r.session][k]
        got = None if r.frame is None else {**r.frame, "req": None}
        if got is None or got["kind"] == "fail" or got != want:
            failed += 1
    digest = Digest()
    for answers in expected:
        for answer in answers:
            digest.add(answer)
    return failed, digest


# ----------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool) -> Report:
    report = Report(workload, trace)
    daemon_trace = BENCH_DIR / "out" / f"trace-serve-daemon-{seed}.jsonl"
    if trace:
        daemon_trace.parent.mkdir(exist_ok=True)
    connections = min(2, nproc())
    sessions = plan_sessions(seed, seconds)

    setups = []
    for _ in range(0 if trace else SETUP_SAMPLES - 1):
        daemon, took = start_daemon(seed, False, daemon_trace, connections)
        daemon.shutdown()
        setups.append(took)
    daemon, took = start_daemon(seed, trace, daemon_trace, connections)
    setups.append(took)
    try:
        plan, busy_s = drive(daemon, sessions)
    except BaseException:
        daemon.kill()
        raise
    final = daemon.shutdown()

    expected, rounds, air_units, costs = replay(seed, sessions)
    failed, digest = compare(plan, expected)
    requests = len(plan)
    report.attempted = requests
    report.failed = failed
    report.notes["results_sha256"] = digest.hexdigest()
    report.notes["sessions"] = len(sessions)
    report.notes["connections"] = connections

    if trace:
        add_latencies(report, plan, "serve.")
        add_traced(report, seed, plan, daemon_trace, sessions)
        return report
    req_ms = latencies_ms(plan)
    # The host's work per session, timed in this process: the daemon's
    # figures ride on wake-up latency and on which core it runs.
    report.add("op_cost", statistics.median(costs), "ref", len(costs))
    report.add("op_ms.p50", statistics.median(req_ms), "ms", len(req_ms))
    report.add("op_ms.p90", percentile(req_ms, 90), "ms", len(req_ms))
    report.add("rounds_per_op", rounds / len(sessions), "count", len(sessions))
    report.add("air_units_per_op", air_units / len(sessions), "count", len(sessions))
    report.add("setup_s", statistics.median(setups), "s", len(setups))
    report.add("peak_rss_mb", final["peak_rss_mb"], "MiB", 1)
    add_latencies(report, plan, "")  # in the table only, not gated
    report.add("daemon_busy_ratio", busy_s / (plan[-1].due + GAP), "ratio", 1)
    return report


def latencies_ms(plan: list[Request], kind: str | None = None) -> list[float]:
    """Latency from due to answered, of every answered request of ``kind``."""
    return [
        (r.done - r.due) * 1e3
        for r in plan
        if r.done is not None and kind in (None, r.request.KIND)
    ]


def add_latencies(report: Report, plan: list[Request], prefix: str) -> None:
    """The serve-only latency figures: the tail, flush and rekey, and how
    late the generator ran."""
    req_ms = latencies_ms(plan)
    report.add(f"{prefix}req_ms.p99", percentile(req_ms, 99), "ms", len(req_ms))
    for kind in ("flush", "rekey"):
        ms = latencies_ms(plan, kind)
        report.add(f"{prefix}{kind}_ms.p50", statistics.median(ms), "ms", len(ms))
    late_ms = [(r.sent - r.due) * 1e3 for r in plan if r.sent is not None]
    report.add("loadgen.late_ms.p50", statistics.median(late_ms), "ms", len(late_ms))
    report.add("loadgen.late_ms.p99", percentile(late_ms, 99), "ms", len(late_ms))


def add_traced(report, seed, plan, daemon_trace, sessions) -> None:
    from layers import add_layer_metrics
    from tracing import Tracer

    tracer = Tracer()
    summary = json.loads(daemon_trace.read_text().splitlines()[-1])["summary"]
    tracer.merge(summary)
    requests = len(plan)
    add_layer_metrics(report, tracer, requests)

    handled = {req_id: seconds for req_id, _kind, seconds in tracer.samples["serve.handle"]}
    for kind in KINDS:
        us = [
            seconds * 1e6
            for req_id, k, seconds in tracer.samples["serve.handle"]
            if k == kind and isinstance(req_id, int) and req_id > 0
        ]
        report.add(f"serve.handle_us.{kind}", statistics.median(us) if us else 0.0, "us", len(us))
    for side in ("decode", "encode"):
        span = f"serve.wire.{side}"
        report.add(f"{span}_us", tracer.total_s(span) * 1e6 / requests, "us/op", tracer.calls(span))
    answered = [r for r in plan if r.done is not None]
    req_ms = latencies_ms(plan)
    transport = [
        (r.done - r.due) * 1e3 - handled.get(r.req_id, 0.0) * 1e3 for r in answered
    ]
    report.add("serve.transport_ms.p50", statistics.median(transport), "ms", len(transport))
    report.add("serve.transport_ms.p99", percentile(transport, 99), "ms", len(transport))
    failures = {k: v for k, v in tracer.counts.items() if k.startswith("serve.failures.")}
    report.add("serve.failures.busy", failures.get("serve.failures.busy", 0), "count", requests)
    report.add("serve.failures.total", sum(failures.values()), "count", requests)
    report.add("serve.sessions_open.max", tracer.counts["serve.sessions_open.max"], "count", requests)
    handle_ms = sum(handled.get(r.req_id, 0.0) for r in answered) * 1e3
    report.notes["handle_plus_transport_over_req"] = (
        (handle_ms + sum(transport)) / sum(req_ms)
    )

    report.add(
        "trace.overhead_ratio", tracing_overhead(seed, sessions), "ratio", len(sessions)
    )
    report.add(
        "trace.uncovered_ratio",
        tracer.self_s("serve.handle") / tracer.total_s("serve.handle"),
        "ratio",
        tracer.calls("serve.handle"),
    )

    with open(BENCH_DIR / "out" / f"trace-serve-{seed}.jsonl", "w", encoding="utf-8") as out:
        for r in plan:
            out.write(
                json.dumps(
                    {
                        "span": "request",
                        "req": r.req_id,
                        "kind": r.request.KIND,
                        "due": r.due,
                        "sent": r.sent,
                        "done": r.done,
                    }
                )
                + "\n"
            )
