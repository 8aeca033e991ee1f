"""End-to-end tests for the socket worker pool.

These run the real thing: a coordinator in-process and genuine forked
worker processes over localhost TCP — including the acceptance scenarios
(``sweep -j 2`` with one worker SIGKILLed mid-sweep still reports what
serial reports; 2 workers, one killed, coordinator crashed, resumed
from the journal, report byte-identical to an uninterrupted serial run).
CI runs this module as its sweep smoke job.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import multiprocessing
import signal
import socket
import threading
import time
from pathlib import Path

import pytest

from repro.__main__ import _sweep_backend, build_parser
from repro.dispatch import (
    SerialBackend,
    SocketBackend,
    SweepRunner,
    SweepSpec,
)
from repro.dispatch.socket_pool import (
    INITIAL_BATCH,
    PROTOCOL_VERSION,
    FrameDecoder,
    dial,
    frame_bytes,
    parse_endpoint,
    recv_frame,
    send_frame,
    unapplied_specs,
    worker_main,
)
from repro.dispatch.wire import decode
from repro.errors import ConfigurationError, DispatchError
from repro.experiments import TrialResult, TrialSpec
from repro.radio.metrics import NetworkMetrics

from test_transport import BAD_FRAMES, assert_closed_by_peer

N = 18


def fame_specs(trials: int = 4, *, seed: int = 7, **axes) -> list[TrialSpec]:
    """The trial specs of a one-point f-AME sweep at n=18."""
    return SweepSpec(
        ns=(N,), trials=trials, seed=seed, pairs=4, **axes
    ).specs()


def exit_codes(procs) -> list[int | None]:
    """Each forked worker's exit code, once it has exited."""
    for proc in procs:
        proc.join(timeout=10)
    return [proc.exitcode for proc in procs]


class TestFraming:
    def test_send_recv_round_trip(self):
        a, b = socket.socketpair()
        try:
            payload = {"kind": "task", "blob": b"x" * 5000, "n": 17}
            send_frame(a, payload)
            assert recv_frame(b) == payload
        finally:
            a.close()
            b.close()

    def test_decoder_reassembles_byte_by_byte(self):
        frames = [{"kind": "hello", "i": i} for i in range(3)]
        wire = b"".join(frame_bytes(frame) for frame in frames)
        decoder = FrameDecoder()
        out = []
        for i in range(len(wire)):  # worst case: one byte per feed
            out.extend(decoder.feed(wire[i : i + 1]))
        assert out == frames

    def test_oversized_frame_announcement_rejected(self):
        decoder = FrameDecoder()
        with pytest.raises(DispatchError):
            decoder.feed((1 << 30).to_bytes(4, "big") + b"xxxx")

    def test_parse_endpoint(self):
        assert parse_endpoint("127.0.0.1:80") == ("127.0.0.1", 80)
        with pytest.raises(ConfigurationError):
            parse_endpoint("no-port")
        with pytest.raises(ConfigurationError):
            parse_endpoint("host:nan")
        assert parse_endpoint("h:0") == ("h", 0)
        assert parse_endpoint("h:65535") == ("h", 65535)
        for port in ("65536", "99999", "-1"):
            with pytest.raises(ConfigurationError, match="outside 0-65535"):
                parse_endpoint(f"h:{port}")


class TestBatching:
    """Unit coverage for the batching machinery (no sockets)."""

    def test_unapplied_specs_filters_applied_indices(self):
        specs = fame_specs(6)
        in_flight = {s.index: s for s in specs[:4]}
        # Indices 1 and 3 already have results; 0 and 2 are still missing
        # (index 5 is missing too but was never in flight here).
        requeue = unapplied_specs(in_flight, [0, 2, 5])
        assert requeue == [specs[0], specs[2]]

    def test_next_batch_size_pinned(self):
        backend = SocketBackend(workers=2, batch_size=7)
        assert backend._next_batch_size(100, 2, 50) == 7
        assert backend._next_batch_size(3, 2, 2) == 3  # capped by pending
        assert backend._next_batch_size(0, 2, 0) == 0

    def test_next_batch_size_starts_small_then_adapts(self):
        backend = SocketBackend(workers=2)
        assert backend._next_batch_size(1000, 2, 500) == INITIAL_BATCH
        backend._observe_batch(0.05, 10)  # 5 ms/trial observed
        # target 0.25s / 5ms = 50 trials, but fair share over
        # 2 workers * window 2 = 4 slots caps it at ceil(1000/4).
        assert backend._next_batch_size(1000, 2, 500) == 50
        assert backend._next_batch_size(100, 2, 50) == 25  # fair-share cap

    def test_first_batches_split_a_small_grid_evenly(self):
        # 8 trials, 2 workers: the first to connect stops at its 4 ...
        backend = SocketBackend(workers=2)
        assert backend._next_batch_size(8, 1, 4) == 2
        assert backend._next_batch_size(6, 1, 2) == 2
        assert backend._next_batch_size(4, 1, 0) == 0
        # ... and the second takes the other 4 in two full batches
        # (a per-slot split of the 4 pending would hand it single trials
        # and leave 2 to whichever worker reports first).
        assert backend._next_batch_size(4, 2, 4) == 2
        assert backend._next_batch_size(2, 2, 2) == 2

    def test_next_batch_size_never_zero_for_slow_trials(self):
        backend = SocketBackend(workers=2)
        backend._observe_batch(10.0, 1)  # 10 s/trial
        assert backend._next_batch_size(100, 2, 50) == 1

    def test_observe_batch_ewma(self):
        backend = SocketBackend(workers=2)
        backend._observe_batch(1.0, 1)
        assert backend._trial_cost == pytest.approx(1.0)
        backend._observe_batch(0.5, 1)
        assert backend._trial_cost == pytest.approx(0.75)
        backend._observe_batch(None, 1)  # frame without elapsed: ignored
        assert backend._trial_cost == pytest.approx(0.75)

    def test_batch_size_validation(self):
        with pytest.raises(ConfigurationError):
            SocketBackend(workers=2, batch_size=0)


class _GatedLastWorker(SocketBackend):
    """Forks its last worker as a real ``worker_main`` process that
    starts connecting only once the ``gate`` file exists."""

    def __init__(self, gate: Path, **kwargs) -> None:
        super().__init__(**kwargs)
        self.gate = gate

    def _spawn(self, count: int) -> None:
        super()._spawn(count - 1)
        proc = multiprocessing.get_context("fork").Process(
            target=self._gated_worker, daemon=True
        )
        proc.start()
        self.spawned.append(proc)

    def _gated_worker(self) -> None:
        while not self.gate.exists():
            time.sleep(0.05)
        self._worker_process()


class TestSocketBackendEndToEnd:
    def test_late_spawned_worker_is_shut_down_cleanly(self, tmp_path):
        """A spawned worker that connects only after the last result
        still gets its shutdown frame: the graceful close waits for its
        handshake instead of closing the listener under it (the worker
        would retry for 10 s and then be killed)."""
        specs = fame_specs(4)
        serial = SerialBackend().run(specs)
        gate = tmp_path / "gate"
        backend = _GatedLastWorker(gate, workers=2, accept_timeout=60.0)
        applied: list[float] = []

        def open_gate_at_last_result(result) -> None:
            applied.append(time.monotonic())
            if len(applied) == len(specs):
                gate.touch()

        assert backend.run(specs, on_result=open_gate_at_last_result) == serial
        close_seconds = time.monotonic() - applied[-1]
        assert exit_codes(backend.spawned) == [0, 0]
        assert close_seconds < 5.0

    def test_two_real_workers_match_serial(self):
        specs = fame_specs(4)
        serial = SerialBackend().run(specs)
        backend = SocketBackend(workers=2, accept_timeout=60.0)
        assert backend.run(specs) == serial
        # forked workers exited cleanly on shutdown
        assert exit_codes(backend.spawned) == [0, 0]

    def test_lost_worker_requeues_in_flight_trials(self):
        specs = fame_specs(4)
        serial = SerialBackend().run(specs)
        backend = SocketBackend(workers=2, accept_timeout=60.0)
        killed = []

        def kill_one(result) -> None:
            if not killed:
                backend.spawned[0].kill()
                killed.append(True)

        # One worker is murdered after the first result; its in-flight
        # trial is requeued and the survivor finishes the batch.
        assert backend.run(specs, on_result=kill_one) == serial

    def test_all_workers_dead_is_a_dispatch_error(self):
        specs = fame_specs(4)
        backend = SocketBackend(workers=1, accept_timeout=60.0)

        def kill_all(result) -> None:
            for proc in backend.spawned:
                proc.kill()

        with pytest.raises(DispatchError):
            backend.run(specs, on_result=kill_all)

    def test_warm_pool_reused_across_runs(self):
        specs_a = fame_specs(4)
        specs_b = fame_specs(4, seed=11)
        serial_a = SerialBackend().run(specs_a)
        serial_b = SerialBackend().run(specs_b)
        backend = SocketBackend(workers=2, accept_timeout=60.0)
        try:
            assert backend.warm_up(timeout=60.0) == 2
            spawned = list(backend.spawned)
            assert backend.run(specs_a) == serial_a
            # A pool warm_up opened survives the run ...
            assert backend.pool_open
            assert backend.run(specs_b) == serial_b
            # ... and the second run reused the same worker processes.
            assert backend.spawned == spawned
        finally:
            backend.close()
        assert not backend.pool_open
        assert exit_codes(spawned) == [0, 0]

    def test_graceful_close_refuses_the_old_address(self):
        """Forked workers drop their inherited copy of the listener, so
        the port stops accepting when the coordinator stops listening —
        even while the workers live on."""
        backend = SocketBackend(workers=2, accept_timeout=60.0)
        try:
            assert backend.warm_up(timeout=60.0) == 2
            address = backend.address
            backend._server._listener.close()
            assert all(proc.is_alive() for proc in backend.spawned)
            with pytest.raises(ConnectionRefusedError):
                socket.create_connection(address, timeout=5).close()
        finally:
            backend.close()
        assert exit_codes(backend.spawned) == [0, 0]
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(address, timeout=5).close()

    def test_both_ends_disable_nagle(self, monkeypatch):
        """A pipelined ``batch`` frame must not wait for the busy
        worker's delayed ACK: the coordinator's accepted socket and the
        worker's connection both set ``TCP_NODELAY``."""
        worker_socks: list[socket.socket] = []

        def recording_dial(*args, **kwargs):
            worker_socks.append(dial(*args, **kwargs))
            return worker_socks[-1]

        monkeypatch.setattr("repro.dispatch.socket_pool.dial", recording_dial)
        backend = SocketBackend(workers=1, spawn_workers=False)
        backend._open_pool()
        worker = threading.Thread(
            target=worker_main, args=backend.address, daemon=True
        )
        worker.start()
        try:
            assert backend.warm_up(timeout=30.0) == 1
            [peer] = backend._server.peers
            # dial returns once the welcome arrives, maybe after warm_up.
            deadline = time.monotonic() + 10.0
            while not worker_socks and time.monotonic() < deadline:
                time.sleep(0.01)
            [worker_sock] = worker_socks
            for sock in (peer.sock, worker_sock):
                assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        finally:
            backend.close()
            worker.join(timeout=30)


class _FakeWorker(threading.Thread):
    """A hand-rolled worker in this thread: it says hello with
    ``protocol`` and answers each batch of specs with their results."""

    def __init__(self, port: int, *, protocol=PROTOCOL_VERSION,
                 duplicate_results=False):
        super().__init__(daemon=True)
        self.port = port
        self.protocol = protocol
        self.duplicate_results = duplicate_results
        self.greeting = None
        self.batch_sizes: list[int] = []

    def run(self) -> None:
        from repro.experiments.workloads import run_trial

        sock = socket.create_connection(("127.0.0.1", self.port), timeout=30)
        try:
            send_frame(
                sock, {"kind": "hello", "protocol": self.protocol, "pid": 0}
            )
            self.greeting = recv_frame(sock)
            if self.greeting.get("kind") != "welcome":
                return
            while True:
                frame = recv_frame(sock)
                if frame["kind"] == "shutdown":
                    return
                specs = decode(tuple[TrialSpec, ...], frame["trials"])
                self.batch_sizes.append(len(specs))
                reply = {
                    "kind": "results",
                    "results": [run_trial(spec) for spec in specs],
                    "elapsed": 0.01,
                }
                send_frame(sock, reply)
                if self.duplicate_results:
                    send_frame(sock, reply)
        except (EOFError, OSError):
            pass
        finally:
            sock.close()


def _run_backend_in_thread(backend, specs, **kwargs):
    """Start ``backend.run`` in a thread; return once it is listening."""
    out: dict = {}
    listening = threading.Event()
    open_pool = backend._open_pool

    def open_and_signal() -> None:
        open_pool()
        listening.set()

    # Hand-rolled workers do not retry, so connecting before the
    # coordinator binds would be refused.
    backend._open_pool = open_and_signal

    def target() -> None:
        try:
            out["results"] = backend.run(specs, **kwargs)
        except BaseException as exc:  # surfaced by the caller
            out["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    assert listening.wait(timeout=30)
    return thread, out


def _free_port() -> int:
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


class TestHandshake:
    @staticmethod
    def _stray_is_refused_and_the_sweep_continues(protocol):
        specs = fame_specs(2)
        serial = SerialBackend().run(specs)
        port = _free_port()
        backend = SocketBackend(
            workers=1, port=port, spawn_workers=False, accept_timeout=60.0
        )
        thread, out = _run_backend_in_thread(backend, specs)
        stray = _FakeWorker(port, protocol=protocol)
        stray.start()
        stray.join(timeout=30)
        assert stray.greeting["kind"] == "reject"
        assert "protocol" in stray.greeting["reason"]
        good = _FakeWorker(port)
        good.start()
        thread.join(timeout=120)
        assert not thread.is_alive()
        assert out.get("results") == serial

    def test_protocol_mismatch_rejected_but_sweep_continues(self):
        self._stray_is_refused_and_the_sweep_continues(PROTOCOL_VERSION + 1)

    def test_a_worker_on_the_old_coins_is_refused(self):
        # Protocol 3 workers draw randomness version 1: their trials would
        # not be this coordinator's, so the hello turns them away.
        self._stray_is_refused_and_the_sweep_continues(3)

    def test_a_context_table_worker_is_refused(self):
        # Protocol 6 workers wait for a table of shared spec fields and
        # read batch rows against it: no batch of specs would decode.
        self._stray_is_refused_and_the_sweep_continues(6)

    def test_duplicate_results_from_worker_are_dropped(self):
        specs = fame_specs(3)
        serial = SerialBackend().run(specs)
        port = _free_port()
        backend = SocketBackend(
            workers=1, port=port, spawn_workers=False, accept_timeout=60.0
        )
        applied: list[int] = []
        thread, out = _run_backend_in_thread(
            backend, specs, on_result=lambda r: applied.append(r.index)
        )
        worker = _FakeWorker(port, duplicate_results=True)
        worker.start()
        thread.join(timeout=120)
        assert not thread.is_alive()
        assert out.get("results") == serial
        assert sorted(applied) == [0, 1, 2]  # once each, duplicates dropped


class _Intruder(threading.Thread):
    """Greets a coordinator as a worker, then sends ``bad`` bytes."""

    def __init__(self, address, bad: bytes) -> None:
        super().__init__(daemon=True)
        self.address = address
        self.bad = bad
        self.greeting = None

    def run(self) -> None:
        with socket.create_connection(self.address, timeout=30) as sock:
            send_frame(
                sock, {"kind": "hello", "protocol": PROTOCOL_VERSION, "pid": 0}
            )
            self.greeting = recv_frame(sock)
            sock.sendall(self.bad)
            try:
                while sock.recv(1 << 16):  # batch frames
                    pass
            except ConnectionResetError:
                pass


def _sweep_with(spec: SweepSpec, on_first_result) -> tuple[dict, object]:
    """Run ``spec`` on one forked worker; ``on_first_result(address)``
    fires (in the coordinator's thread) when the first result lands."""
    backend = SocketBackend(workers=1, accept_timeout=60.0)
    runner = SweepRunner(spec, backend=backend)
    original_add = runner.state.add
    fired = []

    def add(result):
        if not fired:
            fired.append(on_first_result(backend.address))
        return original_add(result)

    runner.state.add = add
    report = runner.run().as_dict()
    assert fired
    return report, fired[0]


MID_SWEEP = SweepSpec(ns=(N,), trials=12, seed=7, pairs=4)
"""The sweep a bad peer joins; its report must stay ``--workers 1``'s."""

_LAST = MID_SWEEP.specs()[-1]
_FORGED = TrialResult(
    index=_LAST.index,
    seed=_LAST.seed,
    success=False,
    failed_pairs=((0, 9),),
    metrics=NetworkMetrics(rounds=1),
    cover=1,
)
"""A well-typed, in-bounds forgery of the last trial (which lands: peers
are not authenticated); each break below spoils it in one field."""


def _results(elapsed: float = 0.1, **change) -> dict:
    """A results frame carrying :data:`_FORGED` with ``change`` applied."""
    forged = dataclasses.replace(_FORGED, **change)
    return {"kind": "results", "results": [forged], "elapsed": elapsed}


PROTOCOL_BREAKS = {
    "not-an-object": [{"kind": "results"}],
    "unknown-kind": {"kind": "bogus"},
    "results-missing": {"kind": "results"},
    "results-not-trial-results": {
        "kind": "results",
        "results": [1],
        "elapsed": 0.1,
    },
    "metrics-null": _results(metrics=None),
    "cover-null-k20": _results(
        failed_pairs=tuple(itertools.combinations(range(20), 2)), cover=None
    ),
    "pair-outside-n": _results(failed_pairs=((0, N),)),
    "negative-counter": _results(metrics=NetworkMetrics(rounds=-1)),
    "cover-above-pairs": _results(cover=2),
    "forged-seed": _results(seed=_LAST.seed + 1),
    "elapsed-nan": _results(elapsed=float("nan")),
    "elapsed-huge-int": _results(elapsed=10**400),
}
"""Frames that decode but that no worker sends."""


class TestBadPeersMidSweep:
    """A bad peer costs only its own connection: the sweep goes on and
    its report is the ``--workers 1`` report.  Each of these used to
    abort the run."""

    @staticmethod
    def _intrude_mid_sweep(bad: bytes) -> None:
        """A welcomed intruder sends ``bad`` once the first result lands;
        the report must still be the ``--workers 1`` report."""
        spec = MID_SWEEP
        reference = SweepRunner(spec).run().as_dict()

        def intrude(address):
            intruder = _Intruder(address, bad)
            intruder.start()
            return intruder

        report, intruder = _sweep_with(spec, intrude)
        intruder.join(timeout=30)
        assert not intruder.is_alive()
        assert intruder.greeting["kind"] == "welcome"
        assert json.dumps(report, sort_keys=True) == json.dumps(
            reference, sort_keys=True
        )

    @pytest.mark.parametrize("bad", list(BAD_FRAMES))
    def test_undecodable_frame_closes_only_its_connection(self, bad):
        self._intrude_mid_sweep(BAD_FRAMES[bad])

    @pytest.mark.parametrize("frame", list(PROTOCOL_BREAKS))
    def test_protocol_break_closes_only_its_connection(self, frame):
        self._intrude_mid_sweep(frame_bytes(PROTOCOL_BREAKS[frame]))

    def test_stray_first_frame_is_rejected(self):
        spec = SweepSpec(ns=(N,), trials=12, seed=7, pairs=4)
        reference = SweepRunner(spec).run().as_dict()

        def stray_in(address):
            stray = socket.create_connection(address, timeout=30)
            send_frame(stray, {"kind": "list-sessions", "req": 1})
            return stray

        report, stray = _sweep_with(spec, stray_in)
        with stray:
            assert recv_frame(stray)["kind"] == "reject"
            assert_closed_by_peer(stray)
        assert json.dumps(report, sort_keys=True) == json.dumps(
            reference, sort_keys=True
        )


class TestWorkerMain:
    def test_worker_unreachable_coordinator_exits_1(self):
        assert worker_main("127.0.0.1", _free_port(), retry_seconds=0.2) == 1

    def test_worker_rejected_exits_2(self):
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen()
        port = listener.getsockname()[1]

        def coordinator() -> None:
            conn, _ = listener.accept()
            recv_frame(conn)
            send_frame(conn, {"kind": "reject", "reason": "nope"})
            conn.close()

        thread = threading.Thread(target=coordinator, daemon=True)
        thread.start()
        try:
            assert worker_main("127.0.0.1", port, retry_seconds=5.0) == 2
        finally:
            listener.close()

    def test_worker_runs_batches_until_shutdown(self):
        specs = fame_specs(2)
        expected = SerialBackend().run(specs)
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen()
        port = listener.getsockname()[1]
        got: dict = {}

        def coordinator() -> None:
            conn, _ = listener.accept()
            got["hello"] = recv_frame(conn)
            send_frame(conn, {"kind": "welcome"})
            send_frame(conn, {"kind": "batch", "trials": specs})
            got["results"] = recv_frame(conn)
            send_frame(conn, {"kind": "shutdown"})
            conn.close()

        thread = threading.Thread(target=coordinator, daemon=True)
        thread.start()
        try:
            assert worker_main("127.0.0.1", port, retry_seconds=5.0) == 0
        finally:
            thread.join(timeout=30)
            listener.close()
        assert got["hello"]["protocol"] == PROTOCOL_VERSION
        assert got["results"]["kind"] == "results"
        # One merged frame for the whole batch, with its compute time.
        results = decode(tuple[TrialResult, ...], got["results"]["results"])
        assert list(results) == expected
        assert got["results"]["elapsed"] > 0

    @pytest.mark.parametrize(
        "frames",
        [
            [{"kind": "batch"}],
            # A protocol 6 coordinator's (context, index, seed) row.
            [{"kind": "batch", "trials": [(0, 0, 1)]}],
            # Its spec-context table, now a kind no coordinator sends.
            [{"kind": "contexts", "contexts": []}],
            [["not", "a", "dict"]],
        ],
        ids=["trials-missing", "context-row", "unexpected-kind", "not-a-dict"],
    )
    def test_malformed_coordinator_frame_exits_1_with_one_line(
        self, frames, capsys
    ):
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen()
        port = listener.getsockname()[1]

        def coordinator() -> None:
            conn, _ = listener.accept()
            recv_frame(conn)
            send_frame(conn, {"kind": "welcome"})
            for frame in frames:
                send_frame(conn, frame)
            try:
                conn.recv(1)  # until the worker hangs up
            finally:
                conn.close()

        thread = threading.Thread(target=coordinator, daemon=True)
        thread.start()
        try:
            assert worker_main("127.0.0.1", port, retry_seconds=5.0) == 1
        finally:
            thread.join(timeout=30)
            listener.close()
        assert not thread.is_alive()
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("repro worker: malformed coordinator frame: ")


class CoordinatorCrash(Exception):
    """Raised from inside a sweep to end it as a crash would."""


class TestKillAndResumeAcceptance:
    """The kill and resume acceptance scenarios, end to end on localhost."""

    def test_sigkilled_worker_under_sweep_j2_matches_serial(self):
        """What ``sweep -j 2`` builds survives a SIGKILLed worker: the
        dead worker's trials are requeued and the report is serial's."""
        args = build_parser().parse_args(["sweep", "-j", "2"])
        backend = _sweep_backend(args)
        spec = SweepSpec(ns=(N,), trials=8, seed=7, pairs=4)
        reference = SweepRunner(spec).run().as_dict()
        runner = SweepRunner(spec, backend=backend)
        original_add = runner.state.add

        def add_and_kill(result):
            victim = backend.spawned[0]
            if victim.exitcode is None:
                victim.kill()  # SIGKILL
                victim.join(timeout=10)
            return original_add(result)

        runner.state.add = add_and_kill
        report = runner.run()
        assert backend.spawned[0].exitcode == -signal.SIGKILL
        assert json.dumps(report.as_dict(), sort_keys=True) == json.dumps(
            reference, sort_keys=True
        )

    def test_mid_batch_kill_journals_every_index_exactly_once(
        self, tmp_path
    ):
        """Batched redelivery: a worker killed while holding multi-trial
        batches (some of whose indices are already journalled) must not
        make any index run twice into the journal, and the finished
        report must still match serial byte-for-byte."""
        spec = SweepSpec(ns=(N,), trials=8, seed=7, pairs=4)
        reference = SweepRunner(spec).run().as_dict()

        journal = tmp_path / "sweep.jsonl"
        backend = SocketBackend(
            workers=2, accept_timeout=60.0, batch_size=2
        )
        runner = SweepRunner(
            spec, backend=backend, journal_path=str(journal)
        )
        killed = []
        original_add = runner.state.add

        def add_and_kill(result):
            # Kill a worker on the first durable result: its remaining
            # in-flight batches get requeued with this (journalled)
            # index filtered out.
            if not killed and backend.spawned:
                backend.spawned[0].kill()
                killed.append(True)
            return original_add(result)

        runner.state.add = add_and_kill
        report = runner.run()
        assert killed, "a worker should have been killed mid-run"
        assert json.dumps(report.as_dict(), sort_keys=True) == json.dumps(
            reference, sort_keys=True
        )
        indices = [
            json.loads(line)["index"]
            for line in journal.read_text().splitlines()[1:]
        ]
        assert sorted(indices) == list(range(8))  # each exactly once

    def test_killed_worker_plus_resume_matches_serial_uninterrupted(
        self, tmp_path
    ):
        spec = SweepSpec(ns=(N,), trials=6, seed=7, pairs=4)
        # Reference: uninterrupted serial run of the same SweepSpec/seed.
        reference = SweepRunner(spec).run().as_dict()

        journal = tmp_path / "sweep.jsonl"
        backend = SocketBackend(workers=2, accept_timeout=60.0)
        runner = SweepRunner(spec, backend=backend, journal_path=str(journal))
        # The runner journals each result before it adds it, so wrapping
        # ``add`` kills a worker on the first journalled result and
        # crashes the coordinator once four are journalled.
        original_add = runner.state.add
        added = []

        def add_kill_crash(result):
            if not added:
                backend.spawned[0].kill()  # one worker dies mid-sweep
            if len(added) == 3:
                raise CoordinatorCrash
            added.append(result)
            return original_add(result)

        runner.state.add = add_kill_crash
        with pytest.raises(CoordinatorCrash):
            runner.run()
        assert not backend.pool_open
        journalled = [
            json.loads(line)
            for line in journal.read_text().splitlines()[1:]
        ]
        assert len(journalled) == 4  # exactly the applied trials, durably

        # Resume from the journal on a fresh socket pool.
        resumed = SweepRunner(
            spec,
            backend=SocketBackend(workers=2, accept_timeout=60.0),
            journal_path=str(journal),
            resume=True,
        ).run()
        assert json.dumps(resumed.as_dict(), sort_keys=True) == json.dumps(
            reference, sort_keys=True
        )
