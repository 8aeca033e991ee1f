"""Stdlib-only socket worker pool: coordinator + forked or remote workers.

The one parallel backend, and the one that leaves the machine: a
coordinator binds a TCP port, workers (local processes it forks itself,
or ``python -m repro worker --connect HOST:PORT`` processes started
anywhere that can reach the port) connect, handshake, and pull *batches*
of :class:`~repro.experiments.trial.TrialSpec` coordinates.  ``socket``
+ ``selectors`` + ``json`` only — no third-party queue.

Transport
---------
This module also holds the one socket transport, which the
``repro serve`` daemon (:mod:`repro.serve.daemon`) runs on as well:

* the framing — :func:`frame_bytes` (the one encoder, capped at
  :data:`MAX_FRAME_BYTES`), :func:`send_frame`, :func:`recv_frame` and
  the incremental :class:`FrameDecoder`;
* :class:`FrameServer` — the non-blocking listening end: an AF_INET
  listener, ``TCP_NODELAY`` accepts, decoder reads, buffered writes
  flushed as sockets become writable, the versioned ``hello`` rule, and
  a drain-then-close shutdown.  Its owner sees ``(peer, frame)`` events
  and keeps only its own protocol;
* :func:`dial` — the dialing end: an IPv4 connect with retry and
  ``TCP_NODELAY``, then the ``hello`` exchange.  The worker and
  :class:`~repro.serve.client.ServiceClient` both start with it.

The ``hello`` rule: a connection's first frame must be ``{"kind":
"hello", "protocol": P}`` with the server's ``P``.  The server answers
``{"kind": "welcome", "protocol": P}``, or sends ``{"kind": "reject",
"reason": ...}``, flushes it and closes that connection.

Throughput model
----------------
The per-trial round trip — a request serialised with worker compute —
is paid per *batch* instead, the classic message-complexity move:

* **batched assignment** — a ``batch`` frame carries K trial specs; the
  worker runs them all and replies with one merged ``results`` frame.
  K adapts to the observed per-trial cost (workers report their batch
  compute time) targeting :data:`TARGET_BATCH_SECONDS` per batch, capped
  by a fair share of the remaining work so the tail stays balanced;
  ``batch_size=`` (CLI ``--batch-size``) pins K instead;
* **pipelined in-flight window** — each worker holds up to
  :data:`DEFAULT_WINDOW` outstanding batches, so coordinator send
  latency hides behind worker compute instead of alternating with it;
  both ends set ``TCP_NODELAY``, so a pipelined ``batch`` frame is not
  held back waiting for the busy worker's delayed ACK;
* **warm pool** — :meth:`SocketBackend.warm_up` pre-forks and
  handshakes the pool, which then stays open across :meth:`SocketBackend.
  run` calls until :meth:`SocketBackend.close`: the next specs reuse the
  same workers, paying fork + handshake once, and timed runs measure
  dispatch, not process startup.  A run that opens the pool itself
  closes it when it ends.  A whole sweep is already *one* ``run`` call
  (every point's trials in one interleaved stream).

Wire protocol (version :data:`PROTOCOL_VERSION`)
------------------------------------------------
Every frame is a 4-byte big-endian length prefix followed by one JSON
object in the :mod:`~repro.dispatch.wire` codec (capped at
:data:`MAX_FRAME_BYTES` against malformed prefixes):

* worker → ``{"kind": "hello", "protocol": 7, "repro": ..., "pid": ...}``
* coordinator → ``{"kind": "welcome", "protocol": 7}`` or ``{"kind":
  "reject", "reason": ...}`` (the ``hello`` rule above: a stray worker
  or any other peer is turned away and the sweep continues with the
  rest);
* coordinator → ``{"kind": "batch", "trials": [TrialSpec, ...]}``, each
  spec a dict of its fields that the worker rebuilds with
  :func:`~repro.dispatch.wire.decode`; worker → ``{"kind": "results",
  "results": [TrialResult, ...], "elapsed": seconds}`` (one merged frame
  per batch; ``elapsed`` is the worker-side compute time feeding the
  adaptive batch size) or ``{"kind": "error", ...}`` if a trial itself
  raised — deterministic trials fail the same way everywhere, so that
  aborts the run instead of requeue-looping;
* coordinator → ``{"kind": "shutdown"}`` once the pool is released.

Fault model
-----------
A worker that vanishes (killed, OOM, network cut) surfaces as EOF or a
send failure; requeue works at **batch granularity**: every spec of its
in-flight batches that is still unapplied is handed to the next idle
worker (:func:`unapplied_specs` filters out indices whose results
already arrived — the :class:`~repro.dispatch.backend.ResultAssembler`'s
at-most-once-per-index rule makes redelivery of partially-applied
batches harmless either way).  A SIGKILLed local worker is no different:
it is a forked child that alone holds its end of the connection.
Because per-trial seeds are a pure function of the trial index, a
requeued trial re-runs bit-for-bit identically on any worker, so the
merged report stays byte-identical to serial regardless of batch sizes,
completion order, retries, or worker count.

Trust model: frames are JSON in the :mod:`~repro.dispatch.wire` codec,
so decoding a peer's bytes builds plain values and nothing else.  One
rule holds on both listening ports (the coordinator's and the daemon's):
any exception raised while decoding a peer's bytes — not JSON, ``NaN``,
runaway nesting, an oversized prefix — closes that connection alone,
and so does a first frame that is not an acceptable ``hello``.  The
owner treats it like any vanished peer: the coordinator requeues its
in-flight trials, the daemon detaches it from its sessions.  A welcomed
worker's frame that decodes but breaks the protocol — a mistyped field,
an ``elapsed`` that is not a finite ``>= 0``, a result failing
:func:`~repro.dispatch.wire.check_result` against the spec dispatched
for its index — costs it the same (:meth:`FrameServer.close_peer`);
only an ``error`` frame aborts a sweep.  A well-typed, in-bounds forgery
still lands, so bind to localhost or a private network you control:
frames are neither authenticated nor encrypted.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import selectors
import socket
import sys
import time
from collections import deque
from typing import Any, Iterable, Mapping

from ..errors import ConfigurationError, DispatchError
from ..experiments.trial import TrialResult, TrialSpec
from ..experiments.workloads import run_trial
from .backend import DispatchBackend, ResultAssembler
from .wire import FrameRejected, check_result, decode, dumps, loads

PROTOCOL_VERSION = 7
"""Coordinator/worker wire-protocol version, checked in the handshake.

Bumped whenever a frame changes shape or what a trial computes (3: the
spec context tuple lost its ``options`` field; 4: the honest coins moved
to :data:`repro.rng.RANDOMNESS_VERSION` 2; 5: JSON, not pickle; 6: a
group-key reporter counts its own Part 3 report, which changes t = 0
runs; 7: a batch frame carries its TrialSpecs; no contexts frame), so a
worker of another version is turned away at ``hello`` instead of failing
to unpack a frame or returning results drawn on other coins."""

MAX_FRAME_BYTES = 1 << 28
"""Upper bound on a single frame; larger prefixes abort the connection."""

_RECV_CHUNK = 1 << 16

DEFAULT_WINDOW = 2
"""Outstanding batches per worker: enough to hide coordinator latency
behind worker compute without hoarding work on one connection."""

INITIAL_BATCH = 2
"""Batch size before any latency observation exists: small, so the first
``results`` frame (and its ``elapsed`` measurement) arrives quickly."""

MAX_BATCH = 256
"""Adaptive batch-size ceiling; frames stay far below the size cap."""

TARGET_BATCH_SECONDS = 0.25
"""Adaptive target for one batch's worker compute time: long enough to
amortise a round trip, short enough for balanced tails and prompt
journal flushes."""

_CONNECT_RETRY_SECONDS = 10.0
"""How long a worker keeps retrying its connection by default — and so
how long a graceful close waits for a spawned worker still connecting
or still running a batch."""

DRAIN_SECONDS = 5.0
"""How long a graceful :meth:`FrameServer.close` lets buffered frames
(shutdown acknowledgements, goodbyes) leave before it closes."""

IDLE_SECONDS = 300.0
"""How long a run may go without a pool event (a frame, a welcome, a
lost connection) before it is declared stuck: the workers are torn down
and journalled trials survive."""


def _no_delay(sock: socket.socket) -> None:
    """Send small frames at once: a pipelined ``batch`` frame or a serve
    reply must not wait for the peer's delayed ACK (Nagle's algorithm)."""
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------


def _check_frame_length(length: int) -> None:
    """The single :data:`MAX_FRAME_BYTES` guard, shared by both
    directions and both decoder styles."""
    if length > MAX_FRAME_BYTES:
        raise DispatchError(
            f"refusing a {length}-byte frame (cap {MAX_FRAME_BYTES})"
        )


def frame_bytes(obj: Any) -> bytes:
    """``obj`` encoded (:func:`~repro.dispatch.wire.dumps`) and
    length-prefixed: the one encoder, so every outbound frame obeys
    :data:`MAX_FRAME_BYTES`."""
    data = dumps(obj)
    _check_frame_length(len(data))
    return len(data).to_bytes(4, "big") + data


def send_frame(sock: socket.socket, obj: Any) -> None:
    """Blocking send of one frame (the dialing side)."""
    sock.sendall(frame_bytes(obj))


def _recv_exact(sock: socket.socket, nbytes: int) -> bytes:
    chunks = bytearray()
    while len(chunks) < nbytes:
        chunk = sock.recv(nbytes - len(chunks))
        if not chunk:
            raise EOFError("connection closed mid-frame")
        chunks.extend(chunk)
    return bytes(chunks)


def recv_frame(sock: socket.socket) -> Any:
    """Blocking read of one length-prefixed frame (the worker side)."""
    length = int.from_bytes(_recv_exact(sock, 4), "big")
    _check_frame_length(length)
    return loads(_recv_exact(sock, length))


class FrameDecoder:
    """Incremental decoder for :class:`FrameServer`'s non-blocking reads.

    One ``bytearray`` feed buffer; completed frames are decoded through
    a ``memoryview`` so the payload is never copied out first.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list[Any]:
        """Buffer ``data``; return every frame completed by it."""
        self._buffer.extend(data)
        frames: list[Any] = []
        while len(self._buffer) >= 4:
            length = int.from_bytes(self._buffer[:4], "big")
            _check_frame_length(length)
            if len(self._buffer) < 4 + length:
                break
            # Both views must be released before the del resizes the
            # buffer (a live export would raise BufferError).
            with memoryview(self._buffer) as view, \
                    view[4 : 4 + length] as payload:
                frames.append(loads(payload))
            del self._buffer[: 4 + length]
        return frames


# ----------------------------------------------------------------------
# Transport: the listening end and the dialing end
# ----------------------------------------------------------------------


WELCOMED = object()
"""Event marker: the peer's ``hello`` was welcomed (it is ``peer.hello``)."""

CLOSED = object()
"""Event marker: the peer's connection is gone — EOF, a socket error, an
undecodable frame, or a rejected ``hello``."""


class FramePeer:
    """One accepted connection of a :class:`FrameServer`."""

    __slots__ = ("sock", "decoder", "outbuf", "hello")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.decoder = FrameDecoder()
        self.outbuf = bytearray()  # encoded frames the socket has not taken
        self.hello: dict | None = None  # set once the hello is welcomed


class FrameServer:
    """The non-blocking frame server under the coordinator and the daemon.

    Binds an AF_INET listener; an endpoint it cannot bind (a port in
    use, a host that does not resolve or is not this machine's) is a
    :class:`~repro.errors.ConfigurationError` naming it.  Each
    :meth:`poll` accepts connections (``TCP_NODELAY``), flushes buffered
    writes, and reads every readable connection through its
    :class:`FrameDecoder`, applying the ``hello`` rule to each
    connection's first frame.  Any exception raised while decoding a
    peer's bytes closes that connection alone.  The owner acts on the
    returned events and answers through :meth:`send`; it never touches a
    socket.
    """

    def __init__(self, host: str, port: int, protocol: int) -> None:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((host, port))
            listener.listen()
        except OSError as exc:
            listener.close()
            raise ConfigurationError(
                f"cannot bind {host}:{port}: {exc.strerror or exc}"
            ) from None
        listener.setblocking(False)
        self.protocol = protocol
        self.address: tuple[str, int] = listener.getsockname()[:2]
        self.peers: set[FramePeer] = set()
        self._events: list[tuple[FramePeer, Any]] = []
        self._listener = listener
        self._sel = selectors.DefaultSelector()
        self._sel.register(listener, selectors.EVENT_READ)

    def poll(self, timeout: float) -> list[tuple[FramePeer, Any]]:
        """One selector pass; returns its ``(peer, frame)`` events in order.

        ``frame`` is a decoded frame from a welcomed peer,
        :data:`WELCOMED`, or :data:`CLOSED`.  A peer's events stop at its
        ``CLOSED``; a ``CLOSED`` found by :meth:`send` is returned by the
        next poll, which then does not wait.
        """
        for key, mask in self._sel.select(0 if self._events else timeout):
            peer = key.data
            if peer is None:
                self._accept()
                continue
            if mask & selectors.EVENT_WRITE:
                self._flush(peer)
            if mask & selectors.EVENT_READ and peer in self.peers:
                self._read(peer)
        events, self._events = self._events, []
        return events

    def send(self, peer: FramePeer, data: bytes) -> None:
        """Queue encoded frames (:func:`frame_bytes`) for ``peer`` and
        write what its socket takes now; polls write the rest.  Bytes
        for a closed peer are dropped."""
        if peer not in self.peers:
            return
        idle = not peer.outbuf
        peer.outbuf += data
        if idle:
            self._flush(peer)

    def close_peer(self, peer: FramePeer) -> None:
        """Close ``peer``; the next :meth:`poll` reports it :data:`CLOSED`."""
        if peer in self.peers:
            self._close(peer)

    def close(self, drain: float = 0.0) -> None:
        """Stop listening, give buffered frames up to ``drain`` seconds
        to leave, then close every connection."""
        self._sel.unregister(self._listener)
        self._listener.close()
        for peer in list(self.peers):
            if peer.outbuf:
                self._sel.modify(peer.sock, selectors.EVENT_WRITE, peer)
            else:
                self._close(peer)
        deadline = time.monotonic() + drain
        while self.peers and (remaining := deadline - time.monotonic()) > 0:
            for key, _mask in self._sel.select(remaining):
                if self._write(key.data) and not key.data.outbuf:
                    self._close(key.data)
        for peer in list(self.peers):
            self._close(peer)
        self._sel.close()

    def forget(self) -> None:
        """Close only this process's copies of the listener and selector:
        a forked child's first step, leaving both to its parent."""
        self._sel.close()
        self._listener.close()

    # -- one connection -------------------------------------------------

    def _accept(self) -> None:
        try:
            sock, _addr = self._listener.accept()
        except OSError:  # BlockingIOError: it went away before accept
            return
        sock.setblocking(False)
        _no_delay(sock)
        peer = FramePeer(sock)
        self.peers.add(peer)
        self._sel.register(sock, selectors.EVENT_READ, peer)

    def _read(self, peer: FramePeer) -> None:
        try:
            chunk = peer.sock.recv(_RECV_CHUNK)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            chunk = b""
        if not chunk:
            self._close(peer)
            return
        try:
            frames = peer.decoder.feed(chunk)
        except Exception:
            # Bytes that do not decode — not JSON, NaN, runaway nesting,
            # an oversized prefix — are this peer's fault alone: its
            # connection closes, every other one stays.
            self._close(peer)
            return
        for frame in frames:
            if peer.hello is not None:
                self._events.append((peer, frame))
            elif not self._greet(peer, frame):
                return

    def _greet(self, peer: FramePeer, frame: Any) -> bool:
        """The ``hello`` rule for a first frame; False once ``peer`` is
        closed."""
        kind, got = (
            (frame.get("kind"), frame.get("protocol"))
            if isinstance(frame, dict)
            else (type(frame).__name__, None)
        )
        if kind == "hello" and got == self.protocol:
            peer.hello = frame
            self._events.append((peer, WELCOMED))
            self.send(peer, frame_bytes({"kind": "welcome", "protocol": got}))
            return peer in self.peers
        reason = (
            f"first frame must be a protocol {self.protocol} hello, got "
            f"kind {kind!r:.40} protocol {got!r:.40}"
        )
        self.send(peer, frame_bytes({"kind": "reject", "reason": reason}))
        # A fresh connection's send buffer takes the small reject whole,
        # so it has left by now.
        if peer in self.peers:
            self._close(peer)
        return False

    def _write(self, peer: FramePeer) -> bool:
        """Send what the socket takes; False if that closed ``peer``."""
        try:
            sent = peer.sock.send(peer.outbuf)
        except (BlockingIOError, InterruptedError):
            return True
        except OSError:
            self._close(peer)
            return False
        del peer.outbuf[:sent]
        return True

    def _flush(self, peer: FramePeer) -> None:
        if self._write(peer):
            events = selectors.EVENT_READ
            if peer.outbuf:
                events |= selectors.EVENT_WRITE
            self._sel.modify(peer.sock, events, peer)

    def _close(self, peer: FramePeer) -> None:
        self.peers.discard(peer)
        self._sel.unregister(peer.sock)
        peer.sock.close()
        self._events.append((peer, CLOSED))


def dial(
    host: str, port: int, hello: dict, *, retry_seconds: float
) -> socket.socket:
    """Connect to a :class:`FrameServer` and exchange ``hello``.

    Retries the IPv4 connect for up to ``retry_seconds`` (a server may
    bind after its clients start), sets ``TCP_NODELAY``, and returns the
    blocking socket once the server welcomes ``hello``.  Unlike
    ``socket.create_connection``, a numeric host never reaches the
    resolver, whose first call costs a freshly forked worker ~6 ms.
    Raises the last ``OSError`` when the server stays unreachable, and
    :class:`~repro.errors.DispatchError` carrying the server's reason
    when it rejects the ``hello``.  A ``retry_seconds`` that is not a
    finite number ``>= 0`` (``nan`` or ``inf`` would retry forever) is a
    :class:`~repro.errors.ConfigurationError` before any socket opens.
    """
    if not 0 <= retry_seconds < math.inf:
        raise ConfigurationError(
            "retry_seconds must be a finite number >= 0, "
            f"got {retry_seconds!r}"
        )
    deadline = time.monotonic() + retry_seconds
    while True:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.settimeout(10.0)
            sock.connect((host, port))
            break
        except OSError:
            sock.close()
            if time.monotonic() >= deadline:
                raise
        time.sleep(0.05)
    try:
        sock.settimeout(None)
        _no_delay(sock)
        send_frame(sock, hello)
        greeting = recv_frame(sock)
    except BaseException:
        sock.close()
        raise
    if isinstance(greeting, dict) and greeting.get("kind") == "welcome":
        return sock
    sock.close()
    if isinstance(greeting, dict):
        greeting = greeting.get("reason", greeting)
    raise DispatchError(str(greeting))


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


def parse_endpoint(text: str) -> tuple[str, int]:
    """Parse ``HOST:PORT`` (the ``--connect`` / ``--bind`` argument)."""
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ConfigurationError(
            f"endpoint {text!r} is not of the form HOST:PORT"
        )
    try:
        number = int(port)
    except ValueError:
        raise ConfigurationError(
            f"endpoint {text!r} has a non-integer port"
        ) from None
    if not 0 <= number <= 65535:
        raise ConfigurationError(
            f"endpoint {text!r} has a port outside 0-65535"
        )
    return host, number


def worker_main(
    host: str, port: int, *, retry_seconds: float = _CONNECT_RETRY_SECONDS
) -> int:
    """The ``python -m repro worker`` loop; returns a process exit code.

    Dials the coordinator (:func:`dial`, retrying up to
    ``retry_seconds`` so workers may be started before it binds), then
    runs ``batch`` frames — each batch's specs rebuilt by
    :func:`~repro.dispatch.wire.decode` and run back to back, one merged
    ``results`` frame (with the batch's compute time) back — until the
    coordinator sends ``shutdown`` (exit 0).  The socket is its only
    connection state.  A rejected handshake exits 2; an unreachable
    coordinator, one that vanishes mid-run, or a malformed frame (any
    other kind, or a batch whose ``trials`` are not specs) exits 1 with
    one line on stderr.
    """
    from .. import __version__

    hello = {
        "kind": "hello",
        "protocol": PROTOCOL_VERSION,
        "repro": __version__,
        "pid": os.getpid(),
    }
    try:
        sock = dial(host, port, hello, retry_seconds=retry_seconds)
    except DispatchError as exc:
        print(f"repro worker: rejected by coordinator: {exc}", file=sys.stderr)
        return 2
    except (EOFError, OSError) as exc:
        print(f"repro worker: cannot reach {host}:{port}: {exc}",
              file=sys.stderr)
        return 1
    try:
        while True:
            frame = recv_frame(sock)
            kind = frame.get("kind") if isinstance(frame, dict) else None
            if kind == "shutdown":
                return 0
            if kind != "batch":
                raise FrameRejected(f"unexpected frame kind {kind!r:.40}")
            specs = decode(
                tuple[TrialSpec, ...], frame.get("trials"), "trials"
            )
            results = []
            failed = False
            start = time.perf_counter()
            for spec in specs:
                try:
                    results.append(run_trial(spec))
                except Exception as exc:  # deterministic failure: report
                    send_frame(
                        sock,
                        {
                            "kind": "error",
                            "index": spec.index,
                            "error": f"{type(exc).__name__}: {exc}",
                        },
                    )
                    failed = True
                    break
            if not failed:
                send_frame(
                    sock,
                    {
                        "kind": "results",
                        "results": results,
                        "elapsed": time.perf_counter() - start,
                    },
                )
    except FrameRejected as exc:
        print(f"repro worker: malformed coordinator frame: {exc}",
              file=sys.stderr)
        return 1
    except (EOFError, OSError):
        print("repro worker: coordinator vanished", file=sys.stderr)
        return 1
    finally:
        sock.close()


# ----------------------------------------------------------------------
# Coordinator side
# ----------------------------------------------------------------------


def unapplied_specs(
    in_flight: Mapping[int, TrialSpec], missing: Iterable[int]
) -> list[TrialSpec]:
    """A dead worker's requeue set: in-flight specs still unapplied.

    Redelivery at batch granularity is safe because the assembler drops
    duplicates by index — this filter merely avoids re-running trials
    whose results already arrived (e.g. the worker died *after* its
    results frame was processed, or a prior requeue completed elsewhere).
    """
    missing_set = set(missing)
    return [
        spec for index, spec in sorted(in_flight.items())
        if index in missing_set
    ]


class _Worker:
    """Coordinator-side state for one welcomed worker connection."""

    __slots__ = ("peer", "in_flight", "outstanding")

    def __init__(self, peer: FramePeer) -> None:
        self.peer = peer
        self.in_flight: dict[int, TrialSpec] = {}  # index -> spec
        self.outstanding = 0  # batches sent, results frame not yet seen


class SocketBackend(DispatchBackend):
    """Coordinator for the batched, pipelined socket worker pool.

    Parameters
    ----------
    workers:
        Local workers to fork (``spawn_workers=True``); also the pool's
        nominal size, used to split early batches fairly before every
        worker has connected.
    host, port:
        Bind address; ``port=0`` lets the OS pick (the forked workers
        are told the real port).  Bind a routable host + fixed port with
        ``spawn_workers=False`` to serve workers on other machines.
    spawn_workers:
        Fork ``workers`` local worker processes after binding; each
        closes its inherited copy of the coordinator's listener and
        selector, then runs :func:`worker_main`.  When ``False`` the
        coordinator only listens and prints the bound endpoint to
        stderr; start ``python -m repro worker`` processes yourself.
    batch_size:
        Trials per ``batch`` frame.  ``None`` (default) adapts: start at
        :data:`INITIAL_BATCH`, then target :data:`TARGET_BATCH_SECONDS`
        of worker compute per batch from the observed per-trial cost,
        always capped by a fair share of the remaining work.
    accept_timeout:
        Seconds to wait for the first successful handshake.
    """

    name = "socket"

    def __init__(
        self,
        workers: int = 2,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        spawn_workers: bool = True,
        batch_size: int | None = None,
        accept_timeout: float = 30.0,
    ) -> None:
        if workers < 1:
            raise ConfigurationError("SocketBackend needs workers >= 1")
        if batch_size is not None and batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1 when given")
        self.workers = workers
        self.host = host
        self.port = port
        self.spawn_workers = spawn_workers
        self.batch_size = batch_size
        self.accept_timeout = accept_timeout
        self.spawned: list[multiprocessing.Process] = []
        self.address: tuple[str, int] | None = None
        self._server: FrameServer | None = None
        self._workers: dict[FramePeer, _Worker] = {}
        self._ever_connected = False
        self._trial_cost: float | None = None  # EWMA seconds per trial

    # -- worker process management ------------------------------------

    def _spawn(self, count: int) -> None:
        # Forked, not exec'd: a child starts with repro already imported.
        # That needs a coordinator with no other threads running (the
        # CLI's has none).  Daemonic, so an exiting coordinator never
        # waits on a warm pool it forgot to close.
        fork = multiprocessing.get_context("fork")
        for _ in range(count):
            proc = fork.Process(target=self._worker_process, daemon=True)
            proc.start()
            self.spawned.append(proc)

    def _worker_process(self) -> None:
        """A forked worker's body.  Dropping the inherited listener means
        the port closes with the coordinator, whatever the workers do."""
        self._server.forget()
        sys.exit(worker_main(*self.address))

    def _reap_spawned(self, *, force: bool) -> None:
        for proc in self.spawned:
            if force:
                proc.terminate()
        for proc in self.spawned:
            proc.join(timeout=10.0)
            if proc.exitcode is None:
                proc.kill()
                proc.join(timeout=10.0)

    # -- pool lifecycle -------------------------------------------------

    @property
    def pool_open(self) -> bool:
        """True while the listener (and any warm workers) are live."""
        return self._server is not None

    def _open_pool(self) -> None:
        self._server = FrameServer(self.host, self.port, PROTOCOL_VERSION)
        self.address = self._server.address
        self._workers = {}
        self._ever_connected = False
        self.spawned = []
        if self.spawn_workers:
            self._spawn(self.workers)
        else:
            print(
                f"repro sweep: socket coordinator listening on "
                f"{self.address[0]}:{self.address[1]}",
                file=sys.stderr,
            )

    def _close_pool(self, *, force: bool) -> None:
        """Tear the pool down; graceful closes say goodbye first."""
        server = self._server
        if server is None:
            return
        if not force:
            self._await_quiet()
            goodbye = frame_bytes({"kind": "shutdown"})
            for peer in self._workers:
                server.send(peer, goodbye)
        self._server = None
        self._workers = {}
        server.close(drain=0.0 if force else DRAIN_SECONDS)
        # Workers exit on shutdown/EOF; force only the stragglers.
        self._reap_spawned(force=force)

    def _await_quiet(self) -> None:
        """Keep the listener up until every live spawned worker is greeted
        and every batch in flight has answered (its results are dropped).

        A worker forked late — still starting, or inside its connect
        retry loop — would otherwise find the listener closed, retry for
        its whole window and then be killed; one still running a batch
        when the run ends would answer it and find the coordinator gone.
        Waiting lets the shutdown below reach both, so they exit 0.
        """
        deadline = time.monotonic() + _CONNECT_RETRY_SECONDS
        while True:
            greeted = {peer.hello.get("pid") for peer in self._workers}
            waiting = any(
                proc.is_alive() and proc.pid not in greeted
                for proc in self.spawned
            ) or any(w.outstanding for w in self._workers.values())
            remaining = deadline - time.monotonic()
            if not waiting or remaining <= 0:
                return
            self._track(self._server.poll(min(remaining, 0.1)))

    def close(self) -> None:
        """Release a warm pool: shutdown frames, reap, close sockets."""
        self._close_pool(force=False)

    def warm_up(self, timeout: float | None = None) -> int:
        """Open the pool and wait for every spawned worker's handshake.

        Returns the number of ready workers.  With ``spawn_workers=False``
        it waits for at least one remote worker.  Fork + handshake are
        one-time pool costs; warming separates them from dispatch
        throughput (and is what a long-lived cluster pool looks like in
        steady state).  A pool this opens stays open across :meth:`run`
        calls until :meth:`close`.
        """
        if not self.pool_open:
            self._open_pool()
        deadline = time.monotonic() + (
            timeout if timeout is not None else self.accept_timeout
        )
        want = self.workers if self.spawn_workers else 1
        while len(self._workers) < want:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise DispatchError(
                    f"only {len(self._workers)}/{want} workers completed "
                    f"the handshake while warming up"
                )
            self._track(self._server.poll(min(remaining, 0.25)))
        return len(self._workers)

    def _track(self, events: Iterable[tuple[FramePeer, Any]]) -> None:
        """Book server events outside a run: track welcomed and closed
        workers.  No run is in progress to claim a greeted worker's
        frame, so it only answers one of that worker's batches and is
        dropped."""
        for peer, frame in events:
            if frame is WELCOMED:
                self._welcome(peer)
            elif frame is CLOSED:
                self._workers.pop(peer, None)
            elif (worker := self._workers.get(peer)) and worker.outstanding:
                worker.outstanding -= 1

    def _welcome(self, peer: FramePeer) -> _Worker:
        worker = self._workers[peer] = _Worker(peer)
        self._ever_connected = True
        return worker

    # -- batch sizing ---------------------------------------------------

    def _observe_batch(self, elapsed: float | None, count: int) -> None:
        """Fold one results frame's compute time into the cost EWMA."""
        if not elapsed or count < 1:
            return
        per_trial = elapsed / count
        if self._trial_cost is None:
            self._trial_cost = per_trial
        else:
            self._trial_cost = 0.5 * self._trial_cost + 0.5 * per_trial

    def _next_batch_size(
        self, pending_count: int, live_workers: int, share: int
    ) -> int:
        """Trials for the next ``batch`` frame (0: leave the rest).

        A pinned ``batch_size`` wins outright (bar the pending cap).
        Before any observation: :data:`INITIAL_BATCH`, capped by
        ``share`` — what this worker may still take for an even
        per-worker split of the unreported work — so on a grid that fits
        in the pool's windows the first worker to connect takes only its
        part, as a static split would.  After: enough trials for
        ~:data:`TARGET_BATCH_SECONDS` of worker compute, capped by a fair
        share of the remaining work across the pool's window slots, so
        one early-connecting worker can never hoard the whole stream and
        the tail splits evenly.
        """
        if pending_count < 1:
            return 0
        if self.batch_size is not None:
            return min(self.batch_size, pending_count)
        if self._trial_cost is None:
            return max(0, min(INITIAL_BATCH, share, pending_count))
        size = int(TARGET_BATCH_SECONDS / max(self._trial_cost, 1e-9))
        slots = max(live_workers, self.workers, 1) * DEFAULT_WINDOW
        fair = -(-pending_count // slots)  # ceil
        return max(1, min(size, MAX_BATCH, fair, pending_count))

    # -- the coordinator loop ------------------------------------------

    def _execute(self, specs, assembler):
        pending: deque[TrialSpec] = deque(specs)
        dispatched = {spec.index: spec for spec in specs}
        # A run closes only a pool it opened: a warm pool outlives it.
        opened = not self.pool_open
        if opened:
            self._open_pool()
        server = self._server
        started = last_activity = time.monotonic()

        def drop(peer: FramePeer) -> None:
            """Forget a closed worker; requeue its unapplied specs."""
            worker = self._workers.pop(peer, None)
            if worker is None:
                return
            requeue = unapplied_specs(worker.in_flight, assembler.missing())
            if requeue:
                pending.extendleft(reversed(requeue))
                assign_idle()

        def share(worker: _Worker) -> int:
            """What ``worker`` may still take for an even per-worker split
            of the unreported work."""
            unreported = len(pending) + sum(
                len(w.in_flight) for w in self._workers.values()
            )
            pool = max(len(self._workers), self.workers)
            return -(-unreported // pool) - len(worker.in_flight)

        def assign(worker: _Worker) -> None:
            """Fill the worker's window with batches off the stream."""
            while worker.outstanding < DEFAULT_WINDOW and pending:
                size = self._next_batch_size(
                    len(pending), len(self._workers), share(worker)
                )
                if not size:
                    return
                batch = [pending.popleft() for _ in range(size)]
                # In flight before sent: a failed send closes the
                # connection, and its CLOSED event requeues from here.
                for s in batch:
                    worker.in_flight[s.index] = s
                worker.outstanding += 1
                server.send(
                    worker.peer,
                    frame_bytes({"kind": "batch", "trials": batch}),
                )

        def assign_idle() -> None:
            """Hand pending work to ready workers with window room."""
            for worker in list(self._workers.values()):
                if not pending:
                    return
                assign(worker)

        def handle(frame: Any, worker: _Worker) -> None:
            kind = frame.get("kind") if isinstance(frame, dict) else None
            if kind == "error":
                raise DispatchError(
                    f"trial {frame.get('index')} failed on worker "
                    f"pid={worker.peer.hello.get('pid')}: "
                    f"{frame.get('error')}"
                )
            try:
                if kind != "results":
                    raise FrameRejected(f"unexpected frame kind {kind!r:.40}")
                elapsed = decode(float, frame.get("elapsed"), "elapsed")
                if elapsed < 0:
                    raise FrameRejected(f"{elapsed} is negative", "elapsed")
                results = decode(
                    tuple[TrialResult, ...], frame.get("results"), "results"
                )
                for row, result in enumerate(results):
                    check_result(result, dispatched, f"results[{row}]")
            except FrameRejected:
                # Like undecodable bytes, a protocol break costs only its
                # connection, whose CLOSED event requeues its trials.
                server.close_peer(worker.peer)
                return
            # Guard against a misbehaving worker's extra frames.
            if worker.outstanding > 0:
                worker.outstanding -= 1
            self._observe_batch(elapsed, len(results))
            for result in results:
                worker.in_flight.pop(result.index, None)
                assembler.apply(result)  # duplicates dropped by index
                if assembler.done:
                    break
            assign(worker)

        try:
            # A warm pool's workers are mid-recv: start filling their
            # windows immediately.
            assign_idle()
            while not assembler.done:
                for peer, frame in server.poll(0.25):
                    last_activity = time.monotonic()
                    if frame is WELCOMED:
                        assign(self._welcome(peer))
                    elif frame is CLOSED:
                        drop(peer)
                    elif not assembler.done and peer in server.peers:
                        handle(frame, self._workers[peer])
                if not assembler.done:
                    self._check_liveness(
                        assembler, started, last_activity, time.monotonic()
                    )
        except BaseException:
            # Dispatch errors, signals and crashes tear the pool down —
            # journalled trials survive; a fresh backend resumes them.
            self._close_pool(force=True)
            raise
        if opened:
            self._close_pool(force=False)

    def _check_liveness(self, assembler, started, last_activity, now) -> None:
        live = len(self._workers)
        if not self._ever_connected and now - started > self.accept_timeout:
            raise DispatchError(
                f"no worker completed the handshake within "
                f"{self.accept_timeout}s"
            )
        if self.spawn_workers and not live:
            if self.spawned and not any(
                p.is_alive() for p in self.spawned
            ):
                raise DispatchError(
                    f"all {len(self.spawned)} spawned workers exited with "
                    f"trials missing: {assembler.missing()[:10]}"
                )
        if now - last_activity > IDLE_SECONDS:
            raise DispatchError(
                f"no worker activity for {IDLE_SECONDS}s with "
                f"trials missing: {assembler.missing()[:10]}"
            )
