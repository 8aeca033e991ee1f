"""Stdlib-only socket worker pool: coordinator + forked or remote workers.

The one parallel backend, and the one that leaves the machine: a
coordinator binds a TCP port, workers (local processes it forks itself,
or ``python -m repro worker --connect HOST:PORT`` processes started
anywhere that can reach the port) connect, handshake, and pull *batches*
of :class:`~repro.experiments.trial.TrialSpec` coordinates.  ``socket``
+ ``selectors`` + ``pickle`` only — no third-party queue.

Throughput model
----------------
Version 1 of this protocol shipped one fully-pickled spec per frame and
waited for its result before sending the next — per-trial round-trip
latency serialised with worker compute, and the shared spec fields
(workload, n, channels, …) were re-pickled for every trial.  Version 2
amortises all three costs, the classic message-complexity move of paying
per *batch* instead of per unit of work:

* **context table once per run** — the distinct ``(workload, n,
  channels, t, pairs, adversary, options)`` combinations are sent to
  each worker in a single ``contexts`` frame; batches then carry only
  ``(ctx_id, index, seed)`` triples per trial;
* **batched assignment** — a ``batch`` frame carries K trials; the
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
* **warm pool** — the pool can outlive a single :meth:`SocketBackend.
  run` call (``keep_alive=True``): workers stay connected and the next
  batch of specs reuses them, paying fork + handshake once.
  A whole sweep is already *one* ``run`` call (every point's trials in
  one interleaved stream); ``keep_alive`` extends that to sequences of
  sweeps.  :meth:`SocketBackend.warm_up` pre-forks and handshakes the
  pool so timed runs measure dispatch, not process startup.

Wire protocol (version :data:`PROTOCOL_VERSION`)
------------------------------------------------
Every frame is a 4-byte big-endian length prefix followed by a pickled
dict (``pickle.HIGHEST_PROTOCOL``, capped at :data:`MAX_FRAME_BYTES`
against malformed prefixes):

* worker → ``{"kind": "hello", "protocol": 2, "repro": ..., "pid": ...}``
* coordinator → ``{"kind": "welcome"}`` or ``{"kind": "reject",
  "reason": ...}`` (protocol mismatch: the stray worker is turned away
  and the sweep continues with the rest);
* coordinator → ``{"kind": "contexts", "contexts": [ctx, ...]}`` — the
  run's distinct spec contexts, sent once per run per worker (replacing
  any previous table on a warm pool);
* coordinator → ``{"kind": "batch", "trials": [(ctx_id, index, seed),
  ...]}``; worker → ``{"kind": "results", "results": [TrialResult, ...],
  "elapsed": seconds}`` (one merged frame per batch; ``elapsed`` is the
  worker-side compute time feeding the adaptive batch size) or
  ``{"kind": "error", ...}`` if a trial itself raised — deterministic
  trials fail the same way everywhere, so that aborts the run instead of
  requeue-looping;
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

Trust model: frames are pickles, but both directions decode through
:func:`~repro.dispatch.wire.loads_restricted`, whose ``find_class``
allowlist is exactly {``TrialSpec``, ``TrialResult``,
``NetworkMetrics``} — an attacker who reaches the port can disrupt a
sweep (:class:`~repro.dispatch.wire.FrameRejected` kills the
connection) but cannot make the pickle layer import or call anything
else.  Still bind to localhost or a private network you control:
frames are neither authenticated nor encrypted.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import selectors
import socket
import sys
import time
from collections import deque
from typing import Any, Iterable, Mapping

from ..errors import ConfigurationError, DispatchError
from ..experiments.trial import TrialSpec
from ..experiments.workloads import run_trial
from .backend import DispatchBackend, ResultAssembler
from .wire import loads_restricted

PROTOCOL_VERSION = 2
"""Coordinator/worker wire-protocol version, checked in the handshake."""

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
how long a graceful close waits for a spawned worker still connecting."""


def _no_delay(sock: socket.socket) -> None:
    """Send small frames at once: a pipelined ``batch`` frame must not
    wait for the busy peer's delayed ACK (Nagle's algorithm)."""
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


def send_frame(sock: socket.socket, obj: Any) -> None:
    """Pickle ``obj`` (``HIGHEST_PROTOCOL``) and send it length-prefixed."""
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    _check_frame_length(len(data))
    sock.sendall(len(data).to_bytes(4, "big") + data)


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
    return loads_restricted(_recv_exact(sock, length))


class FrameDecoder:
    """Incremental decoder for the coordinator's non-blocking reads.

    One ``bytearray`` feed buffer; completed frames are unpickled through
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
                frames.append(loads_restricted(payload))
            del self._buffer[: 4 + length]
        return frames


# ----------------------------------------------------------------------
# Spec contexts: the shared fields, pickled once per run per worker
# ----------------------------------------------------------------------


def spec_context(spec: TrialSpec) -> tuple:
    """The spec's shared fields — everything but ``(index, seed)``."""
    return (
        spec.workload, spec.n, spec.channels, spec.t, spec.pairs,
        spec.adversary, spec.options,
    )


def spec_from_context(ctx: tuple, index: int, seed: int) -> TrialSpec:
    """Rebuild the exact :class:`TrialSpec` a batch triple refers to."""
    workload, n, channels, t, pairs, adversary, options = ctx
    return TrialSpec(
        workload=workload, index=index, seed=seed, n=n, channels=channels,
        t=t, pairs=pairs, adversary=adversary, options=tuple(options),
    )


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
        return host, int(port)
    except ValueError:
        raise ConfigurationError(
            f"endpoint {text!r} has a non-integer port"
        ) from None


def _connect(host: str, port: int) -> socket.socket:
    """One connection attempt to the coordinator, ready for frames.

    IPv4 like the coordinator's listener.  Unlike
    ``socket.create_connection``, a numeric host never reaches the
    resolver, whose first call costs a freshly forked worker ~6 ms.
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.settimeout(10.0)
        sock.connect((host, port))
    except OSError:
        sock.close()
        raise
    sock.settimeout(None)
    _no_delay(sock)
    return sock


def worker_main(
    host: str, port: int, *, retry_seconds: float = _CONNECT_RETRY_SECONDS
) -> int:
    """The ``python -m repro worker`` loop; returns a process exit code.

    Connects (retrying up to ``retry_seconds`` so workers may be started
    before the coordinator binds), handshakes, stores each ``contexts``
    table as it arrives, then runs ``batch`` frames — every trial of a
    batch back to back, one merged ``results`` frame (with the batch's
    compute time) back — until the coordinator sends ``shutdown`` (exit
    0).  A rejected handshake exits 2; a coordinator that vanishes
    mid-run exits 1.
    """
    from .. import __version__

    deadline = time.monotonic() + retry_seconds
    sock: socket.socket | None = None
    while sock is None:
        try:
            sock = _connect(host, port)
        except OSError:
            if time.monotonic() >= deadline:
                print(
                    f"repro worker: cannot reach {host}:{port} "
                    f"after {retry_seconds}s",
                    file=sys.stderr,
                )
                return 1
            time.sleep(0.1)
    contexts: list[tuple] | None = None
    try:
        send_frame(
            sock,
            {
                "kind": "hello",
                "protocol": PROTOCOL_VERSION,
                "repro": __version__,
                "pid": os.getpid(),
            },
        )
        greeting = recv_frame(sock)
        if greeting.get("kind") != "welcome":
            print(
                f"repro worker: rejected by coordinator: "
                f"{greeting.get('reason', greeting)}",
                file=sys.stderr,
            )
            return 2
        while True:
            frame = recv_frame(sock)
            kind = frame.get("kind")
            if kind == "shutdown":
                return 0
            if kind == "contexts":
                contexts = frame["contexts"]
                continue
            if kind != "batch":
                print(
                    f"repro worker: unexpected frame {kind!r}",
                    file=sys.stderr,
                )
                return 1
            if contexts is None:
                print(
                    "repro worker: batch before contexts", file=sys.stderr
                )
                return 1
            results = []
            failed = False
            start = time.perf_counter()
            for ctx_id, index, seed in frame["trials"]:
                spec = spec_from_context(contexts[ctx_id], index, seed)
                try:
                    results.append(run_trial(spec))
                except Exception as exc:  # deterministic failure: report
                    send_frame(
                        sock,
                        {
                            "kind": "error",
                            "index": index,
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
    except (EOFError, OSError):
        print("repro worker: coordinator vanished", file=sys.stderr)
        return 1
    finally:
        sock.close()


# ----------------------------------------------------------------------
# Coordinator side
# ----------------------------------------------------------------------


class _Connection:
    """Coordinator-side state for one worker socket."""

    __slots__ = ("sock", "decoder", "ready", "in_flight", "outstanding",
                 "peer")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.decoder = FrameDecoder()
        self.ready = False  # handshake completed
        self.in_flight: dict[int, TrialSpec] = {}  # index -> spec
        self.outstanding = 0  # batches sent, results frame not yet seen
        self.peer: dict[str, Any] = {}


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
    keep_alive:
        Keep the pool connected after :meth:`run` completes so the next
        ``run`` reuses the same warm workers; call :meth:`close` (or use
        the backend as a context manager) to release them.  ``False``
        restores the one-shot behaviour: the pool is torn down when the
        batch completes.
    accept_timeout:
        Seconds to wait for the first successful handshake.
    idle_timeout:
        Seconds of no frames/connections before the batch is declared
        stuck (workers are then torn down; journalled trials survive).
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
        keep_alive: bool = False,
        accept_timeout: float = 30.0,
        idle_timeout: float = 300.0,
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
        self.keep_alive = keep_alive
        self.accept_timeout = accept_timeout
        self.idle_timeout = idle_timeout
        self.target_batch_seconds = TARGET_BATCH_SECONDS
        self.spawned: list[multiprocessing.Process] = []
        self.address: tuple[str, int] | None = None
        self._sel: selectors.BaseSelector | None = None
        self._listener: socket.socket | None = None
        self._conns: dict[int, _Connection] = {}
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
        self._sel.close()
        self._listener.close()
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
        return self._listener is not None

    def _open_pool(self) -> None:
        sel = selectors.DefaultSelector()
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen()
        listener.setblocking(False)
        self.address = listener.getsockname()[:2]
        sel.register(listener, selectors.EVENT_READ, data=None)
        self._sel = sel
        self._listener = listener
        self._conns = {}
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
        if self._sel is None:
            return
        if not force:
            self._await_spawned_handshakes()
        for conn in list(self._conns.values()):
            if not force:
                try:
                    send_frame(conn.sock, {"kind": "shutdown"})
                except OSError:
                    pass
            try:
                self._sel.unregister(conn.sock)
            except (KeyError, ValueError):
                pass
            conn.sock.close()
        self._conns = {}
        if self._listener is not None:
            try:
                self._sel.unregister(self._listener)
            except (KeyError, ValueError):
                pass
            self._listener.close()
            self._listener = None
        self._sel.close()
        self._sel = None
        # Workers exit on shutdown/EOF; force only the stragglers.
        self._reap_spawned(force=force)

    def _await_spawned_handshakes(self) -> None:
        """Keep the listener up until every live spawned worker is greeted.

        A worker forked late — still starting, or inside its connect
        retry loop — would otherwise find the listener closed, retry for
        its whole window and then be killed.  Waiting for its handshake
        lets the shutdown below reach it, so it exits 0.
        """
        deadline = time.monotonic() + _CONNECT_RETRY_SECONDS
        while True:
            greeted = {
                conn.peer.get("pid")
                for conn in self._conns.values()
                if conn.ready
            }
            waiting = any(
                proc.is_alive() and proc.pid not in greeted
                for proc in self.spawned
            )
            remaining = deadline - time.monotonic()
            if not waiting or remaining <= 0:
                return
            self._pump_handshakes(min(remaining, 0.1))

    def close(self) -> None:
        """Release a warm pool: shutdown frames, reap, close sockets."""
        self._close_pool(force=False)

    def warm_up(self, timeout: float | None = None) -> int:
        """Open the pool and wait for every spawned worker's handshake.

        Returns the number of ready workers.  With ``spawn_workers=False``
        it waits for at least one remote worker.  Fork + handshake are
        one-time pool costs; warming separates them from dispatch
        throughput (and is what a long-lived cluster pool looks like in
        steady state).  The pool stays open afterwards regardless of
        ``keep_alive`` — pair with :meth:`close`.
        """
        if not self.pool_open:
            self._open_pool()
        deadline = time.monotonic() + (
            timeout if timeout is not None else self.accept_timeout
        )
        want = self.workers if self.spawn_workers else 1
        while self._ready_count() < want:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise DispatchError(
                    f"only {self._ready_count()}/{want} workers completed "
                    f"the handshake while warming up"
                )
            self._pump_handshakes(min(remaining, 0.25))
        return self._ready_count()

    def _pump_handshakes(self, timeout: float) -> None:
        """One selector pass outside a run: accept connections and answer
        ``hello`` frames (frames from already-greeted workers are
        dropped — no run is in progress to claim them)."""
        for key, _events in self._sel.select(timeout=timeout):
            if key.data is None:
                self._accept()
                continue
            conn = key.data
            try:
                chunk = conn.sock.recv(_RECV_CHUNK)
            except (BlockingIOError, InterruptedError):
                continue
            except OSError:
                self._forget(conn)
                continue
            if not chunk:
                self._forget(conn)
                continue
            for frame in conn.decoder.feed(chunk):
                if not conn.ready:
                    self._handshake(frame, conn)

    def _ready_count(self) -> int:
        return sum(1 for c in self._conns.values() if c.ready)

    def _accept(self) -> _Connection | None:
        try:
            accepted, _addr = self._listener.accept()
        except (BlockingIOError, OSError):
            return None
        accepted.setblocking(False)
        _no_delay(accepted)
        conn = _Connection(accepted)
        self._conns[accepted.fileno()] = conn
        self._sel.register(accepted, selectors.EVENT_READ, data=conn)
        return conn

    def _forget(self, conn: _Connection) -> None:
        """Drop a connection without requeueing (no run in progress)."""
        try:
            self._sel.unregister(conn.sock)
        except (KeyError, ValueError):
            pass
        self._conns.pop(conn.sock.fileno(), None)
        conn.sock.close()

    def _handshake(self, frame: Any, conn: _Connection) -> bool:
        """Process a ``hello``; True if the worker was welcomed."""
        kind = frame.get("kind") if isinstance(frame, dict) else None
        if kind != "hello":
            raise DispatchError(f"unexpected frame from worker: {frame!r}")
        conn.peer = frame
        if frame.get("protocol") != PROTOCOL_VERSION:
            try:
                send_frame(
                    conn.sock,
                    {
                        "kind": "reject",
                        "reason": (
                            f"protocol {frame.get('protocol')!r} != "
                            f"coordinator protocol {PROTOCOL_VERSION}"
                        ),
                    },
                )
            except OSError:
                pass
            self._forget(conn)
            return False
        try:
            send_frame(conn.sock, {"kind": "welcome"})
        except OSError:
            self._forget(conn)
            return False
        conn.ready = True
        self._ever_connected = True
        return True

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
        ~``target_batch_seconds`` of worker compute, capped by a fair
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
        size = int(self.target_batch_seconds / max(self._trial_cost, 1e-9))
        slots = max(live_workers, self.workers, 1) * DEFAULT_WINDOW
        fair = -(-pending_count // slots)  # ceil
        return max(1, min(size, MAX_BATCH, fair, pending_count))

    # -- the coordinator loop ------------------------------------------

    def _execute(self, specs, assembler, should_stop):
        pending: deque[TrialSpec] = deque(specs)
        # The run's context table: shared spec fields, pickled once per
        # worker instead of once per trial.
        contexts: list[tuple] = []
        ctx_ids: dict[tuple, int] = {}
        for spec in specs:
            ctx = spec_context(spec)
            if ctx not in ctx_ids:
                ctx_ids[ctx] = len(contexts)
                contexts.append(ctx)
        contexts_frame = {"kind": "contexts", "contexts": contexts}

        if not self.pool_open:
            self._open_pool()
        sel = self._sel
        started = last_activity = time.monotonic()

        def drop(conn: _Connection) -> None:
            """Forget a worker; requeue its unapplied in-flight specs."""
            self._forget(conn)
            requeue = unapplied_specs(conn.in_flight, assembler.missing())
            conn.in_flight = {}
            conn.outstanding = 0
            if requeue:
                pending.extendleft(reversed(requeue))
                assign_idle()

        def send_or_drop(conn: _Connection, frame: dict[str, Any]) -> bool:
            try:
                send_frame(conn.sock, frame)
                return True
            except OSError:
                drop(conn)
                return False

        def live_workers() -> int:
            return self._ready_count()

        def share(conn: _Connection) -> int:
            """What ``conn`` may still take for an even per-worker split
            of the unreported work."""
            unreported = len(pending) + sum(
                len(c.in_flight) for c in self._conns.values()
            )
            pool = max(live_workers(), self.workers)
            return -(-unreported // pool) - len(conn.in_flight)

        def assign(conn: _Connection) -> None:
            """Fill the worker's window with batches off the stream."""
            while conn.ready and conn.outstanding < DEFAULT_WINDOW and pending:
                size = self._next_batch_size(
                    len(pending), live_workers(), share(conn)
                )
                if not size:
                    return
                batch = [pending.popleft() for _ in range(size)]
                trials = [
                    (ctx_ids[spec_context(s)], s.index, s.seed)
                    for s in batch
                ]
                # Record in-flight before sending: a failed send drops
                # the connection, and drop() requeues from in_flight.
                for s in batch:
                    conn.in_flight[s.index] = s
                conn.outstanding += 1
                if not send_or_drop(conn, {"kind": "batch", "trials": trials}):
                    return

        def assign_idle() -> None:
            """Hand requeued work to ready workers with window room."""
            for conn in list(self._conns.values()):
                if not pending:
                    return
                if conn.ready and conn.outstanding < DEFAULT_WINDOW:
                    assign(conn)

        def handle(frame: Any, conn: _Connection) -> None:
            kind = frame.get("kind") if isinstance(frame, dict) else None
            if kind == "hello":
                if self._handshake(frame, conn):
                    if send_or_drop(conn, contexts_frame):
                        assign(conn)
                return
            if kind == "results":
                results = frame["results"]
                # Guard against a misbehaving worker's extra frames.
                if conn.outstanding > 0:
                    conn.outstanding -= 1
                self._observe_batch(frame.get("elapsed"), len(results))
                for result in results:
                    conn.in_flight.pop(result.index, None)
                    assembler.apply(result)  # duplicates dropped by index
                    self._check_stop(assembler, should_stop)
                    if assembler.done:
                        break
                assign(conn)
                return
            if kind == "error":
                raise DispatchError(
                    f"trial {frame.get('index')} failed on worker "
                    f"pid={conn.peer.get('pid')}: {frame.get('error')}"
                )
            raise DispatchError(f"unexpected frame from worker: {frame!r}")

        try:
            # A warm pool's workers are mid-recv: ship the new run's
            # context table and start filling their windows immediately.
            for conn in list(self._conns.values()):
                if conn.ready and send_or_drop(conn, contexts_frame):
                    assign(conn)
            while not assembler.done:
                for key, _events in sel.select(timeout=0.25):
                    if key.data is None:
                        if self._accept() is not None:
                            last_activity = time.monotonic()
                        continue
                    conn = key.data
                    try:
                        chunk = conn.sock.recv(_RECV_CHUNK)
                    except (BlockingIOError, InterruptedError):
                        continue
                    except OSError:
                        drop(conn)
                        continue
                    if not chunk:
                        drop(conn)
                        continue
                    last_activity = time.monotonic()
                    for frame in conn.decoder.feed(chunk):
                        handle(frame, conn)
                        if assembler.done:
                            break
                now = time.monotonic()
                if not assembler.done:
                    self._check_liveness(assembler, started, last_activity, now)
        except BaseException:
            # Interrupts and dispatch errors always tear the pool down —
            # journalled trials survive; a fresh backend resumes them.
            self._close_pool(force=True)
            raise
        if not self.keep_alive:
            self._close_pool(force=False)

    def _check_liveness(self, assembler, started, last_activity, now) -> None:
        live = self._ready_count()
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
        if now - last_activity > self.idle_timeout:
            raise DispatchError(
                f"no worker activity for {self.idle_timeout}s with "
                f"trials missing: {assembler.missing()[:10]}"
            )
