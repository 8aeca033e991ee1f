"""The multi-session key-service daemon: ``python -m repro serve``.

The daemon runs on the sweep coordinator's transport,
:class:`~repro.dispatch.socket_pool.FrameServer` (its framing: 4-byte
length prefix + JSON in the :mod:`repro.dispatch.wire` codec), which
multiplexes any number of client connections over one
:class:`~repro.serve.host.SessionHost`.  Frames carry only plain values;
:mod:`repro.serve.protocol` rebuilds each request from its dataclass's
annotations, so a peer can send nothing a request type does not admit.

Division of labour: the server owns sockets, buffers and the ``hello``
handshake; the daemon maps request frames onto the host and back; every
decision about sessions lives in the host, which is clock-free — the
daemon's only time source paces the *event loop* (select timeouts, the
idle watchdog) and can never influence a session's traffic, keeping
daemon-served sessions byte-identical to synchronously driven ones.

A bad peer costs only its own connection: bytes that do not decode
(not JSON, ``NaN``, runaway nesting, an oversized prefix), or
a first frame that is not a ``hello`` with :data:`~repro.serve.protocol.
SERVE_PROTOCOL` (answered with ``reject``), close that connection, and
the daemon detaches it from its sessions like any client that left.

Backpressure has two layers: the host refuses over-quota work with
``busy`` failure frames (bounded per-session send queues, bounded
session table), and the transport bounds each connection's outbound
buffer — a client that stops reading its responses gets ``busy``
failures for new requests until it drains, rather than growing the
buffer without limit.

Trust model matches the dispatch pool: decoding constructs only plain
values and the typed requests they spell, and a well-typed request that
breaks a rule is a typed failure, but frames are neither authenticated
nor encrypted — bind to localhost or a private network.
"""

from __future__ import annotations

import math
import sys
import time

from ..dispatch.socket_pool import (
    CLOSED,
    DRAIN_SECONDS,
    WELCOMED,
    FramePeer,
    FrameServer,
)
# Every response is encoded through this module-level name, which
# perfbench's serve tracer wraps as the daemon's encode span.
from ..dispatch.socket_pool import frame_bytes as _frame_bytes
from ..errors import ConfigurationError, DispatchError, ServiceError
from . import protocol as p
from .host import SessionHost

MAX_OUTBUF_BYTES = 1 << 22
"""Per-connection outbound buffer bound (the transport-level ``busy``)."""

SELECT_TIMEOUT = 0.25
"""Event-loop tick; also bounds shutdown/stop-flag latency."""


class ServeDaemon:
    """The serve event loop around one :class:`SessionHost`.

    Parameters
    ----------
    seed:
        Master seed for the host (every session's randomness derives
        from it and the session name).
    host, port:
        Bind address; ``port=0`` lets the OS pick (read
        :attr:`address` after :meth:`bind`).
    max_sessions:
        Bound on the host's session table, at least 1.
    idle_timeout:
        Seconds (finite, ``> 0``) without any traffic or live client
        before the daemon exits on its own (``None`` = serve forever).  A
        watchdog for CI smoke jobs, not a session property.

    Either one out of range is a
    :class:`~repro.errors.ConfigurationError` before anything binds.
    """

    def __init__(
        self,
        *,
        seed: int = 0,
        host: str = "127.0.0.1",
        port: int = 0,
        max_sessions: int | None = None,
        idle_timeout: float | None = None,
    ) -> None:
        if idle_timeout is not None and not 0 < idle_timeout < math.inf:
            raise ConfigurationError(
                "idle_timeout must be a finite number > 0 when given, "
                f"got {idle_timeout!r}"
            )
        kwargs = {} if max_sessions is None else {"max_sessions": max_sessions}
        self.host = SessionHost(seed=seed, **kwargs)
        self.bind_host = host
        self.bind_port = port
        self.idle_timeout = idle_timeout
        self.address: tuple[str, int] | None = None
        self._server: FrameServer | None = None
        self._stop = False

    def bind(self) -> tuple[str, int]:
        """Bind the listener; returns (and stores) the bound address."""
        self._server = FrameServer(
            self.bind_host, self.bind_port, p.SERVE_PROTOCOL
        )
        self.address = self._server.address
        return self.address

    def request_stop(self) -> None:
        """Ask the loop to exit (thread-safe flag; one tick of latency)."""
        self._stop = True

    def _handle_frame(self, peer: FramePeer, frame: object) -> None:
        """Answer one request; the connection is the host-facing token."""
        req_id = frame.get("req") if isinstance(frame, dict) else None
        if len(peer.outbuf) > MAX_OUTBUF_BYTES:
            # The client is not reading its responses; refuse new work
            # with a (small) typed failure instead of buffering without
            # bound.  No host state was touched: safe to retry.
            response = p.Failure(
                p.BUSY,
                "connection outbound buffer is full; "
                "read pending responses and retry",
            )
        else:
            try:
                req_id, request = p.decode_request(frame)
            except ServiceError as exc:
                response = p.Failure(exc.code, exc.detail)
            else:
                response = self.host.handle(peer, request)
        try:
            data = _frame_bytes(p.encode_response(req_id, response))
        except DispatchError as exc:  # over MAX_FRAME_BYTES
            data = _frame_bytes(
                p.encode_response(req_id, p.Failure(p.INTERNAL, str(exc)))
            )
        self._server.send(peer, data)
        if isinstance(response, p.ShuttingDown):
            self._stop = True

    def run(self) -> None:
        """Serve until a ``shutdown`` request, :meth:`request_stop`, or
        the idle watchdog fires.  Outbound buffers get
        :data:`~repro.dispatch.socket_pool.DRAIN_SECONDS` to drain before
        the connections close, so a shutdown acknowledgement always
        reaches its requester."""
        if self._server is None:
            self.bind()
        server = self._server
        last_activity = time.monotonic()
        drain = 0.0
        try:
            while not self._stop:
                for peer, frame in server.poll(SELECT_TIMEOUT):
                    last_activity = time.monotonic()
                    if frame is CLOSED:
                        # Its sessions persist, its cursors don't.
                        self.host.detach(peer)
                    elif frame is not WELCOMED:
                        self._handle_frame(peer, frame)
                        if self._stop:
                            break
                if (
                    self.idle_timeout is not None
                    and not server.peers
                    and time.monotonic() - last_activity > self.idle_timeout
                ):
                    break
            drain = DRAIN_SECONDS
        finally:
            self._server = None
            server.close(drain)


def serve_main(
    *,
    seed: int = 0,
    host: str = "127.0.0.1",
    port: int = 0,
    max_sessions: int | None = None,
    idle_timeout: float | None = None,
) -> int:
    """The ``python -m repro serve`` entry point; returns an exit code."""
    daemon = ServeDaemon(
        seed=seed,
        host=host,
        port=port,
        max_sessions=max_sessions,
        idle_timeout=idle_timeout,
    )
    bound = daemon.bind()
    print(
        f"repro serve: key-service daemon listening on "
        f"{bound[0]}:{bound[1]} (seed={seed})",
        file=sys.stderr,
        flush=True,
    )
    try:
        daemon.run()
    except KeyboardInterrupt:
        pass
    return 0
