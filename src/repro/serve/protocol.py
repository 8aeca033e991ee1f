"""Typed request/response wire protocol for the key-service daemon.

Every frame on a ``repro serve`` connection is the dispatch layer's
length-prefixed JSON (:mod:`repro.dispatch.wire`): plain values only.
The typing lives at both endpoints: requests and responses are frozen
dataclasses that :func:`encode_request`/:func:`decode_request` and
:func:`encode_response`/:func:`decode_response` map onto those dicts,
rebuilding every field from its annotation on the way in and surfacing
every malformation as a typed ``bad-request`` failure, never a raw
exception.  The encoders return exactly what the wire decodes (lists for
tuples, ``bytes`` kept), so an in-process answer equals the one a client
reads off the socket.

Frame shapes
------------
* client → ``{"kind": "hello", "protocol": 2, "repro": ..., "client": ...}``
* daemon → ``{"kind": "welcome", "protocol": 2}`` or ``{"kind":
  "reject", "reason": ...}`` (any first frame but a protocol-2 hello:
  the reject is flushed and that connection closed, the daemon keeps
  serving everyone else);
* client → ``{"kind": <request kind>, "req": <id>, ...fields}`` — the
  ``req`` id is an opaque client-chosen token echoed in the response
  (responses arrive in request order; the echo lets pipelining clients
  pair them without counting);
* daemon → ``{"kind": <response kind>, "req": <id>, ...fields}`` or the
  typed failure frame ``{"kind": "fail", "req": <id>, "code": ...,
  "message": ...}``.

Failure codes are the :data:`FAILURE_CODES` catalog; the client
re-raises them as :class:`~repro.errors.ServiceError` with ``code``
intact.  ``busy`` is the backpressure signal: a session's bounded send
queue is full (or the host's session table is), and the request was
refused *without* side effects — retry after draining.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Mapping

from ..dispatch.wire import FrameRejected, as_dict, decode
from ..errors import ServiceError
from ..service.emulated_channel import Delivery

SERVE_PROTOCOL = 2
"""Daemon/client wire-protocol version, checked in the handshake (1 was
restricted pickle)."""

DEFAULT_MAX_PENDING = 64
"""Default bound on a session's unflushed send queue (the ``busy``
backpressure threshold)."""

# The failure-code catalog.  Every daemon refusal is exactly one of
# these; tests and clients match on the code, not the message.
BUSY = "busy"
UNKNOWN_SESSION = "unknown-session"
DUPLICATE_SESSION = "duplicate-session"
NOT_A_MEMBER = "not-a-member"
FORMER_MEMBER = "former-member"
BAD_REQUEST = "bad-request"
INVALID_CONFIG = "invalid-config"
REKEY_FAILED = "rekey-failed"
SHUTTING_DOWN = "shutting-down"
INTERNAL = "internal"

FAILURE_CODES = frozenset(
    {
        BUSY,
        UNKNOWN_SESSION,
        DUPLICATE_SESSION,
        NOT_A_MEMBER,
        FORMER_MEMBER,
        BAD_REQUEST,
        INVALID_CONFIG,
        REKEY_FAILED,
        SHUTTING_DOWN,
        INTERNAL,
    }
)


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class OpenSession:
    """Create a session; the opening connection is attached to it."""

    KIND: ClassVar[str] = "open-session"

    name: str
    n: int = 8
    channels: int = 2
    t: int = 1
    mode: str = "preshared"  # or "group": run the full Section 6 setup
    adversary: str | None = None  # gallery name; None = quiet network
    members: tuple[int, ...] = ()  # preshared mode; () = every node
    rekey_interval: int = 0  # scheduled rekey every N emulated rounds
    max_pending: int = DEFAULT_MAX_PENDING


@dataclass(frozen=True)
class JoinSession:
    """Attach this connection to an existing session."""

    KIND: ClassVar[str] = "join-session"

    name: str


@dataclass(frozen=True)
class LeaveSession:
    """Detach this connection from a session (the session persists)."""

    KIND: ClassVar[str] = "leave-session"

    name: str


@dataclass(frozen=True)
class CloseSession:
    """Tear a session down; its name becomes reusable."""

    KIND: ClassVar[str] = "close-session"

    name: str


@dataclass(frozen=True)
class SendMessage:
    """Enqueue one broadcast (bounded queue: may fail ``busy``)."""

    KIND: ClassVar[str] = "send"

    name: str
    sender: int
    payload: bytes


@dataclass(frozen=True)
class Flush:
    """Drain the session queue, one message per emulated round."""

    KIND: ClassVar[str] = "flush"

    name: str
    max_rounds: int | None = None


@dataclass(frozen=True)
class DrainInbox:
    """A member's deliveries since this connection last drained them."""

    KIND: ClassVar[str] = "drain-inbox"

    name: str
    member: int
    include_former: bool = False


@dataclass(frozen=True)
class Rekey:
    """Exclude compromised members and switch to a fresh group key."""

    KIND: ClassVar[str] = "rekey"

    name: str
    compromised: tuple[int, ...] = ()


@dataclass(frozen=True)
class SessionStatsReq:
    """Accounting snapshot for one session."""

    KIND: ClassVar[str] = "stats"

    name: str


@dataclass(frozen=True)
class RunScenario:
    """Run one registered attack scenario inside the daemon.

    The scenario is self-contained (it builds its own networks and, for
    serve-layer attacks, its own synchronous host) and deterministic in
    ``(name, seed)``, so the daemon-side run is byte-identical to a
    local ``python -m repro scenario run``.  Unknown names fail
    ``bad-request``.
    """

    KIND: ClassVar[str] = "run-scenario"

    name: str
    seed: int = 0


@dataclass(frozen=True)
class ListSessions:
    """Names of every live session."""

    KIND: ClassVar[str] = "list-sessions"


@dataclass(frozen=True)
class Shutdown:
    """Stop the daemon (acknowledged before the listener closes)."""

    KIND: ClassVar[str] = "shutdown"


# ----------------------------------------------------------------------
# Responses
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SessionOpened:
    KIND: ClassVar[str] = "session-opened"

    name: str
    members: tuple[int, ...]
    mode: str
    epoch_length: int
    setup_rounds: int
    generation: int


@dataclass(frozen=True)
class SessionJoined:
    KIND: ClassVar[str] = "session-joined"

    name: str
    members: tuple[int, ...]
    generation: int


@dataclass(frozen=True)
class SessionLeft:
    KIND: ClassVar[str] = "session-left"

    name: str


@dataclass(frozen=True)
class SessionClosed:
    KIND: ClassVar[str] = "session-closed"

    name: str


@dataclass(frozen=True)
class Sent:
    KIND: ClassVar[str] = "sent"

    name: str
    pending: int


@dataclass(frozen=True)
class Flushed:
    """Flush outcome.

    ``deliveries`` are ``(member, emulated_round, sender, payload)``
    tuples in delivery order; ``rekeys`` are the scheduled re-keys the
    flush triggered, as :func:`rekey_tuple` rows.
    """

    KIND: ClassVar[str] = "flushed"

    name: str
    deliveries: tuple[tuple[int, int, int, bytes], ...]
    emulated_rounds: int
    pending: int
    rekeys: tuple[tuple, ...] = ()


@dataclass(frozen=True)
class InboxBatch:
    """``(emulated_round, sender, payload)`` rows for one member."""

    KIND: ClassVar[str] = "inbox"

    name: str
    member: int
    deliveries: tuple[tuple[int, int, bytes], ...]


@dataclass(frozen=True)
class RekeyDone:
    KIND: ClassVar[str] = "rekey-done"

    name: str
    generation: int
    distributor: int
    members: tuple[int, ...]
    excluded: tuple[int, ...]
    dropped: tuple[int, ...]
    rounds: int


@dataclass(frozen=True)
class SessionStatsInfo:
    KIND: ClassVar[str] = "stats-info"

    name: str
    members: tuple[int, ...]
    mode: str
    generation: int
    pending: int
    attached: int
    setup_rounds: int
    emulated_rounds: int
    real_rounds: int
    sent: int
    delivered: int
    undelivered: int
    rekeys: int


@dataclass(frozen=True)
class SessionList:
    KIND: ClassVar[str] = "session-list"

    names: tuple[str, ...]


@dataclass(frozen=True)
class ScenarioOutcome:
    """One scenario run's record, outcomes as plain encoded rows.

    ``expected`` and ``observed`` are
    :func:`repro.scenarios.outcomes.encode_outcome` tuples (kind plus
    scalar fields) — :func:`~repro.scenarios.outcomes.decode_outcome`
    rebuilds the typed outcome client-side, so no scenario class ever
    rides the wire.
    """

    KIND: ClassVar[str] = "scenario-outcome"

    name: str
    layer: str
    seed: int
    expected: tuple
    observed: tuple
    matched: bool
    detail: tuple[tuple, ...] = ()


@dataclass(frozen=True)
class ShuttingDown:
    KIND: ClassVar[str] = "shutting-down"


@dataclass(frozen=True)
class Failure:
    """The typed failure frame — the only way errors cross the wire."""

    KIND: ClassVar[str] = "fail"

    code: str
    message: str

    def raise_(self) -> None:
        raise ServiceError(self.code, self.message)


REQUEST_TYPES: dict[str, type] = {
    cls.KIND: cls
    for cls in (
        OpenSession, JoinSession, LeaveSession, CloseSession, SendMessage,
        Flush, DrainInbox, Rekey, SessionStatsReq, RunScenario,
        ListSessions, Shutdown,
    )
}

RESPONSE_TYPES: dict[str, type] = {
    cls.KIND: cls
    for cls in (
        SessionOpened, SessionJoined, SessionLeft, SessionClosed, Sent,
        Flushed, InboxBatch, RekeyDone, SessionStatsInfo, ScenarioOutcome,
        SessionList, ShuttingDown, Failure,
    )
}


# ----------------------------------------------------------------------
# Encode / decode
# ----------------------------------------------------------------------


def _decode(types: Mapping[str, type], frame: object) -> tuple[Any, Any]:
    if not isinstance(frame, dict):
        raise ServiceError(BAD_REQUEST, f"frame is not a dict: {frame!r:.60}")
    kind = frame.get("kind")
    cls = types.get(kind) if type(kind) is str else None
    if cls is None:
        raise ServiceError(BAD_REQUEST, f"unknown frame kind {kind!r:.40}")
    payload = {
        key: value for key, value in frame.items() if key not in ("kind", "req")
    }
    try:
        return frame.get("req"), decode(cls, payload)
    except FrameRejected as exc:
        raise ServiceError(
            BAD_REQUEST, f"malformed {kind!r} frame: {exc}"
        ) from None


def encode_request(req_id: object, request) -> dict:
    """Wire dict for ``request``, tagged with the client's ``req`` id: its
    kind and :func:`~repro.dispatch.wire.as_dict` fields."""
    return {"kind": request.KIND, "req": req_id, **as_dict(request)}


def decode_request(frame: object) -> tuple[object, object]:
    """``(req_id, request)``; malformation raises a ``bad-request``
    :class:`~repro.errors.ServiceError` (the daemon answers it as a
    typed failure frame — raw exceptions never reach the wire)."""
    return _decode(REQUEST_TYPES, frame)


def encode_response(req_id: object, response) -> dict:
    """Wire dict for ``response``, echoing the request's ``req`` id (laid
    out as :func:`encode_request` lays out a request)."""
    return encode_request(req_id, response)


def decode_response(frame: object) -> tuple[object, object]:
    """``(req_id, response)`` — the client-side mirror of
    :func:`decode_request`."""
    return _decode(RESPONSE_TYPES, frame)


# ----------------------------------------------------------------------
# Delivery row helpers
# ----------------------------------------------------------------------


def delivery_row(member: int, delivery: Delivery) -> tuple[int, int, int, bytes]:
    """The :class:`Flushed` wire row for one member's delivery."""
    return (member, delivery.emulated_round, delivery.sender, delivery.payload)


def inbox_row(delivery: Delivery) -> tuple[int, int, bytes]:
    """The :class:`InboxBatch` wire row for one delivery."""
    return (delivery.emulated_round, delivery.sender, delivery.payload)


def row_delivery(row: tuple[int, int, bytes]) -> Delivery:
    """Rebuild a typed :class:`~repro.service.emulated_channel.Delivery`
    from an :func:`inbox_row` tuple (the client-side view)."""
    return Delivery(*row)


def rekey_tuple(report) -> tuple:
    """The wire row for a :class:`~repro.service.session.RekeyReport`."""
    return (
        report.generation,
        report.distributor,
        tuple(report.members),
        tuple(report.excluded),
        tuple(report.dropped),
        report.rounds,
    )
