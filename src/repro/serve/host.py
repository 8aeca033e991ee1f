"""Session hosting: the daemon's brain, with no sockets in it.

:class:`SessionHost` owns every live :class:`~repro.service.session.
SecureSession` and services decoded protocol requests through one
:meth:`~SessionHost.handle` dispatcher.  The daemon is a thin transport
around it — and that split is the determinism story: the host never
reads a clock or an unseeded RNG, so driving the *same* requests through
``handle`` synchronously (tests, benchmarks) or through thousands of
multiplexed connections produces byte-identical per-session deliveries.
Each session's randomness is a registry spawned from the host seed and
the session *name*, so sessions are independent of creation order and of
each other.

Refusals are :class:`~repro.errors.ServiceError` with codes from the
:mod:`~repro.serve.protocol` catalog; the caller (daemon or test) maps
them to ``fail`` frames.  Backpressure is enforced here: a session's
unflushed queue is bounded by its ``max_pending`` and the host's session
table by ``max_sessions``, both refusing with ``busy`` *before* any side
effect, so a refused request is always safely retryable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..adversary import NullAdversary
from ..dispatch.wire import FrameRejected, check_fields
from ..errors import (
    ConfigurationError,
    ReproError,
    ScenarioError,
    ServiceError,
)
from ..experiments.workloads import make_adversary, make_network
from ..rng import RngRegistry
from ..service.session import SecureSession
from . import protocol as p

DEFAULT_MAX_SESSIONS = 4096
"""Default bound on the host's session table (the host-level ``busy``)."""

SESSION_MODES = ("preshared", "group")


@dataclass
class HostedSession:
    """One live session plus the host's bookkeeping around it.

    ``attached`` are the connection tokens currently joined; ``cursors``
    give each token an independent read position per member inbox, so
    two clients draining the same member each see every delivery exactly
    once.  ``rounds_since_rekey`` drives scheduled re-keys: when a flush
    pushes it past ``rekey_interval``, the host rotates the group key
    mid-flush (empty compromised set) before draining further messages.
    """

    name: str
    session: SecureSession
    mode: str
    adversary: str | None
    rekey_interval: int
    max_pending: int
    attached: set = field(default_factory=set)
    cursors: dict = field(default_factory=dict)  # token -> {member: int}
    rounds_since_rekey: int = 0
    rekey_count: int = 0

    def cursor_for(self, token: object) -> dict:
        return self.cursors.setdefault(token, {})


class SessionHost:
    """Registry and request dispatcher for multiplexed secure sessions."""

    def __init__(
        self,
        seed: int = 0,
        *,
        max_sessions: int = DEFAULT_MAX_SESSIONS,
    ) -> None:
        if type(max_sessions) is not int or max_sessions < 1:
            raise ConfigurationError(
                f"max_sessions must be an int >= 1, got {max_sessions!r}"
            )
        self.rng = RngRegistry(seed=seed)
        self.max_sessions = max_sessions
        self.sessions: dict[str, HostedSession] = {}
        self.shutting_down = False

    # ------------------------------------------------------------------
    # Lookup helpers
    # ------------------------------------------------------------------

    def _get(self, name: str) -> HostedSession:
        hosted = self.sessions.get(name)
        if hosted is None:
            raise ServiceError(
                p.UNKNOWN_SESSION, f"no session named {name!r}"
            )
        return hosted

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------

    def open_session(self, token: object, req: p.OpenSession) -> p.SessionOpened:
        if self.shutting_down:
            raise ServiceError(p.SHUTTING_DOWN, "host is shutting down")
        if not req.name:
            raise ServiceError(p.INVALID_CONFIG, "session name must be a non-empty string")
        if req.name in self.sessions:
            raise ServiceError(
                p.DUPLICATE_SESSION, f"session {req.name!r} already exists"
            )
        if len(self.sessions) >= self.max_sessions:
            raise ServiceError(
                p.BUSY,
                f"session table full ({self.max_sessions}); "
                "close a session and retry",
            )
        if req.mode not in SESSION_MODES:
            raise ServiceError(
                p.INVALID_CONFIG,
                f"unknown mode {req.mode!r}; pick from {SESSION_MODES}",
            )
        if req.max_pending < 1:
            raise ServiceError(
                p.INVALID_CONFIG, "max_pending must be at least 1"
            )
        if req.rekey_interval < 0:
            raise ServiceError(
                p.INVALID_CONFIG, "rekey_interval must be non-negative"
            )

        # The session's whole universe of randomness hangs off its name,
        # never off creation order or a clock: byte-identical replays.
        registry = self.rng.spawn("serve", req.name)
        try:
            if req.adversary is None:
                adversary = NullAdversary()
            else:
                adversary = make_adversary(
                    req.adversary, registry.stream("adversary")
                )
            network = make_network(req.n, req.channels, req.t, adversary)
            if req.mode == "preshared":
                members = req.members or tuple(range(req.n))
                group_key = bytes(
                    registry.stream("group-key").randbytes(32)
                )
                session = SecureSession.from_preshared(
                    network,
                    group_key,
                    members,
                    rng=registry.spawn("session"),
                )
            else:
                session = SecureSession(network, registry.spawn("session"))
        except ConfigurationError as exc:
            raise ServiceError(p.INVALID_CONFIG, str(exc)) from None

        hosted = HostedSession(
            name=req.name,
            session=session,
            mode=req.mode,
            adversary=req.adversary,
            rekey_interval=req.rekey_interval,
            max_pending=req.max_pending,
        )
        hosted.attached.add(token)
        self.sessions[req.name] = hosted
        return p.SessionOpened(
            name=req.name,
            members=tuple(session.members),
            mode=req.mode,
            epoch_length=session.channel.epoch_length(),
            setup_rounds=session.stats.setup_rounds,
            generation=session._generation,
        )

    def join_session(self, token: object, req: p.JoinSession) -> p.SessionJoined:
        hosted = self._get(req.name)
        hosted.attached.add(token)
        return p.SessionJoined(
            name=req.name,
            members=tuple(hosted.session.members),
            generation=hosted.session._generation,
        )

    def leave_session(self, token: object, req: p.LeaveSession) -> p.SessionLeft:
        hosted = self._get(req.name)
        hosted.attached.discard(token)
        hosted.cursors.pop(token, None)
        return p.SessionLeft(name=req.name)

    def close_session(self, token: object, req: p.CloseSession) -> p.SessionClosed:
        self._get(req.name)
        del self.sessions[req.name]
        return p.SessionClosed(name=req.name)

    def detach(self, token: object) -> None:
        """Forget a disconnected client everywhere (sessions persist)."""
        for hosted in self.sessions.values():
            hosted.attached.discard(token)
            hosted.cursors.pop(token, None)

    # ------------------------------------------------------------------
    # Traffic
    # ------------------------------------------------------------------

    def send(self, token: object, req: p.SendMessage) -> p.Sent:
        hosted = self._get(req.name)
        session = hosted.session
        if session.pending() >= hosted.max_pending:
            raise ServiceError(
                p.BUSY,
                f"session {req.name!r} has {session.pending()} unflushed "
                f"messages (max_pending={hosted.max_pending}); flush and retry",
            )
        if req.sender not in session.channel.members:
            raise ServiceError(
                p.NOT_A_MEMBER,
                f"node {req.sender} is not a member of {req.name!r}",
            )
        session.send(req.sender, req.payload)
        return p.Sent(name=req.name, pending=session.pending())

    def flush(self, token: object, req: p.Flush) -> p.Flushed:
        hosted = self._get(req.name)
        session = hosted.session
        if req.max_rounds is not None and req.max_rounds < 0:
            raise ServiceError(
                p.BAD_REQUEST, "max_rounds must be non-negative"
            )
        rounds_before = session.stats.emulated_rounds
        # Inbox-length marks, not round numbers: a mid-flush re-key opens
        # a fresh channel whose emulated-round counter restarts at zero,
        # so append position is the only monotone cursor.
        marks = {m: len(box) for m, box in session.stats.inboxes.items()}
        rekeys: list[tuple] = []
        budget = req.max_rounds
        # One message per iteration so a scheduled re-key lands *between*
        # emulated rounds, not after the whole drain.  Relies on flush's
        # per-call budget semantics (a lifetime budget would starve every
        # drain after the first — the bug this layer's tests pin).
        while session.pending():
            if budget is not None and budget <= 0:
                break
            session.flush(max_rounds=1)
            if budget is not None:
                budget -= 1
            hosted.rounds_since_rekey += 1
            if (
                hosted.rekey_interval
                and hosted.rounds_since_rekey >= hosted.rekey_interval
            ):
                report = self._rekey(hosted, ())
                rekeys.append(p.rekey_tuple(report))
        rows: list[tuple[int, int, int, bytes]] = []
        for member in sorted(session.stats.inboxes):
            box = session.stats.inboxes[member]
            for delivery in box[marks.get(member, 0) :]:
                rows.append(p.delivery_row(member, delivery))
        return p.Flushed(
            name=req.name,
            deliveries=tuple(rows),
            emulated_rounds=session.stats.emulated_rounds - rounds_before,
            pending=session.pending(),
            rekeys=tuple(rekeys),
        )

    def drain_inbox(self, token: object, req: p.DrainInbox) -> p.InboxBatch:
        hosted = self._get(req.name)
        session = hosted.session
        if req.member not in session.stats.inboxes:
            raise ServiceError(
                p.NOT_A_MEMBER,
                f"node {req.member} is not a member of {req.name!r}",
            )
        if req.member not in session.members and not req.include_former:
            raise ServiceError(
                p.FORMER_MEMBER,
                f"node {req.member} is a former member of {req.name!r} "
                "(excluded or dropped by a re-key); set include_former "
                "to read its historical inbox",
            )
        inbox = session.stats.inboxes[req.member]
        cursor = hosted.cursor_for(token)
        start = cursor.get(req.member, 0)
        fresh = inbox[start:]
        cursor[req.member] = len(inbox)
        return p.InboxBatch(
            name=req.name,
            member=req.member,
            deliveries=tuple(p.inbox_row(d) for d in fresh),
        )

    # ------------------------------------------------------------------
    # Re-keying
    # ------------------------------------------------------------------

    def _rekey(self, hosted: HostedSession, compromised: tuple):
        try:
            report = hosted.session.rekey(compromised)
        except ConfigurationError as exc:
            raise ServiceError(p.REKEY_FAILED, str(exc)) from None
        hosted.rounds_since_rekey = 0
        hosted.rekey_count += 1
        return report

    def rekey(self, token: object, req: p.Rekey) -> p.RekeyDone:
        hosted = self._get(req.name)
        report = self._rekey(hosted, req.compromised)
        return p.RekeyDone(
            name=req.name,
            generation=report.generation,
            distributor=report.distributor,
            members=report.members,
            excluded=report.excluded,
            dropped=report.dropped,
            rounds=report.rounds,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self, token: object, req: p.SessionStatsReq) -> p.SessionStatsInfo:
        hosted = self._get(req.name)
        session = hosted.session
        s = session.stats
        return p.SessionStatsInfo(
            name=req.name,
            members=tuple(session.members),
            mode=hosted.mode,
            generation=session._generation,
            pending=session.pending(),
            attached=len(hosted.attached),
            setup_rounds=s.setup_rounds,
            emulated_rounds=s.emulated_rounds,
            real_rounds=s.real_rounds,
            sent=s.sent,
            delivered=s.delivered,
            undelivered=s.undelivered,
            rekeys=hosted.rekey_count,
        )

    def list_sessions(self, token: object, req: p.ListSessions) -> p.SessionList:
        return p.SessionList(names=tuple(sorted(self.sessions)))

    def run_scenario(
        self, token: object, req: p.RunScenario
    ) -> p.ScenarioOutcome:
        # Imported here, not at module top: the scenario catalog attacks
        # *this* host class, so repro.scenarios imports repro.serve.host
        # and a module-level import back would be circular.
        from ..scenarios import encode_outcome
        from ..scenarios import run_scenario as execute

        try:
            run = execute(req.name, seed=req.seed)
        except ScenarioError as exc:
            raise ServiceError(p.BAD_REQUEST, str(exc)) from None
        return p.ScenarioOutcome(
            name=run.name,
            layer=run.layer,
            seed=run.seed,
            expected=encode_outcome(run.expected),
            observed=encode_outcome(run.observed),
            matched=run.matched,
            detail=run.detail,
        )

    def shutdown(self, token: object, req: p.Shutdown) -> p.ShuttingDown:
        self.shutting_down = True
        return p.ShuttingDown()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    _HANDLERS = {
        p.OpenSession: open_session,
        p.JoinSession: join_session,
        p.LeaveSession: leave_session,
        p.CloseSession: close_session,
        p.SendMessage: send,
        p.Flush: flush,
        p.DrainInbox: drain_inbox,
        p.Rekey: rekey,
        p.SessionStatsReq: stats,
        p.RunScenario: run_scenario,
        p.ListSessions: list_sessions,
        p.Shutdown: shutdown,
    }

    def handle(self, token: object, request):
        """Service one decoded request; always returns a response
        dataclass (:class:`~repro.serve.protocol.Failure` on refusal) —
        raw exceptions never escape to the transport.  A request with a
        field its annotation does not admit (the wire codec's
        :func:`~repro.dispatch.wire.check_fields`, so ``True``, ``1.0``,
        ``"1"`` or a list never stands for an id or a tuple of ids) is
        refused ``bad-request`` before any handler runs."""
        handler = self._HANDLERS.get(type(request))
        if handler is None:
            return p.Failure(
                p.BAD_REQUEST, f"unhandled request type {type(request).__name__}"
            )
        try:
            check_fields(request, request.KIND)
        except FrameRejected as exc:
            return p.Failure(p.BAD_REQUEST, str(exc))
        try:
            return handler(self, token, request)
        except ServiceError as exc:
            return p.Failure(exc.code, exc.detail)
        except ReproError as exc:
            return p.Failure(p.INTERNAL, f"{type(exc).__name__}: {exc}")
        except (TypeError, ValueError, KeyError) as exc:
            # A backstop behind the field check: an error escaping a
            # handler would kill the daemon's whole select loop.
            return p.Failure(
                p.BAD_REQUEST, f"{type(exc).__name__}: {exc}"
            )
