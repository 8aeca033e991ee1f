"""Blocking client for the key-service daemon.

:class:`ServiceClient` speaks the :mod:`repro.serve.protocol` over one
TCP connection: handshake at connect, then one request frame per call
and a blocking read of its response (requests carry echo'd ``req`` ids,
so the pairing survives even though this client never pipelines).
Daemon ``fail`` frames re-raise locally as
:class:`~repro.errors.ServiceError` with the catalog ``code`` intact —
catching ``ServiceError`` with ``exc.code == "busy"`` is the retry
signal; everything else arrives as the typed response dataclass.

The connection comes from :func:`~repro.dispatch.socket_pool.dial`, the
sweep worker's own dial-and-hello: IPv4 with ``TCP_NODELAY``, retried
so clients may start before the daemon binds (the CI smoke job races
them deliberately).
"""

from __future__ import annotations

from ..dispatch.socket_pool import (
    dial,
    parse_endpoint,
    recv_frame,
    send_frame,
)
from ..errors import DispatchError, ServiceError
from ..service.emulated_channel import Delivery
from . import protocol as p

__all__ = ["ServiceClient", "parse_endpoint"]


class ServiceClient:
    """One connection to a ``repro serve`` daemon.

    Usable as a context manager; :meth:`close` is idempotent.  All
    methods block until the daemon answers; failures raise
    :class:`~repro.errors.ServiceError` carrying the daemon's failure
    code.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        name: str = "client",
        retry_seconds: float = 10.0,
    ) -> None:
        from .. import __version__

        hello = {
            "kind": "hello",
            "protocol": p.SERVE_PROTOCOL,
            "repro": __version__,
            "client": name,
        }
        try:
            self._sock = dial(host, port, hello, retry_seconds=retry_seconds)
        except DispatchError as exc:
            raise ServiceError(
                p.BAD_REQUEST, f"rejected by daemon: {exc}"
            ) from None
        except (EOFError, OSError) as exc:
            raise ServiceError(
                p.INTERNAL, f"cannot reach {host}:{port}: {exc}"
            ) from None
        self._req = 0
        self._closed = False

    # ------------------------------------------------------------------

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._sock.close()

    def request(self, request):
        """Send one request, block for its response; raise on ``fail``."""
        if self._closed:
            raise ServiceError(p.INTERNAL, "client is closed")
        self._req += 1
        req_id = self._req
        try:
            send_frame(self._sock, p.encode_request(req_id, request))
            frame = recv_frame(self._sock)
        except (EOFError, OSError) as exc:
            self.close()
            raise ServiceError(
                p.INTERNAL, f"daemon connection lost: {exc}"
            ) from None
        got_id, response = p.decode_response(frame)
        if got_id != req_id:
            self.close()
            raise ServiceError(
                p.INTERNAL,
                f"response for request {got_id!r}, expected {req_id!r}",
            )
        if isinstance(response, p.Failure):
            response.raise_()
        return response

    # ------------------------------------------------------------------
    # Convenience wrappers, one per protocol request
    # ------------------------------------------------------------------

    def open_session(
        self,
        name: str,
        *,
        n: int = 8,
        channels: int = 2,
        t: int = 1,
        mode: str = "preshared",
        adversary: str | None = None,
        members: tuple = (),
        rekey_interval: int = 0,
        max_pending: int = p.DEFAULT_MAX_PENDING,
    ) -> p.SessionOpened:
        return self.request(
            p.OpenSession(
                name=name,
                n=n,
                channels=channels,
                t=t,
                mode=mode,
                adversary=adversary,
                members=tuple(members),
                rekey_interval=rekey_interval,
                max_pending=max_pending,
            )
        )

    def join_session(self, name: str) -> p.SessionJoined:
        return self.request(p.JoinSession(name=name))

    def leave_session(self, name: str) -> p.SessionLeft:
        return self.request(p.LeaveSession(name=name))

    def close_session(self, name: str) -> p.SessionClosed:
        return self.request(p.CloseSession(name=name))

    def send(self, name: str, sender: int, payload: bytes) -> p.Sent:
        return self.request(
            p.SendMessage(name=name, sender=sender, payload=bytes(payload))
        )

    def flush(self, name: str, max_rounds: int | None = None) -> p.Flushed:
        return self.request(p.Flush(name=name, max_rounds=max_rounds))

    def drain_inbox(
        self, name: str, member: int, *, include_former: bool = False
    ) -> list[Delivery]:
        batch = self.request(
            p.DrainInbox(
                name=name, member=member, include_former=include_former
            )
        )
        return [p.row_delivery(row) for row in batch.deliveries]

    def rekey(self, name: str, compromised: tuple = ()) -> p.RekeyDone:
        return self.request(
            p.Rekey(name=name, compromised=tuple(compromised))
        )

    def stats(self, name: str) -> p.SessionStatsInfo:
        return self.request(p.SessionStatsReq(name=name))

    def run_scenario(self, name: str, seed: int = 0) -> p.ScenarioOutcome:
        return self.request(p.RunScenario(name=name, seed=seed))

    def list_sessions(self) -> tuple[str, ...]:
        return self.request(p.ListSessions()).names

    def shutdown(self) -> None:
        self.request(p.Shutdown())
