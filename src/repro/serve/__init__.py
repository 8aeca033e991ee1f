"""The multi-session key-service daemon (``python -m repro serve``).

The paper's Section 7 service is setup-once, communicate-forever; this
package is the "forever" part as an actual process: a daemon
multiplexing many concurrent :class:`~repro.service.session.
SecureSession` group sessions (create/join/leave churn, scheduled and
on-demand re-keys, per-session adversaries) behind a typed
request/response wire protocol with bounded queues and typed failure
frames.

Layers:

* :mod:`~repro.serve.protocol` — frozen request/response dataclasses
  and their plain-dict wire encoding, decoded field by field through
  the :mod:`repro.dispatch.wire` codec;
* :mod:`~repro.serve.host` — :class:`~repro.serve.host.SessionHost`,
  the clock-free session registry and request dispatcher (drive it
  directly for byte-identical synchronous replays);
* :mod:`~repro.serve.daemon` — the event loop, on the sweep
  coordinator's :class:`~repro.dispatch.socket_pool.FrameServer`;
* :mod:`~repro.serve.client` — :class:`~repro.serve.client.
  ServiceClient`, the blocking API, dialled with
  :func:`~repro.dispatch.socket_pool.dial`.
"""

from .client import ServiceClient
from .daemon import ServeDaemon, serve_main
from .host import HostedSession, SessionHost

__all__ = [
    "HostedSession",
    "ServeDaemon",
    "ServiceClient",
    "SessionHost",
    "serve_main",
]
