"""Cluster-scale trial dispatch: two backends, journal, sweeps.

ROADMAP's remote fan-out item observed that :class:`~repro.experiments.
trial.TrialSpec` is a plain unit of work whose seed depends
only on its index — so the serial loop, a local worker pool, and a task
queue spanning machines are the *same* computation dispatched
differently.  This package makes that literal:

* :mod:`~repro.dispatch.backend` — the :class:`~repro.dispatch.backend.
  DispatchBackend` contract (at-most-once result application keyed by
  trial index, streaming ``on_result``) plus
  :class:`~repro.dispatch.backend.SerialBackend`;
  :class:`~repro.dispatch.backend.ResultAssembler` is the shared
  order/duplicate-oblivious merge.
* :mod:`~repro.dispatch.socket_pool` — the one socket transport and
  :class:`~repro.dispatch.socket_pool.SocketBackend`, the one parallel
  backend.  The transport is length-prefixed JSON framing, the
  non-blocking :class:`~repro.dispatch.socket_pool.FrameServer` (the
  ``repro serve`` daemon listens through it too) and the dialing end
  :func:`~repro.dispatch.socket_pool.dial`; on both listening ports a
  versioned ``hello`` handshake admits peers, and a frame that does not
  decode closes only its own connection.  The backend is a coordinator
  serving workers it forks locally (``--workers N``) or
  ``python -m repro worker`` processes on other machines, with
  batch frames that carry each ``TrialSpec`` in the same codec as
  every other frame, sized adaptively from observed per-trial cost
  (``--batch-size`` pins them), a pipelined in-flight window of batches
  per worker, warm pools reused across runs (``warm_up()`` opens one,
  ``close()`` releases it; a run closes only a pool it opened), and
  lost-worker detection that requeues in-flight batches with
  already-applied indices filtered out — a killed worker costs time,
  never the sweep.
* :mod:`~repro.dispatch.wire` — the one codec for socket frames and
  journal records: compact JSON, one typed decoder driven by each
  dataclass's annotations, and the bounds a trial result must meet; every
  refusal is one :class:`~repro.dispatch.wire.FrameRejected`.
* :mod:`~repro.dispatch.journal` — the durable JSONL
  :class:`~repro.dispatch.journal.SweepJournal` (one fsynced record per
  completed trial; ``--resume`` replays it, checks every record like a
  worker's result and skips completed indices).
* :mod:`~repro.dispatch.sweep` — :class:`~repro.dispatch.sweep.
  SweepSpec` grid expansion (seeds via ``RngRegistry.spawn("sweep",
  point_index, trial_index)``), :class:`~repro.dispatch.sweep.
  SweepRunner` with streaming per-point aggregation, and the
  backend-independent :class:`~repro.dispatch.sweep.SweepReport`.

``python -m repro sweep`` (alias ``montecarlo``: a Monte Carlo run is a
one-point sweep) and ``python -m repro worker`` are the CLI front-ends.
"""

from .backend import DispatchBackend, ResultAssembler, SerialBackend
from .journal import SweepJournal
from .socket_pool import SocketBackend, worker_main
from .sweep import (
    SweepPoint,
    SweepReport,
    SweepRunner,
    SweepSpec,
    SweepState,
)
from .wire import FrameRejected

__all__ = [
    "DispatchBackend",
    "FrameRejected",
    "ResultAssembler",
    "SerialBackend",
    "SocketBackend",
    "SweepJournal",
    "SweepPoint",
    "SweepReport",
    "SweepRunner",
    "SweepSpec",
    "SweepState",
    "worker_main",
]
