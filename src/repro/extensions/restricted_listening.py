"""The restricted-listening adversary model (Section 8, Q2).

The paper's second open question: if the adversary can *listen* on only
``t`` channels per round (instead of all ``C``), can nodes establish
shared secrets that are information-theoretically secure — no
computational assumptions at all?  The paper conjectures any such
algorithm is inherently exponential.

This module supplies the model and the experiment that shows *why* the
question is hard:

* :class:`RestrictedListeningNetwork` extends the radio simulator so the
  adversary observes only the channels it chose to monitor — the trace it
  is shown is **redacted** per round (actions and deliveries on other
  channels are hidden, and it no longer learns honest random choices).
* :class:`MonitoringAdversary` is the strategy interface: pick up to
  ``t`` channels to monitor (before the round), then transmit as usual.
* :func:`run_share_spray` is the natural first attempt at IT key
  agreement: one node sprays ``k`` one-time-pad shares over random
  channels, the peer collects them, and the pad is the XOR of all
  shares.  The adversary reconstructs the pad only if it observed *every*
  share; the peer gets the pad only if it received every share.  Each
  share's rounds are pure private coin flips, so they run as one compiled
  private-hop epoch (:func:`~repro.radio.network.run_gossip_epoch`).

The experiment exposes the tension the conjecture lives on: repetitions
make delivery reliable but give the eavesdropper more chances to catch
each share, while few repetitions keep the pad secret from everyone —
including the intended receiver (who cannot acknowledge, since nothing is
authenticated yet).  The bench sweeps repetitions and tabulates both
probabilities.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Iterable, Iterator, Sequence

from ..errors import ConfigurationError, ProtocolViolation
from ..radio.messages import Message, Transmission, payload_fields
from ..radio.network import (
    AdversaryView,
    CompiledRound,
    Heard,
    RadioNetwork,
    RoundMeta,
    run_gossip_epoch,
)
from ..radio.trace import ExecutionTrace, RoundRecord
from ..rng import RngRegistry

SHARE_KIND = "it-share"


class MonitoringAdversary(abc.ABC):
    """An adversary with a per-round listening budget of ``t`` channels.

    Subclasses implement :meth:`monitor` (channels to observe this round,
    chosen before the round resolves) and :meth:`act` (transmissions, as
    in the base model).  Both see only the redacted history.
    """

    needs_history: bool = True

    @abc.abstractmethod
    def monitor(self, view: AdversaryView) -> Sequence[int]:
        """Channels to observe this round (at most ``t``)."""

    def act(self, view: AdversaryView) -> Sequence[Transmission]:
        """Transmissions for this round (at most ``t``); default silent."""
        return ()

    def reset(self) -> None:
        """Clear per-execution state."""


class _Committed:
    """Stands in for the monitoring adversary inside the base resolver,
    replaying the transmissions it committed before the round (the base
    validates them against the model like any adversary's)."""

    needs_history = False

    def __init__(self, transmissions: Sequence[Transmission]) -> None:
        self._transmissions = transmissions

    def act(self, _view: AdversaryView) -> Sequence[Transmission]:
        return self._transmissions


class RestrictedListeningNetwork(RadioNetwork):
    """A radio network whose adversary sees only monitored channels.

    The adversary's history is rebuilt per round.  A redacted
    :class:`RoundRecord` holds a redacted round — the honest transmitters
    on the channels it monitored, no listeners, and ``monitored`` added to
    ``meta.extra`` — plus its own transmissions and the deliveries on
    monitored channels only; every other channel reads as silence.  The
    Section 3 assumption that "the adversary learns all random choices of
    completed rounds" is deliberately dropped — that is the whole point of
    the Q2 model.

    The adversary may monitor at most ``t`` channels per round, as the Q2
    model states; both gallery eavesdroppers size their monitor set by
    ``view.t``.  The override sits on
    :meth:`~repro.radio.network.RadioNetwork.execute_schedule`, the one
    round resolver, which the share spray's compiled epochs call and the
    tests' per-node oracle reaches too: monitoring before acting and
    per-round redaction apply to both.
    """

    def __init__(
        self,
        n: int,
        channels: int,
        t: int,
        adversary: MonitoringAdversary,
        **kwargs,
    ) -> None:
        if not isinstance(adversary, MonitoringAdversary):
            raise ConfigurationError(
                "RestrictedListeningNetwork needs a MonitoringAdversary"
            )
        kwargs["keep_trace"] = True  # redaction reads the full last record
        super().__init__(n, channels, t, adversary=None, **kwargs)
        self._monitoring_adversary = adversary
        self.redacted_trace = ExecutionTrace()
        self.observed_channel_rounds = 0

    # ------------------------------------------------------------------

    def _redacted_view(self, meta: RoundMeta) -> AdversaryView:
        return AdversaryView(
            n=self.n,
            channels=self.channels,
            t=self.t,
            round_index=self.round_index,
            history=self.redacted_trace,
            meta=meta,
        )

    def execute_schedule(self, loops: Iterable[CompiledRound]) -> Heard:
        """Resolve each round with monitoring-before-acting semantics.

        Per round (each row of each loop), the adversary picks the
        channels to monitor and commits its transmissions on the redacted
        history; one ``super()`` call resolves the round, and its redacted
        record is appended.
        """
        loops = tuple(loops)
        parts: list[Heard] = []
        rounds = [loop.repetition(row) for loop in loops for row in loop.rows]
        for cr in rounds:
            view = self._redacted_view(cr.meta)
            monitored = sorted(set(self._monitoring_adversary.monitor(view)))
            if len(monitored) > self.t:
                raise ProtocolViolation(
                    f"adversary monitored {len(monitored)} channels; "
                    f"listen budget is {self.t}"
                )
            if any(not 0 <= c < self.channels for c in monitored):
                raise ProtocolViolation("monitored channel out of range")

            self.adversary = _Committed(
                tuple(self._monitoring_adversary.act(view))
            )
            try:
                parts.append(super().execute_schedule((cr,)))
            finally:
                self.adversary = None

            # Build the redacted record the adversary will remember.
            full = self.trace[len(self.trace) - 1]
            self.observed_channel_rounds += len(monitored)
            monitored_set = set(monitored)
            meta = full.round.meta
            seen = CompiledRound.make(
                {
                    node: action
                    for node, action in full.round.transmits.items()
                    if action.channel in monitored_set
                },
                {},
                replace(
                    meta, extra={**meta.extra, "monitored": tuple(monitored)}
                ),
            )
            delivered = {
                channel: msg
                for channel, msg in full.delivered.items()
                if channel in monitored_set
            }
            self.redacted_trace.append(
                RoundRecord(
                    full.index,
                    seen,
                    full.adversary_transmissions,
                    MappingProxyType(delivered),
                )
            )
        return Heard.joined(loops, parts)


class StickyEavesdropper(MonitoringAdversary):
    """Monitors a fixed channel set every round (its first ``t``).

    The strongest *oblivious* listener against uniform channel spraying:
    it observes each uniformly-placed frame with probability exactly
    ``t / C``.
    """

    def __init__(self, channels: Sequence[int]) -> None:
        self._channels = tuple(channels)

    def monitor(self, view: AdversaryView) -> Sequence[int]:
        return self._channels[: view.t]


class HoppingEavesdropper(MonitoringAdversary):
    """Monitors a fresh random channel subset every round."""

    def __init__(self, rng) -> None:
        self._rng = rng

    def monitor(self, view: AdversaryView) -> Sequence[int]:
        budget = min(view.t, view.channels)
        return self._rng.sample(range(view.channels), budget)


# ---------------------------------------------------------------------------
# The share-spray experiment.
# ---------------------------------------------------------------------------


@dataclass
class ShareSprayResult:
    """Outcome of one pad-agreement attempt.

    The pad is the XOR of all ``shares``; either party (or the adversary)
    knows it iff it holds *every* share.
    """

    shares: int
    repetitions: int
    receiver_shares: set[int] = field(default_factory=set)
    adversary_shares: set[int] = field(default_factory=set)
    rounds: int = 0

    @property
    def receiver_has_pad(self) -> bool:
        """The intended receiver collected every share."""
        return len(self.receiver_shares) == self.shares

    @property
    def adversary_has_pad(self) -> bool:
        """The eavesdropper observed every share: secrecy lost."""
        return len(self.adversary_shares) == self.shares

    @property
    def information_theoretically_secret(self) -> bool:
        """At least one share escaped the adversary."""
        return not self.adversary_has_pad


def _share_indexes(frames: Iterable[Message | None]) -> Iterator[int]:
    """The indexes of the well-formed share frames among ``frames``."""
    for frame in frames:
        if frame is not None and frame.kind == SHARE_KIND:
            fields = payload_fields(frame.payload, str, int)
            if fields is not None:
                yield fields[1]


def run_share_spray(
    network: RestrictedListeningNetwork,
    sender: int,
    receiver: int,
    rng: RngRegistry,
    *,
    shares: int = 4,
    repetitions: int = 8,
) -> ShareSprayResult:
    """Spray ``shares`` pad shares over random channels.

    Each share gets ``repetitions`` rounds; per round the sender places
    the share on a fresh uniform channel and the receiver listens on a
    fresh uniform channel.  No feedback, no authentication — this is the
    *naive* protocol whose secrecy/reliability tension motivates the
    paper's conjecture (see the module docstring).
    """
    if sender == receiver:
        raise ConfigurationError("sender and receiver must differ")
    result = ShareSprayResult(shares=shares, repetitions=repetitions)
    start = network.metrics.rounds
    pair = (sender, receiver)
    hops = rng.hops("spray", nodes=pair, n=network.channels)
    streams = dict(zip(pair, hops))
    for share in range(shares):
        epoch = run_gossip_epoch(
            network,
            sender,
            Message(kind=SHARE_KIND, sender=sender, payload=("share", share)),
            (receiver,),
            streams,
            repetitions,
            RoundMeta(phase="it-spray", extra={"share": share}),
        )
        # The receiver is the epoch's only listener, so everything decoded
        # reached it.
        for _row, heard in epoch:
            result.receiver_shares.update(_share_indexes(heard.values()))
        # What did the adversary see?  The epoch's redacted records answer.
        records = network.redacted_trace
        for record in records[len(records) - repetitions :]:
            result.adversary_shares.update(
                _share_indexes(record.delivered.values())
            )
    result.rounds = network.metrics.rounds - start
    return result
