"""Execution traces: a queryable record of every completed round.

A :class:`RoundRecord` is the :class:`~repro.radio.network.CompiledRound`
the engine resolved — the very object its schedule submitted, never
copied — plus what happened to it: the adversary's transmissions and the
engine's read-only map of the channels that carried anything.  The
per-node action map, the metadata dict, who transmitted or listened
where and what a node received are all derived from those on read, so
keeping every round costs a few small objects per round, not one entry
per node.

Traces serve three purposes:

1. they are the *adversary's knowledge* — Section 3 grants the adversary full
   knowledge of all completed rounds, which we implement by handing it the
   trace;
2. they let tests assert low-level radio behaviour (who collided with whom,
   which spoofs were delivered);
3. they feed offline inspection (:mod:`repro.radio.export`) and per-phase
   round counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator, Mapping

from .actions import Action
from .messages import Jam, Message, Transmission

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .network import CompiledRound


@dataclass(frozen=True, slots=True)
class RoundRecord:
    """Everything that happened in one synchronous round.

    Attributes
    ----------
    index:
        0-based round number.
    round:
        The :class:`~repro.radio.network.CompiledRound` that was resolved,
        shared with its schedule: its transmitter template and hop row say
        who transmitted and who listened where (every other node slept),
        and its ``meta`` holds the round's public, deterministic
        annotations — information the adversary is entitled to because it
        can derive it from the protocol code and past history.
    adversary_transmissions:
        The adversary's (channel, payload) pairs, at most ``t`` of them.
    delivered:
        Per *touched* channel (one that carried at least one
        transmission), the message decoded there, or ``None`` for a
        collision or noise.  Untouched channels are absent, which means
        silence.  A delivered message whose only transmitter was the
        adversary is a successful *spoof*.  The engine hands out a
        read-only view: rounds of one transmitter template share the map
        underneath.
    """

    index: int
    round: CompiledRound
    adversary_transmissions: tuple[Transmission, ...]
    delivered: Mapping[int, Message | None]

    # -- derived on read -------------------------------------------------

    @property
    def actions(self) -> dict[int, Action]:
        """Each honest node's action this round (absent ⇒ slept), expanded
        afresh from the compiled round on every read."""
        return self.round.as_actions()

    @property
    def meta(self) -> dict[str, Any]:
        """The round's metadata flattened into a fresh dict (phase,
        schedule, extras)."""
        return self.round.meta.as_dict()

    def honest_transmitters(self, channel: int) -> list[int]:
        """Node ids that transmitted on ``channel`` this round."""
        return [
            node
            for node, action in self.round.transmits.items()
            if action.channel == channel
        ]

    def listeners(self, channel: int) -> list[int]:
        """Node ids that listened on ``channel`` this round."""
        return [
            node
            for node, hop in zip(self.round.listeners, self.round.hops)
            if hop == channel
        ]

    def adversary_channels(self) -> set[int]:
        """Channels the adversary touched this round."""
        return {tx.channel for tx in self.adversary_transmissions}

    def was_jammed(self, channel: int) -> bool:
        """True when the adversary transmitted on ``channel`` and a would-be
        honest delivery was thereby suppressed (or noise occupied it)."""
        return channel in self.adversary_channels()

    def was_spoofed(self, channel: int) -> bool:
        """True when the delivered message on ``channel`` originated solely
        from the adversary."""
        msg = self.delivered.get(channel)
        if msg is None:
            return False
        if self.honest_transmitters(channel):
            return False
        return any(
            not isinstance(tx.payload, Jam) and tx.payload == msg
            for tx in self.adversary_transmissions
            if tx.channel == channel
        )

    def received_by(self, node: int) -> Message | None:
        """What ``node`` received this round (``None`` if it was not
        listening, or heard silence/collision)."""
        try:
            position = self.round.listeners.index(node)
        except ValueError:
            return None
        return self.delivered.get(self.round.hops[position])

    def canonical_form(self) -> dict:
        """A semantics-preserving normal form for record comparison.

        Two executions are behaviourally identical iff their records agree
        on this form.  Nodes appear in id order and channels that
        delivered nothing are dropped (silence carries no information), so
        the form does not depend on listener order or channel grouping.
        """
        return {
            "index": self.index,
            "actions": dict(sorted(self.actions.items())),
            "adversary": self.adversary_transmissions,
            "delivered": {
                channel: msg
                for channel, msg in sorted(self.delivered.items())
                if msg is not None
            },
            "meta": self.meta,
        }


class ExecutionTrace:
    """Append-only sequence of :class:`RoundRecord` with summary queries."""

    def __init__(self) -> None:
        self._rounds: list[RoundRecord] = []

    def append(self, record: RoundRecord) -> None:
        """Append a completed round (driver use only)."""
        self._rounds.append(record)

    def __len__(self) -> int:
        return len(self._rounds)

    def __iter__(self) -> Iterator[RoundRecord]:
        return iter(self._rounds)

    def __getitem__(self, index: int) -> RoundRecord:
        return self._rounds[index]

    @property
    def rounds(self) -> tuple[RoundRecord, ...]:
        """All completed rounds as an immutable tuple."""
        return tuple(self._rounds)

    def canonical_forms(self) -> list[dict]:
        """Normal forms of every round (see
        :meth:`RoundRecord.canonical_form`) — the trace-equality oracle used
        by the engine-equivalence tests."""
        return [record.canonical_form() for record in self._rounds]

    # -- summaries ------------------------------------------------------

    def count_rounds(self, phase: str | None = None) -> int:
        """Number of rounds, optionally restricted to a phase label."""
        if phase is None:
            return len(self._rounds)
        return sum(1 for r in self._rounds if r.round.meta.phase == phase)

    def spoofed_deliveries(self) -> list[tuple[int, int, Message]]:
        """All successful spoofs as ``(round, channel, message)`` triples."""
        out: list[tuple[int, int, Message]] = []
        for record in self._rounds:
            for channel, msg in record.delivered.items():
                if msg is not None and record.was_spoofed(channel):
                    out.append((record.index, channel, msg))
        return out

    def jammed_rounds(self) -> int:
        """Rounds in which the adversary transmitted at all."""
        return sum(1 for r in self._rounds if r.adversary_transmissions)

    def phase_breakdown(self) -> dict[str, int]:
        """Round counts keyed by phase label (unlabelled rounds under '')."""
        out: dict[str, int] = {}
        for record in self._rounds:
            key = record.round.meta.phase
            out[key] = out.get(key, 0) + 1
        return out
