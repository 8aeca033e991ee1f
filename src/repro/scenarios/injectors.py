"""Scenario-local attack machinery.

The adversary gallery covers blind channel-level strategies; the
injectors here are the *informed* attacks scenarios need — replaying a
frame captured off the wire, re-attributing a sealed frame to a forged
sender, crashing a sender so only adversarial frames are in the air,
and tapping a member's re-key epochs to replay a stale generation.
They are deliberately test-harness-shaped (some wrap
``network.execute_schedule`` the way the PR 9 gauntlet tests did), but
packaged once so every scenario and test asserts through the same code.

:class:`CollusionTracker` is the detection side: it scans a network
trace for Byzantine witness reports and identifies witnesses that voted
against the honest ground truth or reported *both* flags for one slot
(equivocators) — the tendermint-style colluder bookkeeping the ROADMAP
names.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict
from contextlib import contextmanager
from typing import Iterable, Sequence

from ..adversary.base import Adversary
from ..fame.byzantine import BYZANTINE_REPORT_KIND
from ..radio.messages import Message, Transmission
from ..radio.network import CompiledRound, RadioNetwork

__all__ = [
    "FrameInjector",
    "captured_transmits",
    "crashed_sender",
    "RekeyEpochTap",
    "CollusionTracker",
]


class FrameInjector(Adversary):
    """Inject one attacker-chosen frame per round.

    ``make_frame`` maps the round's :class:`~repro.radio.network.
    AdversaryView` to a :class:`~repro.radio.messages.Message` (or
    ``None`` for a quiet round); the frame rides a channel cycled by
    round index, staying within the ``t``-transmission budget.
    """

    def __init__(self, make_frame) -> None:
        self._make_frame = make_frame

    def act(self, view) -> Sequence[Transmission]:
        frame = self._make_frame(view)
        if frame is None:
            return ()
        return (Transmission(view.round_index % view.channels, frame),)


def captured_transmits(network: RadioNetwork) -> list[Message]:
    """Every honest frame transmitted so far, in trace order.

    Requires the network to have been built with ``keep_trace=True``
    (scenario contexts pass it through); the capture is exactly what an
    eavesdropper heard, so replaying an entry is a faithful wire replay.
    """
    frames: list[Message] = []
    for record in network.trace:
        transmits = record.round.transmits
        frames += (transmits[node].message for node in sorted(transmits))
    return frames


@contextmanager
def crashed_sender(network: RadioNetwork):
    """Strip honest transmits from every schedule inside the block.

    The epochs still burn their real rounds (hop patterns and metrics
    advance normally) but only adversarial frames are in the air —
    the cleanest way to ask "does the receiver accept *only* replays?".
    """
    original = network.execute_schedule

    def stripped(loops: Iterable[CompiledRound]):
        return original([dataclasses.replace(r, transmits={}) for r in loops])

    network.execute_schedule = stripped
    try:
        yield
    finally:
        network.execute_schedule = original


class RekeyEpochTap:
    """Capture one member's re-key epochs; optionally replay or jam one.

    In capture mode (the default) the tap records what the member heard
    during each ``rekey``-phase epoch, keyed by generation.  After
    :meth:`replay`, the member's later epochs burn their real rounds but
    return the *captured* generation's frames — the stale-generation
    replay attack.  After :meth:`suppress`, the member's epochs return
    silence — the fully-jammed-epoch attack.  :meth:`restore` puts the
    network back.
    """

    def __init__(self, network: RadioNetwork, member: int) -> None:
        self.network = network
        self.member = member
        self.captured: dict[int, list] = {}
        self._mode = "capture"
        self._replay_generation: int | None = None
        self._original = network.execute_schedule
        network.execute_schedule = self._run

    def _run(self, loops: Sequence[CompiledRound]):
        meta = loops[0].meta
        if meta.phase != "rekey" or meta.extra.get("member") != self.member:
            return self._original(loops)
        if self._mode == "replay":
            self._original(loops)  # burn the epoch's real rounds
            return self.captured[self._replay_generation]
        if self._mode == "suppress":
            self._original(loops)
            return [{} for _ in loops]
        heard = self._original(loops)
        self.captured[meta.extra["generation"]] = heard
        return heard

    def replay(self, generation: int) -> None:
        """Replay this captured generation into the member's epochs."""
        if generation not in self.captured:
            raise KeyError(
                f"generation {generation} was never captured; "
                f"have {sorted(self.captured)}"
            )
        self._mode = "replay"
        self._replay_generation = generation

    def suppress(self) -> None:
        """Jam the member's re-key epochs entirely (silence)."""
        self._mode = "suppress"

    def restore(self) -> None:
        self.network.execute_schedule = self._original


class CollusionTracker:
    """Identify lying and equivocating Byzantine witnesses from a trace.

    Scans ``byz-report`` transmissions — ``(slot, flag, witness)``
    payloads — and compares each witness's votes against the honest
    ground truth per slot.  A witness that ever voted against the truth
    is a *liar*; one that reported both flags for a single slot is an
    *equivocator* (every equivocator is also a liar: one of its two
    votes contradicts any ground truth).
    """

    def __init__(self) -> None:
        # (witness, slot) -> set of flags that witness broadcast
        self._votes: dict[tuple[int, int], set[bool]] = defaultdict(set)

    def scan(self, trace: Iterable) -> "CollusionTracker":
        """Consume a network trace (chainable)."""
        for record in trace:
            transmits = record.round.transmits
            for node in sorted(transmits):
                message = transmits[node].message
                if message.kind != BYZANTINE_REPORT_KIND:
                    continue
                slot, flag, witness = message.payload
                self._votes[(witness, slot)].add(bool(flag))
        return self

    def equivocators(self) -> tuple[int, ...]:
        """Witnesses that reported both flags for some single slot."""
        found = {
            witness
            for (witness, _slot), flags in self._votes.items()
            if len(flags) > 1
        }
        return tuple(sorted(found))

    def liars(self, truth: dict[int, bool]) -> tuple[int, ...]:
        """Witnesses whose reported flags contradict ``truth`` per slot.

        ``truth`` maps slot -> the honest flag (e.g. whether the slot's
        channel really delivered); witnesses voting only the truth are
        exonerated.
        """
        found = {
            witness
            for (witness, slot), flags in self._votes.items()
            if slot in truth and any(f != truth[slot] for f in flags)
        }
        return tuple(sorted(found))
