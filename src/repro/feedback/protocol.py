"""Figure 1: the communication-feedback routine, executed on the radio net.

For each feedback slot ``r`` (reporting on one transmission-round channel),
the routine runs ``Θ(C/(C-t) · log n)`` repetitions.  In each repetition:

* every witness of slot ``r`` transmits on the feedback channel given by its
  rank — ``<false>`` when its flag is false, ``<true, r>`` when true.  All
  feedback channels are therefore occupied by honest broadcasters every
  repetition, which is what makes spoofed ``<true, r>`` frames impossible
  (they can only collide — the parenthetical in Lemma 5's proof);
* every other participant listens on a uniformly random feedback channel and
  records any ``<true, r>`` report it hears.

A node adds ``r`` to its output set ``D`` iff it is a witness with a true
flag, or it heard ``<true, r>``.  Lemma 5: with high probability all
participants return identical ``D`` equal to the true flag set.

Execution strategy
------------------
The repetition loop is *oblivious*: who transmits where is fixed by the
witness ranks, and each listener's hops are private coins.
:func:`run_feedback` therefore compiles each slot's repetitions into one
loop (:class:`~repro.radio.network.CompiledRound`): one static
transmitter template, one listener tuple and one hop row per repetition,
laid out by :func:`~repro.radio.network.private_hop_rows` from each
listener's :class:`~repro.rng.HopStream`, and submits every slot's loop in
one :class:`~repro.radio.network.RoundSchedule`, so the adversary is asked
to plan once per invocation.  Against a planned adversary (or none) the
engine resolves each loop in bulk, without a step per repetition.  The
result's bulk fold (:meth:`~repro.radio.network.Heard.reached`) gives, per
slot, each delivered frame with the OR of the
:func:`~repro.radio.network.hit_row` masks of its listeners; the routine
ORs those of the ``<true, r>`` frames and adds the slot to each marked
listener once.  Shapes come from a
:class:`~repro.radio.ScheduleShapeCache`.  Seeded runs are byte-identical
to the historical per-node, one-round-per-repetition loop:
``tests/test_golden.py`` pins digests recorded from it.
"""

from __future__ import annotations

from itertools import compress
from typing import Mapping, Sequence

from ..errors import ConfigurationError
from ..radio.actions import Transmit
from ..radio.messages import Message
from ..radio.network import (
    CompiledRound,
    RadioNetwork,
    RoundSchedule,
    private_hop_rows,
)
from ..radio.shapes import ScheduleShapeCache
from ..rng import RngRegistry
from .witness import WitnessAssignment

FEEDBACK_KIND = "feedback"
"""Frame kind used by feedback broadcasts."""


def feedback_true(sender: int, slot: int) -> Message:
    """The ``<true, r>`` frame of Figure 1 line 16."""
    return Message(kind=FEEDBACK_KIND, sender=sender, payload=("true", slot))


def feedback_false(sender: int, slot: int) -> Message:
    """The ``<false>`` frame of Figure 1 line 11 (slot kept for tracing)."""
    return Message(kind=FEEDBACK_KIND, sender=sender, payload=("false", slot))


def check_witness_flags(
    witness_sets: Sequence[Sequence[int]],
    flags: Mapping[int, bool],
    participants: Sequence[int],
) -> None:
    """Raise :class:`~repro.errors.ConfigurationError` unless every witness
    is a participant holding a flag and each slot's witnesses agree on it.

    Figure 1 assumes all witnesses of a slot hold the same flag; a
    mismatch means the caller's transmission round already violated the
    model.  Both feedback routines validate their inputs here.
    """
    participant_set = set(participants)
    for witness_set in witness_sets:
        flag_values = {flags[w] for w in witness_set if w in flags}
        if len(flag_values) > 1:
            raise ConfigurationError(
                "witnesses of one slot disagree on their flag; the "
                "transmission round upstream was inconsistent"
            )
        missing = [w for w in witness_set if w not in flags]
        if missing:
            raise ConfigurationError(
                f"witnesses {missing} have no flag: missing from flags"
            )
        if not set(witness_set) <= participant_set:
            raise ConfigurationError("witness outside participant set")


def run_feedback(
    network: RadioNetwork,
    assignment: WitnessAssignment,
    flags: Mapping[int, bool],
    participants: Sequence[int],
    rng: RngRegistry,
    *,
    rng_namespace: object = "feedback",
    shape_cache: ScheduleShapeCache | None = None,
) -> dict[int, set[int]]:
    """Execute one communication-feedback invocation.

    Parameters
    ----------
    network:
        The radio network to run on.
    assignment:
        Witness sets per slot and the feedback channel list.
    flags:
        Flag value per witness node, validated by
        :func:`check_witness_flags`.
    participants:
        Every node taking part (witnesses and listeners alike).  Witnesses
        of slots other than the active one listen like everyone else.
    rng:
        Registry supplying each listener's private hop stream.
    rng_namespace:
        Disambiguates listener hop streams across multiple invocations.
    shape_cache:
        Optional :class:`~repro.radio.shapes.ScheduleShapeCache` shared
        across invocations with the same geometry (templates, round
        metadata and hop tables are then reused instead of rebuilt).
        Defaults to a fresh per-invocation cache; observable behaviour is
        identical either way.

    Returns
    -------
    dict mapping every participant to its output set ``D`` (slot indices).
    """
    channels = assignment.channels
    check_witness_flags(assignment.sets, flags, participants)

    repetitions = network.params.feedback_repetitions(
        network.n, len(channels), network.t
    )

    outputs: dict[int, set[int]] = {node: set() for node in participants}
    shapes = shape_cache if shape_cache is not None else ScheduleShapeCache()
    # Listener coins are consumed slot-major, then by repetition (the
    # historical per-round loop's order); templates, metadata and the
    # hop table come from ``shapes``.
    streams = shapes.hops(
        rng, rng_namespace, "listen", participants, len(channels)
    )

    loops: list[CompiledRound] = []
    for slot in range(assignment.slots):
        witnesses = assignment.witnesses_of(slot)
        witness_set = set(witnesses)
        slot_flag = flags[witnesses[0]]
        if slot_flag:
            for w in witnesses:
                outputs[w].add(slot)  # Figure 1 line 14
        frame_of = feedback_true if slot_flag else feedback_false
        template = shapes.memo(
            ("feedback-template", channels, slot, witnesses, slot_flag),
            lambda: {
                w: Transmit(channels[rank], frame_of(w, slot))
                for rank, w in enumerate(witnesses)
            },
        )
        listening = [node not in witness_set for node in participants]
        loops.append(
            CompiledRound(
                template,
                tuple(compress(participants, listening)),
                private_hop_rows(
                    [(compress(streams, listening), channels)], repetitions
                ),
                shapes.meta("feedback", slot=slot),
            )
        )

    heard = network.execute_schedule(RoundSchedule(loops))

    # Per slot: OR the masks of the listeners each <true, slot> frame
    # reached, then add the slot to each marked listener once.
    for slot, loop in enumerate(loops):
        wanted = ("true", slot)
        hits = 0
        for received, reached in heard.reached(slot):
            if received.kind == FEEDBACK_KIND and received.payload == wanted:
                hits |= reached
        if hits:
            marks = hits.to_bytes(len(loop.listeners), "little")
            for node in compress(loop.listeners, marks):
                outputs[node].add(slot)
    return outputs
