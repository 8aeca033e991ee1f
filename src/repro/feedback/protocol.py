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
loop (:class:`~repro.radio.network.CompiledRound`): one transmitter
template, one listener tuple, one meta and one hop row per repetition,
laid out by :func:`~repro.radio.network.private_hop_rows` from each
listener's :class:`~repro.rng.HopStream` (the registry keeps the hop
table, :meth:`~repro.rng.RngRegistry.hops`), and submits every slot's
loop in one :meth:`~repro.radio.network.RadioNetwork.execute_schedule`
call, so the adversary is asked to plan once per invocation.  Against a
planned adversary (or none) the engine resolves each loop in bulk,
without a step per repetition.  The result's bulk fold
(:meth:`~repro.radio.network.Heard.reached`) gives, per slot, each
delivered frame with the OR of the :func:`~repro.radio.network.hit_row`
masks of its listeners; the routine ORs those of the ``<true, r>``
frames into one mask per slot, laid out over the participants with the
slot's witnesses holding their own flag (:func:`widen`), and
:func:`slot_outputs` turns the per-slot masks into each node's output
set, nodes with equal sets sharing one frozenset.  Seeded runs are
byte-identical to the historical per-node, one-round-per-repetition loop:
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
    RoundMeta,
    private_hop_rows,
)
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
    """Raise :class:`~repro.errors.ConfigurationError` unless the
    participants are distinct, every witness is a participant holding a
    flag and each slot's witnesses agree on it.

    Figure 1 assumes all witnesses of a slot hold the same flag; a
    mismatch means the caller's transmission round already violated the
    model.  Both feedback routines validate their inputs here.
    """
    participant_set = set(participants)
    if len(participant_set) != len(participants):
        raise ConfigurationError("a participant is listed twice")
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


def widen(marks: bytes, lanes: Sequence[int], fill: bytes) -> bytes:
    """``marks``, one byte per listener of a loop whose listeners are the
    participants but those at the ascending participant ``lanes``, laid
    out over every participant: ``fill`` at each of ``lanes``."""
    parts = []
    start = 0
    for skipped, lane in enumerate(lanes):
        parts.append(marks[start : lane - skipped])
        start = lane - skipped
    parts.append(marks[start:])
    return fill.join(parts)


def slot_outputs(
    participants: Sequence[int], masks: Mapping[int, int]
) -> dict[int, frozenset[int]]:
    """Each participant's output set ``D`` from per-slot masks: byte ``i``
    of ``masks[slot]`` (a little-endian ``int``) is ``1`` when
    ``participants[i]`` outputs ``slot``.  Nodes with equal sets share one
    frozenset.

    Eight slots at a time are packed into one byte per participant (slot
    ``8k + b`` of ``masks``, in order, is bit ``b`` of column ``k``), so a
    node's key is its byte (its tuple of bytes past eight slots), and one
    frozenset is built per distinct key.
    """
    slots = list(masks)
    if not slots:
        return dict.fromkeys(participants, frozenset())
    width = len(participants)
    columns = []
    for first in range(0, len(slots), 8):
        column = 0
        for bit, slot in enumerate(slots[first : first + 8]):
            column |= masks[slot] << bit
        columns.append(column.to_bytes(width, "little"))
    keys = columns[0] if len(columns) == 1 else list(zip(*columns))
    sets: dict[object, frozenset[int]] = {}
    for key in dict.fromkeys(keys):
        key_bytes = key if type(key) is tuple else (key,)
        sets[key] = frozenset(
            slot
            for i, slot in enumerate(slots)
            if key_bytes[i >> 3] >> (i & 7) & 1
        )
    return dict(zip(participants, map(sets.__getitem__, keys)))


def run_feedback(
    network: RadioNetwork,
    assignment: WitnessAssignment,
    flags: Mapping[int, bool],
    participants: Sequence[int],
    rng: RngRegistry,
    *,
    rng_namespace: object = "feedback",
) -> dict[int, frozenset[int]]:
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
        Every node taking part (witnesses and listeners alike), each once.
        Witnesses of slots other than the active one listen like everyone
        else.
    rng:
        Registry supplying each listener's private hop stream (its hop
        table is built on the first invocation and kept by the registry).
    rng_namespace:
        Disambiguates listener hop streams across multiple invocations.

    Returns
    -------
    dict mapping every participant to its output set ``D`` (slot
    indices), in participant order; nodes with equal sets share one
    frozenset.
    """
    channels = assignment.channels
    check_witness_flags(assignment.sets, flags, participants)

    repetitions = network.params.feedback_repetitions(
        network.n, len(channels), network.t
    )

    # Listener coins are consumed slot-major, then by repetition (the
    # historical per-round loop's order).
    streams = rng.hops(
        rng_namespace, "listen", nodes=participants, n=len(channels)
    )
    lane = dict(zip(participants, range(len(participants))))
    everyone = b"\x01" * len(participants)

    loops: list[CompiledRound] = []
    own: list[tuple[list[int], bytes]] = []  # witness lanes, their flag
    for slot in range(assignment.slots):
        witnesses = assignment.witnesses_of(slot)
        slot_flag = flags[witnesses[0]]
        frame_of = feedback_true if slot_flag else feedback_false
        template = {
            w: Transmit(channels[rank], frame_of(w, slot))
            for rank, w in enumerate(witnesses)
        }
        lanes = sorted(map(lane.__getitem__, witnesses))
        listening = widen(everyone[len(lanes) :], lanes, b"\x00")
        loops.append(
            CompiledRound(
                template,
                tuple(compress(participants, listening)),
                private_hop_rows(
                    [(compress(streams, listening), channels)], repetitions
                ),
                RoundMeta(phase="feedback", extra={"slot": slot}),
            )
        )
        own.append((lanes, b"\x01" if slot_flag else b"\x00"))

    heard = network.execute_schedule(loops)

    # Per slot: OR the masks of the listeners each <true, slot> frame
    # reached, and lay them out over the participants, the slot's
    # witnesses holding their own flag (Figure 1 line 14).
    masks: dict[int, int] = {}
    for slot, loop in enumerate(loops):
        wanted = ("true", slot)
        hits = 0
        for received, reached in heard.reached(slot):
            if received.kind == FEEDBACK_KIND and received.payload == wanted:
                hits |= reached
        marks = hits.to_bytes(len(loop.listeners), "little")
        masks[slot] = int.from_bytes(widen(marks, *own[slot]), "little")
    return slot_outputs(participants, masks)
