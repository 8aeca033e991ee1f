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
witness ranks, and each listener's hop sequence is private randomness that
depends on nothing observed during the phase.  :func:`run_feedback`
therefore **compiles** the whole ``slots × repetitions`` loop into one
:class:`~repro.radio.network.RoundSchedule` and submits it through
:meth:`~repro.radio.network.RadioNetwork.execute_schedule`.  Per slot,
every repetition shares one static transmitter template and one listener
tuple; each listener's hop sequence is drawn from its RNG stream up front
by :class:`~repro.rng.BlockDrawer` (byte-identical to the per-draw
``stream.choice`` chain — the invariant lives in ``repro.rng``), the
sequences are laid out listener-major as one ``bytes`` matrix, one
``translate`` maps hop positions to channel ids, and repetition ``r``'s
hop row is the C-level slice ``matrix[r::repetitions]``.  The fold marks,
per slot, the listeners that sat on a channel delivering ``<true, r>``
(one ``translate`` per such channel-round, OR-ed together as an integer
mask) and adds the slot to each of them once, so no step runs per
listener per repetition.  Round metadata, templates and listener stream
tables come from a :class:`~repro.radio.ScheduleShapeCache` so long-lived
callers reuse schedule *shape* across invocations.  Seeded runs are
byte-identical to the historical one-``execute_round``-per-repetition
loop (same RNG stream consumption, same metrics, same traces):
``tests/test_golden.py`` pins digests recorded from that loop.
"""

from __future__ import annotations

from itertools import compress
from typing import Mapping, Sequence

from ..errors import ConfigurationError
from ..radio.actions import Transmit
from ..radio.messages import Message
from ..radio.network import (
    HIT_TABLES,
    CompiledRound,
    RadioNetwork,
    RoundSchedule,
    hop_table,
)
from ..radio.shapes import ScheduleShapeCache
from ..rng import BlockDrawer, RngRegistry
from .witness import WitnessAssignment

FEEDBACK_KIND = "feedback"
"""Frame kind used by feedback broadcasts."""


def feedback_true(sender: int, slot: int) -> Message:
    """The ``<true, r>`` frame of Figure 1 line 16."""
    return Message(kind=FEEDBACK_KIND, sender=sender, payload=("true", slot))


def feedback_false(sender: int, slot: int) -> Message:
    """The ``<false>`` frame of Figure 1 line 11 (slot kept for tracing)."""
    return Message(kind=FEEDBACK_KIND, sender=sender, payload=("false", slot))


def run_feedback(
    network: RadioNetwork,
    assignment: WitnessAssignment,
    flags: Mapping[int, bool],
    participants: Sequence[int],
    rng: RngRegistry,
    *,
    repetitions: int | None = None,
    phase: str = "feedback",
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
        Flag value per witness node.  Figure 1 assumes all witnesses of a
        slot hold the same flag; we validate that, since a mismatch means
        the caller's transmission round already violated the model.
    participants:
        Every node taking part (witnesses and listeners alike).  Witnesses
        of slots other than the active one listen like everyone else.
    rng:
        Registry supplying each listener's private channel-hopping stream.
    repetitions:
        Inner-loop count; defaults to the
        :meth:`~repro.params.ProtocolParameters.feedback_repetitions` of the
        network's parameters.
    phase:
        Phase label stamped on round metadata (adversaries can see it).
    rng_namespace:
        Disambiguates listener streams across multiple invocations.
    shape_cache:
        Optional :class:`~repro.radio.shapes.ScheduleShapeCache` shared
        across invocations with the same geometry (templates, round
        metadata and stream tables are then reused instead of rebuilt).
        Defaults to a fresh per-invocation cache; observable behaviour is
        identical either way.

    Returns
    -------
    dict mapping every participant to its output set ``D`` (slot indices).
    """
    channels = assignment.channels
    participant_set = set(participants)
    for witness_set in assignment.sets:
        flag_values = {flags[w] for w in witness_set if w in flags}
        if len(flag_values) > 1:
            raise ConfigurationError(
                "witnesses of one slot disagree on their flag; the "
                "transmission round upstream was inconsistent"
            )
        missing = [w for w in witness_set if w not in flags]
        if missing:
            raise ConfigurationError(f"witnesses {missing} have no flag")
        if not set(witness_set) <= participant_set:
            raise ConfigurationError("witness outside participant set")

    if repetitions is None:
        repetitions = network.params.feedback_repetitions(
            network.n, len(channels), network.t
        )

    outputs: dict[int, set[int]] = {node: set() for node in participants}
    shapes = shape_cache if shape_cache is not None else ScheduleShapeCache()
    # Per slot the witness broadcasts form a *static transmitter template*
    # shared by every repetition's CompiledRound, and the slot's listeners
    # one tuple shared the same way.  Each listener's whole hop sequence
    # is drawn from its private stream up front, consuming the streams
    # slot-major, then by repetition (the order of the historical
    # per-round loop).  Templates, metadata and the stream table come
    # from ``shapes`` and are reused when the caller shares a cache.
    streams = shapes.streams(rng, rng_namespace, "listen", participants)
    draw = BlockDrawer(len(channels)).draw
    to_channels = hop_table(channels)

    compiled_rounds: list[CompiledRound] = []
    # (slot, listeners, hop rows) per slot, for the result fold.
    slot_rows: list[tuple[int, tuple[int, ...], list[bytes]]] = []
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
        meta = shapes.meta(phase, slot=slot)
        # Lay the listeners' hop sequences out listener-major; one
        # translate turns hop positions into channel ids, and round
        # ``r``'s hop row is then the stride slice ``[r::repetitions]``.
        listeners: list[int] = []
        matrix = bytearray()
        for node, stream in zip(participants, streams):
            if node in witness_set:
                continue
            listeners.append(node)
            matrix.extend(draw(stream, repetitions))
        hops = bytes(matrix.translate(to_channels))
        rows = [hops[r::repetitions] for r in range(repetitions)]
        listener_tuple = tuple(listeners)
        compiled_rounds += [
            CompiledRound(template, listener_tuple, row, meta) for row in rows
        ]
        slot_rows.append((slot, listener_tuple, rows))

    heard_per_round = iter(
        network.execute_schedule(RoundSchedule(compiled_rounds))
    )

    # Fold per slot: OR together, over the slot's rounds, the listeners
    # sitting on a channel that delivered <true, slot> (one C-level
    # translate per such channel-round), then add the slot to each
    # marked listener once.
    for slot, listeners, rows in slot_rows:
        wanted = ("true", slot)
        hits = 0
        for row, heard in zip(rows, heard_per_round):
            for channel, received in heard.items():
                if (
                    received.kind == FEEDBACK_KIND
                    and received.payload == wanted
                ):
                    hits |= int.from_bytes(
                        row.translate(HIT_TABLES[channel]), "little"
                    )
        if hits:
            marks = hits.to_bytes(len(listeners), "little")
            for node in compress(listeners, marks):
                outputs[node].add(slot)
    return outputs
