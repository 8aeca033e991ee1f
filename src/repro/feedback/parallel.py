"""Parallel-prefix feedback merging for the ``C >= 2t^2`` regime (Section 5.5).

The serial routine of Figure 1 handles one slot at a time; with many channels
the paper instead merges feedback *in parallel*: witness groups pair up, each
pair gets a dedicated channel block, the two groups exchange their knowledge
with a short randomized hop phase — all pairs simultaneously, since the
blocks are channel-disjoint — and the merged groups recurse.  The tree has
depth ``O(log C')`` and each level costs ``O(log n)`` rounds, for
``O(log^2 n)`` total.  A final dissemination stage broadcasts the fully
merged flag set to every participant.

Reconstruction note: the paper assigns each pair "a unique set of t
channels", but a ``t``-channel block can be fully jammed by the
budget-``t`` adversary, deterministically stalling that pair.  We
assign ``2t``-channel blocks instead — the capacity ``C >= 2t^2`` admits
``C'/2 = C/(2t) >= t`` simultaneous pairs needing ``C/(2t) * 2t = C``
channels, which exactly fits — so every listener retains success probability
``>= 1/2`` per round no matter how the adversary concentrates its budget,
and the ``O(log^2 n)`` bound survives.  Each witness group must therefore
hold at least ``2t`` members (one honest broadcaster per block channel,
which is what keeps spoofing impossible).

Wire format
-----------
Knowledge frames use the **digest/delta** encoding
(:class:`~repro.radio.messages.DeltaFrame`, kind
:data:`~repro.radio.messages.DELTA_KIND`, mirroring the Section 5.6 digest
pipeline): a digest of the frame's slot coverage plus only the true-flag
slots — the only entries that can ever enter an output set ``D``.  A
listener accepts a frame only when its kind and transfer tag match and its
true slots hash to its digest; any other frame is dropped whole.

Execution
---------
Each transfer phase's repetition loop is oblivious, so it runs as one
compiled loop (:class:`~repro.radio.network.CompiledRound`) with one
transmitter template, one listener tuple and one hop row per repetition,
laid out by :func:`~repro.radio.network.private_hop_rows` (one ``(hop
streams, block)`` group per transfer).  Against a planned adversary (or
none) the engine resolves the loop in bulk, and its result's fold
(:meth:`~repro.radio.network.Heard.reached`) gives each delivered message
with the OR of the :func:`~repro.radio.network.hit_row` masks of the
listeners it reached.  The merge ORs those per distinct frame, checks the
frame once, and adds its true slots once to each listener it reached; a
node's knowledge is its set of true slots.  Seeded runs are
byte-identical to the historical per-node, one-round-per-repetition loop,
and match the historical full-frame encoding (which shipped the whole
``slot -> flag`` map) on ``D`` maps, every radio metric but the
payload-size counter the delta shrinks, and semantic traces under every
adversary: ``tests/test_golden.py`` pins digests recorded from both
references, and ``tests/test_feedback_delta.py`` is the differential
gauntlet checking them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Mapping, Sequence

from ..errors import ConfigurationError
from ..radio.actions import Transmit
from ..radio.messages import DELTA_KIND, DeltaFrame, Message
from ..radio.network import (
    CompiledRound,
    RadioNetwork,
    RoundSchedule,
    private_hop_rows,
)
from ..radio.shapes import ScheduleShapeCache
from ..rng import RngRegistry
from .protocol import check_witness_flags
from .witness import check_disjoint


@dataclass
class _Group:
    """A witness group in the merge tree with its accumulated knowledge.

    The knowledge is kept in its delta encoding: ``true_slots`` holds the
    true-flag slots in ascending order (the merge tree pairs adjacent
    groups, so concatenation preserves order) and ``digest`` the slot-set
    digest over them, combined in O(1) per merge via
    :func:`~repro.fame.digests.combine_digests`.
    """

    members: tuple[int, ...]
    true_slots: tuple[int, ...]
    digest: bytes


def _delta_payload(group: _Group, tag: object) -> DeltaFrame:
    """The digest/delta encoding of ``group``'s knowledge for one transfer.

    Built once per transfer and shared by every broadcaster of the block
    across every repetition.
    """
    return DeltaFrame(tag=tag, digest=group.digest, true_slots=group.true_slots)


def _run_transfer_rounds(
    network: RadioNetwork,
    transfers: Sequence[
        tuple[Sequence[int], Sequence[int], Sequence[int], DeltaFrame]
    ],
    knowledge: dict[int, set[int]],
    tag: object,
    repetitions: int,
    rng: RngRegistry,
    rng_namespace: object,
    shapes: ScheduleShapeCache,
) -> None:
    """Run ``repetitions`` rounds of simultaneous directed transfers.

    Each transfer is ``(broadcasters, listeners, block_channels, frame)``;
    blocks must be channel-disjoint (validated).  Every block channel is
    occupied by an honest broadcaster each round, so adversarial frames can
    only collide, never be decoded.  Listeners hop uniformly within their
    block and add the true slots of any valid knowledge frame with a
    matching tag to ``knowledge``.

    The transfers compile into one loop of ``repetitions`` rounds: the
    frames of one transfer are identical across rounds, so the
    broadcasters form one static template, and every transfer's
    listeners one tuple.
    """
    from ..fame.digests import slot_set_digest

    used_channels: set[int] = set()
    for broadcasters, _, block, _ in transfers:
        overlap = used_channels & set(block)
        if overlap:
            raise ConfigurationError(
                f"transfer blocks overlap on channels {sorted(overlap)}"
            )
        used_channels.update(block)
        if len(broadcasters) < len(block):
            raise ConfigurationError(
                f"group of {len(broadcasters)} cannot occupy a "
                f"{len(block)}-channel block"
            )

    template: dict[int, Transmit] = {}
    listeners: list[int] = []
    groups = []
    for broadcasters, block_listeners, block, frame in transfers:
        for idx, channel in enumerate(block):
            sender = broadcasters[idx]
            template[sender] = Transmit(
                channel, Message(kind=DELTA_KIND, sender=sender, payload=frame)
            )
        streams = shapes.hops(
            rng, rng_namespace, "merge-listen", block_listeners, len(block)
        )
        groups.append((streams, block))
        listeners += block_listeners

    loop = CompiledRound(
        template,
        tuple(listeners),
        private_hop_rows(groups, repetitions),
        shapes.meta("feedback-parallel", tag=tag),
    )
    heard = network.execute_schedule(RoundSchedule((loop,)))

    # The broadcasters of one transfer share its frame: merge the masks
    # of the messages carrying it, check each distinct frame once, and
    # add its true slots once to each listener it reached.  A frame that
    # fails a check is dropped whole.
    frames: dict[int, list] = {}  # id(frame) -> [frame, listener mask]
    for received, reached in heard.reached(0):
        frame = received.payload
        if (
            received.kind == DELTA_KIND
            and isinstance(frame, DeltaFrame)
            and frame.tag == tag
        ):
            frames.setdefault(id(frame), [frame, 0])[1] |= reached
    width = len(loop.listeners)
    for frame, hits in frames.values():
        if slot_set_digest(frame.true_slots) != frame.digest:
            continue
        for node in compress(loop.listeners, hits.to_bytes(width, "little")):
            knowledge[node].update(frame.true_slots)


def run_parallel_feedback(
    network: RadioNetwork,
    witness_sets: Sequence[Sequence[int]],
    flags: Mapping[int, bool],
    participants: Sequence[int],
    rng: RngRegistry,
    *,
    shape_cache: ScheduleShapeCache | None = None,
) -> dict[int, set[int]]:
    """Merge per-slot flags through a parallel-prefix tree; return each
    participant's ``D`` (slot indices whose flag is true).

    Parameters mirror :func:`repro.feedback.protocol.run_feedback`, and are
    validated the same way (disjoint witness sets of distinct nodes, each
    agreeing on its flag); here ``witness_sets[r]`` must contain at least
    ``2t`` members, and the network must offer enough channels for the
    first level's simultaneous blocks (guaranteed by ``C >= 2t^2`` when
    ``len(witness_sets) <= C/t``).  ``shape_cache`` is an optional
    cross-invocation shape cache; within one invocation the merge tree
    always shares one cache, so the per-level transfer rounds reuse
    metadata and hop tables even when the caller passes none.
    """
    from ..fame.digests import combine_digests, slot_set_digest

    t = network.t
    block_size = max(1, 2 * t)
    slots = len(witness_sets)
    check_disjoint(witness_sets)
    check_witness_flags(witness_sets, flags, participants)
    knowledge: dict[int, set[int]] = {node: set() for node in participants}
    if slots == 0:
        return knowledge
    shapes = shape_cache if shape_cache is not None else ScheduleShapeCache()

    groups: list[_Group] = []
    for r, witness_set in enumerate(witness_sets):
        members = tuple(witness_set)
        if len(members) < block_size:
            raise ConfigurationError(
                f"witness set {r} has {len(members)} members; the parallel "
                f"merge needs at least 2t = {block_size}"
            )
        true_slots = (r,) if flags[members[0]] else ()
        groups.append(_Group(members, true_slots, slot_set_digest(true_slots)))
        for w in members:
            knowledge[w].update(true_slots)

    # Block of 2t channels with at most t jammed: success probability
    # >= 1/2 per round, matching the C = 2t feedback formula.
    repetitions = network.params.feedback_repetitions(
        network.n, max(2, block_size), min(t, max(2, block_size) - 1)
    )

    level = 0
    while len(groups) > 1:
        pairs = [
            (groups[i], groups[i + 1]) for i in range(0, len(groups) - 1, 2)
        ]
        carry = [groups[-1]] if len(groups) % 2 == 1 else []
        needed = len(pairs) * block_size
        if needed > network.channels:
            raise ConfigurationError(
                f"parallel merge level {level} needs {needed} channels; "
                f"only {network.channels} available (C >= 2t^2 required)"
            )
        # Two directed sub-phases; within each, all pairs run simultaneously
        # on disjoint channel blocks.
        for direction in (0, 1):
            tag = (level, direction)
            transfers = []
            for pair_idx, (left, right) in enumerate(pairs):
                src, dst = (left, right) if direction == 0 else (right, left)
                block = tuple(
                    range(pair_idx * block_size, (pair_idx + 1) * block_size)
                )
                transfers.append(
                    (src.members, dst.members, block, _delta_payload(src, tag))
                )
            _run_transfer_rounds(
                network,
                transfers,
                knowledge,
                tag=tag,
                repetitions=repetitions,
                rng=rng,
                rng_namespace=("feedback-parallel", level, direction),
                shapes=shapes,
            )
        # Adjacent pairs cover adjacent slot ranges, so the concatenation
        # stays sorted and the disjoint-union digest combines in O(1).
        groups = [
            _Group(
                left.members + right.members,
                left.true_slots + right.true_slots,
                combine_digests(left.digest, right.digest),
            )
            for left, right in pairs
        ] + carry
        level += 1

    # Final dissemination: the root group broadcasts to everyone else.
    root = groups[0]
    root_members = set(root.members)
    outsiders = [p for p in participants if p not in root_members]
    if outsiders:
        tag = ("final", level)
        block = tuple(range(block_size))
        _run_transfer_rounds(
            network,
            [(root.members, outsiders, block, _delta_payload(root, tag))],
            knowledge,
            tag=tag,
            repetitions=repetitions,
            rng=rng,
            rng_namespace=("feedback-parallel", "final"),
            shapes=shapes,
        )
    return knowledge
