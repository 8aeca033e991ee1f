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
The merge is oblivious: every frame follows from the flags, never from
what a listener heard (a group's frame carries its members' true slots,
and a node's knowledge only collects the output).  So one invocation is
one schedule: each level's two directed transfer phases compile into one
loop each (:class:`~repro.radio.network.CompiledRound`: one transmitter
template, one listener tuple, one hop row per repetition, laid out by
:func:`~repro.radio.network.private_hop_rows` with one ``(hop streams,
block)`` group per transfer), the final dissemination into one more, and
all of them go to :meth:`~repro.radio.network.RadioNetwork.execute_schedule`
in one call, after every check has passed.  Each transfer phase draws its
listeners' hops from its own ``("feedback-parallel", level, direction)``
namespace and the final from ``("feedback-parallel", "final")``, whose
table spans every participant and is compressed to the outsiders, so the
coins are those of one call per phase.  Against a planned adversary (or
none) the engine resolves the schedule in bulk, and its fold
(:meth:`~repro.radio.network.Heard.reached`) gives each loop's delivered
messages with the OR of the :func:`~repro.radio.network.hit_row` masks of
the listeners they reached.  The merge ORs those per distinct frame,
checks the frame once, and ORs the participant lanes it reached into the
mask of each of its true slots; the per-slot masks become each node's
output set at the end
(:func:`~repro.feedback.protocol.slot_outputs`).  Seeded runs are
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
    RoundMeta,
    private_hop_rows,
)
from ..rng import HopStream, RngRegistry
from .protocol import check_witness_flags, slot_outputs, widen
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


def _compile_transfers(
    transfers: Sequence[
        tuple[
            Sequence[int],
            Sequence[int],
            Sequence[HopStream],
            Sequence[int],
            DeltaFrame,
        ]
    ],
    tag: object,
    repetitions: int,
) -> CompiledRound:
    """Compile ``repetitions`` rounds of simultaneous directed transfers
    into one loop.

    Each transfer is ``(broadcasters, listeners, hop streams,
    block_channels, frame)``; blocks must be channel-disjoint (validated).
    Every block channel is occupied by an honest broadcaster each round,
    so adversarial frames can only collide, never be decoded.  Listeners
    hop uniformly within their block, each on its hop stream.

    The frames of one transfer are identical across rounds, so the
    broadcasters form one static template, and every transfer's
    listeners one tuple.
    """
    used_channels: set[int] = set()
    for broadcasters, _, _, block, _ in transfers:
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
    for broadcasters, block_listeners, streams, block, frame in transfers:
        for idx, channel in enumerate(block):
            sender = broadcasters[idx]
            template[sender] = Transmit(
                channel, Message(kind=DELTA_KIND, sender=sender, payload=frame)
            )
        groups.append((streams, block))
        listeners += block_listeners

    return CompiledRound(
        template,
        tuple(listeners),
        private_hop_rows(groups, repetitions),
        RoundMeta(phase="feedback-parallel", extra={"tag": tag}),
    )


def run_parallel_feedback(
    network: RadioNetwork,
    witness_sets: Sequence[Sequence[int]],
    flags: Mapping[int, bool],
    participants: Sequence[int],
    rng: RngRegistry,
) -> dict[int, frozenset[int]]:
    """Merge per-slot flags through a parallel-prefix tree; return each
    participant's ``D`` (slot indices whose flag is true), in participant
    order, nodes with equal sets sharing one frozenset.

    Parameters mirror :func:`repro.feedback.protocol.run_feedback`, and are
    validated the same way (distinct participants; disjoint witness sets
    of distinct nodes, each agreeing on its flag); here
    ``witness_sets[r]`` must contain at least ``2t`` members, and the
    network must offer enough channels for the first level's simultaneous
    blocks (guaranteed by ``C >= 2t^2`` when ``len(witness_sets) <=
    C/t``).  Every check runs before any round.  Each transfer's listener
    hop table is the registry's own (:meth:`~repro.rng.RngRegistry.hops`),
    built on the first invocation with that geometry and kept; the final
    dissemination draws from one participants-wide table.
    """
    from ..fame.digests import combine_digests, slot_set_digest

    t = network.t
    block_size = max(1, 2 * t)
    check_disjoint(witness_sets)
    check_witness_flags(witness_sets, flags, participants)
    lane = dict(zip(participants, range(len(participants))))
    masks: dict[int, int] = {}  # slot -> its participant-lane mask
    if not witness_sets:
        return slot_outputs(participants, masks)

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
        if true_slots:
            masks[r] = sum(1 << 8 * lane[w] for w in members)

    # Block of 2t channels with at most t jammed: success probability
    # >= 1/2 per round, matching the C = 2t feedback formula.
    repetitions = network.params.feedback_repetitions(
        network.n, max(2, block_size), min(t, max(2, block_size) - 1)
    )

    # Every frame follows from the flags alone, so the whole tree compiles
    # before any round runs: one loop per level and direction, then the
    # final dissemination, each with its tag and, for the final, the lanes
    # of the participants that do not listen.
    compiled: list[tuple[CompiledRound, object, list[int] | None]] = []
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
            namespace = ("feedback-parallel", level, direction)
            transfers = []
            for pair_idx, (left, right) in enumerate(pairs):
                src, dst = (left, right) if direction == 0 else (right, left)
                block = tuple(
                    range(pair_idx * block_size, (pair_idx + 1) * block_size)
                )
                streams = rng.hops(
                    namespace, "merge-listen", nodes=dst.members, n=block_size
                )
                transfers.append(
                    (
                        src.members,
                        dst.members,
                        streams,
                        block,
                        _delta_payload(src, tag),
                    )
                )
            compiled.append(
                (_compile_transfers(transfers, tag, repetitions), tag, None)
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
    root_lanes = sorted(map(lane.__getitem__, root.members))
    outside = widen(
        b"\x01" * (len(participants) - len(root_lanes)), root_lanes, b"\x00"
    )
    if any(outside):
        tag = ("final", level)
        streams = rng.hops(
            ("feedback-parallel", "final"),
            "merge-listen",
            nodes=participants,
            n=block_size,
        )
        final = (
            root.members,
            tuple(compress(participants, outside)),
            list(compress(streams, outside)),
            tuple(range(block_size)),
            _delta_payload(root, tag),
        )
        compiled.append(
            (_compile_transfers([final], tag, repetitions), tag, root_lanes)
        )

    heard = network.execute_schedule([loop for loop, _, _ in compiled])

    # The broadcasters of one transfer share its frame: merge the masks
    # of the messages carrying it, check each distinct frame once, and OR
    # the participant lanes it reached into the mask of each of its true
    # slots (a level's few listeners one lane each, the final's everyone
    # but the root at once).  A frame that fails a check is dropped whole.
    for index, (loop, tag, skipped) in enumerate(compiled):
        frames: dict[int, list] = {}  # id(frame) -> [frame, listener mask]
        for received, reached in heard.reached(index):
            frame = received.payload
            if (
                received.kind == DELTA_KIND
                and isinstance(frame, DeltaFrame)
                and frame.tag == tag
            ):
                frames.setdefault(id(frame), [frame, 0])[1] |= reached
        width = len(loop.listeners)
        if skipped is None:
            lane_bits = [1 << 8 * lane[node] for node in loop.listeners]
        for frame, hits in frames.values():
            if slot_set_digest(frame.true_slots) != frame.digest:
                continue
            marks = hits.to_bytes(width, "little")
            if skipped is None:
                bits = sum(compress(lane_bits, marks))
            else:
                bits = int.from_bytes(widen(marks, skipped, b"\x00"), "little")
            for slot in frame.true_slots:
                masks[slot] = masks.get(slot, 0) | bits
    return slot_outputs(participants, masks)
