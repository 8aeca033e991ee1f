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
slots — the only entries that can ever enter an output set ``D``.
Receivers keep per-listener applied-digest state (:class:`DeltaApplyState`):
a frame whose digest was already applied is skipped in O(1), a fresh frame
is verified against its digest and its delta applied in place, and a
digest mismatch falls back to the frame's embedded full-frame items (the
resync escape hatch) or drops the frame.

Execution
---------
Each transfer phase's repetition loop is oblivious, so it runs as one
compiled :class:`~repro.radio.network.RoundSchedule` with one transmitter
template, one listener tuple and hop rows laid out by
:func:`~repro.radio.network.private_hop_rows` (one ``(hop streams,
block)`` group per transfer; see :func:`_run_transfer_rounds`).  Seeded
runs are byte-identical to the historical
one-``execute_round``-per-repetition loop, and match the historical
full-frame encoding (which shipped the whole ``slot -> flag`` map) on
``D`` maps, every radio metric but the
payload-size counter the delta shrinks, and semantic traces under every
adversary: ``tests/test_golden.py`` pins digests recorded from both
references and the :class:`DeltaApplyState` counters recorded from the
per-listener fold, and ``tests/test_feedback_delta.py`` is the
differential gauntlet checking them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Callable, Mapping, Sequence

from ..errors import ConfigurationError
from ..radio.actions import Transmit
from ..radio.messages import DELTA_KIND, DeltaFrame, Message
from ..radio.network import (
    CompiledRound,
    RadioNetwork,
    RoundSchedule,
    hit_row,
    private_hop_rows,
)
from ..radio.shapes import ScheduleShapeCache
from ..rng import RngRegistry

_UNRESOLVED = object()  # sentinel distinguishing "not seen" from "invalid"


@dataclass
class _Group:
    """A witness group in the merge tree with its accumulated knowledge.

    The knowledge is kept in its delta encoding: ``true_slots`` holds the
    true-flag slots in ascending order (the merge tree pairs adjacent
    groups, so concatenation preserves order) and ``digest`` the
    incremental slot-set digest over them, combined in O(1) per merge via
    :func:`~repro.fame.digests.combine_digests`.
    """

    members: tuple[int, ...]
    true_slots: tuple[int, ...]
    digest: bytes


class DeltaApplyState:
    """Receiver-side bookkeeping for digest/delta knowledge frames.

    One instance lives for one :func:`run_parallel_feedback` invocation and
    tracks, per listener, which frame digests have already been applied —
    the *applied-epoch* set that makes every decode after a listener's
    first an O(1) skip instead of an O(frame) ``dict.update``.  Frame
    verification (hashing the delta and checking it against the frame's
    digest) is cached per frame value, so it happens once per transfer,
    not once per listener or per repetition.

    Counters (all per-invocation):

    ``applications``
        First-time applications of a frame to a listener's knowledge.
    ``skips``
        O(1) already-applied short-circuits.
    ``digest_mismatches``
        Distinct frames whose delta failed digest verification.
    ``resyncs``
        Mismatched frames recovered through their embedded full-frame
        payload (the escape hatch); a mismatch without a resync payload
        drops the frame.
    """

    def __init__(self, hash1: Callable[..., bytes] | None = None) -> None:
        from ..fame.digests import slot_set_digest

        self._digest = lambda slots: slot_set_digest(slots, hash1=hash1)
        # One state serves one invocation: leaf/merge digests are
        # deterministic functions of the slot layout, so a reused state
        # would silently skip a second run's frames as already applied.
        # run_parallel_feedback claims the state via _claim().
        self._claimed = False
        self.applied: dict[int, set] = {}
        # Verification cache keyed by frame identity: frames are shared
        # objects (one per transfer, referenced by the live schedule), so
        # the id lookup avoids rehashing the frame's slot tuple on every
        # decode; the frame itself is kept in the value to pin the id.
        self._verified: dict[int, tuple[DeltaFrame, tuple | None]] = {}
        self.applications = 0
        self.skips = 0
        self.digest_mismatches = 0
        self.resyncs = 0

    def _claim(self) -> None:
        """Bind this state to one invocation (reuse is a caller bug)."""
        if self._claimed:
            raise ConfigurationError(
                "DeltaApplyState is single-use: a second invocation would "
                "skip frames whose digests the first already applied; "
                "pass a fresh state per run_parallel_feedback call"
            )
        self._claimed = True

    def resolve(self, frame: DeltaFrame) -> tuple | None:
        """Classify a frame once: ``(applied_key, items)`` or ``None``.

        A *verified* delta's applied key is its digest (which verification
        just proved identifies the content) and its items are the cached
        ``{slot: True}`` map; a digest-mismatch frame with a resync payload
        is keyed by the whole frame value — its digest is exactly what
        failed, so two corrupted frames sharing a bogus digest must not
        skip each other — with the embedded full items; an unverifiable
        frame (mismatch, no resync items) classifies as ``None`` and is
        dropped without marking anything applied, so a later well-formed
        frame with the same digest still lands.
        """
        try:
            return self._verified[id(frame)][1]
        except KeyError:
            pass
        if self._digest(frame.true_slots) == frame.digest:
            verdict: tuple | None = (
                frame.digest,
                {slot: True for slot in frame.true_slots},
            )
        else:
            self.digest_mismatches += 1
            if frame.full is not None:
                self.resyncs += 1
                verdict = (frame, dict(frame.full))
            else:
                verdict = None
        self._verified[id(frame)] = (frame, verdict)
        return verdict

    def apply(
        self, node: int, frame: DeltaFrame, knowledge: dict[int, bool]
    ) -> bool:
        """Fold ``frame`` into ``node``'s knowledge; True iff it applied.

        Verification and the applied key come from :meth:`resolve`; an
        already-applied frame costs one set lookup (a skip), a first-time
        one a single ``dict.update`` of the cached items.
        """
        verdict = self.resolve(frame)
        if verdict is None:
            return False
        key, items = verdict
        seen = self.applied.setdefault(node, set())
        if key in seen:
            self.skips += 1
            return False
        knowledge.update(items)
        seen.add(key)
        self.applications += 1
        return True


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
    per_node_knowledge: dict[int, dict[int, bool]],
    tag: object,
    repetitions: int,
    rng: RngRegistry,
    rng_namespace: object,
    delta_state: DeltaApplyState,
    shapes: ScheduleShapeCache,
) -> None:
    """Run ``repetitions`` rounds of simultaneous directed transfers.

    Each transfer is ``(broadcasters, listeners, block_channels, frame)``;
    blocks must be channel-disjoint (validated).  Every block channel is
    occupied by an honest broadcaster each round, so adversarial frames can
    only collide, never be decoded.  Listeners hop uniformly within their
    block and apply any knowledge frame with a matching tag.

    The loop compiles into one :class:`RoundSchedule`: the frames of one
    transfer are identical across rounds, so the broadcasters form one
    static template, and every transfer's listeners one tuple.  The fold
    applies a frame only to the listeners it reaches for the first time
    (see the comment above it).
    """
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

    meta = shapes.meta("feedback-parallel", tag=tag)
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

    # Every round shares the template and one listener tuple.
    listener_tuple = tuple(listeners)
    rows = private_hop_rows(groups, repetitions)
    heard_per_round = network.execute_schedule(
        RoundSchedule(
            CompiledRound(template, listener_tuple, row, meta) for row in rows
        )
    )

    # The fold applies DeltaApplyState.apply's per-frame semantics (via
    # resolve() and the shared applied-key state) inline.  A decoded
    # message on a transfer channel is the *same* template object every
    # repetition, so frame classification (kind/tag checks plus digest
    # verification) resolves once per distinct message.  Per decoded
    # channel-round, one hit_row marks the listeners on that channel
    # and a bitmask of the listeners each message already reached leaves
    # only first-time hearers, so a listener costs one Python step per
    # message rather than one per repetition; every other hearing is a
    # skip, counted in bulk.  Rounds are folded in order, so each
    # listener's applications happen in the order it heard the frames.
    applied = delta_state.applied
    resolved: dict[int, list | None] = {}
    width = len(listener_tuple)
    hearings = 0
    applications = 0
    for row, heard in zip(rows, heard_per_round):
        for channel, received in heard.items():
            entry = resolved.get(id(received), _UNRESOLVED)
            if entry is _UNRESOLVED:
                entry = None
                if received.kind == DELTA_KIND:
                    frame = received.payload
                    if isinstance(frame, DeltaFrame) and frame.tag == tag:
                        verdict = delta_state.resolve(frame)
                        if verdict is not None:
                            entry = [*verdict, 0]  # key, items, reached
                resolved[id(received)] = entry
            if entry is None:
                continue
            hit = hit_row(row, channel)
            hearings += hit.count(1)
            fresh = int.from_bytes(hit, "little") & ~entry[2]
            if not fresh:
                continue
            entry[2] |= fresh
            key, items = entry[0], entry[1]
            first_time = fresh.to_bytes(width, "little")
            for node in compress(listener_tuple, first_time):
                seen = applied.get(node)
                if seen is None:
                    seen = applied[node] = set()
                elif key in seen:
                    continue
                per_node_knowledge[node].update(items)
                seen.add(key)
                applications += 1
    delta_state.applications += applications
    delta_state.skips += hearings - applications


def run_parallel_feedback(
    network: RadioNetwork,
    witness_sets: Sequence[Sequence[int]],
    flags: Mapping[int, bool],
    participants: Sequence[int],
    rng: RngRegistry,
    *,
    delta_state: DeltaApplyState | None = None,
    shape_cache: ScheduleShapeCache | None = None,
) -> dict[int, set[int]]:
    """Merge per-slot flags through a parallel-prefix tree; return each
    participant's ``D`` (slot indices whose flag is true).

    Parameters mirror :func:`repro.feedback.protocol.run_feedback`; here
    ``witness_sets[r]`` must contain at least ``2t`` members, and the
    network must offer enough channels for the first level's simultaneous
    blocks (guaranteed by ``C >= 2t^2`` when ``len(witness_sets) <= C/t``).

    A caller may pass its own (fresh) :class:`DeltaApplyState` to inspect
    the apply/skip/resync counters afterwards; states are single-use —
    reuse across invocations raises, because repeated digests would be
    skipped as already applied — and by default one is created per
    invocation.  ``shape_cache`` is an optional cross-invocation shape
    cache; within one invocation the merge tree always shares one cache,
    so the per-level transfer rounds reuse metadata and hop tables even
    when the caller passes none.
    """
    from ..fame.digests import combine_digests, slot_set_digest

    t = network.t
    block_size = max(1, 2 * t)
    slots = len(witness_sets)
    if slots == 0:
        return {node: set() for node in participants}
    shapes = shape_cache if shape_cache is not None else ScheduleShapeCache()
    if delta_state is None:
        delta_state = DeltaApplyState()
    delta_state._claim()

    groups: list[_Group] = []
    per_node_knowledge: dict[int, dict[int, bool]] = {}
    for r, witness_set in enumerate(witness_sets):
        members = tuple(witness_set)
        if len(members) < block_size:
            raise ConfigurationError(
                f"witness set {r} has {len(members)} members; the parallel "
                f"merge needs at least 2t = {block_size}"
            )
        flag_values = {flags[w] for w in members if w in flags}
        if len(flag_values) != 1:
            raise ConfigurationError(
                f"witness set {r} missing or inconsistent flags"
            )
        flag = next(iter(flag_values))
        true_slots = (r,) if flag else ()
        groups.append(_Group(members, true_slots, slot_set_digest(true_slots)))
        for w in members:
            per_node_knowledge[w] = {r: flag}
    for node in participants:
        per_node_knowledge.setdefault(node, {})

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
                per_node_knowledge,
                tag=tag,
                repetitions=repetitions,
                rng=rng,
                rng_namespace=("feedback-parallel", level, direction),
                delta_state=delta_state,
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
            per_node_knowledge,
            tag=tag,
            repetitions=repetitions,
            rng=rng,
            rng_namespace=("feedback-parallel", "final"),
            delta_state=delta_state,
            shapes=shapes,
        )

    return {
        node: {slot for slot, flag in per_node_knowledge[node].items() if flag}
        for node in participants
    }
