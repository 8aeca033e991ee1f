"""Constant-size messages for f-AME (Section 5.6).

Plain f-AME frames carry a sender's whole message vector.  The optimized
pipeline shrinks protocol messages to constant size in three stages:

1. **Message gossip** — every pair ``(v, w)`` of ``E`` gets one epoch of
   ``Θ(t^2 log n)`` rounds in which ``v`` broadcasts, on a fresh random
   channel each round, the message ``m_{v,i}`` tagged with the
   *reconstruction hash* ``H1(m_{v,i}, ..., m_{v,k})`` over the rest of its
   sequence.  Everyone else listens on random channels.  Delivery is w.h.p.
   but completely unauthenticated: the adversary can inject arbitrary fake
   frames, including internally consistent fake chains.

2. **Reconstruction** — each node arranges the frames it received for
   claimed source ``v`` into levels (one per epoch) and decorates them with
   edges: a level-``i`` frame links to a level-``i+1`` frame exactly when
   its reconstruction hash equals ``H1`` of its own message followed by the
   chained suffix.  Chains from level 1 to level ``k`` are candidate
   vectors ``M_v`` — the true one among (w.h.p. polynomially few) fakes.

3. **Vector signatures** — f-AME runs with each message replaced by the
   constant-size ``H2(M_v)``.  f-AME's schedule authenticates the signature,
   which then selects the unique matching candidate chain; the receiver
   extracts its own message from the validated vector.

All hash evaluations happen locally (cheap, per the paper's aside); only
the gossip epochs and the signature-sized f-AME run cost radio rounds.
Each gossip epoch is pure private coin flips, drawn from every node's
``"gossip"`` hop stream, so it runs as one compiled epoch
(:func:`~repro.radio.network.run_gossip_epoch`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from typing import Any, Callable, Iterable, Mapping, Sequence

from ..radio.messages import Message, payload_fields
from ..radio.network import RadioNetwork, RoundMeta, hit_row, run_gossip_epoch
from ..rng import RngRegistry
from .config import FameConfig, make_config
from .protocol import FameProtocol
from .result import FameResult, PairOutcome

GOSSIP_KIND = "ame-gossip"
"""Frame kind used by gossip-phase broadcasts."""

HashFn = Callable[..., bytes]

SLOT_DIGEST_SIZE = 32
"""Byte length of slot-set digests (matches the H1 output width)."""

_SLOT_DOMAIN = "slot-digest"


def _slot_term(slot: int, hash1: HashFn) -> int:
    return int.from_bytes(hash1(_SLOT_DOMAIN, slot), "big")


class SlotSetDigest:
    """Incremental, order-independent digest over a set of slot indices.

    The digest of a slot set is the XOR of one ``H1`` term per member, so
    it can be maintained *incrementally*: adding a batch of new slots costs
    O(batch) hash evaluations regardless of how many slots are already
    digested, and the digest of a disjoint union is the XOR of the parts'
    digests (:func:`combine_digests`).  This is what lets the parallel
    feedback merge tag every knowledge frame with a digest of the frame's
    full slot coverage without ever re-hashing the accumulated set: leaf
    groups hash their single slot once, merged groups combine in O(1).

    Duplicate slots are ignored (a set, not a multiset), which keeps the
    invariant *apply-then-digest equals digest-of-merged*: feeding any
    sequence of possibly-overlapping slot batches through :meth:`update`
    yields exactly ``slot_set_digest(union of the batches)`` —
    ``tests/test_schedule_properties.py`` pins this property.
    """

    __slots__ = ("_acc", "_slots", "_hash1")

    def __init__(
        self, slots: "Iterable[int]" = (), *, hash1: HashFn | None = None
    ) -> None:
        from ..crypto.hashes import h1 as default_h1

        self._hash1 = hash1 or default_h1
        self._acc = 0
        self._slots: set[int] = set()
        self.update(slots)

    def update(self, slots: "Iterable[int]") -> "SlotSetDigest":
        """Fold new slots into the digest (already-present slots are
        no-ops); returns ``self`` for chaining."""
        for slot in slots:
            if slot not in self._slots:
                self._slots.add(slot)
                self._acc ^= _slot_term(slot, self._hash1)
        return self

    @property
    def value(self) -> bytes:
        """The current digest."""
        return self._acc.to_bytes(SLOT_DIGEST_SIZE, "big")

    @property
    def slots(self) -> frozenset[int]:
        """The slot set digested so far."""
        return frozenset(self._slots)

    def __len__(self) -> int:
        return len(self._slots)


def slot_set_digest(
    slots: "Iterable[int]", *, hash1: HashFn | None = None
) -> bytes:
    """One-shot digest of a slot set (see :class:`SlotSetDigest`)."""
    return SlotSetDigest(slots, hash1=hash1).value


def combine_digests(*digests: bytes) -> bytes:
    """Digest of a *disjoint* union, from the parts' digests, in O(parts).

    XOR-combining is only union-compatible when the underlying slot sets
    are pairwise disjoint (a shared slot's term would cancel); the parallel
    merge tree satisfies this by construction — each slot lives in exactly
    one group per level.
    """
    acc = 0
    for digest in digests:
        acc ^= int.from_bytes(digest, "big")
    return acc.to_bytes(SLOT_DIGEST_SIZE, "big")


def message_sequence(
    edges: Sequence[tuple[int, int]], source: int
) -> list[tuple[int, int]]:
    """The canonical epoch order of ``source``'s pairs: sorted by dest.

    Section 5.6 fixes an order ``M_v`` of the values to be sent; every node
    derives the same order from the public edge set.
    """
    return sorted((p for p in edges if p[0] == source), key=lambda p: p[1])


def reconstruction_hashes(
    sequence: Sequence[Any], hash1: HashFn
) -> list[bytes]:
    """Per-level hashes: ``h_i = H1(m_i, m_{i+1}, ..., m_k)``."""
    return [hash1(*sequence[i:]) for i in range(len(sequence))]


@dataclass
class GossipInbox:
    """Frames a node collected during the gossip phase.

    ``levels[source][i]`` is the set of distinct ``(message, hash)``
    candidates heard during the ``i``-th epoch of ``source``.  Everything in
    here is attacker-influencable — candidates are *claims*, validated only
    by reconstruction plus the authenticated vector signature.
    """

    levels: dict[int, list[set[tuple[Any, bytes]]]] = field(default_factory=dict)

    def ensure(self, source: int, num_levels: int) -> None:
        """Make room for ``source``'s epochs."""
        self.levels.setdefault(
            source, [set() for _ in range(num_levels)]
        )

    def add(self, source: int, level: int, message: Any, digest: bytes) -> None:
        """Record a candidate frame (deduplicated)."""
        if source in self.levels and 0 <= level < len(self.levels[source]):
            self.levels[source][level].add((message, digest))

    def candidate_count(self, source: int) -> int:
        """Total candidates stored for ``source`` (spoof pressure metric)."""
        return sum(len(s) for s in self.levels.get(source, ()))


def reconstruct_chains(
    levels: Sequence[set[tuple[Any, bytes]]], hash1: HashFn
) -> list[tuple[Any, ...]]:
    """All hash-consistent message chains through the levels.

    Implements the backwards decoration of Section 5.6: a last-level
    candidate is valid when its tag equals ``H1`` of its own message; a
    level-``i`` candidate chains onto every suffix whose combined hash
    matches its tag.  With a collision-resistant ``H1`` each candidate has
    at most one outgoing edge; a weak hash may fan out, and this function
    faithfully returns every consistent chain.
    """
    if not levels:
        return []
    # suffixes[i] maps each candidate at level i to its valid suffix chains.
    suffix_chains: list[tuple[Any, ...]] = []
    current: dict[tuple[Any, bytes], list[tuple[Any, ...]]] = {}
    for message, digest in levels[-1]:
        if digest == hash1(message):
            current[(message, digest)] = [(message,)]
    for level in range(len(levels) - 2, -1, -1):
        nxt = current
        current = {}
        for message, digest in levels[level]:
            chains: list[tuple[Any, ...]] = []
            for suffixes in nxt.values():
                for suffix in suffixes:
                    if digest == hash1(message, *suffix):
                        chains.append((message,) + suffix)
            if chains:
                current[(message, digest)] = chains
    return [chain for chains in current.values() for chain in chains]


@dataclass
class DigestFameResult:
    """Outcome of the optimized (constant message size) f-AME pipeline.

    ``fame`` is the inner signature-exchange run; ``outcomes`` contains the
    final per-pair results after vector validation.  The candidate/chain
    statistics expose how much spoofing pressure the reconstruction absorbed.
    """

    fame: FameResult
    outcomes: dict[tuple[int, int], PairOutcome]
    gossip_rounds: int
    candidate_stats: dict[int, int]
    chain_stats: dict[int, int]

    @property
    def failed(self) -> list[tuple[int, int]]:
        """Pairs that output fail."""
        return [p for p, o in self.outcomes.items() if not o.success]

    @property
    def succeeded(self) -> list[tuple[int, int]]:
        """Pairs whose message was delivered and authenticated."""
        return [p for p, o in self.outcomes.items() if o.success]

    def disruptability(self) -> int:
        """Minimum vertex cover of the failed pairs."""
        from ..analysis.vertex_cover import min_vertex_cover

        return len(min_vertex_cover(self.failed))


def run_gossip_phase(
    network: RadioNetwork,
    edges: Sequence[tuple[int, int]],
    messages: Mapping[tuple[int, int], Any],
    rng: RngRegistry,
    hash1: HashFn,
    *,
    epoch_rounds: int | None = None,
) -> tuple[list[GossipInbox], int]:
    """Run the message-gossip phase; returns per-node inboxes and rounds.

    Every epoch, the epoch's source hops randomly and broadcasts its frame;
    every other node listens on a random channel and records whatever
    ``ame-gossip`` frames arrive (spoofs included — authentication comes
    later).
    """
    n = network.n
    if epoch_rounds is None:
        epoch_rounds = network.params.gossip_epoch_rounds(n, network.t)
    inboxes = [GossipInbox() for _ in range(n)]

    sources = sorted({v for v, _ in edges})
    sequences = {v: message_sequence(edges, v) for v in sources}
    for node in range(n):
        for v in sources:
            inboxes[node].ensure(v, len(sequences[v]))

    streams = rng.hops("gossip", nodes=range(n), n=network.channels)
    rounds = 0
    for v in sources:
        seq_msgs = [messages[p] for p in sequences[v]]
        tags = reconstruction_hashes(seq_msgs, hash1)
        listeners = tuple(node for node in range(n) if node != v)
        for level, message in enumerate(seq_msgs):
            frame = Message(
                kind=GOSSIP_KIND,
                sender=v,
                payload=(v, level, message, tags[level]),
            )
            # The source itself trivially knows its own frame.
            inboxes[v].add(v, level, message, tags[level])
            epoch = run_gossip_epoch(
                network,
                v,
                frame,
                listeners,
                streams,
                epoch_rounds,
                RoundMeta(phase="gossip", extra={"source": v, "level": level}),
            )
            rounds += epoch_rounds
            for row, heard in epoch:
                for channel, received in heard.items():
                    if received.kind != GOSSIP_KIND:
                        continue
                    fields = payload_fields(
                        received.payload, int, int, None, bytes
                    )
                    if fields is None:
                        continue  # malformed spoof
                    for node in compress(listeners, hit_row(row, channel)):
                        inboxes[node].add(*fields)
    return inboxes, rounds


def run_fame_with_digests(
    network: RadioNetwork,
    edges: Sequence[tuple[int, int]],
    messages: Mapping[tuple[int, int], Any] | None = None,
    rng: RngRegistry | None = None,
    *,
    config: FameConfig | None = None,
    hash1: HashFn | None = None,
    hash2: HashFn | None = None,
    epoch_rounds: int | None = None,
) -> DigestFameResult:
    """The full Section 5.6 pipeline: gossip, reconstruct, sign, extract."""
    from ..crypto.hashes import h1 as default_h1, h2 as default_h2
    from .protocol import default_messages

    hash1 = hash1 or default_h1
    hash2 = hash2 or default_h2
    rng = rng or RngRegistry(seed=0)
    config = config or make_config(
        network.n, network.channels, network.t, params=network.params
    )
    edges = list(dict.fromkeys((int(v), int(w)) for v, w in edges))
    messages = (
        dict(messages) if messages is not None else default_messages(edges)
    )

    # Stage 1: unauthenticated gossip.
    inboxes, gossip_rounds = run_gossip_phase(
        network, edges, messages, rng, hash1, epoch_rounds=epoch_rounds
    )

    # Stage 2: local reconstruction at every node.
    sources = sorted({v for v, _ in edges})
    sequences = {v: message_sequence(edges, v) for v in sources}
    chains_per_node: list[dict[int, list[tuple[Any, ...]]]] = []
    for node in range(network.n):
        per_source: dict[int, list[tuple[Any, ...]]] = {}
        for v in sources:
            per_source[v] = reconstruct_chains(
                inboxes[node].levels[v], hash1
            )
        chains_per_node.append(per_source)

    # Stage 3: f-AME carrying constant-size vector signatures.
    signatures = {
        v: hash2(*(messages[p] for p in sequences[v])) for v in sources
    }
    signature_messages = {(v, w): signatures[v] for (v, w) in edges}
    fame_result = FameProtocol(
        network, edges, messages=signature_messages, rng=rng, config=config
    ).run()

    # Stage 4: signature validation and message extraction.
    outcomes: dict[tuple[int, int], PairOutcome] = {}
    candidate_stats: dict[int, int] = {}
    chain_stats: dict[int, int] = {}
    for v in sources:
        candidate_stats[v] = max(
            inboxes[node].candidate_count(v) for node in range(network.n)
        )
        chain_stats[v] = max(
            len(chains_per_node[node][v]) for node in range(network.n)
        )
    for pair in edges:
        v, w = pair
        inner = fame_result.outcomes[pair]
        if not inner.success:
            outcomes[pair] = PairOutcome(pair=pair, success=False)
            continue
        received_signature = inner.message
        matching = [
            chain
            for chain in chains_per_node[w][v]
            if hash2(*chain) == received_signature
        ]
        if len(matching) != 1:
            # Either the gossip epoch failed for this receiver (w.h.p. not)
            # or a weak hash produced a signature collision; the pair must
            # conservatively output fail rather than accept ambiguity.
            outcomes[pair] = PairOutcome(pair=pair, success=False)
            continue
        vector = matching[0]
        index = sequences[v].index(pair)
        outcomes[pair] = PairOutcome(
            pair=pair, success=True, message=vector[index], move=inner.move
        )
    return DigestFameResult(
        fame=fame_result,
        outcomes=outcomes,
        gossip_rounds=gossip_rounds,
        candidate_stats=candidate_stats,
        chain_stats=chain_stats,
    )
