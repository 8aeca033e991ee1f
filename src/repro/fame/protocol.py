"""The f-AME protocol driver (Section 5.4, Figure 2).

The protocol is a distributed simulation of the starred-edge removal game:

1. every node applies the greedy strategy to its local game copy to obtain
   the move's proposal (identical across nodes — Invariant 1);
2. the proposal is mapped onto channels by the deterministic schedule and
   one *message-transmission* radio round is executed;
3. the *feedback phase* (Figure 1, or the parallel merge for ``C >= 2t^2``)
   lets every node agree on the set ``D`` of channels that succeeded;
4. each node simulates the referee granting exactly the items whose channel
   is in ``D``, updating its game copy: granted nodes are starred (their
   witness group becomes their surrogate set — Invariant 2), granted edges
   are removed (their message was delivered — Invariant 3).

The loop ends when the greedy strategy terminates, which certifies a vertex
cover of at most ``t`` for the remaining (failed) pairs — ``t``-disruptability.

Implementation note: all nodes deterministically compute identical proposals
and schedules from identical state, so the driver computes each proposal once
instead of recomputing ``n`` identical greedy runs per move.  The per-node
feedback outputs are the only place where views can diverge, so they are
tracked individually for every node, and :func:`referee_vote` guards
Invariant 1: replicas that apply the same grants in the same order hold the
same state, so agreement on each move's grants is what needs checking.
Strict mode raises :class:`~repro.errors.SimulationDiverged` on any
disagreement; lenient mode counts it and every node resynchronises to the
majority (``tests/test_fame_protocol.py::TestDivergenceHandling`` starves
the feedback to show both).

Engine note: the driver keeps **one** canonical :class:`GameGraph` (with
incrementally-maintained greedy pools, see
:class:`~repro.game.greedy.GreedyPools`) that stands for every node's
replica.  Radio rounds are submitted sparsely (only scheduled nodes) as
compiled schedules; seeded runs match the legacy engine, which padded every
idle node with an explicit ``Sleep`` and ran the per-round feedback loops —
``tests/test_golden.py`` pins digests recorded from it.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Iterable, Mapping, Sequence

from ..errors import ProtocolViolation, SimulationDiverged
from ..feedback.parallel import run_parallel_feedback
from ..feedback.protocol import run_feedback
from ..game.graph import EdgeItem, GameGraph, NodeItem
from ..game.greedy import GreedyPools, GreedyTermination
from ..game.rules import check_proposal
from ..radio.actions import Transmit
from ..radio.messages import Message
from ..radio.network import CompiledRound, RadioNetwork, RoundMeta
from ..rng import RngRegistry
from .config import FameConfig, make_config
from .result import FameResult, PairOutcome
from .schedule import TransmissionSchedule, build_schedule

AME_DATA_KIND = "ame-data"
"""Frame kind of message-transmission broadcasts."""


def vector_frame(
    broadcaster: int, source: int, vector: Mapping[int, Any]
) -> Message:
    """The transmission-phase frame: ``source``'s full message vector.

    Section 5.4 has broadcasters send "the vector of all values m_{v,*}"
    (Section 5.6's digest pipeline shrinks this to constant size).
    """
    return Message(
        kind=AME_DATA_KIND,
        sender=broadcaster,
        payload=(source, tuple(sorted(vector.items()))),
    )


def default_messages(
    edges: Sequence[tuple[int, int]]
) -> dict[tuple[int, int], Any]:
    """Distinct placeholder payloads for tests and examples."""
    return {(v, w): ("msg", v, w) for (v, w) in edges}


def check_pairs(
    network: RadioNetwork,
    edges: Iterable[tuple[int, int]],
    messages: Mapping[tuple[int, int], Any] | None = None,
) -> tuple[list[tuple[int, int]], dict[tuple[int, int], Any]]:
    """Definition 1's input, checked before any round runs: returns the
    distinct pairs of ``edges`` in order and the message of each
    (:func:`default_messages` when ``messages`` is ``None``).

    Raises
    ------
    ProtocolViolation:
        If a pair is not a 2-tuple of exact ``int`` ids (``1.7``,
        ``True`` and ``"1"`` are not coerced), leaves the network, is a
        self-loop, or has no message.
    """
    edges = list(edges)
    for pair in edges:
        if not (
            type(pair) is tuple
            and len(pair) == 2
            and all(type(x) is int for x in pair)
        ):
            raise ProtocolViolation(
                f"pair {pair!r:.80} is not a 2-tuple of int node ids"
            )
    pairs = list(dict.fromkeys(edges))
    for v, w in pairs:
        if not (0 <= v < network.n and 0 <= w < network.n):
            raise ProtocolViolation(f"pair ({v}, {w}) outside the network")
        if v == w:
            raise ProtocolViolation(f"pair ({v}, {w}) is a self-loop")
    messages = (
        dict(messages) if messages is not None else default_messages(pairs)
    )
    missing = [p for p in pairs if p not in messages]
    if missing:
        raise ProtocolViolation(f"pairs without messages: {missing[:4]}")
    return pairs, messages


def direct_round(
    network: RadioNetwork,
    batch: Sequence[tuple[int, int]],
    payloads: Mapping[tuple[int, int], Any],
    kind: str,
    phase: str,
    witness_groups: Sequence[tuple[int, ...]] = (),
    extra: Mapping[str, Any] | None = None,
) -> list[Message | None]:
    """One surrogate-free transmission round; returns the frame each
    channel delivered (``None`` for silence, a collision or noise).

    Pair ``i`` of the vertex-disjoint ``batch`` gets channel ``i``: its
    source broadcasts ``(v, w, payloads[(v, w)])`` in a ``kind`` frame,
    and its destination, then ``witness_groups[i]`` when given, listen
    there.  Every channel in use carries an honest broadcaster, so the
    adversary can only collide (Section 5's first insight), and the
    round's published ``schedule`` meta tells it nothing it could not
    derive itself.
    """
    transmits: dict[int, Transmit] = {}
    groups: dict[int, tuple[int, ...]] = {}
    assignments: dict[int, dict[str, int]] = {}
    for channel, (v, w) in enumerate(batch):
        frame = Message(kind, v, (v, w, payloads[(v, w)]))
        transmits[v] = Transmit(channel, frame)
        groups[channel] = (w,)
        assignments[channel] = {"broadcaster": v, "source": v, "listener": w}
    for channel, group in enumerate(witness_groups):
        groups[channel] += group
    meta = RoundMeta(
        phase=phase,
        schedule={
            "channels_in_use": tuple(range(len(batch))),
            "assignments": assignments,
        },
        extra=extra or {},
    )
    [heard] = network.execute_schedule(
        [CompiledRound.make(transmits, groups, meta)]
    )
    return [heard.get(channel) for channel in range(len(batch))]


def referee_vote(
    outputs: Mapping[int, Iterable[int]], strict: bool
) -> tuple[frozenset[int], int]:
    """Resolve per-node feedback outputs into one referee response.

    This vote is Invariant 1's guard: every node applies the returned
    grants to its replica, so replicas stay equal exactly when the nodes
    agree here.  Returns the majority slot set and the number of nodes
    that disagree with it.  With ``strict`` any disagreement raises
    :class:`~repro.errors.SimulationDiverged` — the event Lemma 5 makes
    improbable; otherwise the caller records it and resynchronises, which
    is what a deployed system would log.
    """
    counts = Counter(map(frozenset, outputs.values()))
    majority, agreeing = counts.most_common(1)[0]
    disagreeing = len(outputs) - agreeing
    if disagreeing and strict:
        raise SimulationDiverged(
            f"{disagreeing} nodes disagree on the feedback output "
            "(the low-probability event of Lemma 5)"
        )
    if not majority:
        raise SimulationDiverged(
            "empty referee response: feedback reported no surviving "
            "channel, which the adversary budget cannot cause"
        )
    return majority, disagreeing


class FameProtocol:
    """One f-AME execution bound to a network and an edge set.

    Parameters
    ----------
    network:
        The radio network (its ``n``/``channels``/``t`` drive the config).
    edges:
        The AME pair set ``E`` (ordered pairs of distinct node ids).
    messages:
        Per-pair payloads ``m_vw``; defaults to distinct placeholders.
    rng:
        Registry for the honest nodes' random choices (feedback hopping).
    config:
        Channel-regime configuration; derived from the network when omitted.
    """

    def __init__(
        self,
        network: RadioNetwork,
        edges: Sequence[tuple[int, int]],
        messages: Mapping[tuple[int, int], Any] | None = None,
        rng: RngRegistry | None = None,
        config: FameConfig | None = None,
    ) -> None:
        self.network = network
        self.config = config or make_config(
            network.n, network.channels, network.t, params=network.params
        )
        self.edges, self.messages = check_pairs(network, edges, messages)
        self.rng = rng or RngRegistry(seed=0)

        # One canonical game state stands for all n replicas: they apply
        # the same grants, which referee_vote agrees on each move.
        self._graph = GameGraph.from_pairs(
            self.edges, vertices=range(network.n)
        )
        self._pools = GreedyPools(self._graph)
        vectors: dict[int, dict[int, Any]] = {}
        for v, w in self.edges:
            vectors.setdefault(v, {})[w] = self.messages[(v, w)]
        # held[j][v] = j's copy of v's message vector, as the payload that
        # carries it.  A vector never changes, and every frame decoded on
        # an in-use channel is authentic, so each source's payload is built
        # once and every copy shares it.
        self._held: list[dict[int, tuple]] = [{} for _ in range(network.n)]
        for v, vector in vectors.items():
            self._held[v][v] = vector_frame(v, v, vector).payload
        self._surrogates: dict[int, tuple[int, ...]] = {}

    # ------------------------------------------------------------------

    def _transmission_round(
        self, schedule: TransmissionSchedule, move_index: int
    ) -> dict[int, Message | None]:
        """Execute the message-transmission phase of one move."""
        transmits: dict[int, Transmit] = {}
        for a in schedule.assignments:
            payload = self._held[a.broadcaster].get(a.source)
            if payload is None:  # pragma: no cover - schedule picks holders
                raise SimulationDiverged(
                    f"broadcaster {a.broadcaster} lacks vector of {a.source}"
                )
            transmits[a.broadcaster] = Transmit(
                a.channel, Message(AME_DATA_KIND, a.broadcaster, payload)
            )
        listener_channels = schedule.listeners()
        meta = RoundMeta(
            phase="ame-transmission",
            schedule=schedule.meta_schedule(),
            extra={"move": move_index},
        )
        by_channel: dict[int, list[int]] = {}
        for listener, channel in listener_channels.items():
            by_channel.setdefault(channel, []).append(listener)
        [heard] = self.network.execute_schedule(
            [CompiledRound.make(transmits, by_channel, meta)]
        )
        results = {
            listener: heard.get(channel)
            for listener, channel in listener_channels.items()
        }
        # Every frame decoded on an in-use channel is authentic: each such
        # channel carries an honest broadcaster, so adversarial transmissions
        # can only collide (the paper's first insight).  Record the vectors.
        for node, frame in results.items():
            if frame is not None and frame.kind == AME_DATA_KIND:
                source, _items = frame.payload
                self._held[node][source] = frame.payload
        return results

    def _feedback_phase(
        self,
        schedule: TransmissionSchedule,
        results: Mapping[int, Message | None],
    ) -> dict[int, frozenset[int]]:
        """Run the feedback routine; return every node's slot set ``D_j``."""
        flags: dict[int, bool] = {}
        for group in schedule.witness_groups:
            for w in group:
                frame = results.get(w)
                flags[w] = frame is not None and frame.kind == AME_DATA_KIND
        participants = list(range(self.network.n))
        if self.config.parallel_feedback:
            return run_parallel_feedback(
                self.network,
                schedule.feedback_sets,
                flags,
                participants,
                self.rng,
            )
        return run_feedback(
            self.network,
            schedule.serial_witness_assignment(),
            {w: flags[w] for s in schedule.feedback_sets for w in s},
            participants,
            self.rng,
        )

    # ------------------------------------------------------------------

    def run(self) -> FameResult:
        """Drive the simulation to termination and return the result."""
        start_rounds = self.network.metrics.rounds
        outcomes: dict[tuple[int, int], PairOutcome] = {}
        moves = 0
        divergence_events = 0
        disagreeing_total = 0
        max_moves = 3 * len(self.edges) + self.config.t + 2

        while True:
            canonical = self._graph
            move = self._pools.proposal(
                self.config.t, max_items=self.config.proposal_size
            )
            if isinstance(move, GreedyTermination):
                claimed_cover = move.cover
                break
            check_proposal(
                canonical,
                move,
                self.config.t,
                max_items=self.config.proposal_size,
            )
            schedule = build_schedule(
                self.config, move, canonical.starred, self._surrogates
            )
            results = self._transmission_round(schedule, moves)
            outputs = self._feedback_phase(schedule, results)
            granted_slots, disagreeing = referee_vote(
                outputs, self.network.params.strict_consistency
            )
            if disagreeing:
                divergence_events += 1
                disagreeing_total += disagreeing

            for slot in sorted(granted_slots):
                assignment = schedule.assignment_for_slot(slot)
                item = assignment.item
                if isinstance(item, NodeItem):
                    self._pools.star(item.node)
                    self._surrogates[item.node] = schedule.witness_groups[slot]
                elif isinstance(item, EdgeItem):
                    self._pools.remove_edge(item.pair)
                    dest_frame = results.get(item.dest)
                    if dest_frame is None:  # pragma: no cover - D is truthful
                        raise SimulationDiverged(
                            f"slot {slot} granted but destination "
                            f"{item.dest} heard nothing"
                        )
                    _source, items = dest_frame.payload
                    delivered = dict(items).get(item.dest)
                    outcomes[item.pair] = PairOutcome(
                        pair=item.pair,
                        success=True,
                        message=delivered,
                        move=moves,
                    )
            moves += 1
            if moves > max_moves:
                raise ProtocolViolation(
                    f"f-AME exceeded the move cap ({max_moves}); the greedy "
                    "bound of Theorem 4 guarantees termination well before"
                )

        for pair in self.edges:
            outcomes.setdefault(
                pair, PairOutcome(pair=pair, success=False)
            )
        return FameResult(
            config=self.config,
            outcomes=outcomes,
            moves=moves,
            rounds=self.network.metrics.rounds - start_rounds,
            divergence_events=divergence_events,
            disagreeing_nodes=disagreeing_total,
            claimed_cover=claimed_cover,
            starred=frozenset(self._graph.starred),
            surrogate_holders=dict(self._surrogates),
        )


def run_fame(
    network: RadioNetwork,
    edges: Sequence[tuple[int, int]],
    messages: Mapping[tuple[int, int], Any] | None = None,
    rng: RngRegistry | None = None,
    *,
    config: FameConfig | None = None,
) -> FameResult:
    """Convenience wrapper: build a :class:`FameProtocol` and run it."""
    return FameProtocol(
        network, edges, messages=messages, rng=rng, config=config
    ).run()
