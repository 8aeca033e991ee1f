"""Byzantine node corruption: the Section 8 (Q1) hardened variant.

The paper's first open question asks about *corruption faults*: some
nodes — unknown to the others — run adversarial code.  It sketches a
"simple modification" achieving ``2t``-disruptability:

* **surrogates are eliminated** — every message is received directly from
  its source (a corrupt surrogate could silently garble relayed vectors);
* **redundant witnesses report on every channel** — a corrupt witness can
  lie about whether its channel was disrupted, so single-witness feedback
  is no longer trustworthy.

This module implements that sketch with the following concrete
interpretation:

* each move schedules up to ``C`` **vertex-disjoint** pending edges, each
  broadcast directly by its source;
* each in-use channel gets a witness group of ``3(t+1)`` listeners
  (f-AME's :func:`~repro.fame.config.witness_group_size`) — an honest
  majority from *every* observer's perspective whenever at most ``t``
  nodes are corrupt, including witnesses themselves, who are deaf to their
  own rotation-mates;
* feedback runs in witness *rotations*: each rotation fills every feedback
  channel with one witness per channel broadcasting a signed-by-position
  report ``(slot, flag, witness)`` (full occupancy keeps spoofing
  impossible), repeated ``Θ(t log n)`` times so every listener hears every
  witness w.h.p.;
* every node tallies, per slot, the **majority flag over distinct
  witnesses** — corrupt witnesses are outvoted;
* a pair fails if its channel was jammed, its source is corrupt (the
  destination receives a garbled payload it cannot detect), or its
  destination is corrupt.  All failures are covered by (jam victims ∪
  corrupt nodes): at most ``2t`` vertices.

Corruption is modelled by :class:`CorruptionModel`: corrupt sources garble
their payloads, corrupt witnesses invert their feedback flags.

The exchange shares f-AME's pair check, the greedy vertex-disjoint batch
(:func:`~repro.analysis.vertex_cover.greedy_matching`), witness
recruitment, the surrogate-free transmission round
(:func:`~repro.fame.protocol.direct_round`) and the referee vote, which
here counts only the honest nodes.  Listeners hop on private coins (their
``"byz-feedback"`` hop streams), so each slot's witness rotations run as
one compiled schedule over :func:`~repro.radio.network.private_hop_rows`.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import compress
from typing import Any, Mapping, Sequence

from ..analysis.disruption import disruptability, disruption_graph
from ..analysis.vertex_cover import greedy_matching
from ..errors import ConfigurationError, ProtocolViolation, SimulationDiverged
from ..radio.actions import Transmit
from ..radio.messages import Message
from ..radio.network import (
    CompiledRound,
    RadioNetwork,
    RoundMeta,
    hit_row,
    private_hop_rows,
)
from ..rng import RngRegistry
from .config import witness_group_size
from .protocol import check_pairs, direct_round, referee_vote
from .schedule import recruit_witnesses

BYZANTINE_DATA_KIND = "byz-data"
BYZANTINE_REPORT_KIND = "byz-report"


VOTE_POLICIES = ("invert", "random", "equivocate")
"""How a corrupt witness votes: ``invert`` flips the truth every time
(the original model), ``random`` draws a fresh coin per repetition, and
``equivocate`` alternates flags across repetitions — broadcasting *both*
answers for the same slot, the collusion signature a
:class:`~repro.scenarios.injectors.CollusionTracker` detects."""


@dataclass(frozen=True)
class CorruptionModel:
    """Which nodes are corrupt and how they misbehave.

    Attributes
    ----------
    corrupt:
        Node ids running adversarial code.  The protocol never reads this
        set (corruption is unknown to honest nodes); only the simulation
        harness uses it to drive misbehaviour and to verify the cover.
    garble_messages:
        Corrupt sources replace their payload with junk.
    lie_in_feedback:
        Corrupt witnesses misreport their feedback flag.
    vote_policy:
        *How* a lying witness misreports — one of :data:`VOTE_POLICIES`.
        Only consulted when ``lie_in_feedback`` is set; ``invert``
        reproduces the original always-lie behaviour exactly (and draws
        no randomness, so pre-existing executions stay byte-identical).
    """

    corrupt: frozenset[int] = frozenset()
    garble_messages: bool = True
    lie_in_feedback: bool = True
    vote_policy: str = "invert"

    def __post_init__(self) -> None:
        if self.vote_policy not in VOTE_POLICIES:
            raise ConfigurationError(
                f"unknown vote policy {self.vote_policy!r}; "
                f"pick from {VOTE_POLICIES}"
            )

    @classmethod
    def of(cls, *nodes: int, **kwargs) -> "CorruptionModel":
        """Convenience constructor: ``CorruptionModel.of(3, 7)``."""
        return cls(corrupt=frozenset(nodes), **kwargs)

    def is_corrupt(self, node: int) -> bool:
        """Whether ``node`` runs adversarial code."""
        return node in self.corrupt

    def dishonest_flag(self, truth: bool, *, rep: int, coin) -> bool:
        """The flag a corrupt witness reports in repetition ``rep``.

        ``coin`` is the witness's own registry stream; only the
        ``random`` policy draws from it, so the other policies perturb
        no downstream randomness.
        """
        if self.vote_policy == "random":
            return bool(coin.getrandbits(1))
        if self.vote_policy == "equivocate":
            return bool(rep % 2)
        return not truth


@dataclass
class ByzantineResult:
    """Outcome of a Byzantine-hardened exchange."""

    outcomes: dict[tuple[int, int], bool]
    delivered: dict[tuple[int, int], Any]
    garbled: list[tuple[int, int]]
    moves: int
    rounds: int
    divergence_events: int = 0

    @property
    def failed(self) -> list[tuple[int, int]]:
        """Pairs that did not receive their genuine message."""
        return disruption_graph(self.outcomes)

    def disruptability(self) -> int:
        """Minimum vertex cover of the failed pairs (bounded by 2t)."""
        return disruptability(self.failed)


def _byzantine_feedback(
    network: RadioNetwork,
    witness_groups: Sequence[Sequence[int]],
    flags: Mapping[int, bool],
    corruption: CorruptionModel,
    rng: RngRegistry,
) -> dict[int, set[int]]:
    """Majority-vote feedback with redundant witnesses.

    Returns each node's decided slot set.  Corrupt witnesses report
    inverted flags; they are outvoted as long as at most ``t`` nodes are
    corrupt in total.
    """
    channels = min(network.channels, network.t + 1)
    reps = network.params.feedback_repetitions(network.n, channels, network.t)
    # reports[node][slot][witness] = flag heard
    reports: dict[int, dict[int, dict[int, bool]]] = defaultdict(
        lambda: defaultdict(dict)
    )
    for slot, group in enumerate(witness_groups):
        if len(group) % channels != 0:
            raise ConfigurationError(
                "witness group size must be a multiple of the feedback "
                "channel count"
            )
        # Templates are built in repetition order: the vote coins' order.
        meta = RoundMeta(phase="byz-feedback", extra={"slot": slot})
        rounds: list[CompiledRound] = []
        for start in range(0, len(group), channels):
            rotation = group[start : start + channels]
            listeners = tuple(n for n in range(network.n) if n not in rotation)
            streams = rng.hops("byz-feedback", nodes=listeners, n=channels)
            rows = private_hop_rows([(streams, range(channels))], reps)
            for rep, row in enumerate(rows):
                template: dict[int, Transmit] = {}
                for rank, witness in enumerate(rotation):
                    flag = flags[witness]
                    if corruption.lie_in_feedback and corruption.is_corrupt(
                        witness
                    ):
                        flag = corruption.dishonest_flag(
                            flag, rep=rep, coin=rng.stream("byz-vote", witness)
                        )
                    report = (slot, flag, witness)
                    template[witness] = Transmit(
                        rank, Message(BYZANTINE_REPORT_KIND, witness, report)
                    )
                rounds.append(CompiledRound(template, listeners, (row,), meta))
        heard = network.execute_schedule(rounds)
        for cr, per_round in zip(rounds, heard):
            for channel, frame in per_round.items():
                if frame.kind != BYZANTINE_REPORT_KIND:
                    continue
                r_slot, r_flag, r_witness = frame.payload
                # Full channel occupancy makes spoofing impossible, so
                # the claimed witness id is authentic.
                for node in compress(cr.listeners, hit_row(cr.hops, channel)):
                    reports[node][r_slot][r_witness] = r_flag
        # Witnesses know their own channel first-hand.
        for witness in group:
            flag = flags[witness]
            reports[witness][slot][witness] = flag

    decisions: dict[int, set[int]] = {}
    for node in range(network.n):
        decided: set[int] = set()
        for slot in range(len(witness_groups)):
            votes = reports[node].get(slot, {})
            if not votes:
                continue
            tally = Counter(votes.values())
            if tally[True] > tally[False]:
                decided.add(slot)
        decisions[node] = decided
    return decisions


def run_byzantine_exchange(
    network: RadioNetwork,
    edges: Sequence[tuple[int, int]],
    messages: Mapping[tuple[int, int], Any] | None = None,
    rng: RngRegistry | None = None,
    *,
    corruption: CorruptionModel | None = None,
) -> ByzantineResult:
    """Run the hardened (surrogate-free, majority-witness) exchange.

    Guarantees ``2t``-disruptability when at most ``t`` nodes are corrupt:
    every failed pair touches a jam victim or a corrupt node.
    """
    t = network.t
    corruption = corruption or CorruptionModel()
    if len(corruption.corrupt) > t:
        raise ConfigurationError(
            f"the 2t-disruptability analysis assumes at most t={t} corrupt "
            f"nodes; got {len(corruption.corrupt)}"
        )
    edges, messages = check_pairs(network, edges, messages)
    rng = rng or RngRegistry(seed=0)

    # f-AME's 3(t+1) witnesses per channel.  A witness transmits during its
    # own rotation and so cannot hear its t rotation-mates: it observes only
    # group - t votes (its own first-hand flag included).  For the majority
    # to survive t lying witnesses even from that narrowed view, the group
    # needs group - t - t > t, i.e. group > 3t, and it must be a whole
    # number of (t+1)-channel rotations; 3(t+1) satisfies both.
    group_size = witness_group_size(t)
    start = network.metrics.rounds
    pending = list(edges)
    delivered: dict[tuple[int, int], Any] = {}
    garbled: list[tuple[int, int]] = []
    moves = 0
    divergence_events = 0
    max_moves = 3 * len(edges) + t + 2

    while True:
        batch = greedy_matching(sorted(pending), min(network.channels, t + 1))
        if len(batch) < t + 1:
            break
        busy = {v for pair in batch for v in pair}
        witness_groups = recruit_witnesses(
            network.n, busy, len(batch), group_size
        )
        payloads = {
            (v, w): (
                ("garbled-by", v)
                if corruption.garble_messages and corruption.is_corrupt(v)
                else messages[(v, w)]
            )
            for v, w in batch
        }
        frames = direct_round(
            network,
            batch,
            payloads,
            BYZANTINE_DATA_KIND,
            "byz-transmission",
            witness_groups,
            {"move": moves},
        )

        flags = {
            witness: frame is not None and frame.kind == BYZANTINE_DATA_KIND
            for group, frame in zip(witness_groups, frames)
            for witness in group
        }
        decisions = _byzantine_feedback(
            network, witness_groups, flags, corruption, rng
        )
        majority, disagreeing = referee_vote(
            {
                node: d
                for node, d in decisions.items()
                if not corruption.is_corrupt(node)
            },
            network.params.strict_consistency,
        )
        if disagreeing:
            divergence_events += 1

        for slot in sorted(majority):
            pair = batch[slot]
            frame = frames[slot]
            if frame is None:  # pragma: no cover - majority vote is truthful
                raise SimulationDiverged("granted slot without delivery")
            got = frame.payload[2]
            delivered[pair] = got
            if got != messages[pair]:
                garbled.append(pair)
            pending.remove(pair)
        moves += 1
        if moves > max_moves:
            raise ProtocolViolation("Byzantine exchange exceeded move cap")

    outcomes = {
        p: (p in delivered and p not in set(garbled)) for p in edges
    }
    return ByzantineResult(
        outcomes=outcomes,
        delivered=delivered,
        garbled=garbled,
        moves=moves,
        rounds=network.metrics.rounds - start,
        divergence_events=divergence_events,
    )
