"""f-AME without surrogates — the Section 8 (Q1) ablation.

Under Byzantine node corruption the paper suggests dropping surrogates
(messages must come straight from their source) and accepting
``2t``-disruptability.  This module implements that variant as a game-style
adaptive protocol:

* a *move* proposes up to ``C`` **vertex-disjoint** pending edges (no node
  items, no starring — the extra restriction replaces Restrictions 2/4);
* sources broadcast directly, destinations listen, witness groups report
  through communication-feedback exactly as in f-AME, so all nodes agree on
  the surviving edges and sender awareness is preserved;
* the protocol terminates when fewer than ``t + 1`` vertex-disjoint pending
  edges exist — i.e. the pending set's maximum matching has size at most
  ``t``, certifying a vertex cover of at most ``2t`` (König-style doubling).

Against the triangle-isolation adversary the bound is tight: the run ends
with ``t`` jammed triangles and disruptability exactly ``2t``, while f-AME
on the same workload stays at ``t`` (experiment E10).

Each move is f-AME's machinery minus the surrogates: the pair check, a
:func:`~repro.analysis.vertex_cover.greedy_matching` batch, witness
recruitment, the surrogate-free :func:`~repro.fame.protocol.direct_round`,
serial feedback and the referee vote.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from ..analysis.disruption import disruptability, disruption_graph
from ..analysis.vertex_cover import greedy_matching
from ..errors import ProtocolViolation, SimulationDiverged
from ..fame.protocol import check_pairs, direct_round, referee_vote
from ..fame.schedule import recruit_witnesses
from ..feedback.protocol import run_feedback
from ..feedback.witness import WitnessAssignment
from ..radio.network import RadioNetwork
from ..rng import RngRegistry

NOSURROGATE_KIND = "nosurrogate-data"


@dataclass
class NoSurrogateResult:
    """Outcome of a no-surrogate run."""

    outcomes: dict[tuple[int, int], bool]
    delivered: dict[tuple[int, int], Any]
    moves: int
    rounds: int
    divergence_events: int

    @property
    def failed(self) -> list[tuple[int, int]]:
        """Pairs that output fail."""
        return disruption_graph(self.outcomes)

    def disruptability(self) -> int:
        """Minimum vertex cover of the failed pairs."""
        return disruptability(self.failed)


def run_no_surrogate(
    network: RadioNetwork,
    edges: Sequence[tuple[int, int]],
    messages: Mapping[tuple[int, int], Any] | None = None,
    rng: RngRegistry | None = None,
) -> NoSurrogateResult:
    """Run the surrogate-free adaptive exchange to termination."""
    t = network.t
    edges, messages = check_pairs(network, edges, messages)
    rng = rng or RngRegistry(seed=0)

    # Each witness group is its slot's feedback witness set: one member per
    # feedback channel.
    fb_channels = min(network.channels, 3 * (t + 1))
    start = network.metrics.rounds
    pending = list(edges)
    delivered: dict[tuple[int, int], Any] = {}
    moves = 0
    divergence_events = 0
    max_moves = 3 * len(edges) + t + 2

    while True:
        batch = greedy_matching(sorted(pending), network.channels)
        if len(batch) < t + 1:
            break  # matching <= t  =>  vertex cover of pending <= 2t
        busy = {v for pair in batch for v in pair}
        witness_groups = recruit_witnesses(
            network.n, busy, len(batch), fb_channels
        )
        frames = direct_round(
            network,
            batch,
            messages,
            NOSURROGATE_KIND,
            "nosurrogate-transmission",
            witness_groups,
            {"move": moves},
        )

        flags = {
            witness: frame is not None and frame.kind == NOSURROGATE_KIND
            for group, frame in zip(witness_groups, frames)
            for witness in group
        }
        outputs = run_feedback(
            network,
            WitnessAssignment(
                sets=witness_groups, channels=tuple(range(fb_channels))
            ),
            flags,
            list(range(network.n)),
            rng,
            rng_namespace="nosurrogate-feedback",
        )
        majority, disagreeing = referee_vote(
            outputs, network.params.strict_consistency
        )
        if disagreeing:
            divergence_events += 1

        for slot in sorted(majority):
            pair = batch[slot]
            frame = frames[slot]
            if frame is None:  # pragma: no cover - feedback is truthful
                raise SimulationDiverged(
                    f"slot {slot} reported success but destination heard "
                    "nothing"
                )
            delivered[pair] = frame.payload[2]
            pending.remove(pair)
        moves += 1
        if moves > max_moves:
            raise ProtocolViolation("no-surrogate baseline exceeded move cap")

    return NoSurrogateResult(
        outcomes={p: p in delivered for p in edges},
        delivered=delivered,
        moves=moves,
        rounds=network.metrics.rounds - start,
        divergence_events=divergence_events,
    )
