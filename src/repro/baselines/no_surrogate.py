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
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from ..analysis.vertex_cover import min_vertex_cover
from ..errors import ProtocolViolation, SimulationDiverged
from ..feedback.protocol import run_feedback
from ..feedback.witness import WitnessAssignment
from ..radio.actions import Action, Listen, Transmit
from ..radio.messages import Message
from ..radio.network import RadioNetwork, RoundMeta
from ..radio.shapes import ScheduleShapeCache
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
        return [p for p, ok in self.outcomes.items() if not ok]

    def disruptability(self) -> int:
        """Minimum vertex cover of the failed pairs."""
        return len(min_vertex_cover(self.failed))


def _matching_proposal(
    pending: Sequence[tuple[int, int]], limit: int
) -> list[tuple[int, int]]:
    """Greedy vertex-disjoint selection in deterministic order."""
    chosen: list[tuple[int, int]] = []
    used: set[int] = set()
    for v, w in sorted(pending):
        if v in used or w in used:
            continue
        chosen.append((v, w))
        used.update((v, w))
        if len(chosen) == limit:
            break
    return chosen


def run_no_surrogate(
    network: RadioNetwork,
    edges: Sequence[tuple[int, int]],
    messages: Mapping[tuple[int, int], Any] | None = None,
    rng: RngRegistry | None = None,
) -> NoSurrogateResult:
    """Run the surrogate-free adaptive exchange to termination."""
    t = network.t
    edges = list(dict.fromkeys((int(v), int(w)) for v, w in edges))
    for v, w in edges:
        if v == w or not (0 <= v < network.n and 0 <= w < network.n):
            raise ProtocolViolation(f"invalid pair ({v}, {w})")
    if messages is None:
        messages = {(v, w): ("msg", v, w) for v, w in edges}
    rng = rng or RngRegistry(seed=0)

    fb_channels = min(network.channels, 3 * (t + 1))
    group_size = fb_channels
    start = network.metrics.rounds
    pending = list(edges)
    delivered: dict[tuple[int, int], Any] = {}
    moves = 0
    divergence_events = 0
    max_moves = 3 * len(edges) + t + 2
    # Every move's feedback phase shares one geometry; reuse its shape.
    shape_cache = ScheduleShapeCache()

    while True:
        batch = _matching_proposal(pending, network.channels)
        if len(batch) < t + 1:
            break  # matching <= t  =>  vertex cover of pending <= 2t
        busy = {v for pair in batch for v in pair}
        free = [node for node in range(network.n) if node not in busy]
        if len(free) < group_size * len(batch):
            raise ProtocolViolation(
                "population too small for witness groups in the "
                "no-surrogate baseline"
            )
        witness_groups = [
            tuple(free[i * group_size : (i + 1) * group_size])
            for i in range(len(batch))
        ]

        actions: dict[int, Action] = {}
        assignments: dict[int, dict[str, int | None]] = {}
        for channel, (v, w) in enumerate(batch):
            actions[v] = Transmit(
                channel,
                Message(
                    kind=NOSURROGATE_KIND,
                    sender=v,
                    payload=(v, w, messages[(v, w)]),
                ),
            )
            actions[w] = Listen(channel)
            for witness in witness_groups[channel]:
                actions[witness] = Listen(channel)
            assignments[channel] = {"broadcaster": v, "source": v, "listener": w}
        results = network.execute_round(
            actions,
            RoundMeta(
                phase="nosurrogate-transmission",
                schedule={
                    "channels_in_use": tuple(range(len(batch))),
                    "assignments": assignments,
                },
                extra={"move": moves},
            ),
        )

        flags = {
            witness: (
                results.get(witness) is not None
                and results[witness].kind == NOSURROGATE_KIND
            )
            for group in witness_groups
            for witness in group
        }
        assignment = WitnessAssignment(
            sets=tuple(group[:fb_channels] for group in witness_groups),
            channels=tuple(range(fb_channels)),
        )
        outputs = run_feedback(
            network,
            assignment,
            flags,
            list(range(network.n)),
            rng,
            rng_namespace="nosurrogate-feedback",
            shape_cache=shape_cache,
        )
        counts = Counter(frozenset(d) for d in outputs.values())
        majority, _ = counts.most_common(1)[0]
        disagreeing = sum(
            1 for d in outputs.values() if frozenset(d) != majority
        )
        if disagreeing:
            if network.params.strict_consistency:
                raise SimulationDiverged(
                    "feedback disagreement in no-surrogate baseline"
                )
            divergence_events += 1
        if not majority:
            raise SimulationDiverged("empty referee response")

        for slot in sorted(majority):
            pair = batch[slot]
            frame = results.get(pair[1])
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
