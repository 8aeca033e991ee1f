"""The deterministic direct-exchange strawman (Section 5's first insight).

Every message travels straight from source to destination on a
pre-determined schedule: vertex-disjoint pending pairs are packed onto the
channels, sources broadcast, destinations listen.  Because the schedule is
deterministic, the adversary can never spoof (any of its transmissions on a
scheduled channel merely collides) — this is the easy half of
authentication.  The protocol simply sweeps over the pending set for a fixed
number of passes, each round a :func:`~repro.analysis.vertex_cover.
greedy_matching` batch in pending order run as f-AME's surrogate-free
:func:`~repro.fame.protocol.direct_round`.

Its weakness is resilience: with no surrogates, the triangle-isolation
adversary (Section 5) pins ``t`` vertex-disjoint triples and jams every
scheduled intra-triple edge — at most one per triple per round fits in any
vertex-disjoint schedule, so a budget of ``t`` always suffices — leaving a
disruption graph of ``t`` edge-disjoint triangles whose minimum vertex cover
is ``2t``.  Experiment E10 measures exactly that gap against f-AME's ``t``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from ..analysis.disruption import disruptability, disruption_graph
from ..analysis.vertex_cover import greedy_matching
from ..fame.protocol import check_pairs, direct_round
from ..radio.network import RadioNetwork

DIRECT_KIND = "direct-data"


@dataclass
class DirectExchangeResult:
    """Outcome of a direct-exchange run."""

    outcomes: dict[tuple[int, int], bool]
    delivered: dict[tuple[int, int], Any]
    rounds: int
    passes: int

    @property
    def failed(self) -> list[tuple[int, int]]:
        """Pairs never delivered."""
        return disruption_graph(self.outcomes)

    def disruptability(self) -> int:
        """Minimum vertex cover of the failed pairs."""
        return disruptability(self.failed)


def run_direct_exchange(
    network: RadioNetwork,
    edges: Sequence[tuple[int, int]],
    messages: Mapping[tuple[int, int], Any] | None = None,
    *,
    passes: int = 3,
) -> DirectExchangeResult:
    """Run the direct-exchange baseline for ``passes`` full sweeps.

    Each sweep repeatedly packs vertex-disjoint pending pairs onto channels
    until every pending pair has been scheduled once; pairs whose broadcast
    survives are removed from the pending set (the simulator observes
    delivery directly — the baseline makes no sender-awareness claim, which
    is one of the things f-AME adds).
    """
    edges, messages = check_pairs(network, edges, messages)
    start = network.metrics.rounds
    pending = list(edges)
    delivered: dict[tuple[int, int], Any] = {}

    for _pass in range(passes):
        if not pending:
            break
        # One sweep: schedule every pending pair exactly once.
        sweep = list(pending)
        while sweep:
            batch = greedy_matching(sweep, network.channels)
            scheduled = set(batch)
            sweep = [p for p in sweep if p not in scheduled]
            frames = direct_round(
                network, batch, messages, DIRECT_KIND, "direct-exchange"
            )
            for pair, frame in zip(batch, frames):
                if (
                    frame is not None
                    and frame.kind == DIRECT_KIND
                    and frame.payload[:2] == pair
                ):
                    delivered[pair] = frame.payload[2]
                    if pair in pending:
                        pending.remove(pair)
    return DirectExchangeResult(
        outcomes={p: p in delivered for p in edges},
        delivered=delivered,
        rounds=network.metrics.rounds - start,
        passes=passes,
    )
