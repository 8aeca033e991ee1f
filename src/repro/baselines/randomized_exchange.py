"""A purely randomized exchange strawman — the Theorem 2 victim.

The paper's introduction observes that a *purely randomized* approach is
hard to authenticate: a receiver hopping channels cannot tell whether a
frame came from the honest sender or from an adversary that simulates the
sender's protocol with fake content, because (Theorem 2) the two executions
are equiprobable from the receiver's perspective.

This module implements that strawman: each pair gets an epoch in which the
source broadcasts its message on a fresh uniform channel every round while
the destination listens on uniform channels, accepting the **first** frame
that claims to be for this pair.  Against a
:class:`~repro.adversary.simulating.SimulatingAdversary` mirroring the
sender's distribution, the destination accepts the fake with probability
close to the spoof share of the frames it hears — the quantitative face of
the lower bound, measured in experiment E5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from ..fame.protocol import check_pairs
from ..radio.actions import Transmit
from ..radio.messages import Message
from ..radio.network import CompiledRound, RadioNetwork, RoundMeta
from ..rng import RngRegistry

RANDOM_EXCHANGE_KIND = "rand-exchange"


def exchange_frame(source: int, dest: int, payload: Any) -> Message:
    """The frame format of the strawman (spoofable by construction)."""
    return Message(
        kind=RANDOM_EXCHANGE_KIND, sender=source, payload=(source, dest, payload)
    )


@dataclass
class RandomizedExchangeResult:
    """Outcome of a randomized-exchange run.

    ``accepted`` records what each destination believed; ``spoofed`` flags
    the pairs whose accepted payload differs from the genuine message —
    successful Theorem 2-style spoofs.
    """

    accepted: dict[tuple[int, int], Any]
    genuine: dict[tuple[int, int], Any]
    rounds: int

    @property
    def spoofed(self) -> list[tuple[int, int]]:
        """Pairs that accepted a forged payload."""
        return [
            p
            for p, got in self.accepted.items()
            if got != self.genuine[p]
        ]

    @property
    def undelivered(self) -> list[tuple[int, int]]:
        """Pairs that heard nothing at all during their epoch."""
        return [p for p in self.genuine if p not in self.accepted]

    def spoof_rate(self) -> float:
        """Fraction of deliveries that were forgeries."""
        if not self.accepted:
            return 0.0
        return len(self.spoofed) / len(self.accepted)


def run_randomized_exchange(
    network: RadioNetwork,
    edges: Sequence[tuple[int, int]],
    messages: Mapping[tuple[int, int], Any] | None = None,
    rng: RngRegistry | None = None,
    *,
    epoch_rounds: int | None = None,
) -> RandomizedExchangeResult:
    """Run one epoch per pair; destinations accept the first matching frame.

    Each round is compiled on its own: when the next one runs depends on
    what this one delivered.
    """
    edges, messages = check_pairs(network, edges, messages)
    rng = rng or RngRegistry(seed=0)
    if epoch_rounds is None:
        epoch_rounds = network.params.gossip_epoch_rounds(network.n, network.t)

    start = network.metrics.rounds
    accepted: dict[tuple[int, int], Any] = {}
    for pair in edges:
        v, w = pair
        frame = exchange_frame(v, w, messages[pair])
        meta = RoundMeta(phase="rand-exchange", extra={"pair": pair})
        for _ in range(epoch_rounds):
            if pair in accepted:
                break
            hop = rng.stream("rand-exchange", v).randrange(network.channels)
            tuned = rng.stream("rand-exchange", w).randrange(network.channels)
            compiled = CompiledRound(
                {v: Transmit(hop, frame)}, (w,), (bytes((tuned,)),), meta
            )
            [heard] = network.execute_schedule([compiled])
            got = heard.get(tuned)
            if got is not None and got.kind == RANDOM_EXCHANGE_KIND:
                try:
                    src, dst, payload = got.payload
                except (TypeError, ValueError):
                    continue
                if (src, dst) == pair:
                    # No way to authenticate: first claim wins.
                    accepted[pair] = payload
    return RandomizedExchangeResult(
        accepted=accepted,
        genuine={p: messages[p] for p in edges},
        rounds=network.metrics.rounds - start,
    )
