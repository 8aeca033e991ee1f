"""An oblivious gossip baseline, after Dolev et al. [13].

The related-work comparison (Section 2): *oblivious* algorithms — whose
transmit/listen pattern ignores the execution so far — can solve "almost
gossip" (all but ``t`` rumors reach all but ``t`` nodes) but pay
``Θ(n^2 / C^2)`` rounds at ``t = 1`` and ``O((en/t)^{t+1})`` in general,
and offer **no authentication**: a listener cannot tell a spoofed rumor
from a real one.

We implement the canonical uniform oblivious scheme: each round every node
independently transmits its own rumor with probability ``1/n`` on a uniform
channel, otherwise listens on a uniform channel.  Deliveries require the
lucky conjunction (single transmitter on the listener's channel, channel
not jammed), which is what produces the super-linear round growth measured
in experiment E9 — against f-AME's linear-in-``|E|`` behaviour — and the
spoof-acceptance measured alongside.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from ..errors import ProtocolViolation
from ..radio.actions import Transmit
from ..radio.messages import Message
from ..radio.network import (
    CompiledRound,
    RadioNetwork,
    RoundMeta,
    hit_row,
)
from ..rng import RngRegistry

GOSSIP_RUMOR_KIND = "oblivious-rumor"


@dataclass
class GossipResult:
    """Outcome of an oblivious-gossip run."""

    rounds: int
    completed: bool
    knowledge: list[set[int]]
    spoofed_rumors_accepted: int

    def coverage(self, t: int) -> int:
        """How many nodes know at least ``n - t`` rumors."""
        n = len(self.knowledge)
        return sum(1 for known in self.knowledge if len(known) >= n - t)


def run_oblivious_gossip(
    network: RadioNetwork,
    rng: RngRegistry | None = None,
    *,
    max_rounds: int = 200_000,
) -> GossipResult:
    """Run uniform oblivious gossip until almost-gossip completion.

    Every node starts with one rumor (its own id).  The run stops when all
    but ``t`` nodes know all but ``t`` rumors, or at ``max_rounds``.

    Spoofed rumor frames are *accepted* exactly like real ones — the
    protocol has no authentication — and counted in the result so that
    experiment E9 can report the security gap, not just the speed gap.
    """
    n, t = network.n, network.t
    if n < 2:
        raise ProtocolViolation("gossip needs at least two nodes")
    rng = rng or RngRegistry(seed=0)
    knowledge: list[set[int]] = [{v} for v in range(n)]
    spoofs_accepted = 0

    def done() -> bool:
        target = n - t
        return sum(1 for known in knowledge if len(known) >= target) >= target

    rounds = 0
    start = network.metrics.rounds
    streams = [rng.stream("oblivious", node) for node in range(n)]
    meta = RoundMeta(phase="oblivious-gossip")
    # The protocol is oblivious by definition, but the *stopping rule* is
    # not (completion is re-checked every round), so rounds are compiled
    # and submitted one at a time; the fold marks each decoding channel's
    # listeners with one hit_row of the round's hop row.
    while not done() and rounds < max_rounds:
        transmits: dict[int, Transmit] = {}
        listeners: list[int] = []
        hops = bytearray()
        for node in range(n):
            stream = streams[node]
            channel = stream.randrange(network.channels)
            if stream.random() < 1.0 / n:
                transmits[node] = Transmit(
                    channel,
                    Message(
                        kind=GOSSIP_RUMOR_KIND,
                        sender=node,
                        payload=("rumor", node),
                    ),
                )
            else:
                listeners.append(node)
                hops.append(channel)
        row = bytes(hops)
        [heard] = network.execute_schedule(
            [CompiledRound(transmits, tuple(listeners), (row,), meta)]
        )
        rounds += 1
        for channel, frame in heard.items():
            if frame.kind != GOSSIP_RUMOR_KIND:
                continue
            try:
                _tag, rumor = frame.payload
            except (TypeError, ValueError):
                continue
            for node in compress(listeners, hit_row(row, channel)):
                # No authentication: the rumor is accepted as-is.
                if not isinstance(rumor, int) or not 0 <= rumor < n:
                    spoofs_accepted += 1
                elif frame.sender != rumor:
                    spoofs_accepted += 1
                    knowledge[node].add(rumor)
                else:
                    knowledge[node].add(rumor)
    return GossipResult(
        rounds=network.metrics.rounds - start,
        completed=done(),
        knowledge=knowledge,
        spoofed_rumors_accepted=spoofs_accepted,
    )
