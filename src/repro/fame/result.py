"""Outcome objects for f-AME executions.

A :class:`FameResult` records, for every ordered pair of ``E``, whether the
message was delivered and authenticated (and what was delivered), plus the
execution-level accounting the benchmarks need: game moves, radio rounds,
and the divergence events the w.h.p. analysis permits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..analysis.disruption import disruptability, is_d_disruptable
from .config import FameConfig


@dataclass(frozen=True)
class PairOutcome:
    """The AME output for one ordered pair ``(source, dest)``.

    ``success`` mirrors Definition 1: the destination output either
    ``<(v, w), m_vw>`` (success) or ``<(v, w), fail>``.  ``message`` is what
    the destination actually decoded over the radio — never trusted state
    copied from the sender.  ``move`` is the game move that delivered it.
    """

    pair: tuple[int, int]
    success: bool
    message: Any = None
    move: int | None = None


@dataclass
class FameResult:
    """Everything a caller (or benchmark) needs from one f-AME run.

    Attributes
    ----------
    config:
        The channel-regime configuration the run used.
    outcomes:
        Per ordered pair, the :class:`PairOutcome`.
    moves:
        Simulated game moves played.
    rounds:
        Radio rounds consumed (transmission + feedback).
    divergence_events:
        Moves on which at least one node's feedback output differed from the
        majority — the low-probability event of Lemma 5.  In strict mode the
        run raises instead of counting.
    disagreeing_nodes:
        Total (move, node) feedback disagreements across the run.
    claimed_cover:
        The greedy strategy's termination certificate (Lemma 3's ``V'``).
    starred:
        Nodes starred during the run (sources that recruited surrogates).
    surrogate_holders:
        For each starred node, the witness group that holds its vector.
    """

    config: FameConfig
    outcomes: dict[tuple[int, int], PairOutcome]
    moves: int
    rounds: int
    divergence_events: int = 0
    disagreeing_nodes: int = 0
    claimed_cover: frozenset[int] = frozenset()
    starred: frozenset[int] = frozenset()
    surrogate_holders: dict[int, tuple[int, ...]] = field(default_factory=dict)

    # ------------------------------------------------------------------

    @property
    def pairs(self) -> list[tuple[int, int]]:
        """All ordered pairs of the input set ``E``."""
        return list(self.outcomes)

    @property
    def succeeded(self) -> list[tuple[int, int]]:
        """Pairs whose message was delivered and authenticated."""
        return [p for p, o in self.outcomes.items() if o.success]

    @property
    def failed(self) -> list[tuple[int, int]]:
        """Pairs that output ``fail`` — the disruption graph's edge set."""
        return [p for p, o in self.outcomes.items() if not o.success]

    def disruptability(self) -> int:
        """Minimum vertex cover of the disruption graph (Definition 1)."""
        return disruptability(self.failed)

    def is_d_disruptable(self, d: int) -> bool:
        """Check Definition 1's property 3 for ``d``."""
        return is_d_disruptable(self.failed, d)

    def sender_report(self, sender: int) -> dict[tuple[int, int], bool]:
        """Sender awareness (Definition 1, property 2).

        Every node derives the same grant history from the shared feedback
        outputs, so a sender knows exactly which of its pairs succeeded.
        """
        return {
            p: o.success for p, o in self.outcomes.items() if p[0] == sender
        }

    def summary(self) -> dict[str, Any]:
        """A compact dict for benchmark tables and logs."""
        return {
            "regime": self.config.regime.value,
            "n": self.config.n,
            "C": self.config.channels,
            "t": self.config.t,
            "pairs": len(self.outcomes),
            "succeeded": len(self.succeeded),
            "failed": len(self.failed),
            "disruptability": self.disruptability(),
            "moves": self.moves,
            "rounds": self.rounds,
            "divergence_events": self.divergence_events,
        }
