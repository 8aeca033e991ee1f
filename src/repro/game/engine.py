"""The game engine: play a strategy against a referee and verify the win.

:class:`StarredEdgeRemovalGame` drives the loop of Section 5.1 — propose,
referee, apply — validating every proposal against Restrictions 1-4 and every
grant against the "non-empty subset" rule, then certifies termination by
checking the vertex-cover condition with the exact solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..analysis.vertex_cover import min_vertex_cover
from ..errors import GameRuleViolation
from .graph import EdgeItem, GameGraph, Item, NodeItem
from .greedy import GreedyTermination, greedy_proposal
from .referees import Referee
from .rules import check_proposal

Strategy = Callable[[GameGraph, int], "list[Item] | GreedyTermination"]


@dataclass
class GameResult:
    """Outcome of a completed game.

    Attributes
    ----------
    moves:
        Number of proposal/grant exchanges played.
    final_graph:
        The graph at termination (edges never granted).
    claimed_cover:
        The strategy's termination certificate (Lemma 3's ``V'``), if the
        strategy produced one.
    verified_cover:
        An exact minimum vertex cover of the final edge set, computed by the
        engine independently of the strategy's claim.
    stars_granted, edges_granted:
        Totals over the whole game.
    history:
        Per-move ``(proposal, granted)`` pairs, for inspection.
    """

    moves: int
    final_graph: GameGraph
    claimed_cover: frozenset[int] | None
    verified_cover: frozenset[int]
    stars_granted: int = 0
    edges_granted: int = 0
    history: list[tuple[list[Item], list[Item]]] = field(default_factory=list)


class StarredEdgeRemovalGame:
    """One playable instance of the (G, t)-starred-edge removal game."""

    def __init__(self, graph: GameGraph, t: int) -> None:
        if t < 0:
            raise GameRuleViolation("t must be non-negative")
        self.graph = graph.copy()
        self.t = t
        self.moves = 0
        self.stars_granted = 0
        self.edges_granted = 0

    # ------------------------------------------------------------------

    def apply_grant(self, granted: Sequence[Item], proposal: Sequence[Item]) -> None:
        """Apply a referee response: star nodes, remove edges.

        Validates the grant is a non-empty subset of the proposal.
        """
        if not granted:
            raise GameRuleViolation("referee must grant a non-empty subset")
        proposal_set = set(proposal)
        for item in granted:
            if item not in proposal_set:
                raise GameRuleViolation(
                    f"granted item {item!r} was not proposed"
                )
        for item in granted:
            if isinstance(item, NodeItem):
                self.graph.star(item.node)
                self.stars_granted += 1
            elif isinstance(item, EdgeItem):
                self.graph.remove_edge(item.pair)
                self.edges_granted += 1
        self.moves += 1

    def play(
        self,
        referee: Referee,
        strategy: Strategy = greedy_proposal,
        *,
        max_moves: int | None = None,
        record_history: bool = False,
    ) -> GameResult:
        """Run the full game loop until the strategy terminates.

        ``max_moves`` guards against non-terminating (buggy) strategies; the
        greedy strategy needs at most ``3 |E|`` moves (Theorem 4: ``|E|``
        removals plus at most ``2 |E|`` stars).
        """
        if max_moves is None:
            max_moves = 3 * len(self.graph.edges) + self.t + 2
        history: list[tuple[list[Item], list[Item]]] = []
        while True:
            move = strategy(self.graph, self.t)
            if isinstance(move, GreedyTermination):
                verified = frozenset(min_vertex_cover(self.graph.edges))
                return GameResult(
                    moves=self.moves,
                    final_graph=self.graph,
                    claimed_cover=move.cover,
                    verified_cover=verified,
                    stars_granted=self.stars_granted,
                    edges_granted=self.edges_granted,
                    history=history,
                )
            check_proposal(self.graph, move, self.t)
            granted = referee.grant(self.graph, move, self.t)
            self.apply_grant(granted, move)
            if record_history:
                history.append((list(move), list(granted)))
            if self.moves > max_moves:
                raise GameRuleViolation(
                    f"game exceeded {max_moves} moves; strategy appears "
                    "not to terminate"
                )
