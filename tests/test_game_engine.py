"""Tests for the game engine and referees (Theorem 4)."""

from __future__ import annotations

import pytest

from repro.errors import GameRuleViolation
from repro.game.engine import StarredEdgeRemovalGame
from repro.game.graph import EdgeItem, GameGraph, NodeItem
from repro.game.greedy import greedy_proposal
from repro.game.referees import (
    AdversarialReferee,
    GenerousReferee,
    RandomReferee,
    SingleGrantReferee,
)
from repro.rng import RngRegistry


def complete_graph(n: int) -> GameGraph:
    return GameGraph.from_pairs(
        [(v, w) for v in range(n) for w in range(n) if v != w],
        vertices=range(n),
    )


def star_graph(center: int, leaves: int) -> GameGraph:
    return GameGraph.from_pairs(
        [(center, leaf) for leaf in range(1, leaves + 1)],
        vertices=range(leaves + 1),
    )


class TestGamePlay:
    @pytest.mark.parametrize("t", [1, 2])
    def test_generous_referee_finishes_fast(self, t):
        game = StarredEdgeRemovalGame(complete_graph(6), t)
        result = game.play(GenerousReferee())
        assert len(result.verified_cover) <= t

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_adversarial_referee_within_theorem4_bound(self, t):
        graph = complete_graph(6)
        edges = len(graph.edges)
        game = StarredEdgeRemovalGame(graph, t)
        result = game.play(AdversarialReferee())
        assert len(result.verified_cover) <= t
        # Theorem 4: at most |E| removals + 2|E| stars = 3|E| moves.
        assert result.moves <= 3 * edges

    def test_single_grant_referee_slowest_progress(self):
        game = StarredEdgeRemovalGame(complete_graph(5), 1)
        result = game.play(SingleGrantReferee("last"))
        assert len(result.verified_cover) <= 1

    def test_random_referee(self):
        rng = RngRegistry(seed=3).stream("ref")
        game = StarredEdgeRemovalGame(complete_graph(6), 2)
        result = game.play(RandomReferee(rng))
        assert len(result.verified_cover) <= 2

    def test_star_graph_terminates_immediately(self):
        # A star graph already has vertex cover {center} <= t: the greedy
        # strategy cannot even build a proposal (P1 = {center} is a single
        # item) and certifies the win in zero moves.
        game = StarredEdgeRemovalGame(star_graph(0, 8), 1)
        result = game.play(AdversarialReferee())
        assert result.moves == 0
        assert len(result.verified_cover) <= 1
        assert result.claimed_cover == frozenset({0})

    def test_shared_source_workloads_trigger_starring(self):
        # Two hub sources plus enough spread that the cover exceeds t:
        # progress requires starring hubs before their edges can be paired.
        game = StarredEdgeRemovalGame(complete_graph(6), 1)
        result = game.play(AdversarialReferee())
        assert len(result.verified_cover) <= 1
        assert result.stars_granted >= 1

    def test_claimed_cover_matches_verified_bound(self):
        game = StarredEdgeRemovalGame(complete_graph(6), 2)
        result = game.play(AdversarialReferee())
        assert result.claimed_cover is not None
        assert len(result.verified_cover) <= len(result.claimed_cover) <= 2

    def test_history_recorded_on_request(self):
        game = StarredEdgeRemovalGame(complete_graph(4), 1)
        result = game.play(GenerousReferee(), record_history=True)
        assert len(result.history) == result.moves
        for proposal, granted in result.history:
            assert set(granted) <= set(proposal)

    def test_accounting_stars_plus_edges(self):
        game = StarredEdgeRemovalGame(complete_graph(5), 1)
        result = game.play(GenerousReferee())
        assert result.edges_granted == 20 - len(result.final_graph.edges)


class TestGrantValidation:
    def test_empty_grant_rejected(self):
        game = StarredEdgeRemovalGame(complete_graph(4), 1)
        with pytest.raises(GameRuleViolation, match="non-empty"):
            game.apply_grant([], [NodeItem(0)])

    def test_grant_outside_proposal_rejected(self):
        game = StarredEdgeRemovalGame(complete_graph(4), 1)
        proposal = [NodeItem(0), NodeItem(1)]
        with pytest.raises(GameRuleViolation, match="not proposed"):
            game.apply_grant([NodeItem(2)], proposal)

    def test_grant_applies_stars_and_removals(self):
        game = StarredEdgeRemovalGame(complete_graph(4), 1)
        game.graph.star(0)
        proposal = [EdgeItem(0, 1), EdgeItem(0, 2)]
        game.apply_grant([EdgeItem(0, 1)], proposal)
        assert (0, 1) not in game.graph.edges
        assert game.moves == 1

    def test_illegal_strategy_detected(self):
        def bad_strategy(graph, t):
            return [NodeItem(0), NodeItem(0)]  # duplicate

        game = StarredEdgeRemovalGame(complete_graph(4), 1)
        with pytest.raises(GameRuleViolation):
            game.play(GenerousReferee(), strategy=bad_strategy)

    def test_nonterminating_strategy_capped(self):
        class StallingReferee(GenerousReferee):
            def grant(self, graph, proposal, t):
                # Keep granting stars only, never edges: with a fresh node
                # each move the game would run forever on a big graph; the
                # engine's move cap must fire.
                nodes = [i for i in proposal if isinstance(i, NodeItem)]
                return [nodes[0]] if nodes else [proposal[0]]

        # Complete graph: plenty of nodes to star before edges run out.
        game = StarredEdgeRemovalGame(complete_graph(8), 1)
        result = game.play(StallingReferee(), max_moves=10_000)
        # Starring is finite; eventually edges get granted and the game ends.
        assert len(result.verified_cover) <= 1

    def test_negative_t_rejected(self):
        with pytest.raises(GameRuleViolation):
            StarredEdgeRemovalGame(complete_graph(3), -1)
