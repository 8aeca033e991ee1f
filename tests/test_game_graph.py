"""Tests for the game graph container and proposal items."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.game.graph import EdgeItem, GameGraph, NodeItem


class TestItems:
    def test_edge_item_pair(self):
        assert EdgeItem(1, 2).pair == (1, 2)

    def test_items_hashable_and_distinct(self):
        assert NodeItem(1) != EdgeItem(1, 2)
        assert len({NodeItem(1), NodeItem(1), EdgeItem(1, 2)}) == 2

    def test_reprs_compact(self):
        assert repr(NodeItem(3)) == "N(3)"
        assert repr(EdgeItem(3, 4)) == "E(3->4)"


class TestFromPairs:
    def test_infers_vertices(self):
        g = GameGraph.from_pairs([(0, 1), (2, 3)])
        assert g.vertices == frozenset({0, 1, 2, 3})
        assert g.edges == {(0, 1), (2, 3)}
        assert g.starred == set()

    def test_explicit_vertices_superset_ok(self):
        g = GameGraph.from_pairs([(0, 1)], vertices=range(5))
        assert g.vertices == frozenset(range(5))

    def test_rejects_edge_outside_vertices(self):
        with pytest.raises(ConfigurationError, match="outside V"):
            GameGraph.from_pairs([(0, 9)], vertices=range(3))

    def test_rejects_self_loop(self):
        with pytest.raises(ConfigurationError, match="self-edge"):
            GameGraph.from_pairs([(1, 1)])

    def test_duplicate_pairs_collapse(self):
        g = GameGraph.from_pairs([(0, 1), (0, 1)])
        assert len(g.edges) == 1


class TestMutation:
    def test_remove_edge(self):
        g = GameGraph.from_pairs([(0, 1), (1, 2)])
        g.remove_edge((0, 1))
        assert g.edges == {(1, 2)}

    def test_remove_absent_edge_raises(self):
        g = GameGraph.from_pairs([(0, 1)])
        with pytest.raises(KeyError):
            g.remove_edge((1, 0))

    def test_star_known_vertex(self):
        g = GameGraph.from_pairs([(0, 1)])
        g.star(0)
        assert g.starred == {0}

    def test_star_unknown_vertex_raises(self):
        g = GameGraph.from_pairs([(0, 1)])
        with pytest.raises(ConfigurationError):
            g.star(9)

    def test_copy_is_independent(self):
        g = GameGraph.from_pairs([(0, 1), (1, 2)])
        h = g.copy()
        h.remove_edge((0, 1))
        h.star(2)
        assert (0, 1) in g.edges
        assert g.starred == set()

    def test_sources(self):
        g = GameGraph.from_pairs([(0, 1), (0, 2), (3, 1)])
        assert g.sources() == {0, 3}
