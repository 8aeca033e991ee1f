"""Tests for the networkx-backed graph checks and the closed-form theory."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.vertex_cover import vertex_cover_number
from repro.groupkey.spanner import leader_spanner

from oracles import (
    feedback_miss_probability,
    feedback_repetitions_for_target,
    gossip_miss_probability,
    hopping_miss_probability,
    is_k_connected,
    matching_lower_bound,
    node_connectivity,
    triangle_count,
    union_bound_failure,
)


class TestConnectivity:
    def test_path_is_1_connected(self):
        assert node_connectivity([(0, 1), (1, 2)]) == 1

    def test_cycle_is_2_connected(self):
        assert node_connectivity([(0, 1), (1, 2), (2, 3), (3, 0)]) == 2

    def test_complete_graph(self):
        edges = [(v, w) for v in range(5) for w in range(v + 1, 5)]
        assert node_connectivity(edges) == 4

    def test_empty_graph(self):
        assert node_connectivity([]) == 0

    @pytest.mark.parametrize("n,t", [(10, 1), (12, 2), (17, 1), (20, 3)])
    def test_leader_spanner_is_t_plus_1_connected(self, n, t):
        # Section 6 calls it a "(t+1)-leader spanner" — a sparse
        # (t+1)-connected graph.  Verified structurally with networkx.
        pairs = leader_spanner(n, t)
        assert is_k_connected(pairs, t + 1)
        # And sparse: it is far from the complete graph for large n.
        distinct = {frozenset(p) for p in pairs}
        assert len(distinct) < n * (n - 1) / 2 or n <= 2 * (t + 1)

    def test_spanner_cut_resistance(self):
        # Removing any t nodes leaves the remaining spanner connected —
        # the property the group-key protocol leans on.
        import itertools

        import networkx as nx

        n, t = 10, 1
        graph = nx.Graph()
        graph.add_edges_from(leader_spanner(n, t))
        for cut in itertools.combinations(range(n), t):
            reduced = graph.copy()
            reduced.remove_nodes_from(cut)
            assert nx.is_connected(reduced)


class TestMatchingBound:
    def test_matching_bounds_cover(self):
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
        m = matching_lower_bound(edges)
        cover = vertex_cover_number(edges)
        assert m <= cover <= 2 * m

    small_graphs = st.sets(
        st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(
            lambda e: e[0] != e[1]
        ),
        max_size=10,
    )

    @given(edges=small_graphs)
    @settings(max_examples=60, deadline=None)
    def test_matching_sandwich_property(self, edges):
        edges = list(edges)
        m = matching_lower_bound(edges)
        cover = vertex_cover_number(edges)
        assert m <= cover <= 2 * m


class TestTriangles:
    def test_counts_triangles(self):
        assert triangle_count([(0, 1), (1, 2), (2, 0)]) == 1
        assert triangle_count([(0, 1), (1, 2)]) == 0

    def test_triangle_attack_structure(self):
        # The E10 disruption graphs: t edge-disjoint triangles.
        edges = []
        for base in (0, 3):
            a, b, c = base, base + 1, base + 2
            edges += [(a, b), (b, c), (c, a)]
        assert triangle_count(edges) == 2
        assert vertex_cover_number(edges) == 4


class TestTheoryCurves:
    def test_feedback_miss_decreases_geometrically(self):
        p1 = float(feedback_miss_probability(1, 2, 1))
        p2 = float(feedback_miss_probability(2, 2, 1))
        assert p1 == pytest.approx(0.5)
        assert p2 == pytest.approx(0.25)

    def test_feedback_repetitions_inverse(self):
        reps = feedback_repetitions_for_target(1e-6, 2, 1)
        assert float(feedback_miss_probability(reps, 2, 1)) <= 1e-6
        assert float(feedback_miss_probability(reps - 1, 2, 1)) > 1e-6

    def test_target_validation(self):
        with pytest.raises(ValueError):
            feedback_repetitions_for_target(0.0, 2, 1)
        with pytest.raises(ValueError):
            feedback_repetitions_for_target(1.5, 2, 1)

    def test_hopping_miss(self):
        # t/C = 1/2 jam chance per round.
        assert float(hopping_miss_probability(1, 2, 1)) == pytest.approx(0.5)
        assert float(hopping_miss_probability(4, 2, 1)) == pytest.approx(1 / 16)

    def test_gossip_miss_slower_than_feedback(self):
        # Gossip needs a double coincidence, so it converges more slowly.
        g = float(gossip_miss_probability(10, 2, 1))
        f = float(feedback_miss_probability(10, 2, 1))
        assert g > f

    def test_vectorized_inputs(self):
        import numpy as np

        curve = feedback_miss_probability(np.array([1, 2, 4]), 2, 1)
        assert curve.shape == (3,)
        assert list(curve) == sorted(curve, reverse=True)

    def test_union_bound(self):
        assert union_bound_failure(0.01, 10) == pytest.approx(0.1)
        assert union_bound_failure(0.5, 10) == 1.0

    def test_theory_matches_measured_feedback_rate(self):
        # Monte Carlo cross-check: a single listener's per-repetition miss
        # rate over a jammed feedback channel matches (1 - (C-t)/C).
        import random

        rng = random.Random(0)
        channels, t = 3, 2
        trials = 20_000
        misses = 0
        for _ in range(trials):
            jammed = set(rng.sample(range(channels), t))
            if rng.randrange(channels) in jammed:
                misses += 1
        predicted = float(feedback_miss_probability(1, channels, t))
        assert misses / trials == pytest.approx(predicted, abs=0.01)
