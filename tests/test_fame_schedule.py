"""Tests for the deterministic transmission schedule (Section 5.4)."""

from __future__ import annotations

import pytest

from repro.errors import ScheduleError
from repro.fame.config import make_config, witness_group_size
from repro.fame.schedule import build_schedule
from repro.game.graph import EdgeItem, NodeItem


@pytest.fixture
def cfg():
    return make_config(40, 3, 2)  # BASE, proposals of 3


class TestBasicScheduling:
    def test_channels_assigned_in_proposal_order(self, cfg):
        proposal = [NodeItem(0), EdgeItem(1, 2), EdgeItem(3, 4)]
        s = build_schedule(cfg, proposal, set(), {})
        assert s.channels_in_use == (0, 1, 2)
        assert [a.item for a in s.assignments] == proposal

    def test_node_item_broadcasts_itself(self, cfg):
        s = build_schedule(cfg, [NodeItem(5), EdgeItem(1, 2), EdgeItem(3, 4)], set(), {})
        a = s.assignments[0]
        assert a.broadcaster == 5 and a.source == 5 and a.listener is None

    def test_edge_source_broadcasts_and_dest_listens(self, cfg):
        s = build_schedule(cfg, [NodeItem(0), EdgeItem(1, 2), EdgeItem(3, 4)], set(), {})
        a = s.assignments[1]
        assert a.broadcaster == 1 and a.listener == 2
        assert a.broadcaster == a.source

    def test_deterministic(self, cfg):
        proposal = [NodeItem(0), EdgeItem(1, 2), EdgeItem(3, 4)]
        s1 = build_schedule(cfg, proposal, set(), {})
        s2 = build_schedule(cfg, proposal, set(), {})
        assert s1 == s2


class TestSurrogates:
    def test_shared_source_uses_surrogates(self, cfg):
        holders = {1: tuple(range(20, 30))}
        proposal = [EdgeItem(1, 2), EdgeItem(1, 3), EdgeItem(4, 5)]
        s = build_schedule(cfg, proposal, {1}, holders)
        first, second = s.assignments[0], s.assignments[1]
        assert first.broadcaster == 1  # source takes its first edge
        assert second.broadcaster != second.source
        assert second.broadcaster in holders[1]
        assert second.source == 1

    def test_source_listening_elsewhere_gets_surrogate(self, cfg):
        # 1 is the destination of (0, 1) and source of (1, 5): it must
        # listen, so a surrogate broadcasts its edge.
        holders = {1: tuple(range(20, 30))}
        proposal = [EdgeItem(0, 1), EdgeItem(1, 5), NodeItem(7)]
        s = build_schedule(cfg, proposal, {1}, holders)
        edge_15 = s.assignments[1]
        assert edge_15.broadcaster != edge_15.source
        assert edge_15.broadcaster in holders[1]

    def test_surrogates_distinct_across_edges(self, cfg):
        holders = {1: tuple(range(20, 30))}
        proposal = [EdgeItem(0, 1), EdgeItem(1, 5), EdgeItem(1, 6)]
        s = build_schedule(cfg, proposal, {1}, holders)
        surrogates = [
            a.broadcaster for a in s.assignments if a.broadcaster != a.source
        ]
        assert len(surrogates) == 2
        assert len(set(surrogates)) == 2

    def test_surrogate_never_clashes_with_involved_nodes(self, cfg):
        holders = {1: (0, 2, 5, 20, 21, 22)}  # first holders are busy in P
        proposal = [EdgeItem(0, 1), EdgeItem(1, 5), NodeItem(2)]
        s = build_schedule(cfg, proposal, {1}, holders)
        surrogate = s.assignments[1].broadcaster
        assert surrogate in (20, 21, 22)

    def test_unstarred_shared_source_rejected(self, cfg):
        proposal = [EdgeItem(1, 2), EdgeItem(1, 3), NodeItem(7)]
        with pytest.raises(ScheduleError, match="not starred"):
            build_schedule(cfg, proposal, set(), {})

    def test_starred_source_without_holders_rejected(self, cfg):
        proposal = [EdgeItem(1, 2), EdgeItem(1, 3), NodeItem(7)]
        with pytest.raises(ScheduleError, match="no recorded"):
            build_schedule(cfg, proposal, {1}, {})

    def test_exhausted_holders_rejected(self, cfg):
        holders = {1: (2,)}  # the only holder is busy as a destination
        proposal = [EdgeItem(1, 2), EdgeItem(1, 3), NodeItem(7)]
        with pytest.raises(ScheduleError, match="no free surrogate"):
            build_schedule(cfg, proposal, {1}, holders)


class TestWitnesses:
    def test_witness_groups_sized_and_disjoint(self, cfg):
        proposal = [NodeItem(0), EdgeItem(1, 2), EdgeItem(3, 4)]
        s = build_schedule(cfg, proposal, set(), {})
        size = witness_group_size(cfg.t)
        seen = set()
        for group in s.witness_groups:
            assert len(group) == size
            assert not (set(group) & seen)
            seen.update(group)

    def test_witnesses_avoid_involved_nodes(self, cfg):
        proposal = [NodeItem(0), EdgeItem(1, 2), EdgeItem(3, 4)]
        s = build_schedule(cfg, proposal, set(), {})
        involved = {0, 1, 2, 3, 4}
        for group in s.witness_groups:
            assert not (set(group) & involved)

    def test_feedback_sets_prefix_of_groups(self, cfg):
        proposal = [NodeItem(0), EdgeItem(1, 2), EdgeItem(3, 4)]
        s = build_schedule(cfg, proposal, set(), {})
        for group, fb in zip(s.witness_groups, s.feedback_sets):
            assert fb == group[: cfg.feedback_channels]

    def test_population_shortage_rejected(self):
        cfg_small = make_config(40, 3, 2)
        object.__setattr__(cfg_small, "n", 20)  # force an undersized pop
        proposal = [NodeItem(0), EdgeItem(1, 2), EdgeItem(3, 4)]
        with pytest.raises(ScheduleError, match="witness groups"):
            build_schedule(cfg_small, proposal, set(), {})

    def test_serial_witness_assignment_valid(self, cfg):
        proposal = [NodeItem(0), EdgeItem(1, 2), EdgeItem(3, 4)]
        s = build_schedule(cfg, proposal, set(), {})
        wa = s.serial_witness_assignment()
        assert wa.slots == 3
        assert len(wa.channels) == cfg.feedback_channels


class TestScheduleViews:
    def test_listeners_map_includes_dests_and_witnesses(self, cfg):
        proposal = [NodeItem(0), EdgeItem(1, 2), EdgeItem(3, 4)]
        s = build_schedule(cfg, proposal, set(), {})
        listeners = s.listeners()
        assert listeners[2] == 1 and listeners[4] == 2
        for group, a in zip(s.witness_groups, s.assignments):
            assert all(listeners[w] == a.channel for w in group)

    def test_meta_schedule_exposes_assignments(self, cfg):
        proposal = [NodeItem(0), EdgeItem(1, 2), EdgeItem(3, 4)]
        s = build_schedule(cfg, proposal, set(), {})
        meta = s.meta_schedule()
        assert meta["channels_in_use"] == (0, 1, 2)
        assert meta["assignments"][1] == {
            "kind": "edge", "broadcaster": 1, "source": 1, "listener": 2,
        }

    def test_oversized_proposal_rejected(self, cfg):
        proposal = [NodeItem(i) for i in range(cfg.proposal_size + 1)]
        with pytest.raises(ScheduleError, match="at most"):
            build_schedule(cfg, proposal, set(), {})
