"""Direct tests for smaller public APIs exercised only indirectly elsewhere."""

from __future__ import annotations

import pytest

from repro.crypto.hashes import h1
from repro.errors import (
    ConfigurationError,
    CryptoError,
    GameRuleViolation,
    ProtocolViolation,
    ReproError,
    ScheduleError,
    SimulationDiverged,
)
from repro.fame.digests import GossipInbox, run_gossip_phase
from repro.fame.protocol import vector_frame
from repro.rng import RngRegistry

from conftest import make_network


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for exc in (
            ConfigurationError,
            CryptoError,
            GameRuleViolation,
            ProtocolViolation,
            ScheduleError,
            SimulationDiverged,
        ):
            assert issubclass(exc, ReproError)

    def test_game_and_schedule_errors_are_protocol_violations(self):
        assert issubclass(GameRuleViolation, ProtocolViolation)
        assert issubclass(ScheduleError, ProtocolViolation)

    def test_catch_all(self):
        with pytest.raises(ReproError):
            raise ScheduleError("x")


class TestVectorFrame:
    def test_payload_is_canonical_sorted(self):
        frame = vector_frame(3, 5, {9: "b", 1: "a"})
        assert frame.kind == "ame-data"
        assert frame.sender == 3
        assert frame.payload == (5, ((1, "a"), (9, "b")))

    def test_surrogate_frames_carry_source_not_broadcaster(self):
        frame = vector_frame(broadcaster=7, source=5, vector={2: "m"})
        assert frame.sender == 7
        assert frame.payload[0] == 5


class TestGossipInbox:
    def test_ensure_and_add(self):
        inbox = GossipInbox()
        inbox.ensure(3, 2)
        inbox.add(3, 0, "m", b"h")
        inbox.add(3, 0, "m", b"h")  # deduplicated
        assert inbox.candidate_count(3) == 1

    def test_out_of_range_levels_ignored(self):
        inbox = GossipInbox()
        inbox.ensure(3, 1)
        inbox.add(3, 9, "m", b"h")  # spoofed level index: dropped
        inbox.add(4, 0, "m", b"h")  # unknown source: dropped
        assert inbox.candidate_count(3) == 0
        assert inbox.candidate_count(4) == 0


class TestGossipPhaseDirect:
    def test_every_node_receives_every_frame(self, rng):
        net = make_network(n=12, channels=2, t=1)
        edges = [(0, 1), (0, 2), (3, 4)]
        messages = {p: ("m", p) for p in edges}
        inboxes, rounds = run_gossip_phase(
            net, edges, messages, rng, h1, epoch_rounds=40
        )
        assert rounds == 3 * 40
        for node in range(12):
            # Source 0 has two levels, source 3 one.
            assert inboxes[node].candidate_count(0) == 2
            assert inboxes[node].candidate_count(3) == 1

    def test_rounds_scale_with_edges(self, rng):
        net = make_network(n=12, channels=2, t=1)
        edges = [(0, 1)]
        _inboxes, rounds = run_gossip_phase(
            net, edges, {(0, 1): "m"}, rng, h1, epoch_rounds=10
        )
        assert rounds == 10


class TestGraphConversion:
    def test_to_undirected_graph(self):
        from oracles import to_undirected_graph

        g = to_undirected_graph([(0, 1), (1, 0), (1, 2)])
        assert g.number_of_edges() == 2
        assert set(g.nodes) == {0, 1, 2}
