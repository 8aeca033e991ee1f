"""Tests for the Section 5.6 constant-message-size pipeline."""

from __future__ import annotations

import pytest

from repro.adversary import RandomJammer, SpoofingAdversary
from repro.crypto.hashes import WeakHash, h1, h2
from repro.fame.digests import (
    message_sequence,
    reconstruct_chains,
    reconstruction_hashes,
    run_fame_with_digests,
)
from repro.radio.messages import Message
from repro.rng import RngRegistry

from conftest import make_network
from oracles import spoofed_deliveries

EDGES = [(0, 1), (0, 2), (3, 4), (5, 6)]
MESSAGES = {p: ("m", p) for p in EDGES}


class TestSequencesAndHashes:
    def test_message_sequence_sorted_by_dest(self):
        assert message_sequence(EDGES, 0) == [(0, 1), (0, 2)]
        assert message_sequence(EDGES, 3) == [(3, 4)]
        assert message_sequence(EDGES, 9) == []

    def test_reconstruction_hashes_suffix_structure(self):
        seq = ["a", "b", "c"]
        tags = reconstruction_hashes(seq, h1)
        assert tags[0] == h1("a", "b", "c")
        assert tags[1] == h1("b", "c")
        assert tags[2] == h1("c")


class TestReconstruction:
    def _honest_levels(self, seq):
        tags = reconstruction_hashes(seq, h1)
        return [{(m, t)} for m, t in zip(seq, tags)]

    def test_honest_chain_recovered(self):
        seq = ["x", "y", "z"]
        chains = reconstruct_chains(self._honest_levels(seq), h1)
        assert chains == [("x", "y", "z")]

    def test_single_level(self):
        chains = reconstruct_chains(self._honest_levels(["only"]), h1)
        assert chains == [("only",)]

    def test_empty_levels(self):
        assert reconstruct_chains([], h1) == []

    def test_garbage_candidates_pruned(self):
        seq = ["x", "y"]
        levels = self._honest_levels(seq)
        levels[0].add(("fake", b"wrong-tag"))
        levels[1].add(("fake2", b"also-wrong"))
        chains = reconstruct_chains(levels, h1)
        assert chains == [("x", "y")]

    def test_consistent_fake_chain_survives_until_signature(self):
        # An adversary that builds an internally consistent fake chain
        # passes reconstruction — only the vector signature kills it.
        seq = ["x", "y"]
        fake = ["p", "q"]
        levels = self._honest_levels(seq)
        fake_tags = reconstruction_hashes(fake, h1)
        for level, (m, tag) in enumerate(zip(fake, fake_tags)):
            levels[level].add((m, tag))
        chains = reconstruct_chains(levels, h1)
        assert sorted(chains) == [("p", "q"), ("x", "y")]
        assert h2(*("x", "y")) != h2(*("p", "q"))

    def test_weak_hash_can_fan_out(self):
        # With a 2-bit hash, collisions are abundant; the reconstruction
        # faithfully reports every consistent chain instead of guessing.
        weak = WeakHash(bits=2)
        seq = [f"m{i}" for i in range(3)]
        levels = self._honest_levels_weak(seq, weak)
        for i in range(60):
            levels[1].add((f"junk{i}", weak(f"junk{i}", seq[2])))
        chains = reconstruct_chains(levels, weak)
        assert (tuple(seq)) in chains
        assert len(chains) >= 2

    def _honest_levels_weak(self, seq, hash1):
        tags = reconstruction_hashes(seq, hash1)
        return [{(m, t)} for m, t in zip(seq, tags)]


class TestPipeline:
    def test_end_to_end_no_adversary(self, rng):
        net = make_network(n=20, channels=2, t=1)
        res = run_fame_with_digests(net, EDGES, MESSAGES, rng=rng)
        for pair, outcome in res.outcomes.items():
            if res.fame.outcomes[pair].success:
                assert outcome.success
                assert outcome.message == MESSAGES[pair]
        assert res.gossip_rounds > 0

    def test_disruptability_under_jamming(self, rng, adv_rng):
        net = make_network(n=20, channels=2, t=1, adversary=RandomJammer(adv_rng))
        res = run_fame_with_digests(net, EDGES, MESSAGES, rng=rng)
        assert res.disruptability() <= 1

    def test_spoofed_gossip_rejected_by_signature(self, rng, adv_rng):
        # The spoofer floods gossip epochs with fake frames for source 0;
        # receivers reconstruct extra chains but the authenticated vector
        # signature selects the genuine one.
        def forge(view, channel):
            fake_msg = ("m", "FORGED")
            return Message(
                kind="ame-gossip",
                sender=0,
                payload=(0, 0, fake_msg, h1(fake_msg)),
            )

        net = make_network(
            n=20, channels=2, t=1,
            adversary=SpoofingAdversary(adv_rng, forge=forge, target_scheduled=False),
        )
        res = run_fame_with_digests(net, EDGES, MESSAGES, rng=rng)
        # Source 0 has two honest levels; any count beyond that is a spoof
        # that some receiver stored as a candidate.
        assert res.candidate_stats[0] > len(message_sequence(EDGES, 0))
        for pair, outcome in res.outcomes.items():
            if outcome.success:
                assert outcome.message == MESSAGES[pair]
                assert outcome.message != ("m", "FORGED")

    @pytest.mark.parametrize(
        "payload", [(0, 0, [1], b"d"), ([0], 0, 1, b"d")], ids=["message", "source"]
    )
    def test_spoofed_gossip_with_unhashable_field_is_skipped(
        self, rng, adv_rng, payload
    ):
        # An unhashable message or source id used to crash GossipInbox.add.
        def forge(view, channel):
            return Message(kind="ame-gossip", sender=0, payload=payload)

        net = make_network(
            n=20, channels=2, t=1,
            adversary=SpoofingAdversary(adv_rng, forge=forge, target_scheduled=False),
        )
        res = run_fame_with_digests(net, EDGES, MESSAGES, rng=rng)
        assert any(
            net.trace[index].meta["phase"] == "gossip"
            for index, _channel, _msg in spoofed_deliveries(net.trace)
        )
        # No receiver stored the forgery: every source's candidates are
        # its honest levels only.
        assert res.candidate_stats == {
            v: len(message_sequence(EDGES, v)) for v in res.candidate_stats
        }
        assert res.disruptability() <= 1

    def test_constant_size_protocol_messages(self, rng):
        # The f-AME stage must carry 32-byte signatures, not full vectors.
        net = make_network(n=20, channels=2, t=1)
        res = run_fame_with_digests(net, EDGES, MESSAGES, rng=rng)
        for outcome in res.fame.outcomes.values():
            if outcome.success:
                assert isinstance(outcome.message, bytes)
                assert len(outcome.message) == 32

    def test_default_messages_and_rng(self):
        net = make_network(n=20, channels=2, t=1)
        res = run_fame_with_digests(net, [(0, 1), (2, 3)])
        assert set(res.outcomes) == {(0, 1), (2, 3)}

    def test_chain_stats_reported(self, rng):
        net = make_network(n=20, channels=2, t=1)
        res = run_fame_with_digests(net, EDGES, MESSAGES, rng=rng)
        assert set(res.chain_stats) == {0, 3, 5}
        assert all(v >= 1 for v in res.chain_stats.values())
