"""Tests for the Section 8 (Q1) Byzantine-corruption variant."""

from __future__ import annotations

import random

import pytest

from repro.adversary import NullAdversary, RandomJammer, ScheduleAwareJammer
from repro.errors import ConfigurationError, ProtocolViolation
from repro.fame.byzantine import (
    ByzantineResult,
    CorruptionModel,
    run_byzantine_exchange,
)
from repro.fame.config import witness_group_size
from repro.rng import RngRegistry

from conftest import make_network

EDGES_T1 = [(0, 1), (2, 3), (4, 5), (6, 7)]


class TestCorruptionModel:
    def test_of_constructor(self):
        model = CorruptionModel.of(3, 7)
        assert model.is_corrupt(3) and model.is_corrupt(7)
        assert not model.is_corrupt(0)

    def test_defaults_misbehave_fully(self):
        model = CorruptionModel.of(1)
        assert model.garble_messages and model.lie_in_feedback

    def test_group_size_is_3_t_plus_1(self):
        # The exchange recruits f-AME's witness groups: > 3t (honest
        # majority from a witness's narrowed view) and a whole number of
        # (t+1)-channel rotations.
        assert witness_group_size(1) == 6
        assert witness_group_size(2) == 9
        for t in range(1, 5):
            assert witness_group_size(t) > 3 * t
            assert witness_group_size(t) % (t + 1) == 0


class TestHonestRuns:
    def test_no_corruption_no_adversary_delivers_all(self, rng):
        net = make_network(n=20, channels=2, t=1, adversary=NullAdversary())
        res = run_byzantine_exchange(net, EDGES_T1, rng=rng)
        assert res.failed == []
        assert res.garbled == []

    def test_messages_verbatim(self, rng):
        net = make_network(n=20, channels=2, t=1)
        messages = {p: ("payload", p) for p in EDGES_T1}
        res = run_byzantine_exchange(net, EDGES_T1, messages, rng=rng)
        for pair in EDGES_T1:
            assert res.delivered[pair] == messages[pair]

    def test_jamming_within_2t(self, rng, adv_rng):
        net = make_network(
            n=20, channels=2, t=1,
            adversary=ScheduleAwareJammer(adv_rng, policy="prefix"),
        )
        res = run_byzantine_exchange(net, EDGES_T1, rng=rng)
        assert res.disruptability() <= 2


class TestCorruptSources:
    def test_garbled_payloads_detected_by_harness(self, rng):
        net = make_network(n=20, channels=2, t=1)
        corruption = CorruptionModel.of(0)
        res = run_byzantine_exchange(
            net, EDGES_T1, rng=rng, corruption=corruption
        )
        assert (0, 1) in res.garbled
        assert not res.outcomes[(0, 1)]
        # Other pairs are untouched.
        assert res.outcomes[(2, 3)] and res.outcomes[(4, 5)]

    def test_failures_covered_by_corrupt_plus_jammed(self, rng, adv_rng):
        net = make_network(
            n=40, channels=3, t=2,
            adversary=ScheduleAwareJammer(adv_rng, policy="suffix"),
        )
        edges = [(i, i + 15) for i in range(8)]
        corruption = CorruptionModel.of(0, 1)
        res = run_byzantine_exchange(
            net, edges, rng=rng, corruption=corruption
        )
        assert res.disruptability() <= 2 * 2

    def test_corruption_budget_enforced(self, rng):
        net = make_network(n=20, channels=2, t=1)
        with pytest.raises(ConfigurationError, match="at most t"):
            run_byzantine_exchange(
                net, EDGES_T1, rng=rng, corruption=CorruptionModel.of(0, 2)
            )


class TestLyingWitnesses:
    def test_lying_witness_outvoted(self, rng):
        # Corrupt one node that lands in a witness group: its inverted
        # reports must not change any outcome (honest majority).
        net = make_network(n=20, channels=2, t=1)
        # Witness groups draw from the lowest free ids; 8 is free given
        # the edges use 0-7, so it will witness channel 0.
        corruption = CorruptionModel.of(
            8, garble_messages=False, lie_in_feedback=True
        )
        res = run_byzantine_exchange(
            net, EDGES_T1, rng=rng, corruption=corruption
        )
        assert res.failed == []

    def test_lying_witness_under_jamming(self, rng, adv_rng):
        net = make_network(
            n=20, channels=2, t=1, adversary=RandomJammer(adv_rng)
        )
        corruption = CorruptionModel.of(
            8, garble_messages=False, lie_in_feedback=True
        )
        res = run_byzantine_exchange(
            net, EDGES_T1, rng=rng, corruption=corruption
        )
        assert res.disruptability() <= 2

    def test_repeated_seeds_stay_within_2t(self):
        for seed in range(8):
            net = make_network(
                n=20, channels=2, t=1,
                adversary=RandomJammer(random.Random(seed)),
            )
            corruption = CorruptionModel.of(seed % 8)
            res = run_byzantine_exchange(
                net, EDGES_T1, rng=RngRegistry(seed=seed),
                corruption=corruption,
            )
            assert res.disruptability() <= 2, seed


class TestValidation:
    def test_invalid_pairs_rejected(self, rng):
        net = make_network(n=20, channels=2, t=1)
        with pytest.raises(ProtocolViolation):
            run_byzantine_exchange(net, [(0, 0)], rng=rng)

    def test_population_check(self, rng):
        net = make_network(n=20, channels=2, t=1)
        net.n = 9  # force a shortage
        with pytest.raises(ProtocolViolation, match="population"):
            run_byzantine_exchange(net, EDGES_T1, rng=rng)

    def test_result_accounting(self, rng):
        net = make_network(n=20, channels=2, t=1)
        res = run_byzantine_exchange(net, EDGES_T1, rng=rng)
        assert isinstance(res, ByzantineResult)
        assert res.moves >= 1
        assert res.rounds > res.moves
