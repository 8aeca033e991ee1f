"""Tests for the f-AME protocol driver (Theorem 6)."""

from __future__ import annotations

import random

import pytest

from repro.adversary import (
    NullAdversary,
    RandomJammer,
    ReactiveJammer,
    ScheduleAwareJammer,
    SpoofingAdversary,
    SweepJammer,
)
from repro.baselines import (
    run_direct_exchange,
    run_no_surrogate,
    run_randomized_exchange,
)
from repro.errors import ProtocolViolation, SimulationDiverged
from repro.fame import (
    FameProtocol,
    Regime,
    make_config,
    run_byzantine_exchange,
    run_fame,
    run_fame_with_digests,
)
from repro.fame.config import witness_group_size
from repro.params import ProtocolParameters
from repro.rng import RngRegistry

from conftest import make_network

EDGES_T1 = [(0, 1), (2, 3), (4, 5), (1, 6), (7, 8)]


class TestHappyPath:
    def test_all_pairs_succeed_without_adversary(self, rng):
        net = make_network(n=20, channels=2, t=1, adversary=NullAdversary())
        res = run_fame(net, EDGES_T1, rng=rng)
        assert res.failed == []
        assert res.disruptability() == 0

    def test_messages_delivered_verbatim(self, rng):
        net = make_network(n=20, channels=2, t=1)
        messages = {p: ("payload", p) for p in EDGES_T1}
        res = run_fame(net, EDGES_T1, messages=messages, rng=rng)
        for pair, outcome in res.outcomes.items():
            assert outcome.success
            assert outcome.message == messages[pair]

    def test_duplicate_pairs_deduplicated(self, rng):
        net = make_network(n=20, channels=2, t=1)
        res = run_fame(net, [(0, 1), (0, 1), (2, 3)], rng=rng)
        assert len(res.outcomes) == 2

    def test_empty_edge_set(self, rng):
        net = make_network(n=20, channels=2, t=1)
        res = run_fame(net, [], rng=rng)
        assert res.moves == 0
        assert res.outcomes == {}
        assert res.rounds == 0

    def test_deterministic_given_seed(self):
        r1 = run_fame(make_network(), EDGES_T1, rng=RngRegistry(seed=5))
        r2 = run_fame(make_network(), EDGES_T1, rng=RngRegistry(seed=5))
        assert r1.summary() == r2.summary()

    def test_bidirectional_pairs(self, rng):
        net = make_network(n=20, channels=2, t=1)
        res = run_fame(net, [(0, 1), (1, 0)], rng=rng)
        assert res.failed == []


class TestDisruptability:
    @pytest.mark.parametrize("policy", ["prefix", "suffix", "random"])
    def test_t1_schedule_aware_jammer(self, policy, rng, adv_rng):
        net = make_network(
            n=20, channels=2, t=1,
            adversary=ScheduleAwareJammer(adv_rng, policy=policy),
        )
        res = run_fame(net, EDGES_T1, rng=rng)
        assert res.is_d_disruptable(1), res.failed

    @pytest.mark.parametrize("policy", ["prefix", "suffix"])
    def test_t2_schedule_aware_jammer(self, policy, rng, adv_rng):
        net = make_network(
            n=40, channels=3, t=2,
            adversary=ScheduleAwareJammer(adv_rng, policy=policy),
        )
        edges = [(i, i + 10) for i in range(8)] + [(3, 25), (3, 26), (14, 27)]
        res = run_fame(net, edges, rng=rng)
        assert res.is_d_disruptable(2), res.failed

    def test_victim_persecution_bounded(self, rng, adv_rng):
        # Persecuting fixed victims concentrates failures on them — which is
        # exactly what a small vertex cover means.
        net = make_network(
            n=20, channels=2, t=1,
            adversary=ScheduleAwareJammer(adv_rng, policy="victims", victims=[1]),
        )
        edges = [(0, 1), (1, 6), (2, 3), (4, 5)]
        res = run_fame(net, edges, rng=rng)
        assert res.is_d_disruptable(1)
        for pair in res.failed:
            assert 1 in pair

    def test_random_and_reactive_jammers(self, rng, adv_rng):
        for adv in (RandomJammer(adv_rng), ReactiveJammer(adv_rng), SweepJammer()):
            net = make_network(n=20, channels=2, t=1, adversary=adv)
            res = run_fame(net, EDGES_T1, rng=RngRegistry(seed=id(adv) % 1000))
            assert res.is_d_disruptable(1)


class TestAuthenticity:
    def test_spoofer_cannot_inject_messages(self, rng, adv_rng):
        # Definition 1 property 1: w outputs m_vw or fail — never a forgery.
        from repro.radio.messages import Message

        def forge(view, channel):
            return Message(
                kind="ame-data", sender=0,
                payload=(0, ((1, ("FORGED",)),)),
            )

        net = make_network(
            n=20, channels=2, t=1,
            adversary=SpoofingAdversary(adv_rng, forge=forge),
        )
        messages = {p: ("real", p) for p in EDGES_T1}
        res = run_fame(net, EDGES_T1, messages=messages, rng=rng)
        for pair, outcome in res.outcomes.items():
            if outcome.success:
                assert outcome.message == messages[pair]
        assert net.metrics.spoofs_delivered == 0 or all(
            o.message != ("FORGED",) for o in res.outcomes.values() if o.success
        )

    def test_sender_awareness_matches_outcomes(self, rng, adv_rng):
        net = make_network(
            n=20, channels=2, t=1,
            adversary=ScheduleAwareJammer(adv_rng, policy="prefix"),
        )
        res = run_fame(net, EDGES_T1, rng=rng)
        report = res.sender_report(1)
        assert report == {
            p: res.outcomes[p].success for p in EDGES_T1 if p[0] == 1
        }


class TestInvariants:
    def test_starred_nodes_have_full_surrogate_groups(self, rng, adv_rng):
        # Invariant 2: every starred node's vector is held by 3(t+1) nodes.
        net = make_network(
            n=40, channels=3, t=2,
            adversary=ScheduleAwareJammer(adv_rng, policy="prefix"),
        )
        edges = [(3, w) for w in range(10, 16)] + [(4, w) for w in range(16, 20)]
        res = run_fame(net, edges, rng=rng)
        for node in res.starred:
            assert len(res.surrogate_holders[node]) == witness_group_size(2)

    def test_moves_bounded_by_theorem_4(self, rng, adv_rng):
        net = make_network(
            n=20, channels=2, t=1,
            adversary=ScheduleAwareJammer(adv_rng, policy="suffix"),
        )
        res = run_fame(net, EDGES_T1, rng=rng)
        assert res.moves <= 3 * len(EDGES_T1) + 2

    def test_claimed_cover_covers_failures(self, rng, adv_rng):
        net = make_network(
            n=20, channels=2, t=1,
            adversary=ScheduleAwareJammer(adv_rng, policy="prefix"),
        )
        res = run_fame(net, EDGES_T1, rng=rng)
        for v, w in res.failed:
            assert v in res.claimed_cover or w in res.claimed_cover
        assert len(res.claimed_cover) <= 1


class TestRegimes:
    EDGES = [(i, i + 12) for i in range(10)]

    def test_double_regime_correct(self, rng, adv_rng):
        net = make_network(
            n=48, channels=4, t=2,
            adversary=ScheduleAwareJammer(adv_rng, policy="prefix"),
        )
        cfg = make_config(48, 4, 2, regime=Regime.DOUBLE)
        res = run_fame(net, self.EDGES, rng=rng, config=cfg)
        assert res.is_d_disruptable(2)

    def test_squared_regime_correct(self, rng, adv_rng):
        net = make_network(
            n=60, channels=8, t=2,
            adversary=ScheduleAwareJammer(adv_rng, policy="prefix"),
        )
        cfg = make_config(60, 8, 2, regime=Regime.SQUARED)
        res = run_fame(net, self.EDGES, rng=rng, config=cfg)
        assert res.is_d_disruptable(2)

    def test_more_channels_fewer_rounds(self, adv_rng):
        # Figure 3: the same workload costs less with more channels.  Even
        # without an adversary a <= t-cover tail of pairs may strand (the
        # game needs t+1 legal items per move), so we assert the cover
        # bound rather than perfection.
        t = 2
        rounds = {}
        for label, channels, regime in (
            ("base", 3, Regime.BASE),
            ("double", 4, Regime.DOUBLE),
            ("squared", 8, Regime.SQUARED),
        ):
            net = make_network(n=60, channels=channels, t=t)
            cfg = make_config(60, channels, t, regime=regime)
            res = run_fame(
                net, self.EDGES, rng=RngRegistry(seed=9), config=cfg
            )
            assert res.is_d_disruptable(t)
            rounds[label] = res.rounds
        assert rounds["base"] > rounds["double"]
        assert rounds["base"] > rounds["squared"]


class TestDivergenceHandling:
    # A starved feedback loop (few repetitions) makes listeners miss true
    # slots with substantial probability — the Lemma 5 failure event,
    # forced deterministically by the fixed seeds below.

    def test_non_strict_mode_resynchronises(self, adv_rng):
        params = ProtocolParameters(
            feedback_factor=0.3, strict_consistency=False
        ).validate()
        net = make_network(
            n=20, channels=2, t=1,
            adversary=RandomJammer(adv_rng),
            params=params,
        )
        res = run_fame(net, EDGES_T1, rng=RngRegistry(seed=0))
        # The run completes despite disagreements, and records them.
        assert res.divergence_events > 0
        assert res.disagreeing_nodes >= res.divergence_events

    def test_strict_mode_raises(self, adv_rng):
        params = ProtocolParameters(
            feedback_factor=0.3, strict_consistency=True
        ).validate()
        net = make_network(
            n=20, channels=2, t=1,
            adversary=RandomJammer(adv_rng),
            params=params,
        )
        with pytest.raises(SimulationDiverged):
            run_fame(net, EDGES_T1, rng=RngRegistry(seed=0))


class TestValidation:
    def test_self_loop_rejected(self, rng):
        net = make_network()
        with pytest.raises(ProtocolViolation, match="self-loop"):
            run_fame(net, [(1, 1)], rng=rng)

    def test_out_of_range_pair_rejected(self, rng):
        net = make_network()
        with pytest.raises(ProtocolViolation, match="outside"):
            run_fame(net, [(0, 99)], rng=rng)

    def test_missing_message_rejected(self, rng):
        net = make_network()
        with pytest.raises(ProtocolViolation, match="without messages"):
            FameProtocol(net, [(0, 1)], messages={(2, 3): "x"}, rng=rng)

    def test_summary_fields(self, rng):
        net = make_network()
        res = run_fame(net, [(0, 1), (2, 3)], rng=rng)
        s = res.summary()
        assert s["pairs"] == 2 and s["n"] == 20 and s["t"] == 1
        assert s["rounds"] == res.rounds


EXCHANGES = {
    "fame": lambda net, edges, messages: run_fame(
        net, edges, messages, RngRegistry(seed=1)
    ),
    "digests": lambda net, edges, messages: run_fame_with_digests(
        net, edges, messages, RngRegistry(seed=1)
    ),
    "byzantine": lambda net, edges, messages: run_byzantine_exchange(
        net, edges, messages, RngRegistry(seed=1)
    ),
    "no-surrogate": lambda net, edges, messages: run_no_surrogate(
        net, edges, messages, RngRegistry(seed=1)
    ),
    "direct": run_direct_exchange,
    "randomized": lambda net, edges, messages: run_randomized_exchange(
        net, edges, messages, RngRegistry(seed=1)
    ),
}

BAD_INPUTS = {
    "no-message": ([(0, 1), (2, 3)], {(0, 1): "m"}, "without messages"),
    "self-loop": ([(0, 1), (3, 3)], None, "self-loop"),
    "outside": ([(0, 1), (25, 3)], None, "outside the network"),
}


@pytest.mark.parametrize("bad", sorted(BAD_INPUTS))
@pytest.mark.parametrize("exchange", sorted(EXCHANGES))
def test_every_exchange_checks_its_pairs_before_any_round(exchange, bad):
    # Definition 1's input contract, shared by f-AME, the digest pipeline,
    # the Byzantine exchange and the three baselines: a bad pair is a
    # ProtocolViolation before the radio runs a single round.
    edges, messages, reason = BAD_INPUTS[bad]
    net = make_network(n=20, channels=2, t=1)
    with pytest.raises(ProtocolViolation, match=reason):
        EXCHANGES[exchange](net, edges, messages)
    assert net.metrics.rounds == 0


class TestSurplusChannels:
    """C strictly larger than the regime needs: idle channels exist.

    Spoofing on idle channels is harmless (nobody is scheduled to listen
    there), and the feedback routine simply occupies a wider channel set.
    """

    def test_base_regime_with_extra_channels(self, rng, adv_rng):
        net = make_network(
            n=20, channels=5, t=1,
            adversary=SpoofingAdversary(adv_rng, target_scheduled=True),
        )
        cfg = make_config(20, 5, 1, regime=Regime.BASE)
        messages = {p: ("real", p) for p in EDGES_T1}
        res = run_fame(net, EDGES_T1, messages=messages, rng=rng, config=cfg)
        assert res.is_d_disruptable(1)
        for pair, outcome in res.outcomes.items():
            if outcome.success:
                assert outcome.message == messages[pair]

    def test_intermediate_channel_counts(self, adv_rng):
        # Every C between t+1 and 3(t+1)+1 must work in the BASE regime.
        t = 2
        for channels in range(t + 1, 3 * (t + 1) + 2):
            net = make_network(
                n=40, channels=channels, t=t,
                adversary=ScheduleAwareJammer(adv_rng, policy="prefix"),
            )
            cfg = make_config(40, channels, t, regime=Regime.BASE)
            res = run_fame(
                net, [(i, i + 15) for i in range(6)],
                rng=RngRegistry(seed=channels), config=cfg,
            )
            assert res.is_d_disruptable(t), channels

    def test_feedback_channels_capped_at_witness_group(self):
        cfg = make_config(200, 30, 1, regime=Regime.BASE)
        assert cfg.feedback_channels == 6  # 3(t+1)
