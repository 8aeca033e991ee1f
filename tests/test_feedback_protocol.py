"""Tests for communication-feedback (Figure 1 / Lemma 5)."""

from __future__ import annotations

import random

import pytest

from repro.adversary import RandomJammer, SpoofingAdversary, SweepJammer
from repro.errors import ConfigurationError
from repro.feedback.protocol import (
    FEEDBACK_KIND,
    feedback_false,
    feedback_true,
    run_feedback,
)
from repro.feedback.witness import WitnessAssignment
from repro.radio.messages import Message
from repro.rng import RngRegistry

from conftest import make_network


def assignment_for(net, slots):
    """Witness sets 2i.. per slot, one witness per channel."""
    c = net.channels
    sets = tuple(
        tuple(range(slot * c, slot * c + c)) for slot in range(slots)
    )
    return WitnessAssignment(sets=sets, channels=tuple(range(c)))


def flags_for(assignment, truth):
    flags = {}
    for slot, witnesses in enumerate(assignment.sets):
        for w in witnesses:
            flags[w] = truth[slot]
    return flags


class TestFrames:
    def test_frame_payloads(self):
        assert feedback_true(3, 1).payload == ("true", 1)
        assert feedback_false(3, 1).payload == ("false", 1)
        assert feedback_true(3, 1).kind == FEEDBACK_KIND


class TestCorrectness:
    @pytest.mark.parametrize("truth", [(True, False), (False, True), (True, True), (False, False)])
    def test_all_participants_agree_without_adversary(self, truth, rng):
        net = make_network(n=20, channels=2, t=1)
        wa = assignment_for(net, 2)
        out = run_feedback(
            net, wa, flags_for(wa, truth), list(range(net.n)), rng
        )
        expected = {slot for slot, flag in enumerate(truth) if flag}
        assert all(d == expected for d in out.values())

    def test_correct_under_random_jamming(self, rng, adv_rng):
        net = make_network(n=20, channels=2, t=1, adversary=RandomJammer(adv_rng))
        wa = assignment_for(net, 2)
        truth = (True, False)
        out = run_feedback(
            net, wa, flags_for(wa, truth), list(range(net.n)), rng
        )
        assert all(d == {0} for d in out.values())

    def test_correct_under_sweep_jamming_t2(self, rng):
        net = make_network(n=40, channels=3, t=2, adversary=SweepJammer())
        wa = assignment_for(net, 3)
        truth = (True, True, False)
        out = run_feedback(
            net, wa, flags_for(wa, truth), list(range(net.n)), rng
        )
        assert all(d == {0, 1} for d in out.values())

    def test_witness_outputs_own_slot_immediately(self, rng):
        net = make_network(n=20, channels=2, t=1)
        wa = assignment_for(net, 1)
        out = run_feedback(
            net, wa, {0: True, 1: True}, list(range(net.n)), rng
        )
        assert 0 in out[0] and 0 in out[1]

    def test_round_cost_matches_formula(self, rng):
        net = make_network(n=20, channels=2, t=1)
        wa = assignment_for(net, 2)
        run_feedback(net, wa, flags_for(wa, (True, False)), list(range(net.n)), rng)
        reps = net.params.feedback_repetitions(net.n, 2, 1)
        assert net.metrics.rounds == 2 * reps  # slots * repetitions


class TestSpoofResistance:
    def test_forged_true_frames_cannot_be_decoded(self, rng, adv_rng):
        # Lemma 5's parenthetical: every feedback channel carries an honest
        # witness every repetition, so a forged <true, r> only collides.
        def forge(view, channel):
            slot = view.meta.extra.get("slot", 0) if view.meta.extra else 0
            return Message(kind=FEEDBACK_KIND, sender=0, payload=("true", slot))

        net = make_network(
            n=20, channels=2, t=1,
            adversary=SpoofingAdversary(adv_rng, forge=forge, target_scheduled=False),
        )
        wa = assignment_for(net, 2)
        truth = (False, False)
        out = run_feedback(
            net, wa, flags_for(wa, truth), list(range(net.n)), rng
        )
        assert all(d == set() for d in out.values())
        assert net.metrics.spoofs_delivered == 0


class TestValidation:
    def test_inconsistent_witness_flags_rejected(self, rng):
        net = make_network(n=20, channels=2, t=1)
        wa = assignment_for(net, 1)
        with pytest.raises(ConfigurationError, match="disagree"):
            run_feedback(net, wa, {0: True, 1: False}, list(range(net.n)), rng)

    def test_missing_flags_rejected(self, rng):
        net = make_network(n=20, channels=2, t=1)
        wa = assignment_for(net, 1)
        with pytest.raises(ConfigurationError, match="no flag"):
            run_feedback(net, wa, {0: True}, list(range(net.n)), rng)

    def test_witness_outside_participants_rejected(self, rng):
        net = make_network(n=20, channels=2, t=1)
        wa = assignment_for(net, 1)
        with pytest.raises(ConfigurationError, match="participant"):
            run_feedback(net, wa, {0: True, 1: True}, [0, 5, 6], rng)


class TestHighProbability:
    def test_agreement_rate_across_many_runs(self):
        # Empirical check of Lemma 5: over repeated runs with a full-budget
        # jammer, every participant's output matches the truth every time
        # (failure probability is well below 1/n at the default constants).
        failures = 0
        trials = 30
        for trial in range(trials):
            net = make_network(
                n=20, channels=2, t=1,
                adversary=RandomJammer(random.Random(trial)),
            )
            wa = assignment_for(net, 2)
            rng = RngRegistry(seed=1000 + trial)
            truth = (trial % 2 == 0, True)
            out = run_feedback(
                net, wa, flags_for(wa, truth), list(range(net.n)), rng
            )
            expected = {s for s, f in enumerate(truth) if f}
            if any(d != expected for d in out.values()):
                failures += 1
        assert failures == 0
