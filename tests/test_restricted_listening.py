"""Tests for the Q2 restricted-listening model and share-spray experiment."""

from __future__ import annotations

import random

import pytest

from repro.errors import ConfigurationError, ProtocolViolation
from repro.extensions import (
    HoppingEavesdropper,
    MonitoringAdversary,
    RestrictedListeningNetwork,
    StickyEavesdropper,
    run_share_spray,
)
from repro.extensions.restricted_listening import SHARE_KIND
from repro.fame.digests import slot_set_digest
from repro.radio.actions import Listen, Transmit
from repro.radio.messages import DELTA_KIND, JAM, DeltaFrame, Message, Transmission
from repro.radio.network import CompiledRound, RoundMeta
from repro.rng import RngRegistry

from test_golden import (
    RESTRICTED_DELTA_EXPANSION,
    per_round_expansion,
    rounds_digest,
)


def frame(payload="x"):
    return Message(kind="data", sender=0, payload=payload)


class TestCompiledDeltaFallback:
    """Compiled schedules whose frames are digest/delta encoded resolve
    exactly like the expanded per-round submission — monitoring,
    redaction, and payload accounting included — and the per-round side
    matches the digest recorded from the per-node resolver."""

    def _delta_schedule(self):
        rounds = []
        for rep in range(6):
            payload = DeltaFrame(
                tag=("lvl", rep % 2),
                digest=slot_set_digest((rep, rep + 2)),
                true_slots=(rep, rep + 2),
            )
            transmits = {
                0: Transmit(0, Message(kind=DELTA_KIND, sender=0, payload=payload)),
                1: Transmit(2, Message(kind=DELTA_KIND, sender=1, payload=payload)),
            }
            listens = {0: [2, 3], 2: [4], 1: [5]}
            rounds.append(
                CompiledRound.make(
                    transmits, listens, RoundMeta(phase="feedback-parallel")
                )
            )
        return rounds

    def test_schedule_matches_per_round_expansion(self):
        def build():
            return RestrictedListeningNetwork(8, 3, 1, StickyEavesdropper([0]))

        schedule = self._delta_schedule()
        via_schedule = build()
        via_rounds = build()
        heard = via_schedule.execute_schedule(schedule)
        expected = per_round_expansion(via_rounds, schedule)
        assert heard == expected
        # Delta frames decode on the singly-occupied channels.
        assert all(
            isinstance(h[0].payload, DeltaFrame) and h[0].kind == DELTA_KIND
            for h in heard
        )
        assert via_schedule.metrics == via_rounds.metrics
        assert via_schedule.metrics.payload_units > 0
        assert (
            via_schedule.redacted_trace.canonical_forms()
            == via_rounds.redacted_trace.canonical_forms()
        )
        assert (
            via_schedule.observed_channel_rounds
            == via_rounds.observed_channel_rounds
        )
        assert rounds_digest(expected, via_rounds) == RESTRICTED_DELTA_EXPANSION

    def test_redaction_hides_unmonitored_delta_frames(self):
        net = RestrictedListeningNetwork(8, 3, 1, StickyEavesdropper([1]))
        net.execute_schedule(self._delta_schedule())
        for record in net.redacted_trace:
            # Channels 0 and 2 carried the delta frames; the adversary
            # monitored only channel 1, so its record does not even show
            # them touched: every channel it remembers is silent.
            assert dict(record.delivered) == {}
            assert record.meta["monitored"] == (1,)


class TestRedaction:
    def test_monitored_channel_visible(self):
        net = RestrictedListeningNetwork(6, 3, 1, StickyEavesdropper([1]))
        net.execute_round({0: Transmit(1, frame("seen")), 2: Listen(1)})
        record = net.redacted_trace[0]
        assert record.delivered[1] is not None
        assert record.actions[0].channel == 1

    def test_unmonitored_channel_hidden(self):
        net = RestrictedListeningNetwork(6, 3, 1, StickyEavesdropper([0]))
        net.execute_round({0: Transmit(2, frame("hidden")), 2: Listen(2)})
        record = net.redacted_trace[0]
        assert 2 not in record.delivered  # redacted: reads as silence
        assert 0 not in record.actions  # transmit action hidden too
        # The full trace (simulator ground truth) still has everything.
        assert net.trace[0].delivered[2] is not None

    def test_monitored_channels_recorded_in_meta(self):
        net = RestrictedListeningNetwork(6, 3, 1, StickyEavesdropper([2]))
        net.execute_round({1: Listen(0)})
        assert net.redacted_trace[0].meta["monitored"] == (2,)
        assert net.observed_channel_rounds == 1

    def test_listen_budget_enforced(self):
        class Greedy(MonitoringAdversary):
            def monitor(self, view):
                return list(range(view.channels))

        net = RestrictedListeningNetwork(6, 3, 1, Greedy())
        with pytest.raises(ProtocolViolation, match="listen budget"):
            net.execute_round({1: Listen(0)})

    def test_invalid_monitor_channel_rejected(self):
        net = RestrictedListeningNetwork(6, 3, 1, StickyEavesdropper([9]))
        with pytest.raises(ProtocolViolation, match="out of range"):
            net.execute_round({1: Listen(0)})

    def test_transmit_budget_still_enforced(self):
        class JamTooMuch(MonitoringAdversary):
            def monitor(self, view):
                return []

            def act(self, view):
                return (Transmission(0, JAM), Transmission(1, JAM))

        net = RestrictedListeningNetwork(6, 3, 1, JamTooMuch())
        with pytest.raises(ProtocolViolation, match="budget"):
            net.execute_round({1: Listen(0)})

    def test_needs_monitoring_adversary(self):
        from repro.adversary import NullAdversary

        with pytest.raises(ConfigurationError):
            RestrictedListeningNetwork(6, 3, 1, NullAdversary())  # type: ignore[arg-type]

    def test_adversary_sees_only_redacted_history(self):
        seen = []

        class Spy(MonitoringAdversary):
            def monitor(self, view):
                if len(view.history) > 0:
                    seen.append(view.history[0].delivered.get(2))
                return [0]

        net = RestrictedListeningNetwork(6, 3, 1, Spy())
        net.execute_round({0: Transmit(2, frame("private")), 1: Listen(2)})
        net.execute_round({1: Listen(0)})
        assert seen == [None]  # round-0 channel 2 was not monitored


class TestEavesdroppers:
    def test_sticky_respects_budget(self):
        net = RestrictedListeningNetwork(6, 4, 2, StickyEavesdropper([0, 1, 2]))
        net.execute_round({1: Listen(0)})
        assert net.redacted_trace[0].meta["monitored"] == (0, 1)

    def test_hopping_changes_channels(self):
        net = RestrictedListeningNetwork(
            6, 4, 2, HoppingEavesdropper(random.Random(0))
        )
        for _ in range(6):
            net.execute_round({1: Listen(0)})
        monitored = [r.meta["monitored"] for r in net.redacted_trace]
        assert len(set(monitored)) > 1


class TestShareSpray:
    def test_shares_reach_receiver_with_enough_repetitions(self):
        net = RestrictedListeningNetwork(
            8, 3, 1, HoppingEavesdropper(random.Random(1))
        )
        res = run_share_spray(
            net, 0, 1, RngRegistry(seed=2), shares=3, repetitions=40
        )
        assert res.receiver_has_pad

    def test_single_repetition_rarely_delivers(self):
        successes = 0
        for seed in range(20):
            net = RestrictedListeningNetwork(
                8, 3, 1, HoppingEavesdropper(random.Random(seed))
            )
            res = run_share_spray(
                net, 0, 1, RngRegistry(seed=seed), shares=3, repetitions=1
            )
            successes += res.receiver_has_pad
        assert successes < 10

    def test_secrecy_fails_at_high_repetitions(self):
        # The tension behind the Q2 conjecture: what is reliable enough for
        # the receiver is observable enough for the eavesdropper.
        leaks = 0
        for seed in range(15):
            net = RestrictedListeningNetwork(
                8, 3, 1, HoppingEavesdropper(random.Random(seed))
            )
            res = run_share_spray(
                net, 0, 1, RngRegistry(seed=100 + seed), shares=3,
                repetitions=40,
            )
            if res.adversary_has_pad:
                leaks += 1
        assert leaks >= 12

    def test_result_accounting(self):
        net = RestrictedListeningNetwork(
            8, 3, 1, StickyEavesdropper([0])
        )
        res = run_share_spray(
            net, 0, 1, RngRegistry(seed=3), shares=2, repetitions=5
        )
        assert res.rounds == 2 * 5
        assert res.information_theoretically_secret == (
            len(res.adversary_shares) < 2
        )

    def test_forged_share_with_unhashable_index_is_skipped(self):
        # A forged share whose index is a list used to crash the tally of
        # both the receiver's and the eavesdropper's shares.
        class ForgingEavesdropper(MonitoringAdversary):
            def monitor(self, view):
                return [0]

            def act(self, view):
                forged = Message(SHARE_KIND, 0, ("share", [1]))
                return [Transmission(0, forged)]

        net = RestrictedListeningNetwork(8, 4, 1, ForgingEavesdropper())
        res = run_share_spray(
            net, 0, 5, RngRegistry(seed=6), shares=4, repetitions=8
        )
        assert net.metrics.spoofs_delivered > 0
        assert res.rounds == 4 * 8
        assert res.receiver_shares <= set(range(4))
        assert res.adversary_shares <= set(range(4))

    def test_sender_receiver_must_differ(self):
        net = RestrictedListeningNetwork(8, 3, 1, StickyEavesdropper([0]))
        with pytest.raises(ConfigurationError):
            run_share_spray(net, 1, 1, RngRegistry(seed=0))
