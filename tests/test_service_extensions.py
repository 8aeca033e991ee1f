"""Tests for the service extensions: pairwise channels, re-keying, and
channel-aware epoch lengths."""

from __future__ import annotations

import random

import pytest

from repro.adversary import RandomJammer, SpoofingAdversary
from repro.crypto.dh import TEST_GROUP_64
from repro.errors import ConfigurationError
from repro.params import DEFAULT_PARAMETERS
from repro.radio.messages import Message
from repro.rng import RngRegistry
from repro.service import LongLivedChannel, PairwiseChannel, SecureSession

from conftest import make_network

KEY = b"p" * 32


class TestHoppingEpochRounds:
    def test_base_matches_t_log_n_shape(self):
        p = DEFAULT_PARAMETERS
        # At C = t+1 the channel-aware formula is Θ(t log n): it must grow
        # roughly linearly in t.
        e1 = p.hopping_epoch_rounds(64, 2, 1)
        e4 = p.hopping_epoch_rounds(64, 5, 4)
        assert e4 > 2 * e1 / 2  # grows with t
        assert e4 > e1

    def test_2t_channels_give_log_n(self):
        p = DEFAULT_PARAMETERS
        n = 64
        # C = 2t: log2(C/t) = 1, epoch = factor * log2 n exactly.
        assert p.hopping_epoch_rounds(n, 4, 2) == p.hopping_epoch_rounds(n, 8, 4)

    def test_more_channels_shorter_epochs(self):
        p = DEFAULT_PARAMETERS
        base = p.hopping_epoch_rounds(64, 3, 2)
        double = p.hopping_epoch_rounds(64, 4, 2)
        wide = p.hopping_epoch_rounds(64, 16, 2)
        assert base > double > wide

    def test_t_zero(self):
        assert DEFAULT_PARAMETERS.hopping_epoch_rounds(64, 2, 0) >= 1

    def test_saturated_channels_rejected(self):
        with pytest.raises(ConfigurationError):
            DEFAULT_PARAMETERS.hopping_epoch_rounds(64, 2, 2)


class TestChannelAwareService:
    def test_epoch_shrinks_with_channels(self):
        net_wide = make_network(n=12, channels=4, t=1)
        ch_aware = LongLivedChannel(
            net_wide, KEY, list(range(12)), channel_aware_epochs=True
        )
        ch_base = LongLivedChannel(net_wide, KEY, list(range(12)))
        assert ch_aware.epoch_length() < ch_base.epoch_length()

    def test_channel_aware_still_delivers_under_jamming(self):
        net = make_network(
            n=12, channels=4, t=1, adversary=RandomJammer(random.Random(1))
        )
        ch = LongLivedChannel(
            net, KEY, list(range(12)), channel_aware_epochs=True
        )
        out = ch.run_round({0: b"fast"})
        assert all(d is not None and d.payload == b"fast" for d in out.values())


class TestPairwiseChannel:
    def test_round_trip_both_directions(self):
        net = make_network(n=20, channels=2, t=1)
        ch = PairwiseChannel(net, KEY, 3, 9)
        d1 = ch.send(3, b"to nine")
        d2 = ch.send(9, b"to three")
        assert d1.payload == b"to nine" and d1.sender == 3
        assert d2.payload == b"to three" and d2.sender == 9
        assert d2.exchange == 1

    def test_delivery_under_jamming(self):
        net = make_network(
            n=20, channels=2, t=1, adversary=RandomJammer(random.Random(2))
        )
        ch = PairwiseChannel(net, KEY, 0, 1)
        assert ch.send(0, b"x").payload == b"x"

    def test_epoch_cost_theta_t_log_n(self):
        net = make_network(n=20, channels=2, t=1)
        ch = PairwiseChannel(net, KEY, 3, 9)
        ch.send(3, b"x")
        assert net.metrics.rounds == ch.epoch_length()
        assert ch.epoch_length() == net.params.dissemination_epoch_rounds(20, 1)

    def test_channel_aware_epochs_cheaper(self):
        net = make_network(n=20, channels=4, t=1)
        fast = PairwiseChannel(net, KEY, 3, 9, channel_aware_epochs=True)
        slow = PairwiseChannel(net, KEY, 3, 9)
        assert fast.epoch_length() < slow.epoch_length()
        assert fast.send(3, b"quick").payload == b"quick"

    def test_forged_frames_rejected(self):
        def forge(view, channel):
            return Message(
                kind="pairwise-frame",
                sender=3,
                payload=(3, 0, (b"n", b"junk", b"t" * 32)),
            )

        net = make_network(
            n=20, channels=2, t=1,
            adversary=SpoofingAdversary(
                random.Random(3), forge=forge, target_scheduled=False
            ),
        )
        ch = PairwiseChannel(net, KEY, 3, 9)
        # The real sender also transmits; the forgery can only collide or
        # land between hops — either way it is never accepted.
        d = ch.send(3, b"real")
        assert d is None or d.payload == b"real"

    def test_endpoint_validation(self):
        net = make_network(n=20, channels=2, t=1)
        with pytest.raises(ConfigurationError):
            PairwiseChannel(net, KEY, 3, 3)
        with pytest.raises(ConfigurationError):
            PairwiseChannel(net, KEY, 3, 99)
        with pytest.raises(ConfigurationError):
            PairwiseChannel(net, b"short", 3, 9)
        ch = PairwiseChannel(net, KEY, 3, 9)
        with pytest.raises(ConfigurationError):
            ch.send(5, b"not an endpoint")
        with pytest.raises(ConfigurationError):
            ch.send(3, "not bytes")  # type: ignore[arg-type]

    @pytest.mark.parametrize(
        "a, b", [(0, 1.5), (0, "1"), (True, 3), (2.0, 3)], ids=repr
    )
    def test_non_int_endpoint_rejected(self, a, b):
        # (0, 1.5) used to be accepted as is, and (0, "1") raised a bare
        # TypeError from the range check; send took sender True as
        # endpoint 1 and raised a bare AttributeError on sender 2.0.
        net = make_network(n=20, channels=2, t=1)
        with pytest.raises(ConfigurationError, match="must be int"):
            PairwiseChannel(net, KEY, a, b)
        bad = a if type(a) is not int else b
        ch = PairwiseChannel(net, KEY, int(a), int(b))
        with pytest.raises(ConfigurationError, match="must be int"):
            ch.send(bad, b"y")

    def test_exchanges_use_distinct_patterns(self):
        # Two channels over different keys must hop differently.
        net = make_network(n=20, channels=2, t=1)
        a = PairwiseChannel(net, KEY, 3, 9)
        b = PairwiseChannel(net, b"q" * 32, 3, 9)
        seq_a = [a._hopper.channel(i) for i in range(40)]
        seq_b = [b._hopper.channel(i) for i in range(40)]
        assert seq_a != seq_b


class TestRekey:
    @pytest.fixture()
    def session(self):
        net = make_network(
            n=18, channels=2, t=1,
            adversary=RandomJammer(random.Random(4)),
            keep_trace=False,
        )
        return SecureSession(net, RngRegistry(seed=21), group=TEST_GROUP_64)

    def test_rekey_excludes_compromised(self, session):
        victim = session.members[5]
        report = session.rekey(compromised=[victim])
        assert victim not in report.members
        assert victim not in session.channel.members
        assert report.generation == 1
        assert len(report.members) >= len(session.setup.holders()) - 2

    def test_channel_works_after_rekey(self, session):
        victim = session.members[5]
        report = session.rekey(compromised=[victim])
        sender = report.members[0]
        session.send(sender, b"fresh epoch")
        session.flush()
        other = report.members[1]
        assert any(
            d.payload == b"fresh epoch" for d in session.inbox(other)
        )

    def test_new_key_differs_and_old_channel_gone(self, session):
        old_channel = session.channel
        session.rekey(compromised=[session.members[-1]])
        assert session.channel is not old_channel

    def test_successive_rekeys(self, session):
        r1 = session.rekey(compromised=[session.members[5]])
        r2 = session.rekey(compromised=[r1.members[-1]])
        assert r2.generation == 2
        assert len(r2.members) <= len(r1.members)

    def test_rekey_without_surviving_leader_rejected(self, session):
        leaders = list(session.setup.completed_leaders)
        with pytest.raises(ConfigurationError, match="leader"):
            session.rekey(compromised=leaders)

    def test_rekey_cost_is_part2_scale(self, session):
        report = session.rekey(compromised=[session.members[5]])
        # One epoch per member — far below the full setup cost.
        assert report.rounds < session.stats.setup_rounds / 2
