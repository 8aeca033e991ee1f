"""Tests for the group-key protocol (Section 6) and the leader spanner."""

from __future__ import annotations

import random

import pytest

from repro.adversary import (
    RandomJammer,
    ScheduleAwareJammer,
    SpoofingAdversary,
    SweepJammer,
)
from repro.crypto.dh import TEST_GROUP_64
from repro.crypto.stream import AuthenticatedCipher
from repro.errors import ConfigurationError
from repro.groupkey import (
    GroupKeyProtocol,
    choose_leaders,
    establish_group_key,
    leader_spanner,
    spanner_size,
)
from repro.groupkey.protocol import REPORT_KIND
from repro.radio.messages import Message
from repro.radio.network import keyed_epoch_rounds
from repro.rng import RngRegistry

from conftest import make_network


class TestSpanner:
    def test_choose_leaders_lowest_ids(self):
        assert choose_leaders(10, 2) == (0, 1, 2)

    def test_choose_leaders_population_check(self):
        with pytest.raises(ConfigurationError):
            choose_leaders(3, 2)

    def test_spanner_contains_both_directions(self):
        pairs = set(leader_spanner(6, 1))
        assert (0, 5) in pairs and (5, 0) in pairs
        assert (1, 3) in pairs and (3, 1) in pairs

    def test_spanner_excludes_non_leader_pairs(self):
        pairs = set(leader_spanner(6, 1))
        assert (3, 4) not in pairs
        assert (4, 5) not in pairs

    def test_spanner_size_formula(self):
        for n, t in ((6, 1), (10, 2), (17, 1)):
            assert len(leader_spanner(n, t)) == spanner_size(n, t)

    def test_spanner_size_is_order_nt(self):
        # Paper: the spanner has O(n(t+1)) edges, vs n(n-1) for all pairs.
        n = 40
        assert spanner_size(n, 1) < 4 * n * 2
        assert spanner_size(n, 1) < n * (n - 1)

    def test_custom_leaders(self):
        pairs = leader_spanner(6, 1, leaders=[4, 5])
        sources_or_dests = {v for p in pairs for v in p}
        assert {4, 5} <= sources_or_dests
        assert all(4 in p or 5 in p for p in pairs)

    def test_wrong_leader_count_rejected(self):
        with pytest.raises(ConfigurationError):
            leader_spanner(6, 1, leaders=[0, 1, 2])

    def test_out_of_range_leader_rejected(self):
        with pytest.raises(ConfigurationError):
            leader_spanner(6, 1, leaders=[0, 9])


class TestGroupKeyHappyPath:
    def test_all_nodes_adopt_without_adversary(self):
        net = make_network(n=18, channels=2, t=1, keep_trace=False)
        res = establish_group_key(net, RngRegistry(seed=1), group=TEST_GROUP_64)
        assert res.group_key is not None
        assert len(res.holders()) == 18
        assert res.expected_leader == 0

    def test_pairwise_keys_cover_spanner(self):
        net = make_network(n=18, channels=2, t=1, keep_trace=False)
        res = establish_group_key(net, RngRegistry(seed=2), group=TEST_GROUP_64)
        # Without interference every leader pair establishes a key.
        assert len(res.pairwise_established) == spanner_size(18, 1) // 2

    def test_round_accounting(self):
        net = make_network(n=18, channels=2, t=1, keep_trace=False)
        res = establish_group_key(net, RngRegistry(seed=3), group=TEST_GROUP_64)
        assert res.part1_rounds > res.part2_rounds > res.part3_rounds > 0
        assert res.total_rounds == net.metrics.rounds

    def test_deterministic_given_seed(self):
        def run(seed):
            net = make_network(n=18, channels=2, t=1, keep_trace=False)
            return establish_group_key(
                net, RngRegistry(seed=seed), group=TEST_GROUP_64
            )

        a, b = run(7), run(7)
        assert a.group_key == b.group_key
        assert a.summary() == b.summary()

    def test_part2_seals_once_per_epoch(self, monkeypatch):
        # Each keyed epoch repeats one sealed frame on every hop: one
        # encrypt per pair that holds a key, each under its own nonce.
        seals = []
        encrypt = AuthenticatedCipher.encrypt

        def counted(cipher, plaintext, nonce, associated=b""):
            seals.append(nonce)
            return encrypt(cipher, plaintext, nonce, associated)

        monkeypatch.setattr(AuthenticatedCipher, "encrypt", counted)
        net = make_network(n=18, channels=2, t=1, keep_trace=False)
        proto = GroupKeyProtocol(net, RngRegistry(seed=1), group=TEST_GROUP_64)
        res = proto.run()
        keyed = [
            (v, w)
            for v in proto.leaders
            for w in range(18)
            if w != v and frozenset((v, w)) in res.pairwise_keys
        ]
        assert len(seals) == len(keyed) == len(set(seals))
        assert res.part2_rounds == 17 * len(proto.leaders) * (
            keyed_epoch_rounds(net)
        )


class TestGroupKeyUnderAttack:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_t_reliability_under_random_jamming(self, seed):
        net = make_network(
            n=18, channels=2, t=1,
            adversary=RandomJammer(random.Random(seed)),
            keep_trace=False,
        )
        res = establish_group_key(net, RngRegistry(seed=10 + seed), group=TEST_GROUP_64)
        assert res.group_key is not None
        assert len(res.holders()) >= 18 - 1

    def test_t_reliability_under_schedule_aware_jamming(self):
        net = make_network(
            n=18, channels=2, t=1,
            adversary=ScheduleAwareJammer(random.Random(2), policy="prefix"),
            keep_trace=False,
        )
        res = establish_group_key(net, RngRegistry(seed=20), group=TEST_GROUP_64)
        assert res.group_key is not None
        assert len(res.holders()) >= 17

    def test_non_holders_know_they_lack_the_key(self):
        net = make_network(
            n=18, channels=2, t=1,
            adversary=ScheduleAwareJammer(
                random.Random(3), policy="victims", victims=[5]
            ),
            keep_trace=False,
        )
        res = establish_group_key(net, RngRegistry(seed=30), group=TEST_GROUP_64)
        for node in res.non_holders():
            # Either adopted nothing, or (the documented Part 3 subtlety)
            # adopted some other *honest* leader's key — never junk.
            adopted = res.adopted[node]
            assert adopted is None or adopted in res.leader_keys.values()

    def test_secrecy_key_never_broadcast_in_clear(self):
        # Scan every radio frame of the run: no payload may contain the
        # group key bytes outside authenticated ciphertext bodies.
        net = make_network(
            n=18, channels=2, t=1,
            adversary=RandomJammer(random.Random(4)),
        )
        res = establish_group_key(net, RngRegistry(seed=40), group=TEST_GROUP_64)
        key = res.group_key
        assert key is not None
        for record in net.trace:
            for action in record.actions.values():
                from repro.radio.actions import Transmit

                if isinstance(action, Transmit):
                    payload = action.message.payload
                    assert not _contains_bytes(payload, key)

    def test_report_with_unhashable_leader_is_skipped(self):
        # A spoofed Part 3 report from a real reporter id whose leader
        # field is a list used to crash the receivers' tally.
        def forge(view, channel):
            return Message(REPORT_KIND, 2, (2, [0], b"h"))

        net = make_network(
            n=18, channels=2, t=1,
            adversary=SpoofingAdversary(random.Random(5), forge=forge),
        )
        res = establish_group_key(net, RngRegistry(seed=50), group=TEST_GROUP_64)
        part3_spoofs = [
            index
            for index, _channel, msg in net.trace.spoofed_deliveries()
            if net.trace[index].meta["phase"] == "groupkey-part3"
        ]
        assert part3_spoofs  # the forgery did land in Part 3
        assert len(res.holders()) >= 18 - 1
        for node in res.non_holders():
            adopted = res.adopted[node]
            assert adopted is None or adopted in res.leader_keys.values()


def _contains_bytes(value, needle: bytes) -> bool:
    """True when `needle` appears verbatim inside a payload structure."""
    if isinstance(value, (bytes, bytearray)):
        return bytes(value) == needle
    if isinstance(value, (tuple, list)):
        return any(_contains_bytes(v, needle) for v in value)
    if isinstance(value, dict):
        return any(_contains_bytes(v, needle) for v in value.values())
    return False


class TestConfiguration:
    def test_wrong_leader_count_rejected(self):
        net = make_network(n=18, channels=2, t=1)
        with pytest.raises(ConfigurationError):
            GroupKeyProtocol(net, RngRegistry(seed=0), leaders=[0, 1, 2])

    def test_reporter_shortage_rejected(self):
        # Part 3 needs 2t+1 non-leader reporters.
        net = make_network(n=18, channels=2, t=1)
        proto = GroupKeyProtocol(net, RngRegistry(seed=0), group=TEST_GROUP_64)
        # Run with an artificially tiny population view to hit the check.
        from repro.groupkey.result import GroupKeyResult

        proto.n = 3
        result = GroupKeyResult(n=3, t=1, leaders=(0, 1))
        with pytest.raises(ConfigurationError, match="reporter"):
            proto._part3_agree({}, result)


class TestChannelAwarePart2:
    def test_more_channels_cheaper_dissemination(self):
        # "With more channels, the cost can be reduced accordingly"
        # (Section 6): at C = 4 > 2t the channel-aware Part 2 epochs are
        # shorter, and the keys still arrive.
        def run(channel_aware):
            net = make_network(
                n=18, channels=4, t=1,
                adversary=RandomJammer(random.Random(5)),
                keep_trace=False,
            )
            proto = GroupKeyProtocol(
                net, RngRegistry(seed=50), group=TEST_GROUP_64,
                channel_aware=channel_aware,
            )
            return proto.run()

        base = run(channel_aware=False)
        aware = run(channel_aware=True)
        assert aware.part2_rounds < base.part2_rounds
        assert len(aware.holders()) >= 17
        assert len(base.holders()) >= 17
