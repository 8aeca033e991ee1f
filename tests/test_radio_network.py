"""Tests for the radio substrate: per-channel resolution, validation, spoofs."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, ProtocolViolation
from repro.params import ProtocolParameters
from repro.radio.actions import Listen, Sleep, Transmit
from repro.radio.messages import JAM, Jam, Message, Transmission
from repro.radio.network import (
    AdversaryView,
    CompiledRound,
    RadioNetwork,
    RoundMeta,
    RoundSchedule,
)
from repro.adversary.base import Adversary

from conftest import make_network


def msg(kind="data", sender=0, payload=None) -> Message:
    return Message(kind=kind, sender=sender, payload=payload)


class FixedAdversary(Adversary):
    """Transmits a fixed plan every round (test double)."""

    def __init__(self, plan):
        self.plan = plan

    def act(self, view):
        return self.plan


class TestDeliveryRules:
    def test_single_transmitter_delivers_to_listeners(self):
        net = make_network(n=4)
        out = net.execute_round(
            {0: Transmit(0, msg(payload="hi")), 1: Listen(0), 2: Listen(0)}
        )
        assert out[1].payload == "hi"
        assert out[2].payload == "hi"

    def test_two_transmitters_collide(self):
        net = make_network(n=4)
        out = net.execute_round(
            {0: Transmit(0, msg()), 1: Transmit(0, msg()), 2: Listen(0)}
        )
        assert out[2] is None

    def test_silence_heard_as_none(self):
        net = make_network(n=4)
        out = net.execute_round({2: Listen(1)})
        assert out[2] is None

    def test_listener_on_other_channel_hears_nothing(self):
        net = make_network(n=4)
        out = net.execute_round(
            {0: Transmit(0, msg(payload="x")), 1: Listen(1)}
        )
        assert out[1] is None

    def test_transmitter_absent_from_results(self):
        net = make_network(n=4)
        out = net.execute_round({0: Transmit(0, msg()), 1: Listen(0)})
        assert 0 not in out

    def test_sleeper_absent_from_results(self):
        net = make_network(n=4)
        out = net.execute_round({0: Sleep(), 1: Listen(0)})
        assert 0 not in out

    def test_no_collision_detection_jam_looks_like_silence(self):
        # A jam on an empty channel and true silence are indistinguishable.
        net = make_network(
            n=4, adversary=FixedAdversary([Transmission(0, JAM)])
        )
        out = net.execute_round({1: Listen(0)})
        assert out[1] is None


class TestAdversaryInteraction:
    def test_jam_suppresses_delivery(self):
        net = make_network(
            n=4, adversary=FixedAdversary([Transmission(0, JAM)])
        )
        out = net.execute_round({0: Transmit(0, msg(payload="x")), 1: Listen(0)})
        assert out[1] is None

    def test_spoof_on_empty_channel_is_delivered(self):
        fake = msg(kind="spoof", sender=9, payload="fake")
        net = make_network(
            n=4, adversary=FixedAdversary([Transmission(1, fake)])
        )
        out = net.execute_round({1: Listen(1)})
        assert out[1] == fake
        assert net.metrics.spoofs_delivered == 1

    def test_spoof_on_occupied_channel_only_collides(self):
        fake = msg(kind="spoof", sender=9)
        net = make_network(
            n=4, adversary=FixedAdversary([Transmission(0, fake)])
        )
        out = net.execute_round({0: Transmit(0, msg(payload="real")), 1: Listen(0)})
        assert out[1] is None
        assert net.metrics.spoofs_delivered == 0

    def test_budget_enforced(self):
        net = make_network(
            n=4,
            channels=3,
            t=1,
            adversary=FixedAdversary(
                [Transmission(0, JAM), Transmission(1, JAM)]
            ),
        )
        with pytest.raises(ProtocolViolation, match="budget"):
            net.execute_round({2: Listen(0)})

    def test_duplicate_channel_rejected(self):
        net = make_network(
            n=4,
            channels=3,
            t=2,
            adversary=FixedAdversary(
                [Transmission(0, JAM), Transmission(0, JAM)]
            ),
        )
        with pytest.raises(ProtocolViolation, match="twice"):
            net.execute_round({2: Listen(0)})

    def test_invalid_adversary_channel_rejected(self):
        net = make_network(
            n=4, adversary=FixedAdversary([Transmission(7, JAM)])
        )
        with pytest.raises(ProtocolViolation, match="invalid channel"):
            net.execute_round({2: Listen(0)})

    def test_view_hides_current_round_and_shows_history(self):
        # The view must contain only *completed* rounds at decision time
        # (the trace object is live, so length is sampled inside act()).
        seen_lengths: list[int] = []
        seen_first_record: list = []

        class Spy(Adversary):
            def act(self, view):
                seen_lengths.append(len(view.history))
                if len(view.history) > 0:
                    seen_first_record.append(view.history[0])
                return ()

        net = make_network(n=4, adversary=Spy())
        net.execute_round({0: Transmit(0, msg(payload="r0")), 1: Listen(0)})
        net.execute_round({1: Listen(0)})
        assert seen_lengths == [0, 1]
        assert seen_first_record[0].actions[0] == Transmit(0, msg(payload="r0"))


class TestValidation:
    def test_unknown_node_rejected(self):
        net = make_network(n=4)
        with pytest.raises(ProtocolViolation, match="unknown node"):
            net.execute_round({7: Listen(0)})

    def test_invalid_channel_rejected(self):
        net = make_network(n=4)
        with pytest.raises(ProtocolViolation, match="invalid channel"):
            net.execute_round({0: Listen(5)})

    def test_invalid_action_rejected(self):
        net = make_network(n=4)
        with pytest.raises(ProtocolViolation, match="unknown action"):
            net.execute_round({0: "transmit"})  # type: ignore[dict-item]

    def test_model_constraints_checked_at_construction(self):
        with pytest.raises(ConfigurationError):
            RadioNetwork(4, 2, 2)  # t >= C

    def test_round_cap(self):
        net = make_network(
            n=4, params=ProtocolParameters(max_rounds=2).validate()
        )
        net.execute_round({0: Listen(0)})
        net.execute_round({0: Listen(0)})
        with pytest.raises(ProtocolViolation, match="round cap"):
            net.execute_round({0: Listen(0)})

    def test_history_requiring_adversary_needs_trace(self):
        class Hist(Adversary):
            needs_history = True

            def act(self, view):
                return ()

        with pytest.raises(ConfigurationError, match="history"):
            make_network(n=4, adversary=Hist(), keep_trace=False)


class TestHopRows:
    """A compiled round holds its listeners as a node tuple plus one
    ``bytes`` hop row; every malformed row is a ProtocolViolation."""

    MSG = Message(kind="x", sender=0)

    def _resolve(self, cr, *, n=8, channels=3):
        net = RadioNetwork(n, channels, 1)
        return net.execute_schedule(RoundSchedule([cr]))

    @pytest.mark.parametrize(
        "listeners, hops, match",
        [
            ((1, 9), b"\x00\x01", "unknown node id 9"),
            ((1, -1), b"\x00\x01", "unknown node id -1"),
            ((1, 2, 1), b"\x00\x01\x02", "listen twice"),
            ((0, 2), b"\x00\x01", "both transmit and listen"),
            ((1, 2), b"\x00\x03", "invalid channel 3"),
            ((1, 2), b"\x00", "2 listeners"),
            ((1,), b"\x00\x00", "1 listeners"),
        ],
    )
    def test_malformed_row_rejected(self, listeners, hops, match):
        cr = CompiledRound(
            {0: Transmit(0, self.MSG)}, listeners, hops, RoundMeta()
        )
        with pytest.raises(ProtocolViolation, match=match):
            self._resolve(cr)

    def test_row_settles_listeners_by_channel(self):
        cr = CompiledRound(
            {0: Transmit(1, self.MSG)}, (4, 2, 3), b"\x01\x00\x01", RoundMeta()
        )
        assert self._resolve(cr) == [{1: self.MSG}]
        # A delivering channel nobody listens on is not in the result.
        lonely = CompiledRound(
            {0: Transmit(1, self.MSG)}, (2,), b"\x00", RoundMeta()
        )
        assert self._resolve(lonely) == [{}]

    @pytest.mark.parametrize("channel", [-1, 300])
    def test_non_byte_channel_is_a_protocol_violation(self, channel):
        net = make_network(n=4)
        with pytest.raises(ProtocolViolation, match="invalid channel"):
            net.execute_round({0: Listen(channel)})
        with pytest.raises(ProtocolViolation, match="invalid channel"):
            CompiledRound.make({}, {channel: [1]})

    def test_make_flattens_groups_and_listens_is_a_view(self):
        groups = {2: [5, 1], 0: [3], 1: [4, 6]}
        cr = CompiledRound.make({0: Transmit(0, self.MSG)}, groups)
        assert cr.listeners == (5, 1, 3, 4, 6)
        assert cr.hops == bytes([2, 2, 0, 1, 1])
        assert cr.listens == groups
        assert cr.as_actions() == {
            0: Transmit(0, self.MSG),
            5: Listen(2),
            1: Listen(2),
            3: Listen(0),
            4: Listen(1),
            6: Listen(1),
        }

    def test_more_than_256_channels_rejected(self):
        with pytest.raises(ConfigurationError, match="256"):
            RadioNetwork(8, 257, 1)
        assert RadioNetwork(8, 256, 1).channels == 256


class TestBookkeeping:
    def test_metrics_counts(self):
        net = make_network(n=6)
        net.execute_round(
            {0: Transmit(0, msg()), 1: Transmit(0, msg()), 2: Listen(0), 3: Listen(1)}
        )
        m = net.metrics
        assert m.rounds == 1
        assert m.honest_transmissions == 2
        assert m.listens == 2
        assert m.collisions == 1
        assert m.deliveries == 0

    def test_phase_attribution(self):
        net = make_network(n=4)
        net.execute_round({0: Listen(0)}, RoundMeta(phase="alpha"))
        net.execute_round({0: Listen(0)}, RoundMeta(phase="alpha"))
        net.execute_round({0: Listen(0)}, RoundMeta(phase="beta"))
        assert net.metrics.rounds_by_phase == {"alpha": 2, "beta": 1}

    def test_keep_trace_false_discards_records(self):
        net = make_network(n=4, keep_trace=False)
        net.execute_round({0: Listen(0)})
        assert len(net.trace) == 0
        assert net.metrics.rounds == 1

    def test_round_index_advances(self):
        net = make_network(n=4)
        assert net.round_index == 0
        net.execute_round({0: Listen(0)})
        assert net.round_index == 1


class TestRoundMeta:
    def test_as_dict_includes_schedule_and_extra(self):
        meta = RoundMeta(
            phase="p", schedule={"k": 1}, extra={"move": 7}
        )
        d = meta.as_dict()
        assert d == {"phase": "p", "schedule": {"k": 1}, "move": 7}

    def test_as_dict_omits_missing_schedule(self):
        assert "schedule" not in RoundMeta(phase="p").as_dict()
