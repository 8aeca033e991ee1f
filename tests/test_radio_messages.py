"""Unit tests for message/transmission payload types and size accounting."""

from __future__ import annotations

from repro.radio.messages import DELTA_KIND, JAM, DeltaFrame, Jam, Message, Transmission
from repro.radio.metrics import frame_size, payload_size


class TestMessage:
    def test_repr_compact(self):
        msg = Message("ame-data", sender=3, payload=(1, 2))
        assert repr(msg) == "Message('ame-data', from=3, (1, 2))"

    def test_equality_by_value(self):
        assert Message("k", 1, "p") == Message("k", 1, "p")
        assert Message("k", 1, "p") != Message("k", 2, "p")

    def test_defaults(self):
        msg = Message("k")
        assert msg.sender is None and msg.payload is None

    def test_frozen(self):
        import pytest

        with pytest.raises(AttributeError):
            Message("k").kind = "other"  # type: ignore[misc]


class TestJam:
    def test_repr_with_and_without_note(self):
        assert repr(Jam()) == "Jam()"
        assert repr(Jam("victim 3")) == "Jam('victim 3')"

    def test_shared_default(self):
        assert JAM == Jam()


class TestTransmission:
    def test_default_payload_is_jam(self):
        assert Transmission(2).payload == JAM


class TestPayloadSize:
    def test_scalars_and_containers(self):
        assert payload_size(None) == 0
        assert payload_size(7) == 1
        assert payload_size("true") == 1
        assert payload_size(b"\x00" * 32) == 1
        assert payload_size((1, "a", (2, 3))) == 4
        assert payload_size({1: True, 2: False}) == 4
        assert payload_size(frozenset({1, 2, 3})) == 3
        assert payload_size(object()) == 1  # opaque payloads cost one unit

    def test_frame_size_counts_kind(self):
        assert frame_size(Message("feedback", 1, ("true", 4))) == 3
        assert frame_size(Message("k")) == 1

    def test_network_meters_honest_payloads_unless_gated_off(self):
        from repro.radio.actions import Listen, Transmit
        from repro.radio.network import CompiledRound, RadioNetwork

        msg = Message("k", sender=0, payload=("a", 1))  # frame size 3
        metered = RadioNetwork(4, 2, 0)
        metered.execute_round({0: Transmit(0, msg), 1: Listen(0)})
        metered.execute_schedule(
            [CompiledRound.make({0: Transmit(0, msg)}, {0: [1]})]
        )
        assert metered.metrics.payload_units == 6
        assert metered.metrics.honest_transmissions == 2


class TestDeltaFrame:
    def _frame(self, true_slots=(3, 5, 9)):
        return DeltaFrame(
            tag=(2, 1), digest=b"\x01" * 32, true_slots=true_slots
        )

    def test_wire_size_is_delta_plus_constants(self):
        # tag (2 units) + digest (1) + one unit per true slot.
        assert self._frame().wire_size() == 2 + 1 + 3
        # The equivalent full-frame payload ships (slot, flag) pairs for
        # the whole coverage: strictly more for any frame with >= 3 slots.
        full_equivalent = ((2, 1), ((3, True), (4, False), (5, True), (9, True)))
        assert self._frame().wire_size() < payload_size(full_equivalent)

    def test_payload_size_dispatches_to_wire_size(self):
        frame = self._frame()
        assert payload_size(frame) == frame.wire_size()
        msg = Message(DELTA_KIND, sender=0, payload=frame)
        assert frame_size(msg) == 1 + frame.wire_size()

    def test_value_equality_and_hashability(self):
        assert self._frame() == self._frame()
        assert hash(self._frame()) == hash(self._frame())
        assert self._frame() != self._frame(true_slots=(3, 5))
