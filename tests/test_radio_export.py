"""Tests for trace export and channel occupancy summaries."""

from __future__ import annotations

import json

from repro.adversary import SweepJammer
from repro.radio.actions import Listen, Sleep, Transmit
from repro.radio.export import (
    channel_occupancy,
    dump_trace,
    record_to_dict,
    trace_to_records,
)
from repro.radio.messages import Message
from repro.radio.network import RoundMeta

from conftest import make_network


def run_some_rounds(adversary=None):
    net = make_network(n=6, channels=2, t=1, adversary=adversary)
    net.execute_round(
        {0: Transmit(0, Message("data", sender=0, payload=(1, b"\x01"))),
         1: Listen(0), 2: Sleep()},
        RoundMeta(phase="alpha"),
    )
    net.execute_round(
        {0: Transmit(1, Message("data", sender=0)),
         3: Transmit(1, Message("data", sender=3)),
         4: Listen(1)},
        RoundMeta(phase="beta"),
    )
    return net


class TestRecordSerialization:
    def test_round_dict_shape(self):
        net = run_some_rounds()
        d = record_to_dict(net.trace[0])
        assert d["round"] == 0
        assert d["meta"]["phase"] == "alpha"
        assert d["actions"]["0"]["op"] == "transmit"
        assert d["actions"]["1"] == {"op": "listen", "channel": 0}
        assert "2" not in d["actions"]  # the sleeper is not recorded
        assert d["delivered"] == {"0": "data"}  # untouched 1: not listed

    def test_bytes_payloads_hex_encoded(self):
        net = run_some_rounds()
        d = record_to_dict(net.trace[0])
        payload = d["actions"]["0"]["payload"]
        assert payload == [1, {"hex": "01"}]

    def test_json_round_trip(self):
        net = run_some_rounds(adversary=SweepJammer())
        for record in trace_to_records(net.trace):
            assert json.loads(json.dumps(record)) == record

    def test_adversary_transmissions_recorded(self):
        net = run_some_rounds(adversary=SweepJammer())
        d = record_to_dict(net.trace[0])
        assert d["adversary"] == [{"channel": 0, "jam": True, "kind": None}]


class TestDumpTrace:
    def test_writes_json_lines(self, tmp_path):
        net = run_some_rounds()
        path = tmp_path / "trace.jsonl"
        count = dump_trace(net.trace, path)
        lines = path.read_text().strip().splitlines()
        assert count == 2 and len(lines) == 2
        assert json.loads(lines[1])["round"] == 1


class TestChannelOccupancy:
    def test_counts(self):
        net = run_some_rounds()
        stats = channel_occupancy(net.trace, 2)
        # Channel 0: one honest transmission, delivered.
        assert stats[0] == {
            "honest": 1, "adversary": 0, "collisions": 0, "delivered": 1,
        }
        # Channel 1: two honest transmitters in round 1 -> collision.
        assert stats[1]["collisions"] == 1
        assert stats[1]["delivered"] == 0

    def test_adversary_counted(self):
        net = run_some_rounds(adversary=SweepJammer())
        stats = channel_occupancy(net.trace, 2)
        assert stats[0]["adversary"] + stats[1]["adversary"] == 2
        # Round 0: jammer on channel 0 collides with the honest frame.
        assert stats[0]["collisions"] >= 1
