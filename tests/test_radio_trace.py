"""Tests for trace records and queries."""

from __future__ import annotations

import pytest

from repro.radio.actions import Listen, Transmit
from repro.radio.messages import JAM, Message, Transmission
from repro.radio.trace import ExecutionTrace, RoundRecord
from repro.radio.network import CompiledRound, RadioNetwork, RoundMeta
from repro.adversary import ReactiveJammer
from repro.adversary.base import Adversary
from repro.experiments import workloads
from repro.extensions.restricted_listening import (
    RestrictedListeningNetwork,
    StickyEavesdropper,
    run_share_spray,
)
from repro.fame import run_fame
from repro.rng import RngRegistry

from conftest import make_network
from oracles import spoofed_deliveries, was_spoofed


def _record(
    index=0,
    transmits=None,
    groups=None,
    adversary_transmissions=(),
    delivered=None,
    meta=None,
) -> RoundRecord:
    """A hand-built record of one compiled round: ``groups`` maps a
    channel to its listeners."""
    return RoundRecord(
        index,
        CompiledRound.make(transmits or {}, groups or {}, meta),
        adversary_transmissions,
        delivered or {},
    )


class TestRoundRecordQueries:
    def test_honest_transmitters_and_listeners(self):
        rec = _record(
            transmits={
                0: Transmit(0, Message("d")),
                1: Transmit(1, Message("d")),
            },
            groups={0: [2]},
        )
        assert rec.honest_transmitters(0) == [0]
        assert rec.honest_transmitters(1) == [1]
        assert rec.listeners(0) == [2]
        assert rec.listeners(1) == []

    def test_adversary_channels(self):
        rec = _record(
            adversary_transmissions=(Transmission(1, JAM),),
        )
        assert rec.adversary_channels() == {1}

    def test_was_spoofed_true_only_for_sole_adversary_delivery(self):
        fake = Message("spoof", sender=3)
        rec = _record(
            groups={0: [2]},
            adversary_transmissions=(Transmission(0, fake),),
            delivered={0: fake},
        )
        assert was_spoofed(rec, 0)

    def test_was_spoofed_false_when_honest_transmitter_present(self):
        real = Message("data", sender=0)
        rec = _record(
            transmits={0: Transmit(0, real)},
            delivered={0: real},
        )
        assert not was_spoofed(rec, 0)

    def test_was_spoofed_false_on_silence(self):
        rec = _record(delivered={0: None})
        assert not was_spoofed(rec, 0)


def _submitted_rounds(network) -> list[tuple[CompiledRound, bytes]]:
    """Every round submitted to ``network`` from now on, as its loop and
    hop row, in submission order (an instance-level wrapper, as the
    injectors use)."""
    rounds: list[tuple[CompiledRound, bytes]] = []
    resolve = network.execute_schedule

    def recording(loops):
        rounds.extend((loop, row) for loop in loops for row in loop.rows)
        return resolve(loops)

    network.execute_schedule = recording
    return rounds


class _Vandal(Adversary):
    """Reads history and tries to overwrite the last round's deliveries
    before each move; moves nothing."""

    needs_history = True

    def __init__(self) -> None:
        self.refused = 0

    def act(self, view):
        if len(view.history):
            try:
                view.history[len(view.history) - 1].delivered[1] = None
            except TypeError:
                self.refused += 1
        return ()


class TestRecordsShareTheirRounds:
    def test_history_runs_copy_nothing(self, monkeypatch):
        """A history-reading f-AME run and a redacting share spray keep
        every round without expanding one into per-node actions: each
        record holds the very compiled round its schedule submitted, or,
        for one repetition of a longer loop, a one-row round sharing the
        loop's template, listeners and meta and holding its very row."""

        def expanded(_round):
            raise AssertionError("a kept round was expanded per node")

        monkeypatch.setattr(CompiledRound, "as_actions", expanded)

        registry = RngRegistry(seed=3)
        fame_net = workloads.make_network(
            24, 4, 1, ReactiveJammer(registry.stream("adversary"))
        )
        fame_rounds = _submitted_rounds(fame_net)
        run_fame(
            fame_net,
            workloads.default_pairs(24, 4),
            rng=registry.spawn("fame"),
        )

        spray_net = RestrictedListeningNetwork(8, 3, 1, StickyEavesdropper([0]))
        spray_rounds = _submitted_rounds(spray_net)
        run_share_spray(spray_net, 0, 1, RngRegistry(seed=3))
        assert len(spray_net.redacted_trace) == len(spray_rounds)

        loops = 0
        for net, rounds in ((fame_net, fame_rounds), (spray_net, spray_rounds)):
            assert len(net.trace) == len(rounds) > 0
            for record, (loop, row) in zip(net.trace, rounds):
                kept = record.round
                if len(loop.rows) == 1:
                    assert kept is loop
                    continue
                loops += 1
                assert kept.transmits is loop.transmits
                assert kept.listeners is loop.listeners
                assert kept.meta is loop.meta
                (kept_row,) = kept.rows
                assert kept_row is row
        assert loops > 0  # the feedback loops ran as loops

    def test_records_are_read_only(self):
        """Rounds of one template share their settled deliveries, so a
        reader that writes into a record is refused and the template's
        later rounds resolve as the first did."""
        msg = Message("d", sender=0)
        cr = CompiledRound.make({0: Transmit(1, msg)}, {1: [2]})
        vandal = _Vandal()
        net = RadioNetwork(4, 2, 1, adversary=vandal)
        heard = net.execute_schedule([cr] * 3)
        assert heard == [{1: msg}] * 3
        assert vandal.refused == 2
        assert [dict(record.delivered) for record in net.trace] == [{1: msg}] * 3
        with pytest.raises(TypeError):
            net.trace[2].delivered[0] = msg
        assert net.execute_schedule([cr]) == [{1: msg}]
        assert dict(net.trace[3].delivered) == {1: msg}


class TestExecutionTrace:
    def test_append_iter_getitem(self):
        tr = ExecutionTrace()
        r0, r1 = _record(index=0), _record(index=1)
        tr.append(r0)
        tr.append(r1)
        assert len(tr) == 2
        assert list(tr) == [r0, r1]
        assert tr[1] is r1
        assert tr.rounds == (r0, r1)

    def test_spoofed_deliveries_found_in_live_network(self):
        fake = Message("spoof", sender=9, payload="forged")

        class OneShotSpoofer(Adversary):
            def act(self, view):
                if view.round_index == 0:
                    return (Transmission(1, fake),)
                return ()

        net = make_network(n=4, adversary=OneShotSpoofer())
        net.execute_round({2: Listen(1)}, RoundMeta(phase="x"))
        net.execute_round({2: Listen(1)})
        spoofs = spoofed_deliveries(net.trace)
        assert spoofs == [(0, 1, fake)]


class TestMetricsMerge:
    def test_merge_sums_counters_and_phases(self):
        from repro.radio.metrics import NetworkMetrics

        a = NetworkMetrics(rounds=2, collisions=1, rounds_by_phase={"x": 1})
        b = NetworkMetrics(
            rounds=3, deliveries=4, rounds_by_phase={"x": 1, "y": 1}
        )
        merged = a.merge(b)
        assert merged.rounds == 5
        assert merged.collisions == 1
        assert merged.deliveries == 4
        assert merged.rounds_by_phase == {"x": 2, "y": 1}
        # inputs untouched
        assert a.rounds == 2 and b.rounds == 3

    def test_merge_is_total_over_all_fields(self):
        """Every dataclass field participates in merge — enumerated, so a
        counter added later cannot be silently dropped."""
        import dataclasses

        from repro.radio.metrics import NetworkMetrics

        a = NetworkMetrics()
        b = NetworkMetrics()
        expected = {}
        for i, f in enumerate(dataclasses.fields(NetworkMetrics)):
            if f.name == "rounds_by_phase":
                setattr(a, f.name, {"p": 2 * i + 1, "only-a": 1})
                setattr(b, f.name, {"p": 5, "only-b": 2})
                expected[f.name] = {"p": 2 * i + 6, "only-a": 1, "only-b": 2}
            else:
                setattr(a, f.name, 2 * i + 1)
                setattr(b, f.name, 100 + i)
                expected[f.name] = 2 * i + 1 + 100 + i
        merged = a.merge(b)
        for f in dataclasses.fields(NetworkMetrics):
            assert getattr(merged, f.name) == expected[f.name], f.name

    def test_merge_handles_unknown_future_field(self):
        """A counter added to the dataclass after merge was written still
        merges (the field-enumeration guarantee, probed via a subclass)."""
        import dataclasses

        from repro.radio.metrics import NetworkMetrics

        @dataclasses.dataclass
        class Extended(NetworkMetrics):
            dropped_frames: int = 0

        a = Extended(rounds=1, dropped_frames=3)
        b = Extended(rounds=2, dropped_frames=4)
        merged = a.merge(b)
        assert merged.rounds == 3
        assert merged.dropped_frames == 7

    def test_merge_promotes_to_the_more_derived_operand(self):
        """Base-with-subclass merges keep subclass counters (either
        orientation); the absent side contributes the field default."""
        import dataclasses

        from repro.radio.metrics import NetworkMetrics

        @dataclasses.dataclass
        class Extended(NetworkMetrics):
            dropped_frames: int = 0

        base = NetworkMetrics(rounds=1)
        ext = Extended(rounds=2, dropped_frames=3)
        for merged in (base.merge(ext), ext.merge(base)):
            assert isinstance(merged, Extended)
            assert merged.rounds == 3
            assert merged.dropped_frames == 3

    def test_merge_rejects_unrelated_types(self):
        import dataclasses

        from repro.radio.metrics import NetworkMetrics

        @dataclasses.dataclass
        class A(NetworkMetrics):
            a_only: int = 0

        @dataclasses.dataclass
        class B(NetworkMetrics):
            b_only: int = 0

        with pytest.raises(TypeError):
            A().merge(B())
