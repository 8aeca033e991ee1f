"""Tests for the parallel-prefix feedback merge (Section 5.5, C >= 2t^2)."""

from __future__ import annotations

import pytest

from repro.adversary import RandomJammer, SweepJammer
from repro.errors import ConfigurationError
from repro.feedback.parallel import run_parallel_feedback
from repro.rng import RngRegistry

from conftest import make_network


def witness_sets_for(slots, size, start=0):
    return [
        tuple(range(start + slot * size, start + (slot + 1) * size))
        for slot in range(slots)
    ]


def flags_for(sets, truth):
    flags = {}
    for slot, witnesses in enumerate(sets):
        for w in witnesses:
            flags[w] = truth[slot]
    return flags


class TestParallelMerge:
    @pytest.mark.parametrize(
        "truth", [(True, False, True, False), (False,) * 4, (True,) * 4]
    )
    def test_agreement_no_adversary(self, truth, rng):
        # t=2, C=8 = 2t^2, four slots.
        net = make_network(n=40, channels=8, t=2)
        sets = witness_sets_for(4, 4)
        out = run_parallel_feedback(
            net, sets, flags_for(sets, truth), list(range(net.n)), rng
        )
        expected = {s for s, f in enumerate(truth) if f}
        assert all(d == expected for d in out.values())

    def test_agreement_under_jamming(self, rng, adv_rng):
        net = make_network(n=40, channels=8, t=2, adversary=RandomJammer(adv_rng))
        sets = witness_sets_for(4, 4)
        truth = (True, True, False, True)
        out = run_parallel_feedback(
            net, sets, flags_for(sets, truth), list(range(net.n)), rng
        )
        assert all(d == {0, 1, 3} for d in out.values())

    def test_odd_group_count_carries(self, rng):
        net = make_network(n=40, channels=8, t=2)
        sets = witness_sets_for(3, 4)
        truth = (False, True, True)
        out = run_parallel_feedback(
            net, sets, flags_for(sets, truth), list(range(net.n)), rng
        )
        assert all(d == {1, 2} for d in out.values())

    def test_single_slot(self, rng):
        net = make_network(n=40, channels=8, t=2)
        sets = witness_sets_for(1, 4)
        out = run_parallel_feedback(
            net, sets, flags_for(sets, (True,)), list(range(net.n)), rng
        )
        assert all(d == {0} for d in out.values())

    def test_no_slots(self, rng):
        net = make_network(n=40, channels=8, t=2)
        out = run_parallel_feedback(net, [], {}, list(range(net.n)), rng)
        assert all(d == set() for d in out.values())

    def test_faster_than_serial_for_many_slots(self, rng):
        # Figure 3's point: per full invocation the merge tree costs
        # O(log(slots) * log n) transfers versus the serial routine's
        # O(slots * log n) — with enough slots the tree must win.  We
        # compare at matched per-transfer conditions (2t-channel blocks,
        # success probability >= 1/2 per round on both sides).
        from repro.feedback.protocol import run_feedback
        from repro.feedback.witness import WitnessAssignment

        t, slots = 2, 16
        net_p = make_network(n=96, channels=32, t=t, adversary=SweepJammer())
        sets = witness_sets_for(slots, 4)
        truth = tuple(s % 2 == 0 for s in range(slots))
        run_parallel_feedback(
            net_p, sets, flags_for(sets, truth), list(range(net_p.n)), rng
        )
        parallel_rounds = net_p.metrics.rounds

        # Serial equivalent: one slot at a time on a 2t-channel assignment.
        net_s = make_network(n=96, channels=4, t=t, adversary=SweepJammer())
        wa = WitnessAssignment(
            sets=tuple(
                tuple(range(slot * 4, (slot + 1) * 4)) for slot in range(slots)
            ),
            channels=(0, 1, 2, 3),
        )
        flags = flags_for([list(s) for s in wa.sets], truth)
        out = run_feedback(
            net_s, wa, flags, list(range(net_s.n)), RngRegistry(seed=2)
        )
        expected = {s for s, f in enumerate(truth) if f}
        assert all(d == expected for d in out.values())
        assert parallel_rounds < net_s.metrics.rounds


class TestValidation:
    def test_small_witness_sets_rejected(self, rng):
        net = make_network(n=40, channels=8, t=2)
        sets = witness_sets_for(2, 2)  # < 2t members
        with pytest.raises(ConfigurationError, match="2t"):
            run_parallel_feedback(
                net, sets, flags_for(sets, (True, False)), list(range(net.n)), rng
            )

    def test_missing_flags_rejected(self, rng):
        net = make_network(n=40, channels=8, t=2)
        sets = witness_sets_for(2, 4)
        with pytest.raises(ConfigurationError, match="flags"):
            run_parallel_feedback(net, sets, {}, list(range(net.n)), rng)

    def test_witness_without_flag_rejected(self, rng):
        # The serial routine's check: one flagged witness used to vouch
        # for its whole set, so node 1 below ended with D = {0}.
        net = make_network(n=40, channels=2, t=1)
        sets = [(0, 1), (2, 3)]
        flags = {0: True, 2: False, 3: False}
        with pytest.raises(ConfigurationError, match="no flag"):
            run_parallel_feedback(net, sets, flags, list(range(net.n)), rng)

    def test_witness_outside_participants_rejected(self, rng):
        net = make_network(n=40, channels=8, t=2)
        sets = witness_sets_for(2, 4)
        with pytest.raises(ConfigurationError, match="participant"):
            run_parallel_feedback(
                net,
                sets,
                flags_for(sets, (True, False)),
                list(range(4, net.n)),
                rng,
            )

    @pytest.mark.parametrize(
        "sets,match",
        [
            ([(0, 0, 1, 2)], "duplicates"),
            ([(0, 1, 2, 3), (3, 4, 5, 6)], "overlap"),
        ],
    )
    def test_witness_sets_must_be_disjoint(self, rng, sets, match):
        # As in the serial routine.  A node listed twice left a block
        # channel without an honest broadcaster: a forged frame with a
        # valid digest sent there reached every outsider.
        net = make_network(n=40, channels=8, t=2)
        flags = {w: False for s in sets for w in s}
        with pytest.raises(ConfigurationError, match=match):
            run_parallel_feedback(net, sets, flags, list(range(net.n)), rng)

    def test_insufficient_channels_rejected(self, rng):
        net = make_network(n=60, channels=4, t=2)  # < 2t^2
        sets = witness_sets_for(4, 4)
        with pytest.raises(ConfigurationError, match="channels"):
            run_parallel_feedback(
                net, sets, flags_for(sets, (True,) * 4), list(range(net.n)), rng
            )
