"""The schedule-driven feedback pipeline resolves exactly like the
per-round loop it replaced.

The oblivious feedback loops (Figure 1 repetitions, parallel-merge
transfer rounds) run as precompiled lists of repetition loops resolved by
:meth:`~repro.radio.network.RadioNetwork.execute_schedule` with lazy,
channel-grouped listener settlement and a sparse per-round delivery
record.  These tests are the safety net: for seeded runs — including
under jamming and spoofing adversaries — the compiled pipeline must
return ``D`` maps, metrics, and canonical traces whose digests equal the
ones recorded from the one-``execute_round``-per-repetition reference
(``tests/test_golden.py``).
"""

from __future__ import annotations

import random

import pytest

from repro.adversary import (
    NullAdversary,
    RandomJammer,
    SpoofingAdversary,
    SweepJammer,
)
from repro.adversary.base import Adversary
from repro.errors import ProtocolViolation
from repro.extensions.restricted_listening import (
    RestrictedListeningNetwork,
    StickyEavesdropper,
)
from repro.feedback.parallel import run_parallel_feedback
from repro.feedback.protocol import FEEDBACK_KIND, run_feedback
from repro.feedback.witness import WitnessAssignment
from repro.radio.actions import Listen, Transmit
from repro.radio.messages import Message, Transmission
from repro.radio.network import CompiledRound, RadioNetwork, RoundMeta
from repro.rng import RngRegistry

from test_golden import (
    PARALLEL_FEEDBACK,
    RESTRICTED_ROUND_EXPANSION,
    ROUND_EXPANSION,
    SERIAL_FEEDBACK,
    SERIAL_FEEDBACK_NO_TRACE,
    network_digest,
    per_round_expansion,
    rounds_digest,
)


def _forge_feedback_true(view, channel):
    """A protocol-aware forgery: fake ``<true, r>`` for the active slot.

    Lemma 5's parenthetical says this can only collide (every feedback
    channel carries an honest witness); the equivalence tests run it to
    prove the compiled path handles spoof attempts like the reference.
    """
    slot = view.meta.extra.get("slot", 0) if view.meta.extra else 0
    return Message(kind=FEEDBACK_KIND, sender=1, payload=("true", slot))


ADVERSARIES = {
    "none": lambda: None,
    "null": NullAdversary,
    "sweep": SweepJammer,
    "random": lambda: RandomJammer(random.Random(0xA1)),
    "spoof": lambda: SpoofingAdversary(random.Random(0xB2)),
    "spoof-feedback": lambda: SpoofingAdversary(
        random.Random(0xC3), forge=_forge_feedback_true
    ),
}


class TestFeedbackEquivalence:
    """Seeded `run_feedback` against the per-round reference's digests."""

    def _run(self, adversary_factory, *, keep_trace=True):
        n, channels, t = 40, 3, 2
        net = RadioNetwork(
            n, channels, t, adversary=adversary_factory(), keep_trace=keep_trace
        )
        sets = tuple(tuple(range(s * 3, s * 3 + 3)) for s in range(3))
        wa = WitnessAssignment(sets=sets, channels=(0, 1, 2))
        flags = {w: (s % 2 == 0) for s, ws in enumerate(sets) for w in ws}
        out = run_feedback(
            net,
            wa,
            flags,
            list(range(n)),
            RngRegistry(seed=7),
        )
        return out, net

    @pytest.mark.parametrize("adversary", sorted(ADVERSARIES))
    def test_outputs_metrics_and_traces_match(self, adversary):
        out, net = self._run(ADVERSARIES[adversary])
        assert network_digest(out, net) == SERIAL_FEEDBACK[adversary]

    def test_keep_trace_false_preserves_outputs_and_metrics(self):
        out, net = self._run(ADVERSARIES["random"], keep_trace=False)
        assert len(net.trace) == 0
        assert network_digest(out, net) == SERIAL_FEEDBACK_NO_TRACE


class TestParallelFeedbackEquivalence:
    """Seeded merge-tree transfers against the per-round reference's
    digests."""

    PARALLEL_ADVERSARIES = {
        k: v for k, v in ADVERSARIES.items() if k != "spoof-feedback"
    }

    def _run(self, adversary_factory):
        n, channels, t = 60, 8, 2
        net = RadioNetwork(n, channels, t, adversary=adversary_factory())
        witness_sets = [tuple(range(s * 4, s * 4 + 4)) for s in range(4)]
        flags = {
            w: (s != 1) for s, ws in enumerate(witness_sets) for w in ws
        }
        out = run_parallel_feedback(
            net,
            witness_sets,
            flags,
            list(range(n)),
            RngRegistry(seed=9),
        )
        return out, net

    @pytest.mark.parametrize("adversary", sorted(PARALLEL_ADVERSARIES))
    def test_outputs_metrics_and_traces_match(self, adversary):
        out, net = self._run(self.PARALLEL_ADVERSARIES[adversary])
        assert network_digest(out, net) == PARALLEL_FEEDBACK[adversary]

    def test_outputs_are_correct_under_jamming(self):
        out, _net = self._run(ADVERSARIES["random"])
        expected = {0, 2, 3}
        assert all(d == expected for d in out.values())


def _random_compiled_round(rng, n, channels):
    transmits = {}
    listens: dict[int, list[int]] = {}
    nodes = rng.sample(range(n), rng.randrange(2, n))
    for node in nodes:
        if rng.random() < 0.3:
            transmits[node] = Transmit(
                rng.randrange(channels),
                Message(kind="d", sender=node, payload=("p", node)),
            )
        else:
            listens.setdefault(rng.randrange(channels), []).append(node)
    meta = RoundMeta(phase="sched-test", extra={"i": rng.randrange(100)})
    return CompiledRound.make(transmits, listens, meta)


class TestExecuteSchedule:
    """The compiled radio entry point vs the per-node adapter
    (``execute_round``), whose side also matches the digests recorded
    when it resolved rounds with its own loop."""

    ADVERSARIES = {
        "none": lambda: None,
        "sweep": SweepJammer,
        "random": lambda: RandomJammer(random.Random(0xD4)),
        "spoof": lambda: SpoofingAdversary(random.Random(0xE5)),
    }

    @pytest.mark.parametrize("adversary", sorted(ADVERSARIES))
    def test_matches_execute_round_expansion(self, adversary):
        n, channels, t = 16, 4, 2
        rng = random.Random(321)
        loops = [_random_compiled_round(rng, n, channels) for _ in range(30)]
        fast = RadioNetwork(
            n, channels, t, adversary=self.ADVERSARIES[adversary]()
        )
        ref = RadioNetwork(
            n, channels, t, adversary=self.ADVERSARIES[adversary]()
        )
        heard = fast.execute_schedule(loops)
        expected = per_round_expansion(ref, loops)
        assert heard == expected
        assert fast.metrics == ref.metrics
        assert fast.trace.canonical_forms() == ref.trace.canonical_forms()
        assert rounds_digest(expected, ref) == ROUND_EXPANSION[adversary]

    def test_validation_rejects_overlapping_roles(self):
        msg = Message(kind="x", sender=0)
        net = RadioNetwork(8, 2, 1)
        both = CompiledRound.make({0: Transmit(0, msg)}, {1: [0]}, None)
        with pytest.raises(ProtocolViolation):
            net.execute_schedule([both])
        twice = CompiledRound.make({}, {0: [1], 1: [1]}, None)
        with pytest.raises(ProtocolViolation):
            net.execute_schedule([twice])
        duplicated = CompiledRound.make({}, {0: [1, 1]}, None)
        with pytest.raises(ProtocolViolation):
            net.execute_schedule([duplicated])
        miscounted = CompiledRound(
            transmits={}, listeners=(1, 2), rows=(b"\x00",), meta=RoundMeta()
        )
        with pytest.raises(ProtocolViolation):
            net.execute_schedule([miscounted])

    def test_validation_rejects_bad_template_and_listeners(self):
        net = RadioNetwork(8, 2, 1)
        bad_tx = CompiledRound.make(
            {0: Transmit(9, Message(kind="x"))}, {}, None
        )
        with pytest.raises(ProtocolViolation):
            net.execute_schedule([bad_tx])
        bad_listener = CompiledRound.make({}, {0: [99]}, None)
        with pytest.raises(ProtocolViolation):
            net.execute_schedule([bad_listener])
        bad_channel = CompiledRound.make({}, {7: [1]}, None)
        with pytest.raises(ProtocolViolation):
            net.execute_schedule([bad_channel])

    def test_template_validated_once_per_call(self):
        # A shared template mapping must not defeat validation on the
        # first round, and must not be revalidated per round (observable
        # only as correctness here: a bad template raises immediately).
        net = RadioNetwork(8, 2, 1)
        template = {0: Transmit(0, Message(kind="x", sender=0))}
        rounds = [
            CompiledRound.make(template, {0: [1]}, None) for _ in range(4)
        ]
        heard = net.execute_schedule(rounds)
        assert len(heard) == 4
        assert all(h[0].kind == "x" for h in heard)
        assert net.metrics.rounds == 4
        assert net.metrics.honest_transmissions == 4
        assert net.metrics.listens == 4

    def test_restricted_listening_fallback_preserves_semantics(self):
        """The restricted-listening model resolves compiled submissions
        exactly like per-node ones (monitoring, redaction, budget checks);
        the per-node side matches its golden digest."""

        def build():
            return RestrictedListeningNetwork(
                8, 3, 1, StickyEavesdropper([1])
            )

        rng = random.Random(77)
        loops = [_random_compiled_round(rng, 8, 3) for _ in range(12)]
        via_schedule = build()
        via_rounds = build()
        heard = via_schedule.execute_schedule(loops)
        expected = per_round_expansion(via_rounds, loops)
        assert heard == expected
        assert via_schedule.metrics == via_rounds.metrics
        assert (
            via_schedule.redacted_trace.canonical_forms()
            == via_rounds.redacted_trace.canonical_forms()
        )
        assert (
            via_schedule.observed_channel_rounds
            == via_rounds.observed_channel_rounds
        )
        assert (
            rounds_digest(expected, via_rounds) == RESTRICTED_ROUND_EXPANSION
        )


class TestRecordedDeliveries:
    """A record's ``delivered`` lists the touched channels only."""

    def test_round_records_carry_the_touched_channel_map(self):
        msg = Message(kind="m", sender=0)
        net = RadioNetwork(6, 4, 1, adversary=SweepJammer())
        net.execute_round(
            {
                0: Transmit(1, msg),
                1: Listen(1),
                2: Transmit(3, msg),
                3: Transmit(3, msg),
            }
        )
        record = net.trace[0]
        # A delivery on 1, a collision on 3 and the jammer's noise on 0;
        # channel 2 carried nothing, so it is absent (silent).
        assert dict(record.delivered) == {0: None, 1: msg, 3: None}
        assert 2 not in record.delivered
        assert record.delivered.get(2) is None
        # Node 1 listened on channel 1 and heard the frame.
        hop = dict(zip(record.round.listeners, record.round.hops))[1]
        assert record.delivered[hop] == msg


class _ViewProbe(Adversary):
    """Keeps every view it is handed."""

    def __init__(self) -> None:
        self.views = []

    def act(self, view):
        self.views.append(view)
        return (Transmission(0),)


class TestReusableAdversaryView:
    """No view is shared between rounds: each ask gets a fresh one."""

    def test_fresh_views_by_default(self):
        probe = _ViewProbe()
        net = RadioNetwork(6, 2, 1, adversary=probe)
        for _ in range(6):
            net.execute_round({1: Listen(0), 2: Listen(1)})
        assert [view.round_index for view in probe.views] == list(range(6))
        assert len({id(view) for view in probe.views}) == 6
