"""The schedule-driven feedback pipeline resolves exactly like the
per-round loop it replaced.

The oblivious feedback loops (Figure 1 repetitions, parallel-merge
transfer rounds) run as precompiled
:class:`~repro.radio.network.RoundSchedule` batches resolved by
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
from repro.radio.network import CompiledRound, RadioNetwork, RoundMeta, RoundSchedule
from repro.radio.trace import SparseDelivered
from repro.rng import RngRegistry

from test_golden import (
    PARALLEL_FEEDBACK,
    SERIAL_FEEDBACK,
    SERIAL_FEEDBACK_NO_TRACE,
    network_digest,
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

    def _run(self, adversary_factory, *, keep_trace=True, seed=7, **kwargs):
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
            RngRegistry(seed=seed),
            **kwargs,
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

    def _run(self, adversary_factory, *, seed=9, **kwargs):
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
            RngRegistry(seed=seed),
            **kwargs,
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


class TestBlockDrawEquivalence:
    """The block-draw hop sampler and the shape cache are invisible.

    Block draws reproduce the per-draw ``stream.choice`` chain byte for
    byte: the hypothesis property in ``test_schedule_properties.py``
    checks the sampler alone, and the golden digests above (recorded with
    per-draw hops) check it in situ, since the traces embed every hop.
    Likewise a shared ``ScheduleShapeCache`` must be pure behaviour-wise:
    cached bucket blocks, metas, and stream tables change allocation,
    never results.
    """

    serial = TestFeedbackEquivalence()
    parallel = TestParallelFeedbackEquivalence()

    def test_serial_shared_shape_cache_is_pure(self):
        from repro.radio import ScheduleShapeCache

        cache = ScheduleShapeCache()
        for seed in (7, 8, 9, 7):  # repeat seed 7: warm-cache re-run
            fresh_out, fresh_net = self.serial._run(
                ADVERSARIES["random"], seed=seed
            )
            cached_out, cached_net = self.serial._run(
                ADVERSARIES["random"], seed=seed, shape_cache=cache
            )
            assert cached_out == fresh_out
            assert cached_net.metrics == fresh_net.metrics
            assert (
                cached_net.trace.canonical_forms()
                == fresh_net.trace.canonical_forms()
            )

    def test_parallel_shared_shape_cache_is_pure(self):
        from repro.radio import ScheduleShapeCache

        cache = ScheduleShapeCache()
        for seed in (9, 10, 9):
            fresh_out, fresh_net = self.parallel._run(
                ADVERSARIES["sweep"], seed=seed
            )
            cached_out, cached_net = self.parallel._run(
                ADVERSARIES["sweep"], seed=seed, shape_cache=cache
            )
            assert cached_out == fresh_out
            assert cached_net.metrics == fresh_net.metrics
            assert (
                cached_net.trace.canonical_forms()
                == fresh_net.trace.canonical_forms()
            )


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
    """The compiled radio entry point vs the classic per-round interface."""

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
        schedule = RoundSchedule(
            _random_compiled_round(rng, n, channels) for _ in range(30)
        )
        fast = RadioNetwork(
            n, channels, t, adversary=self.ADVERSARIES[adversary]()
        )
        ref = RadioNetwork(
            n, channels, t, adversary=self.ADVERSARIES[adversary]()
        )
        heard = fast.execute_schedule(schedule)
        expected = []
        for cr, (actions, meta) in zip(
            schedule.rounds, schedule.as_action_batches()
        ):
            results = ref.execute_round(actions, meta)
            expected.append(
                {
                    channel: results[group[0]]
                    for channel, group in cr.listens.items()
                    if group and results[group[0]] is not None
                }
            )
        assert heard == expected
        assert fast.metrics == ref.metrics
        assert fast.trace.canonical_forms() == ref.trace.canonical_forms()

    def test_execute_rounds_accepts_a_schedule_with_stable_shape(self):
        """execute_rounds keeps its per-listener result contract even for
        compiled submissions (execute_schedule is the channel-level API)."""
        rng = random.Random(5)
        schedule = RoundSchedule(
            _random_compiled_round(rng, 8, 2) for _ in range(5)
        )
        via_schedule = RadioNetwork(8, 2, 1)
        via_classic = RadioNetwork(8, 2, 1)
        got = via_schedule.execute_rounds(schedule)
        expected = [
            via_classic.execute_round(actions, meta)
            for actions, meta in schedule.as_action_batches()
        ]
        assert got == expected
        assert via_schedule.metrics == via_classic.metrics

    def test_validation_rejects_overlapping_roles(self):
        msg = Message(kind="x", sender=0)
        net = RadioNetwork(8, 2, 1)
        both = CompiledRound.make({0: Transmit(0, msg)}, {1: [0]}, None)
        with pytest.raises(ProtocolViolation):
            net.execute_schedule(RoundSchedule([both]))
        twice = CompiledRound.make({}, {0: [1], 1: [1]}, None)
        with pytest.raises(ProtocolViolation):
            net.execute_schedule(RoundSchedule([twice]))
        duplicated = CompiledRound.make({}, {0: [1, 1]}, None)
        with pytest.raises(ProtocolViolation):
            net.execute_schedule(RoundSchedule([duplicated]))
        miscounted = CompiledRound(
            transmits={}, listens={0: [1, 2]}, meta=RoundMeta(), listen_count=7
        )
        with pytest.raises(ProtocolViolation):
            net.execute_schedule(RoundSchedule([miscounted]))

    def test_validation_rejects_bad_template_and_listeners(self):
        net = RadioNetwork(8, 2, 1)
        bad_tx = CompiledRound.make(
            {0: Transmit(9, Message(kind="x"))}, {}, None
        )
        with pytest.raises(ProtocolViolation):
            net.execute_schedule(RoundSchedule([bad_tx]))
        bad_listener = CompiledRound.make({}, {0: [99]}, None)
        with pytest.raises(ProtocolViolation):
            net.execute_schedule(RoundSchedule([bad_listener]))
        bad_channel = CompiledRound.make({}, {7: [1]}, None)
        with pytest.raises(ProtocolViolation):
            net.execute_schedule(RoundSchedule([bad_channel]))

    def test_template_validated_once_per_call(self):
        # A shared template mapping must not defeat validation on the
        # first round, and must not be revalidated per round (observable
        # only as correctness here: a bad template raises immediately).
        net = RadioNetwork(8, 2, 1)
        template = {0: Transmit(0, Message(kind="x", sender=0))}
        rounds = [
            CompiledRound.make(template, {0: [1]}, None) for _ in range(4)
        ]
        heard = net.execute_schedule(RoundSchedule(rounds))
        assert len(heard) == 4
        assert all(h[0].kind == "x" for h in heard)
        assert net.metrics.rounds == 4
        assert net.metrics.honest_transmissions == 4
        assert net.metrics.listens == 4

    def test_restricted_listening_fallback_preserves_semantics(self):
        """Subclasses overriding execute_round keep their semantics under
        compiled submission (monitoring, redaction, budget checks)."""

        def build():
            return RestrictedListeningNetwork(
                8, 3, 1, StickyEavesdropper([1])
            )

        rng = random.Random(77)
        schedule = RoundSchedule(
            _random_compiled_round(rng, 8, 3) for _ in range(12)
        )
        via_schedule = build()
        via_rounds = build()
        heard = via_schedule.execute_schedule(schedule)
        expected = []
        for cr, (actions, meta) in zip(
            schedule.rounds, schedule.as_action_batches()
        ):
            results = via_rounds.execute_round(actions, meta)
            expected.append(
                {
                    channel: results[group[0]]
                    for channel, group in cr.listens.items()
                    if group and results[group[0]] is not None
                }
            )
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


class TestSparseDelivered:
    """The sparse record view is indistinguishable from the dense dict."""

    def _view(self):
        msg = Message(kind="m", sender=1, payload=("x",))
        return msg, SparseDelivered({2: msg, 5: None}, channels=8)

    def test_dense_compatible_reads(self):
        msg, view = self._view()
        assert len(view) == 8
        assert list(view) == list(range(8))
        assert view[2] is msg
        assert view[5] is None  # collided: touched but silent
        assert view[0] is None  # untouched: silent
        assert view.get(2) is msg and view.get(0) is None
        assert view.get(99, "default") == "default"
        with pytest.raises(KeyError):
            view[99]
        assert 7 in view and 8 not in view

    def test_equality_with_dense_dict_and_other_views(self):
        msg, view = self._view()
        dense = {c: None for c in range(8)}
        dense[2] = msg
        assert view == dense
        assert dense == dict(view)
        assert view == SparseDelivered({2: msg}, channels=8)
        assert view != SparseDelivered({2: msg}, channels=9)
        assert view != SparseDelivered({3: msg}, channels=8)

    def test_sparse_items_skips_silence(self):
        msg, view = self._view()
        assert list(view.sparse_items()) == [(2, msg)]

    def test_round_records_carry_the_sparse_view(self):
        net = RadioNetwork(6, 4, 0)
        net.execute_round(
            {0: Transmit(1, Message(kind="m", sender=0)), 1: Listen(1)}
        )
        record = net.trace[0]
        assert isinstance(record.delivered, SparseDelivered)
        assert len(record.delivered) == 4
        assert record.delivered[1] == Message(kind="m", sender=0)
        assert record.delivered[3] is None


class _ViewProbe(Adversary):
    """Records the identity of every view it is handed."""

    def __init__(self, reusable: bool) -> None:
        self.reusable_view = reusable
        self.view_ids: list[int] = []
        self.round_indices: list[int] = []

    def act(self, view):
        self.view_ids.append(id(view))
        self.round_indices.append(view.round_index)
        return (Transmission(0),)


class TestReusableAdversaryView:
    """The adversary fast path: one view, advanced in place."""

    def _drive(self, probe, rounds=6):
        net = RadioNetwork(6, 2, 1, adversary=probe)
        for _ in range(rounds):
            net.execute_round({1: Listen(0), 2: Listen(1)})
        return net

    def test_reusable_view_is_one_object_with_advancing_index(self):
        probe = _ViewProbe(reusable=True)
        self._drive(probe)
        assert len(set(probe.view_ids)) == 1
        assert probe.round_indices == list(range(6))

    def test_fresh_views_by_default(self):
        probe = _ViewProbe(reusable=False)
        self._drive(probe)
        assert probe.round_indices == list(range(6))

    def test_builtin_strategies_declare_the_fast_path(self):
        assert NullAdversary.reusable_view
        assert SweepJammer.reusable_view
        assert RandomJammer.reusable_view
        assert SpoofingAdversary.reusable_view
        assert Adversary.reusable_view is False

    def test_reuse_does_not_change_behaviour(self):
        """Seeded runs agree whether or not the view is shared."""

        class FreshRandomJammer(RandomJammer):
            reusable_view = False

        n, channels, t, rounds = 12, 3, 2, 25
        plans = random.Random(42)
        per_round = []
        for _ in range(rounds):
            actions = {}
            for node in plans.sample(range(n), 5):
                actions[node] = Listen(plans.randrange(channels))
            per_round.append(actions)
        shared = RadioNetwork(
            n, channels, t, adversary=RandomJammer(random.Random(1))
        )
        fresh = RadioNetwork(
            n, channels, t, adversary=FreshRandomJammer(random.Random(1))
        )
        for actions in per_round:
            assert shared.execute_round(actions) == fresh.execute_round(
                actions
            )
        assert shared.metrics == fresh.metrics
        assert (
            shared.trace.canonical_forms() == fresh.trace.canonical_forms()
        )
