"""Tests for the adversary gallery: budgets, targeting, constructions."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.adversary import (
    BudgetAdversary,
    NullAdversary,
    RandomJammer,
    ReactiveJammer,
    ScheduleAwareJammer,
    SimulatingAdversary,
    SpoofingAdversary,
    SweepJammer,
    TriangleIsolationAdversary,
)
from repro.adversary.schedule_aware import VICTIM_POLICIES
from repro.errors import ConfigurationError, ProtocolViolation
from repro.params import ProtocolParameters
from repro.radio.actions import Listen, Transmit
from repro.radio.messages import JAM, Jam, Message, Transmission
from repro.radio.network import (
    AdversaryView,
    CompiledRound,
    RadioNetwork,
    RoundMeta,
)
from repro.radio.trace import ExecutionTrace, RoundRecord


def view(
    n=10, channels=3, t=2, round_index=0, history=None, meta=None
) -> AdversaryView:
    return AdversaryView(
        n=n,
        channels=channels,
        t=t,
        round_index=round_index,
        history=history or ExecutionTrace(),
        meta=meta or RoundMeta(),
    )


def assert_legal(txs, t, channels):
    chans = [tx.channel for tx in txs]
    assert len(chans) == len(set(chans)), "duplicate channels"
    assert len(chans) <= t
    assert all(0 <= c < channels for c in chans)


class TestNullAdversary:
    def test_never_transmits(self):
        adv = NullAdversary()
        for r in range(5):
            assert adv.act(view(round_index=r)) == ()


class TestRandomJammer:
    def test_full_budget_by_default(self):
        adv = RandomJammer(random.Random(0))
        txs = adv.act(view(t=2, channels=3))
        assert len(txs) == 2
        assert_legal(txs, 2, 3)
        assert all(isinstance(tx.payload, Jam) for tx in txs)

    def test_intensity_scales_budget(self):
        adv = RandomJammer(random.Random(0), intensity=0.5)
        txs = adv.act(view(t=4, channels=5))
        assert len(txs) == 2

    def test_invalid_intensity(self):
        with pytest.raises(ConfigurationError):
            RandomJammer(random.Random(0), intensity=0.0)
        with pytest.raises(ConfigurationError):
            RandomJammer(random.Random(0), intensity=1.5)

    @pytest.mark.parametrize("intensity", [0.4, 0.5])
    def test_positive_intensity_jams_at_least_one_channel(self, intensity):
        # round(1 * 0.5) and round(1 * 0.4) are both 0.
        acting = RandomJammer(random.Random(3), intensity=intensity)
        planning = RandomJammer(random.Random(3), intensity=intensity)
        acted = [acting.act(view(t=1, channels=3)) for _ in range(5)]
        planned = planning.plan_schedule(
            view(t=1, channels=3), [RoundMeta()] * 5
        )
        assert [len(txs) for txs in acted] == [1] * 5
        assert [tuple(txs) for txs in planned] == acted

    def test_zero_budget_jams_nothing(self):
        adv = RandomJammer(random.Random(0))
        assert adv.act(view(t=0, channels=3)) == ()
        planned = adv.plan_schedule(view(t=0, channels=3), [RoundMeta()] * 3)
        assert planned == [()] * 3


class TestSweepJammer:
    def test_deterministic_sweep(self):
        adv = SweepJammer()
        t0 = {tx.channel for tx in adv.act(view(round_index=0, t=2, channels=4))}
        t1 = {tx.channel for tx in adv.act(view(round_index=1, t=2, channels=4))}
        assert t0 == {0, 1}
        assert t1 == {1, 2}

    def test_wraps_modulo_channels(self):
        adv = SweepJammer()
        txs = adv.act(view(round_index=3, t=2, channels=4))
        assert {tx.channel for tx in txs} == {3, 0}

    def test_stride_validated(self):
        with pytest.raises(ConfigurationError):
            SweepJammer(stride=0)


class TestReactiveJammer:
    def _history_with_activity(self, channel: int) -> ExecutionTrace:
        tr = ExecutionTrace()
        tr.append(
            RoundRecord(
                index=0,
                round=CompiledRound.make(
                    {0: Transmit(channel, Message("d"))}, {}
                ),
                adversary_transmissions=(),
                delivered={channel: Message("d")},
            )
        )
        return tr

    def test_targets_recently_active_channels(self):
        adv = ReactiveJammer(random.Random(0))
        txs = adv.act(view(t=1, channels=3, history=self._history_with_activity(2)))
        assert [tx.channel for tx in txs] == [2]

    def test_random_fallback_without_activity(self):
        adv = ReactiveJammer(random.Random(0))
        txs = adv.act(view(t=2, channels=3))
        assert_legal(txs, 2, 3)
        assert len(txs) == 2

    def test_needs_history_flag(self):
        assert ReactiveJammer(random.Random(0)).needs_history is True

    def test_equal_targets_share_their_jams(self):
        # Acted rounds (and the records that keep them) hold prebuilt
        # jams, not a fresh transmission per target per round.
        adv = ReactiveJammer(random.Random(0))
        history = self._history_with_activity(2)
        first = adv.act(view(t=1, channels=3, history=history))
        again = adv.act(view(t=1, channels=3, history=history))
        assert first == again == (Transmission(2, JAM),)
        assert first[0] is again[0]

    def test_window_validated(self):
        with pytest.raises(ConfigurationError):
            ReactiveJammer(random.Random(0), window=0)


class TestSpoofingAdversary:
    def test_spoofs_on_free_channels_first(self):
        meta = RoundMeta(
            phase="x",
            schedule={"channels_in_use": (0,), "assignments": {}},
        )
        adv = SpoofingAdversary(random.Random(0))
        txs = adv.act(view(t=1, channels=3, meta=meta))
        assert len(txs) == 1
        assert txs[0].channel != 0  # prefers a channel where decoding works
        assert isinstance(txs[0].payload, Message)

    def test_custom_forge_function(self):
        def forge(view, channel):
            return Message("custom", sender=5, payload=channel)

        adv = SpoofingAdversary(random.Random(0), forge=forge, target_scheduled=False)
        txs = adv.act(view(t=2, channels=3))
        assert all(tx.payload.kind == "custom" for tx in txs)

    def test_forge_returning_none_skips_channel(self):
        adv = SpoofingAdversary(
            random.Random(0), forge=lambda v, c: None, target_scheduled=False
        )
        assert adv.act(view(t=2, channels=3)) == ()


class TestScheduleAwareJammer:
    def _meta(self, in_use, assignments=None):
        return RoundMeta(
            phase="ame-transmission",
            schedule={
                "channels_in_use": tuple(in_use),
                "assignments": assignments or {},
            },
        )

    def test_prefix_policy_spares_last_channel(self):
        adv = ScheduleAwareJammer(random.Random(0), policy="prefix")
        txs = adv.act(view(t=2, channels=3, meta=self._meta([0, 1, 2])))
        assert {tx.channel for tx in txs} == {0, 1}

    def test_suffix_policy_spares_first_channel(self):
        adv = ScheduleAwareJammer(random.Random(0), policy="suffix")
        txs = adv.act(view(t=2, channels=3, meta=self._meta([0, 1, 2])))
        assert {tx.channel for tx in txs} == {1, 2}

    def test_victims_policy_prioritises_victim_channels(self):
        assignments = {
            0: {"broadcaster": 4, "listener": 5},
            1: {"broadcaster": 6, "listener": 7},
            2: {"broadcaster": 8, "listener": 9},
        }
        adv = ScheduleAwareJammer(
            random.Random(0), policy="victims", victims=[7]
        )
        txs = adv.act(
            view(t=1, channels=3, meta=self._meta([0, 1, 2], assignments))
        )
        assert [tx.channel for tx in txs] == [1]

    def test_feedback_jamming_toggle(self):
        meta = RoundMeta(phase="feedback")
        on = ScheduleAwareJammer(random.Random(0), jam_feedback=True)
        off = ScheduleAwareJammer(random.Random(0), jam_feedback=False)
        assert len(on.act(view(t=2, channels=3, meta=meta))) == 2
        assert off.act(view(t=2, channels=3, meta=meta)) == ()

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            ScheduleAwareJammer(random.Random(0), policy="nope")

    def test_budget_respected_with_wide_schedule(self):
        adv = ScheduleAwareJammer(random.Random(0))
        txs = adv.act(view(t=2, channels=6, meta=self._meta([0, 1, 2, 3, 4])))
        assert_legal(txs, 2, 6)

    @pytest.mark.parametrize("t", [1, 2])
    @pytest.mark.parametrize("jam_feedback", [True, False])
    @pytest.mark.parametrize("policy", VICTIM_POLICIES)
    def test_mixed_meta_plan_equals_acting(self, policy, jam_feedback, t):
        # Runs of one round and of many over metas the jammer treats
        # differently, some meta objects coming back after another one.
        wide = self._meta(
            [0, 2, 3, 5], {3: {"broadcaster": 1, "listener": 4}}
        )
        narrow = self._meta([4])
        feedback = RoundMeta(phase="feedback", extra={"slot": 0})
        merge = RoundMeta(phase="feedback-parallel")
        other = RoundMeta(phase="other")
        runs = [
            (wide, 7), (feedback, 1), (merge, 12), (narrow, 1), (other, 3),
            (feedback, 9), (wide, 1), (merge, 1), (narrow, 5), (feedback, 1),
        ]
        metas = [meta for meta, rounds in runs for _ in range(rounds)]
        planned_rng, acted_rng = random.Random(5), random.Random(5)
        planner, actor = (
            ScheduleAwareJammer(
                rng, policy, victims=(4,), jam_feedback=jam_feedback
            )
            for rng in (planned_rng, acted_rng)
        )
        planned = planner.plan_schedule(
            view(t=t, channels=6, meta=metas[0]), metas
        )
        acted = [
            actor.act(view(t=t, channels=6, round_index=k, meta=meta))
            for k, meta in enumerate(metas)
        ]
        assert [tuple(move) for move in planned] == acted
        assert planned_rng.getstate() == acted_rng.getstate()
        if jam_feedback:
            assert any(acted[8:20])  # the merge run jams


class TestSimulatingAdversary:
    def test_runs_simulators_and_dedupes_channels(self):
        def sim_a(view, rng):
            return Transmission(1, Message("fake", sender=0))

        def sim_b(view, rng):
            return Transmission(1, Message("fake", sender=1))

        adv = SimulatingAdversary(random.Random(0), [sim_a, sim_b])
        txs = adv.act(view(t=2, channels=3))
        assert len(txs) == 1  # same channel: collision anyway, dedup

    def test_silent_simulator_skipped(self):
        adv = SimulatingAdversary(random.Random(0), [lambda v, r: None])
        assert adv.act(view(t=1)) == ()

    def test_too_many_simulators_rejected_at_act(self):
        sims = [lambda v, r: None] * 3
        adv = SimulatingAdversary(random.Random(0), sims)
        with pytest.raises(ConfigurationError):
            adv.act(view(t=2))

    def test_empty_simulators_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulatingAdversary(random.Random(0), [])


class TestTriangleIsolationAdversary:
    def _meta(self, assignments):
        return RoundMeta(
            phase="direct-exchange",
            schedule={
                "channels_in_use": tuple(assignments),
                "assignments": assignments,
            },
        )

    def test_jams_intra_triple_edges_only(self):
        adv = TriangleIsolationAdversary([(0, 1, 2)])
        assignments = {
            0: {"broadcaster": 0, "source": 0, "listener": 1},  # inside triple
            1: {"broadcaster": 5, "source": 5, "listener": 6},  # outside
        }
        txs = adv.act(view(t=1, channels=3, meta=self._meta(assignments)))
        assert [tx.channel for tx in txs] == [0]

    def test_ignores_edges_crossing_triples(self):
        adv = TriangleIsolationAdversary([(0, 1, 2), (3, 4, 5)])
        assignments = {0: {"broadcaster": 0, "source": 0, "listener": 3}}
        assert adv.act(view(t=2, channels=3, meta=self._meta(assignments))) == ()

    def test_degenerate_triples_rejected(self):
        with pytest.raises(ConfigurationError):
            TriangleIsolationAdversary([(0, 0, 1)])
        with pytest.raises(ConfigurationError):
            TriangleIsolationAdversary([(0, 1, 2), (2, 3, 4)])
        with pytest.raises(ConfigurationError):
            TriangleIsolationAdversary([])


class TestBudgetAdversary:
    def test_budget_depletes_then_silent(self):
        inner = SweepJammer()
        adv = BudgetAdversary(inner, total_budget=3)
        first = adv.act(view(t=2, channels=4, round_index=0))
        second = adv.act(view(t=2, channels=4, round_index=1))
        third = adv.act(view(t=2, channels=4, round_index=2))
        assert len(first) == 2
        assert len(second) == 1  # truncated to the remaining budget
        assert third == ()
        assert adv.remaining == 0

    def test_negative_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            BudgetAdversary(NullAdversary(), total_budget=-1)

    def test_propagates_needs_history(self):
        adv = BudgetAdversary(ReactiveJammer(random.Random(0)), 5)
        assert adv.needs_history is True


# ----------------------------------------------------------------------
# Planning equals acting: a network driven by a strategy's
# plan_schedule must match one that asks its act() every round.
# ----------------------------------------------------------------------


class _ActOnly:
    """Exposes only ``act`` (and the ``needs_history`` flag the network
    reads), so the network drives the wrapped strategy one round at a
    time."""

    def __init__(self, inner):
        self._inner = inner
        self.needs_history = inner.needs_history

    def act(self, view):
        return self._inner.act(view)


SENDERS = (0, 1, 2)
LISTENERS = (3, 4, 5, 6, 7)
PLAN_N = 8


def _strategy(kind, option, rng):
    if kind == "random":
        return RandomJammer(rng, intensity=option)
    if kind == "schedule":
        policy, jam_feedback = option
        return ScheduleAwareJammer(
            rng, policy, victims=(1, 4), jam_feedback=jam_feedback
        )
    if kind == "sweep":
        return SweepJammer(stride=option)
    return NullAdversary()


@st.composite
def planning_cases(draw):
    channels = draw(st.one_of(st.integers(2, 8), st.integers(22, 30)))
    t = draw(st.integers(0, channels - 1))
    kind = draw(st.sampled_from(["random", "schedule", "sweep", "null"]))
    option = draw(
        {
            "random": st.sampled_from([1.0, 0.9, 0.5, 0.34]),
            "schedule": st.tuples(
                st.sampled_from(VICTIM_POLICIES), st.booleans()
            ),
            "sweep": st.integers(1, 3),
            "null": st.none(),
        }[kind]
    )
    # (rounds, shared meta?) per schedule; a cap may cut one short.
    schedules = draw(
        st.lists(
            st.tuples(st.integers(1, 40), st.booleans()),
            min_size=1,
            max_size=3,
        )
    )
    total = sum(rounds for rounds, _ in schedules)
    cap = draw(st.one_of(st.none(), st.integers(1, total)))
    # An honest fault, maybe: (schedule, round, off-air hop or short row).
    fault = draw(
        st.none()
        | st.tuples(
            st.integers(0, len(schedules) - 1),
            st.integers(0, 39),
            st.booleans(),
        )
    )
    seed = draw(st.integers(0, 2**16))
    return channels, t, kind, option, schedules, cap, fault, seed


def _build_schedules(channels, schedules, seed, fault=None):
    """Seeded rounds: templates and listener tuples shared across rounds
    (one lone sender, a collision, silence), fresh hop rows, and metas
    drawn from a pool the schedule-aware jammer reacts to.  A ``fault``
    ``(schedule, round, off_air)`` gives that round a malformed row: its
    last hop on channel ``C`` or dropped."""
    layout = random.Random(seed)
    in_use = tuple(
        layout.sample(range(channels), layout.randint(1, min(channels, 6)))
    )
    assignments = {
        channel: {"broadcaster": layout.randrange(PLAN_N), "listener": 4}
        for channel in in_use
    }
    pool = [
        RoundMeta(phase="feedback", extra={"slot": 0}),
        RoundMeta(phase="feedback-parallel"),
        RoundMeta(
            phase="ame-transmission",
            schedule={"channels_in_use": in_use, "assignments": assignments},
        ),
        RoundMeta(phase="other"),
        RoundMeta(),
    ]
    lone = layout.randrange(channels)
    templates = [
        {},
        {0: Transmit(lone, Message("data", 0, "a"))},
        {
            0: Transmit(lone, Message("data", 0, "a")),
            1: Transmit(lone, Message("data", 1, "b")),
            2: Transmit((lone + 1) % channels, Message("data", 2, "c")),
        },
    ]
    built = []
    for rounds, shared in schedules:
        meta = layout.choice(pool)
        built.append(
            [
                CompiledRound(
                    layout.choice(templates),
                    LISTENERS,
                    (bytes(layout.randrange(channels) for _ in LISTENERS),),
                    meta if shared else layout.choice(pool),
                )
                for _ in range(rounds)
            ]
        )
    if fault is not None:
        schedule, index, off_air = fault
        rounds = built[schedule]
        index %= len(rounds)
        row = rounds[index].hops[:-1]
        if off_air:
            row += bytes((channels,))
        rounds[index] = replace(rounds[index], rows=(row,))
    return built


def _drive(channels, t, adversary, schedules, cap):
    net = RadioNetwork(
        PLAN_N,
        channels,
        t,
        adversary=adversary,
        params=ProtocolParameters(max_rounds=cap).validate(),
    )
    outputs, error = [], None
    try:
        for schedule in schedules:
            outputs.append(net.execute_schedule(schedule))
    except ProtocolViolation as exc:
        error = str(exc)
    return outputs, error, net.metrics, net.trace.canonical_forms()


@given(case=planning_cases())
@settings(max_examples=300, deadline=None)
def test_planning_equals_acting(case):
    channels, t, kind, option, shapes, cap, fault, seed = case
    schedules = _build_schedules(channels, shapes, seed, fault)
    planned_rng, acted_rng = random.Random(seed), random.Random(seed)
    planned = _drive(
        channels, t, _strategy(kind, option, planned_rng), schedules, cap
    )
    acted = _drive(
        channels,
        t,
        _ActOnly(_strategy(kind, option, acted_rng)),
        schedules,
        cap,
    )
    assert planned == acted
    assert planned_rng.getstate() == acted_rng.getstate()
