"""Property-based tests of the radio medium's resolution semantics.

Hypothesis generates arbitrary per-round action maps and adversary plans;
the medium must satisfy the Section 3 model invariants on every one:

* a channel delivers iff it carries exactly one decodable transmission;
* every listener on one channel hears the same thing;
* transmitters and sleepers never appear in the result map;
* metrics add up;
* a repetition loop resolves as its rounds do, one by one.
"""

from __future__ import annotations

import random
from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.adversary import NullAdversary
from repro.adversary.base import Adversary
from repro.errors import ProtocolViolation
from repro.experiments import workloads
from repro.params import ProtocolParameters
from repro.radio.actions import Listen, Sleep, Transmit
from repro.radio.messages import JAM, Message, Transmission
from repro.radio.network import (
    CompiledRound,
    RadioNetwork,
    RoundMeta,
    hit_row,
)

N, C, T = 10, 3, 2

action_strategy = st.one_of(
    st.builds(
        Transmit,
        channel=st.integers(0, C - 1),
        message=st.builds(
            Message,
            kind=st.just("data"),
            sender=st.integers(0, N - 1),
            payload=st.integers(0, 99),
        ),
    ),
    st.builds(Listen, channel=st.integers(0, C - 1)),
    st.builds(Sleep),
)

actions_strategy = st.dictionaries(
    st.integers(0, N - 1), action_strategy, max_size=N
)

adversary_plan = st.lists(
    st.tuples(
        st.integers(0, C - 1),
        st.booleans(),  # True => jam, False => spoof frame
    ),
    max_size=T,
    unique_by=lambda pair: pair[0],
)


class PlannedAdversary(Adversary):
    def __init__(self, plan):
        self.plan = tuple(
            Transmission(
                channel,
                JAM if jam else Message("spoof", sender=0, payload="fake"),
            )
            for channel, jam in plan
        )

    def act(self, view):
        return self.plan


@given(actions=actions_strategy, plan=adversary_plan)
@settings(max_examples=200, deadline=None)
def test_medium_resolution_invariants(actions, plan):
    net = RadioNetwork(N, C, T, adversary=PlannedAdversary(plan))
    results = net.execute_round(actions)

    record = net.trace[0]
    adversary_channels = {channel for channel, _jam in plan}
    adversary_frames = {
        channel: (None if jam else "spoof") for channel, jam in plan
    }

    for channel in range(C):
        honest = record.honest_transmitters(channel)
        total = len(honest) + (1 if channel in adversary_channels else 0)
        delivered = record.delivered.get(channel)
        if total == 1:
            if honest:
                sender = honest[0]
                assert delivered == actions[sender].message
            else:
                # Sole adversary transmission: delivered iff decodable.
                if adversary_frames[channel] == "spoof":
                    assert delivered is not None and delivered.kind == "spoof"
                else:
                    assert delivered is None  # jam = undecodable noise
        else:
            assert delivered is None  # silence or collision

    # Listeners: present in results, consistent per channel.
    for node, action in actions.items():
        if isinstance(action, Listen):
            assert results[node] == record.delivered.get(action.channel)
        else:
            assert node not in results

    # Metrics add up.
    transmits = sum(1 for a in actions.values() if isinstance(a, Transmit))
    listens = sum(1 for a in actions.values() if isinstance(a, Listen))
    assert net.metrics.honest_transmissions == transmits
    assert net.metrics.listens == listens
    assert net.metrics.adversary_transmissions == len(plan)
    assert net.metrics.rounds == 1


@given(actions=actions_strategy)
@settings(max_examples=100, deadline=None)
def test_no_adversary_only_collisions_block(actions):
    net = RadioNetwork(N, C, T)
    results = net.execute_round(actions)
    record = net.trace[0]
    for channel in range(C):
        honest = record.honest_transmitters(channel)
        if len(honest) == 1:
            assert record.delivered[channel] is not None
        else:
            assert record.delivered.get(channel) is None
    for node, received in results.items():
        action = actions[node]
        assert isinstance(action, Listen)
        if received is not None:
            assert record.honest_transmitters(action.channel)


# ---------------------------------------------------------------------------
# A loop resolves as its rounds do.
# ---------------------------------------------------------------------------

LOOP_N = 12
SENDERS = (0, 1, 2, 3)


class _ActOnly:
    """Acts through ``inner`` round by round and never plans."""

    def __init__(self, inner):
        self._inner = inner
        self.needs_history = inner.needs_history

    def act(self, view):
        return self._inner.act(view)


@st.composite
def loop_cases(draw):
    channels = draw(st.integers(2, 6))
    t = draw(st.integers(1, channels - 1))
    # (template pick, listener count, rows, meta pick) per loop.
    shapes = draw(
        st.lists(
            st.tuples(
                st.integers(0, 3),
                st.integers(0, LOOP_N - len(SENDERS)),
                st.integers(0, 12),
                st.integers(0, 3),
            ),
            min_size=1,
            max_size=4,
        )
    )
    total = sum(rows for _, _, rows, _ in shapes)
    cap = draw(st.one_of(st.none(), st.integers(1, total + 1)))
    # A malformed row, maybe: (loop, row, off-air hop or one byte short).
    fault = draw(
        st.none()
        | st.tuples(
            st.integers(0, len(shapes) - 1), st.integers(0, 11), st.booleans()
        )
    )
    seed = draw(st.integers(0, 2**16))
    return channels, t, shapes, cap, fault, seed


def _build_loops(channels, shapes, seed, fault=None):
    """Seeded loops: an empty template, a lone sender, a collision beside
    a lone sender, and one template object shared by every loop that
    picks it; listener tuples in shuffled node order and rows on random
    channels, so some transmitting channels have nobody listening.  A
    ``fault`` ``(loop, row, off_air)`` malforms that row of a loop that
    has rows: its last hop on channel ``C`` or dropped."""
    layout = random.Random(seed)

    def frame(sender):
        return Message("data", sender=sender, payload=("p", sender))

    lone, busy = layout.randrange(channels), layout.randrange(channels)
    other = (busy + 1) % channels
    templates = [
        {},
        {0: Transmit(lone, frame(0))},
        {
            1: Transmit(busy, frame(1)),
            2: Transmit(busy, frame(2)),
            3: Transmit(other, frame(3)),
        },
    ]
    templates.append(templates[1])  # shared by identity
    metas = [
        RoundMeta(phase="feedback", extra={"slot": 0}),
        RoundMeta(phase="feedback-parallel"),
        RoundMeta(
            phase="ame-transmission",
            schedule={
                "channels_in_use": tuple(range(channels)),
                "assignments": {},
            },
        ),
        RoundMeta(),
    ]
    loops = []
    for pick, width, rows, meta in shapes:
        listeners = layout.sample(range(len(SENDERS), LOOP_N), width)
        loops.append(
            CompiledRound(
                templates[pick],
                tuple(listeners),
                tuple(
                    bytes(layout.randrange(channels) for _ in listeners)
                    for _ in range(rows)
                ),
                metas[meta],
            )
        )
    if fault is not None and loops[fault[0]].rows:
        index, row, off_air = fault
        rows = list(loops[index].rows)
        row %= len(rows)
        rows[row] = rows[row][:-1] + (bytes((channels,)) if off_air else b"")
        loops[index] = replace(loops[index], rows=tuple(rows))
    return loops


def _resolve_loops(channels, t, adversary, keep, cap, loops):
    net = RadioNetwork(
        LOOP_N,
        channels,
        t,
        adversary=adversary,
        keep_trace=keep,
        params=ProtocolParameters(max_rounds=cap).validate(),
    )
    heard, error = None, None
    try:
        heard = net.execute_schedule(loops)
    except ProtocolViolation as exc:
        error = str(exc)
    return net, heard, error


def _gallery(name, seed):
    if name is None:
        return None
    return workloads.make_adversary(name, random.Random(seed))


@given(case=loop_cases())
@settings(max_examples=60, deadline=None)
def test_a_loop_resolves_as_its_rounds_do(case):
    """Loops resolved in one call, under every gallery adversary planning
    (or acting, if it does not plan) and wrapped to act, with records kept
    or not, match the same rounds submitted one by one to an acting
    adversary: per-round maps, metrics (``rounds_by_phase`` order too),
    round index, canonical traces, any raised error; and each loop's bulk
    fold is the OR of its rounds' ``hit_row`` masks."""
    channels, t, shapes, cap, fault, seed = case
    loops = _build_loops(channels, shapes, seed, fault)
    rounds = [loop.repetition(row) for loop in loops for row in loop.rows]
    for name in [None, *sorted(workloads.ADVERSARY_FACTORIES)]:
        for acting in (False, True):
            for keep in (False, True):
                subject = _gallery(name, seed)
                if subject is not None and acting:
                    subject = _ActOnly(subject)
                keep = keep or (subject is not None and subject.needs_history)
                net, heard, error = _resolve_loops(
                    channels, t, subject, keep, cap, loops
                )
                reference = _ActOnly(_gallery(name, seed) or NullAdversary())
                ref, ref_heard, ref_error = _resolve_loops(
                    channels, t, reference, keep, cap, rounds
                )
                assert error == ref_error
                assert net.round_index == ref.round_index
                assert net.metrics == ref.metrics
                assert list(net.metrics.rounds_by_phase.items()) == list(
                    ref.metrics.rounds_by_phase.items()
                )
                assert net.trace.canonical_forms() == (
                    ref.trace.canonical_forms() if keep else []
                )
                if heard is None:
                    continue
                assert list(heard) == list(ref_heard)
                maps = iter(heard)
                for index, loop in enumerate(loops):
                    expected: dict[int, int] = {}
                    for row, per_round in zip(loop.rows, maps):
                        for channel, message in per_round.items():
                            hits = int.from_bytes(
                                hit_row(row, channel), "little"
                            )
                            expected[id(message)] = (
                                expected.get(id(message), 0) | hits
                            )
                    folded = {
                        id(message): mask
                        for message, mask in heard.reached(index)
                    }
                    assert folded == expected
