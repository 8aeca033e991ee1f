"""Property-based tests of the radio medium's resolution semantics.

Hypothesis generates arbitrary per-round action maps and adversary plans;
the medium must satisfy the Section 3 model invariants on every one:

* a channel delivers iff it carries exactly one decodable transmission;
* every listener on one channel hears the same thing;
* transmitters and sleepers never appear in the result map;
* metrics add up.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.adversary.base import Adversary
from repro.radio.actions import Listen, Sleep, Transmit
from repro.radio.messages import JAM, Message, Transmission
from repro.radio.network import RadioNetwork

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
