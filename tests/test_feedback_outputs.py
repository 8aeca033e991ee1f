"""The feedback routines' output contract.

Both routines return ``node -> frozenset`` in participant order, nodes
with equal output sets sharing one frozenset (so the f-AME referee vote
hashes each distinct set once), and one parallel merge is one engine
call.  The outputs come from per-slot masks over
:meth:`~repro.radio.network.Heard.reached`; here they are checked against
per-node sets folded round by round from the very rounds each invocation
submitted, on starved runs where the nodes disagree.
"""

from __future__ import annotations

import random
from itertools import chain, repeat

import pytest

from repro.adversary import RandomJammer
from repro.errors import ConfigurationError
from repro.fame.digests import slot_set_digest
from repro.feedback.parallel import run_parallel_feedback
from repro.feedback.protocol import FEEDBACK_KIND, run_feedback
from repro.feedback.witness import WitnessAssignment
from repro.params import ProtocolParameters
from repro.radio.messages import DELTA_KIND, DeltaFrame
from repro.rng import RngRegistry

from conftest import make_network

STARVED = ProtocolParameters(feedback_factor=0.1).validate()
"""Few repetitions: listeners miss true slots often (Lemma 5's failure
event), so the nodes' outputs disagree."""


def recording(network) -> list:
    """Every ``(loops, heard)`` the network resolves from now on."""
    calls: list = []
    execute = network.execute_schedule

    def spy(loops):
        heard = execute(loops)
        calls.append((loops, heard))
        return heard

    network.execute_schedule = spy
    return calls


def reference_outputs(participants, own, loops, heard, accept) -> dict:
    """Per-node output sets folded round by round: each node starts from
    ``own[node]`` and adds ``accept(loop index, message)`` for every
    message delivered on its channel in a round of a loop it listens in."""
    outputs = {node: set(own.get(node, ())) for node in participants}
    indices = chain.from_iterable(
        repeat(index, len(loop.rows)) for index, loop in enumerate(loops)
    )
    rows = chain.from_iterable(loop.rows for loop in loops)
    for index, row, delivered in zip(indices, rows, heard):
        for node, channel in zip(loops[index].listeners, row):
            message = delivered.get(channel)
            if message is not None:
                outputs[node].update(accept(index, message))
    return outputs


def assert_shared(outputs: dict) -> None:
    """Equal output sets are one frozenset object."""
    assert all(type(d) is frozenset for d in outputs.values())
    assert len({id(d) for d in outputs.values()}) == len(set(outputs.values()))


def serial_case(seed: int, slots: int, params=STARVED):
    net = make_network(
        n=40,
        channels=3,
        t=2,
        adversary=RandomJammer(random.Random(seed)),
        params=params,
    )
    sets = tuple(tuple(range(3 * s, 3 * s + 3)) for s in range(slots))
    truth = tuple(slot % 3 != 1 for slot in range(slots))
    flags = {w: truth[slot] for slot, ws in enumerate(sets) for w in ws}
    assignment = WitnessAssignment(sets=sets, channels=(0, 1, 2))
    # Participants out of id order, so lanes are not node ids.
    participants = list(range(39, -1, -1))
    calls = recording(net)
    out = run_feedback(
        net, assignment, flags, participants, RngRegistry(seed)
    )
    (loops, heard), = calls
    own = {w: {s} for s, ws in enumerate(sets) if truth[s] for w in ws}

    def accept(slot, message):
        wanted = message.kind == FEEDBACK_KIND and message.payload == (
            "true",
            slot,
        )
        return (slot,) if wanted else ()

    reference = reference_outputs(participants, own, loops, heard, accept)
    return out, reference, participants


def parallel_case(seed: int, params=STARVED):
    net = make_network(
        n=40,
        channels=8,
        t=2,
        adversary=RandomJammer(random.Random(seed)),
        params=params,
    )
    sets = [tuple(range(4 * slot, 4 * slot + 4)) for slot in range(5)]
    truth = (True, True, False, True, True)
    flags = {w: truth[slot] for slot, ws in enumerate(sets) for w in ws}
    participants = list(range(39, -1, -1))
    calls = recording(net)
    out = run_parallel_feedback(
        net, sets, flags, participants, RngRegistry(seed)
    )
    (loops, heard), = calls
    own = {w: {s} for s, ws in enumerate(sets) if truth[s] for w in ws}

    def accept(index, message):
        frame = message.payload
        if (
            message.kind == DELTA_KIND
            and isinstance(frame, DeltaFrame)
            and frame.tag == loops[index].meta.extra["tag"]
            and slot_set_digest(frame.true_slots) == frame.digest
        ):
            return frame.true_slots
        return ()

    reference = reference_outputs(participants, own, loops, heard, accept)
    return out, reference, participants, loops


@pytest.mark.parametrize("seed,slots", [(1, 4), (2, 8), (3, 11)])
def test_serial_outputs_equal_per_node_sets(seed, slots):
    # Past eight slots a node's key spans two bytes.
    out, reference, participants = serial_case(seed, slots)
    assert len(set(out.values())) > 1  # the starved nodes disagree
    assert out == reference
    assert list(out) == participants
    assert_shared(out)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_parallel_outputs_equal_per_node_sets(seed):
    out, reference, participants, _ = parallel_case(seed)
    assert len(set(out.values())) > 1
    assert out == reference
    assert list(out) == participants
    assert_shared(out)


def test_agreeing_nodes_share_one_set():
    out, reference, _ = serial_case(4, 11, ProtocolParameters())
    assert out == reference
    assert len({id(d) for d in out.values()}) == 1
    assert next(iter(out.values())) == {0, 2, 3, 5, 6, 8, 9}
    out, reference, _, _ = parallel_case(4, ProtocolParameters())
    assert out == reference
    assert len({id(d) for d in out.values()}) == 1
    assert next(iter(out.values())) == {0, 1, 3, 4}


def test_a_parallel_merge_is_one_engine_call():
    # Five groups: levels 0, 1 and 2 in both directions, then the final
    # dissemination, all in the one call the case records.
    _, _, _, loops = parallel_case(5)
    tags = [loop.meta.extra["tag"] for loop in loops]
    assert tags == [
        (0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1), ("final", 3)
    ]


@pytest.mark.parametrize("routine", ["serial", "parallel"])
def test_participants_listed_twice_are_refused(routine):
    net = make_network(n=20, channels=4, t=2)
    sets = [(0, 1, 2, 3), (4, 5, 6, 7)]
    flags = dict.fromkeys(range(8), True)
    participants = list(range(20)) + [9]
    with pytest.raises(ConfigurationError, match="twice"):
        if routine == "serial":
            run_feedback(
                net,
                WitnessAssignment(sets=tuple(sets), channels=(0, 1, 2, 3)),
                flags,
                participants,
                RngRegistry(0),
            )
        else:
            run_parallel_feedback(
                net, sets, flags, participants, RngRegistry(0)
            )
    assert net.metrics.rounds == 0
