"""A statistical oracle for the private hop coins, through the seam.

Byte-identical digests vouch for a refactor of the coins, never for new
coins.  These checks drive real phases on registry hop streams under
:class:`~repro.adversary.RandomJammer` and compare them with the closed
forms in ``oracles`` — jointly, not just per listener.

Section 5.6 gossip epochs (:func:`~repro.radio.network.run_gossip_epoch`):

* the hit rate per listener-round is ``1 - gossip_miss_probability(1, C,
  t)``, i.e. ``(C - t) / C^2``;
* the per-round count of listeners on the sender's channel is
  ``Binomial(L, 1/C)`` (a chi-square test);
* each listener's channel histogram is uniform (a chi-square test each).

Serial feedback repetitions (Figure 1, :func:`~repro.feedback.protocol.
run_feedback`) with every feedback channel in use, ``C = t + 1``
witnesses of one true slot:

* the hearing rate per listener-repetition is ``1 -
  feedback_miss_probability(1, C, t)``, i.e. ``(C - t) / C``;
* the per-repetition count of listeners that hear ``<true, r>`` is
  ``Binomial(L, (C - t) / C)`` (a chi-square test).

Parallel feedback transfers (Section 5.5, :func:`~repro.feedback.parallel.
run_parallel_feedback`) at ``C = 2t``: one merge pair of ``2t``-member
witness groups, so the block is every channel, and ``L`` outsiders
listening in the final dissemination.  The same two checks hold with
``(C - t) / C = 1/2``.

Keyed epochs (Sections 6-7, :func:`~repro.radio.network.run_hopped_epoch`)
on :class:`~repro.crypto.hopping.ChannelHopper` hops, one sender and one
listener:

* a round survives the keyless jammer with probability ``1 -
  hopping_miss_probability(1, C, t)``, i.e. ``1 - t / C``;
* the hop-channel histogram is uniform (a chi-square test).

Seeds are fixed and every bound sits at 5 sigma, so a correct change of
the coins fails a check with probability about 1e-6.  Setting
``COIN_ORACLE_SCALE=k`` runs every check over ``k`` times its rounds and
epochs, for finer resolution at the same bounds.  Five negative
controls must fail: listeners whose hop streams share one seed keep every
listener's histogram uniform but fail the joint gossip test; hop streams
that clamp out-of-range draws instead of rejecting them fail every gossip
check; a jammer that silently never jams fails both feedback checks,
serial and parallel; and a jammer that knows the hop key fails the
survival check while the hops stay uniform.
"""

from __future__ import annotations

import math
import os
import random
from itertools import chain, repeat

import pytest

from repro.adversary import Adversary, RandomJammer
from repro.crypto.hopping import ChannelHopper
from repro.feedback.parallel import run_parallel_feedback
from repro.feedback.protocol import FEEDBACK_KIND, run_feedback
from repro.feedback.witness import WitnessAssignment
from repro.radio.messages import DELTA_KIND, JAM, Message, Transmission
from repro.radio.network import (
    RadioNetwork,
    RoundMeta,
    keyed_epoch_rounds,
    run_gossip_epoch,
    run_hopped_epoch,
)
from repro.rng import RngRegistry

from oracles import (
    feedback_miss_probability,
    gossip_miss_probability,
    hopping_miss_probability,
)

SCALE = int(os.environ.get("COIN_ORACLE_SCALE", "1"))
"""Multiplies every check's rounds and epochs (``COIN_ORACLE_SCALE``, read
by this module only): CI also runs the oracle at ten times its size."""

LISTENERS = 30
ROUNDS = 64
EPOCHS = 400 * SCALE
SENDER = 0
FIVE_SIGMA = math.erfc(5 / math.sqrt(2))
"""Two-sided normal tail beyond 5 sigma (about 5.7e-7)."""


def chi_square_sf(statistic: float, dof: int) -> float:
    """P(a chi-square variable with ``dof`` degrees of freedom exceeds
    ``statistic``), exact for integer ``dof``."""
    half = statistic / 2
    if dof % 2 == 0:
        terms = (half**i / math.factorial(i) for i in range(dof // 2))
        return math.exp(-half) * sum(terms)
    tail = math.erfc(math.sqrt(half))
    for i in range(1, (dof + 1) // 2):
        log_term = (i - 0.5) * math.log(half) - math.lgamma(i + 0.5)
        tail += math.exp(log_term - half)
    return tail


def chi_square_p(observed: list[int], expected: list[float]) -> float:
    """Pearson's goodness-of-fit p-value, pooling neighbouring bins until
    each expects at least five observations."""
    pooled: list[list[float]] = []
    for seen, wanted in zip(observed, expected):
        if pooled and pooled[-1][1] < 5:
            pooled[-1][0] += seen
            pooled[-1][1] += wanted
        else:
            pooled.append([seen, wanted])
    if len(pooled) > 1 and pooled[-1][1] < 5:
        seen, wanted = pooled.pop()
        pooled[-1][0] += seen
        pooled[-1][1] += wanted
    statistic = sum((seen - wanted) ** 2 / wanted for seen, wanted in pooled)
    return chi_square_sf(statistic, len(pooled) - 1)


def binomial_counts(rounds: int, trials: int, p: float) -> list[float]:
    """Expected histogram of ``rounds`` draws of ``Binomial(trials, p)``."""
    return [
        rounds * math.comb(trials, k) * p**k * (1 - p) ** (trials - k)
        for k in range(trials + 1)
    ]


def gossip_checks(channels: int, t: int, hops: list, seed: int) -> dict:
    """Run ``EPOCHS`` gossip epochs of ``ROUNDS`` rounds, node ``SENDER``
    sending to ``LISTENERS`` listeners, each node hopping on
    ``hops[node]``; return each check's p-value."""
    network = RadioNetwork(
        LISTENERS + 1,
        channels,
        t,
        adversary=RandomJammer(random.Random(seed)),
        keep_trace=False,
    )
    sent: list[int] = []
    execute = network.execute_schedule

    def spy(loops):
        sent.extend(cr.transmits[SENDER].channel for cr in loops)
        return execute(loops)

    network.execute_schedule = spy
    listeners = tuple(range(1, LISTENERS + 1))
    frame = Message("oracle", SENDER, None)
    meta = RoundMeta(phase="oracle")
    hits = 0
    rows: list[bytes] = []
    for _ in range(EPOCHS):
        epoch = run_gossip_epoch(
            network, SENDER, frame, listeners, hops, ROUNDS, meta
        )
        assert epoch, "a gossip epoch ran no rounds"
        for row, heard in epoch:
            rows.append(row)
            hits += sum(row.count(channel) for channel in heard)
    rounds = len(rows)

    # Hit rate: a round hits the listeners on the sender's channel when
    # the jammer misses it (probability q), so its hit count is q-mixed
    # Binomial(L, 1/C), whose variance the z-score uses.
    per_listener = 1 - float(gossip_miss_probability(1, channels, t))
    q = (channels - t) / channels
    mean = LISTENERS / channels
    variance = q * mean * (1 - 1 / channels) + q * (1 - q) * mean**2
    z = (hits - rounds * LISTENERS * per_listener) / math.sqrt(
        rounds * variance
    )

    # Joint: listeners on the sender's channel, jammed or not.
    on_sender = [0] * (LISTENERS + 1)
    for row, channel in zip(rows, sent):
        on_sender[row.count(channel)] += 1
    binomial = binomial_counts(rounds, LISTENERS, 1 / channels)

    # Marginal: each listener's own channel histogram.
    hops_of = b"".join(rows)
    uniform = min(
        chi_square_p(
            [hops_of[i::LISTENERS].count(c) for c in range(channels)],
            [rounds / channels] * channels,
        )
        for i in range(LISTENERS)
    )
    return {
        "hit_rate": math.erfc(abs(z) / math.sqrt(2)),
        "binomial": chi_square_p(on_sender, binomial),
        "uniform": uniform,
    }


@pytest.mark.parametrize(
    "channels,t,seed", [(2, 1, 11), (3, 1, 12), (8, 3, 13)]
)
def test_gossip_coins_match_theory(channels, t, seed):
    hops = RngRegistry(seed).hops(
        "gossip", nodes=range(LISTENERS + 1), n=channels
    )
    checks = gossip_checks(channels, t, hops, seed)
    assert min(checks.values()) > FIVE_SIGMA, checks


def test_shared_listener_coins_fail_the_joint_check():
    channels, t, seed = 3, 1, 12
    (sender,) = RngRegistry(seed).hops("gossip", nodes=[SENDER], n=channels)
    shared = [
        RngRegistry(seed).hops("shared", nodes=[0], n=channels)[0]
        for _ in range(LISTENERS)
    ]
    checks = gossip_checks(channels, t, [sender] + shared, seed)
    assert checks["uniform"] > FIVE_SIGMA, checks
    assert checks["binomial"] < FIVE_SIGMA, checks


class _ClampedStream:
    """A hop stream that draws just enough bits per hop and clamps values
    past ``n - 1`` instead of rejecting them: at ``n = 3`` a 2-bit draw
    lands on channel 2 half the time."""

    def __init__(self, seed: int, n: int) -> None:
        self.n = n
        self._bits = (n - 1).bit_length()
        self._rng = random.Random(seed)

    def take(self, count: int) -> bytes:
        top = self.n - 1
        return bytes(
            min(self._rng.getrandbits(self._bits), top) for _ in range(count)
        )


def test_clamped_hop_coins_fail_the_gossip_checks():
    channels, t, seed = 3, 1, 12
    hops = [
        _ClampedStream(seed * 1000 + node, channels)
        for node in range(LISTENERS + 1)
    ]
    checks = gossip_checks(channels, t, hops, seed)
    assert max(checks.values()) < FIVE_SIGMA, checks


FEEDBACK_ROUNDS = 12_000 * SCALE
"""Feedback repetitions per check, summed over serial invocations."""


class _SilentJammer(RandomJammer):
    """Claims the jammer's budget but never jams."""

    def plan_schedule(self, view, metas):
        return [()] * len(metas)


def hearing_checks(counts: list[int], channels: int, t: int) -> dict:
    """p-values of the hearing rate and of the Binomial histogram, given
    each repetition's count of ``LISTENERS`` listeners that heard the
    true frame."""
    p = 1 - float(feedback_miss_probability(1, channels, t))
    z = (sum(counts) - len(counts) * LISTENERS * p) / math.sqrt(
        len(counts) * LISTENERS * p * (1 - p)
    )
    histogram = [0] * (LISTENERS + 1)
    for count in counts:
        histogram[count] += 1
    return {
        "hearing_rate": math.erfc(abs(z) / math.sqrt(2)),
        "binomial": chi_square_p(
            histogram, binomial_counts(len(counts), LISTENERS, p)
        ),
    }


def loop_rounds(loops, heard):
    """Each round of a schedule's ``loops`` as ``(loop, hop row, channel
    -> message)``: each loop once per row, its rows in order, beside the
    result's per-round maps."""
    return zip(
        chain.from_iterable(repeat(loop, len(loop.rows)) for loop in loops),
        chain.from_iterable(loop.rows for loop in loops),
        heard,
    )


def feedback_checks(channels: int, t: int, adversary, seed: int) -> dict:
    """Run serial feedback invocations until ``FEEDBACK_ROUNDS``
    repetitions have run, witnesses ``0..C-1`` reporting one true slot on
    every feedback channel and ``LISTENERS`` listeners hopping on their
    registry hop streams; return each check's p-value."""
    assignment = WitnessAssignment(
        sets=(tuple(range(channels)),), channels=tuple(range(channels))
    )
    flags = dict.fromkeys(range(channels), True)
    participants = list(range(channels + LISTENERS))
    network = RadioNetwork(
        len(participants), channels, t, adversary=adversary, keep_trace=False
    )
    rounds: list[tuple[bytes, dict]] = []
    execute = network.execute_schedule

    def spy(loops):
        heard = execute(loops)
        rounds.extend((row, got) for _, row, got in loop_rounds(loops, heard))
        return heard

    network.execute_schedule = spy
    # One registry for every invocation: each listener's hop stream goes
    # on where the previous invocation left it.
    registry = RngRegistry(seed)
    while len(rounds) < FEEDBACK_ROUNDS:
        kept = len(rounds)
        run_feedback(network, assignment, flags, participants, registry)
        assert len(rounds) > kept, "a feedback invocation ran no rounds"
    counts = [
        sum(
            row.count(channel)
            for channel, frame in heard.items()
            if frame.kind == FEEDBACK_KIND and frame.payload == ("true", 0)
        )
        for row, heard in rounds
    ]
    return hearing_checks(counts, channels, t)


@pytest.mark.parametrize("channels,t,seed", [(2, 1, 21), (3, 2, 22), (4, 3, 23)])
def test_feedback_coins_match_theory(channels, t, seed):
    checks = feedback_checks(
        channels, t, RandomJammer(random.Random(seed)), seed
    )
    assert min(checks.values()) > FIVE_SIGMA, checks


def test_a_silent_jammer_fails_the_feedback_checks():
    checks = feedback_checks(3, 2, _SilentJammer(random.Random(22)), 22)
    assert max(checks.values()) < FIVE_SIGMA, checks


PARALLEL_ROUNDS = 6_000 * SCALE
"""Final-dissemination repetitions per check, summed over invocations."""


def parallel_feedback_checks(t: int, adversary, seed: int) -> dict:
    """Run parallel merges at ``C = 2t`` until ``PARALLEL_ROUNDS``
    final-dissemination repetitions have run: two witness groups of
    ``2t`` reporting true slots, merged on one block of every channel,
    then broadcast to ``LISTENERS`` outsiders hopping on their registry
    hop streams; return each check's p-value."""
    channels = 2 * t
    witness_sets = [
        tuple(range(channels)),
        tuple(range(channels, 2 * channels)),
    ]
    flags = dict.fromkeys(range(2 * channels), True)
    participants = list(range(2 * channels + LISTENERS))
    network = RadioNetwork(
        len(participants), channels, t, adversary=adversary, keep_trace=False
    )
    rounds: list[tuple[bytes, dict]] = []
    execute = network.execute_schedule

    def spy(loops):
        heard = execute(loops)
        rounds.extend(
            (row, got)
            for loop, row, got in loop_rounds(loops, heard)
            if loop.meta.extra["tag"][0] == "final"
        )
        return heard

    network.execute_schedule = spy
    registry = RngRegistry(seed)
    while len(rounds) < PARALLEL_ROUNDS:
        kept = len(rounds)
        run_parallel_feedback(
            network, witness_sets, flags, participants, registry
        )
        assert len(rounds) > kept, "a merge ran no final dissemination"
    counts = [
        sum(
            row.count(channel)
            for channel, frame in heard.items()
            if frame.kind == DELTA_KIND and frame.payload.true_slots == (0, 1)
        )
        for row, heard in rounds
    ]
    return hearing_checks(counts, channels, t)


@pytest.mark.parametrize("t,seed", [(1, 31), (2, 32), (3, 33)])
def test_parallel_feedback_coins_match_theory(t, seed):
    checks = parallel_feedback_checks(
        t, RandomJammer(random.Random(seed)), seed
    )
    assert min(checks.values()) > FIVE_SIGMA, checks


def test_a_silent_jammer_fails_the_parallel_feedback_checks():
    checks = parallel_feedback_checks(2, _SilentJammer(random.Random(32)), 32)
    assert max(checks.values()) < FIVE_SIGMA, checks


HOP_ROUNDS = 15_000 * SCALE
"""Keyed rounds per check, summed over epochs."""


class _KeyHolder(Adversary):
    """A jammer that knows the hop key: it jams the hop every round."""

    def __init__(self, hopper: ChannelHopper) -> None:
        self._hopper = hopper

    def act(self, view):
        return (Transmission(self._hopper.channel(view.round_index), JAM),)


def keyed_hop_checks(channels: int, t: int, adversary, hopper) -> dict:
    """Run keyed epochs through ``run_hopped_epoch`` until ``HOP_ROUNDS``
    rounds have run, node 0 sending to node 1 on ``hopper``'s hop for each
    absolute round; return the p-values of the survival rate and of the
    hop histogram's uniformity."""
    network = RadioNetwork(2, channels, t, adversary=adversary, keep_trace=False)
    epoch = keyed_epoch_rounds(network)
    senders = {0: Message("oracle", 0, None)}
    meta = RoundMeta(phase="oracle")
    hops: list[int] = []
    survived = 0
    while len(hops) < HOP_ROUNDS:
        epoch_hops = hopper.sequence(network.round_index, epoch)
        heard = run_hopped_epoch(network, epoch_hops, senders, (1,), meta)
        hops += epoch_hops
        survived += sum(frame is not None for frame in heard)
    p = 1 - float(hopping_miss_probability(1, channels, t))
    z = (survived - len(hops) * p) / math.sqrt(len(hops) * p * (1 - p))
    return {
        "survival": math.erfc(abs(z) / math.sqrt(2)),
        "uniform": chi_square_p(
            [hops.count(c) for c in range(channels)],
            [len(hops) / channels] * channels,
        ),
    }


@pytest.mark.parametrize("channels,t,seed", [(2, 1, 41), (4, 1, 42), (4, 3, 43)])
def test_keyed_hops_match_theory(channels, t, seed):
    hopper = ChannelHopper(bytes([seed]) * 16, channels, label="oracle")
    checks = keyed_hop_checks(
        channels, t, RandomJammer(random.Random(seed)), hopper
    )
    assert min(checks.values()) > FIVE_SIGMA, checks


def test_a_jammer_with_the_key_fails_the_survival_check():
    hopper = ChannelHopper(bytes([42]) * 16, 4, label="oracle")
    checks = keyed_hop_checks(4, 1, _KeyHolder(hopper), hopper)
    assert checks["uniform"] > FIVE_SIGMA, checks
    assert checks["survival"] < FIVE_SIGMA, checks
