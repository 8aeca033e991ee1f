"""A statistical oracle for the private hop coins, through the seam.

Byte-identical digests vouch for a refactor of the coins, never for new
coins.  These checks drive real Section 5.6 gossip epochs
(:func:`~repro.radio.network.run_gossip_epoch` on registry hop streams,
under :class:`~repro.adversary.RandomJammer`) and compare them with the
closed forms of :mod:`repro.analysis.theory` — jointly, not just per
listener:

* the hit rate per listener-round is ``1 - gossip_miss_probability(1, C,
  t)``, i.e. ``(C - t) / C^2``;
* the per-round count of listeners on the sender's channel is
  ``Binomial(L, 1/C)`` (a chi-square test);
* each listener's channel histogram is uniform (a chi-square test each).

Seeds are fixed and every bound sits at 5 sigma, so a correct change of
the coins fails a check with probability about 1e-6.  The negative
control, listeners whose hop streams share one seed, keeps every
listener's histogram uniform but must fail the joint test.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.adversary import RandomJammer
from repro.analysis.theory import gossip_miss_probability
from repro.radio.messages import Message
from repro.radio.network import RadioNetwork, RoundMeta, run_gossip_epoch
from repro.rng import RngRegistry

LISTENERS = 30
ROUNDS = 64
EPOCHS = 400
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

    def spy(schedule):
        sent.extend(cr.transmits[SENDER].channel for cr in schedule.rounds)
        return execute(schedule)

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
    p = 1 / channels
    binomial = [
        rounds * math.comb(LISTENERS, k) * p**k * (1 - p) ** (LISTENERS - k)
        for k in range(LISTENERS + 1)
    ]

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
