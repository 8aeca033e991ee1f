"""Engine equivalence: the sparse fast path resolves exactly like the
legacy dense-action path.

The sparse round engine lets callers submit only non-sleeping nodes,
skips record construction when nothing retains it, and replaces the
per-move pool derivation and n-replica game state with incremental
structures.  These tests are the safety net: for seeded runs — with and
without adversaries — the sparse and dense paths must produce identical
per-round results, byte-identical metrics and canonically identical
traces (explicit ``Sleep`` entries are semantically absent; see
:meth:`repro.radio.trace.RoundRecord.canonical_form`), and the dense side
must match the digests recorded while ``execute_round`` still resolved
rounds with its own loop; whole f-AME runs
must match the ``FameResult``, metric and trace digests recorded from
the dense path (``tests/test_golden.py``); and the incremental greedy
pools must reproduce the from-scratch pools move for move.
"""

from __future__ import annotations

import random

import pytest

from repro.adversary import (
    NullAdversary,
    RandomJammer,
    ScheduleAwareJammer,
    SpoofingAdversary,
    SweepJammer,
)
from repro.fame import run_fame
from repro.fame.config import Regime
from repro.game.graph import GameGraph
from repro.game.greedy import GreedyPools, greedy_proposal, proposal_pools
from repro.radio.actions import SLEEP, Listen, Sleep, Transmit
from repro.radio.messages import Message
from repro.radio.network import RadioNetwork
from repro.rng import RngRegistry

from conftest import make_network
from test_golden import (
    DENSE_ROUNDS,
    FAME,
    FAME_SQUARED,
    fame_digest,
    rounds_digest,
)


def _random_actions(rng: random.Random, n: int, channels: int) -> dict:
    """A random sparse action map over roughly half the nodes."""
    actions = {}
    for node in rng.sample(range(n), rng.randrange(1, n)):
        kind = rng.random()
        if kind < 0.4:
            actions[node] = Transmit(
                rng.randrange(channels),
                Message(kind="d", sender=node, payload=("p", node)),
            )
        elif kind < 0.9:
            actions[node] = Listen(rng.randrange(channels))
        else:
            continue  # sleeps: absent in the sparse map
    return actions


def _densify(actions: dict, n: int) -> dict:
    """The legacy submission style: every idle node sleeps explicitly."""
    dense = dict(actions)
    for node in range(n):
        dense.setdefault(node, SLEEP)
    return dense


class TestActionFlyweights:
    """``Listen`` and ``Sleep`` are plain frozen values, compared and
    hashed by their fields."""

    def test_equality_and_hashing_preserved(self):
        assert Listen(2) == Listen(2) and hash(Listen(2)) == hash(Listen(2))
        assert Sleep() == Sleep() == SLEEP
        assert hash(Sleep()) == hash(SLEEP)
        assert Listen(1) != Listen(2)

    def test_equal_but_differently_typed_channel_never_mutates_flyweight(self):
        # bool/float channels hash-collide with an int channel; building
        # one must never change an existing action's channel or its type.
        interned = Listen(1)
        oddball = Listen(True)
        assert oddball is not interned
        assert interned.channel == 1 and type(interned.channel) is int
        assert Listen(1.0) is not interned
        assert type(Listen(1).channel) is int


class TestRadioPathEquivalence:
    """Dense vs sparse submission over random rounds, replayed seeded."""

    ADVERSARIES = {
        "none": lambda: None,
        "sweep": lambda: SweepJammer(),
        "random": lambda: RandomJammer(random.Random(0xA)),
        "spoof": lambda: SpoofingAdversary(random.Random(0xB)),
    }

    @pytest.mark.parametrize("adversary", sorted(ADVERSARIES))
    def test_results_metrics_and_traces_match(self, adversary):
        n, channels, t, rounds = 12, 3, 1, 40
        nets = {
            style: RadioNetwork(
                n, channels, t, adversary=self.ADVERSARIES[adversary]()
            )
            for style in ("dense", "sparse")
        }
        plans = random.Random(1234)
        per_round = [
            _random_actions(plans, n, channels) for _ in range(rounds)
        ]
        dense_outs = []
        for actions in per_round:
            sparse_out = nets["sparse"].execute_round(actions)
            dense_out = nets["dense"].execute_round(_densify(actions, n))
            assert sparse_out == dense_out
            dense_outs.append(dense_out)
        assert nets["sparse"].metrics == nets["dense"].metrics
        assert (
            nets["sparse"].trace.canonical_forms()
            == nets["dense"].trace.canonical_forms()
        )
        assert (
            rounds_digest(dense_outs, nets["dense"]) == DENSE_ROUNDS[adversary]
        )

    def test_keep_trace_false_preserves_metrics(self):
        n, channels, t, rounds = 10, 3, 1, 30
        kept = RadioNetwork(n, channels, t, adversary=SweepJammer())
        dropped = RadioNetwork(
            n, channels, t, adversary=SweepJammer(), keep_trace=False
        )
        plans = random.Random(77)
        for actions in (
            _random_actions(plans, n, channels) for _ in range(rounds)
        ):
            assert kept.execute_round(actions) == dropped.execute_round(
                actions
            )
        # The spoof scan no longer needs the record: counters still agree.
        assert kept.metrics == dropped.metrics
        assert len(dropped.trace) == 0 and len(kept.trace) == rounds

    def test_execute_rounds_matches_loop(self):
        n, channels, t = 8, 2, 1
        plans = random.Random(9)
        batch = [
            (_random_actions(plans, n, channels), None) for _ in range(15)
        ]
        looped = RadioNetwork(n, channels, t)
        batched = RadioNetwork(n, channels, t)
        expected = [looped.execute_round(a, m) for a, m in batch]
        assert batched.execute_rounds(batch) == expected
        assert batched.metrics == looped.metrics


class TestGreedyPoolEquivalence:
    """Incremental pools vs from-scratch derivation over random games."""

    @pytest.mark.parametrize("seed", range(6))
    def test_pools_track_random_grant_sequences(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(6, 16)
        pairs = {
            (v, w)
            for v in range(n)
            for w in range(n)
            if v != w and rng.random() < 0.25
        }
        graph = GameGraph.from_pairs(sorted(pairs), vertices=range(n))
        pools = GreedyPools(graph)
        reference = graph.copy()
        for _ in range(60):
            assert pools.pools() == proposal_pools(reference)
            assert pools.proposal(1) == greedy_proposal(reference, 1)
            # Apply one random grant of either kind, mirrored to both.
            if reference.edges and rng.random() < 0.6:
                edge = rng.choice(sorted(reference.edges))
                pools.remove_edge(edge)
                reference.remove_edge(edge)
            else:
                node = rng.randrange(n)
                if node in reference.starred:
                    continue
                pools.star(node)
                reference.star(node)
        assert pools.pools() == proposal_pools(reference)


class TestFameProtocolEquivalence:
    """End-to-end: f-AME runs match digests recorded from the legacy
    engine (Sleep-padded dense rounds, per-round feedback loops)."""

    EDGES = [(0, 1), (2, 3), (4, 5), (1, 6), (7, 8)]

    ADVERSARIES = {
        "null": NullAdversary,
        "sweep": SweepJammer,
        "random": lambda: RandomJammer(random.Random(0xC)),
        "schedule-aware": lambda: ScheduleAwareJammer(
            random.Random(0xD), policy="prefix"
        ),
        "spoof": lambda: SpoofingAdversary(random.Random(0xE)),
    }

    @staticmethod
    def _run(adversary, edges, *, n, channels, t, seed):
        net = make_network(n=n, channels=channels, t=t, adversary=adversary)
        return run_fame(net, edges, rng=RngRegistry(seed=seed)), net

    @pytest.mark.parametrize("adversary", sorted(ADVERSARIES))
    def test_sparse_and_dense_runs_identical(self, adversary):
        result, net = self._run(
            self.ADVERSARIES[adversary](),
            self.EDGES,
            n=20,
            channels=2,
            t=1,
            seed=5,
        )
        assert fame_digest(result, net) == FAME[adversary]

    def test_squared_regime_run_matches_golden(self):
        """C >= 2t^2: every move's feedback is the parallel merge."""
        edges = [(0, 1), (2, 3), (4, 5), (1, 6), (7, 8), (9, 10), (11, 12),
                 (3, 13)]
        result, net = self._run(
            ScheduleAwareJammer(random.Random(0x5A)),
            edges,
            n=40,
            channels=4,
            t=1,
            seed=3,
        )
        assert result.config.regime is Regime.SQUARED
        assert set(net.metrics.rounds_by_phase) == {
            "ame-transmission",
            "feedback-parallel",
        }
        assert fame_digest(result, net) == FAME_SQUARED
