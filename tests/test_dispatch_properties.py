"""Hypothesis properties for dispatch determinism.

Two families, both load-bearing for the byte-identical-report guarantee:

* **grid expansion** — a :class:`SweepSpec`'s expansion is order-stable
  (a pure function of the spec, point order = documented product order),
  seeds are injective in ``(point_index, trial_index)`` and derived via
  ``RngRegistry.spawn("sweep", ...)``, and growing ``trials`` never
  changes the seeds of pre-existing ``(point, trial)`` coordinates
  (what makes journals resumable across a deepened sweep — extending a
  grid *axis* renumbers points and is a new sweep by design);
* **merge obliviousness** — applying trial results in *any* completion
  order, with duplicate redeliveries interleaved, aggregates
  byte-identically to index order (the at-most-once + index-sort rule).
"""

from __future__ import annotations

import itertools
import json

from hypothesis import given, settings, strategies as st

from repro.dispatch import ResultAssembler, SweepReport, SweepSpec
from repro.experiments import TrialResult
from repro.radio.metrics import NetworkMetrics
from repro.rng import RngRegistry

# Small pools so grids stay a few dozen points; values are arbitrary —
# expansion/seed properties never execute a trial.
_ns = st.lists(
    st.sampled_from([18, 20, 24, 32, 48]), min_size=1, max_size=3,
    unique=True,
)
_channels = st.lists(
    st.sampled_from([2, 3, 4]), min_size=1, max_size=2, unique=True
)
_ts = st.lists(st.sampled_from([1, 2]), min_size=1, max_size=2, unique=True)
_advs = st.lists(
    st.sampled_from(["null", "random", "sweep", "reactive", "schedule"]),
    min_size=1, max_size=3, unique=True,
)
_specs = st.builds(
    SweepSpec,
    ns=_ns.map(tuple),
    channels=_channels.map(tuple),
    ts=_ts.map(tuple),
    adversaries=_advs.map(tuple),
    trials=st.integers(1, 4),
    seed=st.integers(0, 2**32),
)


@given(spec=_specs)
@settings(max_examples=60, deadline=None)
def test_expansion_is_order_stable(spec):
    first = spec.specs()
    again = spec.specs()
    assert first == again
    assert [s.index for s in first] == list(range(spec.total_trials))
    # point order is the documented cartesian-product order
    expected = list(
        itertools.product(
            spec.workloads, spec.ns, spec.channels, spec.ts,
            spec.adversaries,
        )
    )
    got = [
        (p.workload, p.n, p.channels, p.t, p.adversary)
        for p in spec.points()
    ]
    assert got == expected


@given(spec=_specs)
@settings(max_examples=60, deadline=None)
def test_seeds_injective_and_spawn_derived(spec):
    root = RngRegistry(seed=spec.seed)
    seeds = {}
    for trial in spec.specs():
        point_index = spec.point_for_index(trial.index)
        trial_index = trial.index - point_index * spec.trials
        assert trial.seed == root.spawn(
            "sweep", point_index, trial_index
        ).seed
        seeds[(point_index, trial_index)] = trial.seed
    # injective across the whole grid
    assert len(set(seeds.values())) == len(seeds)


@given(spec=_specs, extra_trials=st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_growing_trials_preserves_existing_seeds(spec, extra_trials):
    import dataclasses

    grown = dataclasses.replace(spec, trials=spec.trials + extra_trials)
    original = {
        (spec.point_for_index(s.index),
         s.index - spec.point_for_index(s.index) * spec.trials): s.seed
        for s in spec.specs()
    }
    regrown = {
        (grown.point_for_index(s.index),
         s.index - grown.point_for_index(s.index) * grown.trials): s.seed
        for s in grown.specs()
    }
    for coords, seed in original.items():
        assert regrown[coords] == seed


def _fake_results(count: int, rng) -> list[TrialResult]:
    results = []
    for i in range(count):
        failed = ((0, 1),) if rng.randint(0, 2) == 0 else ()
        results.append(
            TrialResult(
                index=i,
                seed=i * 13 + 1,
                success=rng.randint(0, 1) == 1,
                failed_pairs=failed,
                metrics=NetworkMetrics(
                    rounds=rng.randint(1, 50),
                    honest_transmissions=rng.randint(0, 99),
                    payload_units=rng.randint(0, 99),
                ),
                cover=1 if failed else 0,
            )
        )
    return results


@given(
    count=st.integers(2, 12),
    order_seed=st.randoms(use_true_random=False),
    dup_positions=st.lists(st.integers(0, 11), max_size=6),
)
@settings(max_examples=80, deadline=None)
def test_any_completion_order_with_duplicates_merges_identically(
    count, order_seed, dup_positions
):
    results = _fake_results(count, order_seed)
    spec = SweepSpec(ns=(18,), trials=count, seed=3)

    reference = SweepReport.build(spec, results)

    delivery = list(results)
    for pos in dup_positions:  # redeliveries of already-sent results
        delivery.append(results[pos % count])
    order_seed.shuffle(delivery)

    assembler = ResultAssembler(range(count))
    applied = sum(1 for r in delivery if assembler.apply(r))
    assert applied == count  # every duplicate was dropped exactly
    shuffled = SweepReport.build(spec, assembler.ordered())

    assert json.dumps(reference.as_dict(), sort_keys=True) == json.dumps(
        shuffled.as_dict(), sort_keys=True
    )


@given(
    order_seed=st.randoms(use_true_random=False),
    trials=st.integers(1, 3),
)
@settings(max_examples=30, deadline=None)
def test_sweep_report_builds_identically_from_any_order(order_seed, trials):
    spec = SweepSpec(ns=(18, 24), trials=trials, seed=5)
    results = _fake_results(spec.total_trials, order_seed)
    reference = SweepReport.build(spec, results).as_dict()
    shuffled_results = list(results)
    order_seed.shuffle(shuffled_results)
    shuffled = SweepReport.build(spec, shuffled_results).as_dict()
    assert json.dumps(reference, sort_keys=True) == json.dumps(
        shuffled, sort_keys=True
    )
