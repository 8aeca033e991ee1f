"""Ready-made trial factories for the headline Monte Carlo workloads.

Each workload is a module-level function ``TrialSpec -> TrialResult`` —
module-level so it stays picklable under every ``multiprocessing`` start
method — registered in :data:`WORKLOADS` under the name a spec carries.
All randomness flows from the spec's per-trial seed through one
:class:`~repro.rng.RngRegistry`, with the adversary's coins on their own
named stream (the paper's separation of honest and adversarial coins).

The three factories mirror the CLI demos:

* ``fame`` — f-AME pair delivery; success is Definition 1's
  ``t``-disruptability claim, with delivered-pair counts in the detail.
* ``groupkey`` — Section 6 group-key establishment; success is "all but
  ``t`` nodes adopt the group key", and the failed pairs are the leader
  spanner's unestablished DH exchanges.
* ``gauntlet`` — f-AME against every adversary in the gallery; success is
  the worst-case cover staying within ``t``, metrics merged across runs.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Callable

from ..adversary import (
    Adversary,
    NullAdversary,
    RandomJammer,
    ReactiveJammer,
    ScheduleAwareJammer,
    SpoofingAdversary,
    SweepJammer,
)
from ..crypto.dh import TEST_GROUP_128
from ..errors import ConfigurationError
from ..fame import run_fame
from ..groupkey import establish_group_key
from ..groupkey.spanner import leader_spanner
from ..radio.metrics import NetworkMetrics
from ..radio.network import RadioNetwork
from ..rng import RngRegistry
from .trial import TrialResult, TrialSpec

AdversaryFactory = Callable[[random.Random], Adversary]

ADVERSARY_FACTORIES: dict[str, AdversaryFactory] = {
    "null": lambda rng: NullAdversary(),
    "random": RandomJammer,
    "sweep": lambda rng: SweepJammer(),
    "reactive": ReactiveJammer,
    "spoofer": SpoofingAdversary,
    "schedule": lambda rng: ScheduleAwareJammer(rng, policy="prefix"),
}
"""The adversary gallery, keyed by CLI name (shared with ``python -m repro``)."""


def make_adversary(name: str, rng: random.Random) -> Adversary:
    """Instantiate a gallery adversary by name."""
    try:
        factory = ADVERSARY_FACTORIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown adversary {name!r}; pick from "
            f"{sorted(ADVERSARY_FACTORIES)}"
        ) from None
    return factory(rng)


def default_pairs(n: int, count: int) -> list[tuple[int, int]]:
    """The CLI's canonical AME pair set: ``(i, i + n//2)`` pairs.

    Raises :class:`ConfigurationError` when ``count < 1``: an empty pair
    set would run a vacuous exchange and report it as a success.
    """
    if count < 1:
        raise ConfigurationError(f"need at least one AME pair, got {count}")
    return [(i, i + n // 2) for i in range(min(count, n // 2 - 1))]


WORKLOADS: dict[str, Callable[[TrialSpec], TrialResult]] = {}
"""Registered trial factories, keyed by ``TrialSpec.workload``."""

WORKLOAD_USES_ADVERSARY: dict[str, bool] = {}
"""Whether a workload honours ``TrialSpec.adversary``.

``gauntlet`` runs the whole gallery internally and ignores the field, so
sweeping it across an adversary axis would duplicate identical
configurations — :class:`repro.dispatch.sweep.SweepSpec` consults this
map to reject such grids.
"""


def register_workload(
    name: str, *, uses_adversary: bool = True
) -> Callable[[Callable[[TrialSpec], TrialResult]], Callable[[TrialSpec], TrialResult]]:
    """Class-less registry decorator for workload functions."""

    def register(fn: Callable[[TrialSpec], TrialResult]):
        WORKLOADS[name] = fn
        WORKLOAD_USES_ADVERSARY[name] = uses_adversary
        return fn

    return register


SCENARIO_WORKLOAD_PREFIX = "scenario:"
"""Workload-name prefix that maps onto the attack-scenario registry.

``scenario:NAME`` runs :func:`repro.scenarios.run_scenario` once per
trial at the trial's seed; success is "observed outcome == expected".
Registration is lazy (first resolution imports :mod:`repro.scenarios`)
so the experiments layer keeps no import edge to the serve stack, and
workers resolve the name themselves — only :class:`TrialSpec` /
:class:`TrialResult` ever cross the dispatch wire.
"""


def _register_scenario_workload(workload_name: str, scenario_name: str):
    from ..scenarios import encode_outcome, get_scenario, run_scenario

    get_scenario(scenario_name)  # typed error for unknown names, eagerly

    def scenario_trial(spec: TrialSpec) -> TrialResult:
        run = run_scenario(scenario_name, seed=spec.seed)
        return TrialResult(
            index=spec.index,
            seed=spec.seed,
            success=run.matched,
            failed_pairs=(),
            metrics=run.metrics,
            detail=(
                ("attack", run.attack),
                ("expected", encode_outcome(run.expected)),
                ("layer", run.layer),
                ("observed", encode_outcome(run.observed)),
                ("scenario", run.name),
            )
            + run.detail,
            # Scenario outcomes are typed, not pair-graphs: no cover
            # search to run.
            cover=0,
        )

    # Scenarios pin their own model and adversary: the spec's n/C/t and
    # adversary axes are ignored, so multi-adversary grids are rejected
    # exactly like the gauntlet workload.
    WORKLOADS[workload_name] = scenario_trial
    WORKLOAD_USES_ADVERSARY[workload_name] = False
    return scenario_trial


def make_workload(name: str) -> Callable[[TrialSpec], TrialResult]:
    """Resolve a workload name, registering scenario workloads lazily.

    The single lookup path shared by :func:`run_trial` and
    :class:`repro.dispatch.sweep.SweepSpec` validation —
    unknown names raise :class:`~repro.errors.ConfigurationError` (or
    its :class:`~repro.errors.ScenarioError` subtype for a bad
    ``scenario:`` suffix) everywhere, including inside worker processes.
    """
    fn = WORKLOADS.get(name)
    if fn is not None:
        return fn
    if name.startswith(SCENARIO_WORKLOAD_PREFIX):
        scenario_name = name[len(SCENARIO_WORKLOAD_PREFIX):]
        return _register_scenario_workload(name, scenario_name)
    raise ConfigurationError(
        f"unknown workload {name!r}; pick from {sorted(WORKLOADS)} "
        f"or {SCENARIO_WORKLOAD_PREFIX}NAME"
    )


def run_trial(spec: TrialSpec) -> TrialResult:
    """Execute one trial — the function shipped to worker processes.

    The trial's disruptability cover is computed here, in the worker, so
    the exact vertex-cover search parallelises with the trials instead of
    running serially in the aggregating parent.
    """
    fn = make_workload(spec.workload)
    result = fn(spec)
    if result.cover is None:
        result = dataclasses.replace(result, cover=result.disruptability())
    return result


def make_network(
    n: int, channels: int, t: int, adversary: Adversary
) -> RadioNetwork:
    """Network construction shared by the CLI demos and trial workloads:
    trace retention off unless the adversary needs history."""
    return RadioNetwork(
        n,
        channels,
        t,
        adversary=adversary,
        keep_trace=adversary.needs_history,
    )


def _network_for(spec: TrialSpec, adversary: Adversary) -> RadioNetwork:
    """A trial's network, built from its spec's model parameters."""
    return make_network(spec.n, spec.channels, spec.t, adversary)


@register_workload("fame")
def fame_delivery_trial(spec: TrialSpec) -> TrialResult:
    """f-AME pair delivery against one gallery adversary.

    Success is the paper's headline claim for a single run: the failed
    pairs admit a vertex cover of at most ``t`` (Definition 1).  Delivered
    counts, game moves, and divergence events ride along in the detail.
    """
    registry = RngRegistry(seed=spec.seed)
    adversary = make_adversary(spec.adversary, registry.stream("adversary"))
    network = _network_for(spec, adversary)
    pairs = default_pairs(spec.n, spec.pairs)
    result = run_fame(network, pairs, rng=registry.spawn("fame"))
    return TrialResult(
        index=spec.index,
        seed=spec.seed,
        success=result.is_d_disruptable(spec.t),
        failed_pairs=tuple(sorted(result.failed)),
        metrics=network.metrics,
        detail=(
            ("delivered", len(result.succeeded)),
            ("divergence_events", result.divergence_events),
            ("moves", result.moves),
            ("pairs", len(pairs)),
            ("rounds", result.rounds),
        ),
    )


@register_workload("groupkey")
def groupkey_trial(spec: TrialSpec) -> TrialResult:
    """Section 6 group-key establishment.

    Success is the paper's guarantee that all but ``t`` nodes adopt the
    group key.  The failed pairs are the leader-spanner exchanges that did
    not establish a pairwise key — Part 1's disruption graph — so the
    sweep's disruptability histogram measures the same Definition 1
    quantity as the f-AME workloads.
    """
    registry = RngRegistry(seed=spec.seed)
    adversary = make_adversary(spec.adversary, registry.stream("adversary"))
    network = _network_for(spec, adversary)
    result = establish_group_key(
        network, registry.spawn("groupkey"), group=TEST_GROUP_128
    )
    attempted = {
        frozenset(pair)
        for pair in leader_spanner(spec.n, spec.t, result.leaders)
    }
    failed = tuple(
        sorted(
            tuple(sorted(pair))
            for pair in attempted - result.pairwise_established
        )
    )
    holders = len(result.holders())
    return TrialResult(
        index=spec.index,
        seed=spec.seed,
        success=holders >= spec.n - spec.t,
        failed_pairs=failed,
        metrics=network.metrics,
        detail=(
            ("completed_leaders", len(result.completed_leaders)),
            ("holders", holders),
            ("non_holders", len(result.non_holders())),
            ("total_rounds", result.total_rounds),
        ),
    )


@register_workload("gauntlet", uses_adversary=False)
def gauntlet_trial(spec: TrialSpec) -> TrialResult:
    """f-AME against every adversary in the gallery, worst case reported.

    One fresh network per adversary; metrics are merged across the runs
    (exercising :meth:`NetworkMetrics.merge` inside a single trial).  The
    failed pairs reported are those of the adversary that achieved the
    largest cover, so the histogram tracks the worst case; ``spec.adversary``
    is ignored.
    """
    registry = RngRegistry(seed=spec.seed)
    pairs = default_pairs(spec.n, spec.pairs)
    merged = NetworkMetrics()
    worst_cover = -1
    worst_failed: tuple[tuple[int, int], ...] = ()
    covers: list[tuple[str, int]] = []
    for name in sorted(ADVERSARY_FACTORIES):
        adversary = make_adversary(name, registry.stream("adversary", name))
        network = _network_for(spec, adversary)
        result = run_fame(network, pairs, rng=registry.spawn("fame", name))
        cover = result.disruptability()
        covers.append((name, cover))
        if cover > worst_cover:
            worst_cover = cover
            worst_failed = tuple(sorted(result.failed))
        merged = merged.merge(network.metrics)
    return TrialResult(
        index=spec.index,
        seed=spec.seed,
        success=worst_cover <= spec.t,
        failed_pairs=worst_failed,
        metrics=merged,
        detail=(
            ("covers", tuple(covers)),
            ("worst_cover", worst_cover),
        ),
        # The cover of worst_failed is already known — don't make
        # run_trial redo the exact vertex-cover search.
        cover=max(worst_cover, 0),
    )
