"""Parameter-grid sweeps: the one runner for seeded Monte Carlo trials.

A Monte Carlo run of one configuration is a one-point sweep
(``python -m repro montecarlo`` is an alias of ``sweep``).

A :class:`SweepSpec` expands a grid — workload × n × channels × t ×
adversary — into per-point trial batches with deterministically derived
seeds: trial ``j`` of point ``i`` runs from
``RngRegistry(seed).spawn("sweep", i, j)``, a pure function of the sweep
seed and the point's *expansion index*.  Growing ``trials`` therefore
never changes the seeds of trials that already exist (their
``(point_index, trial_index)`` coordinates are unchanged), which is what
makes journals resumable across a deepened sweep.  Extending a grid
*axis* is different: point indices follow the cartesian-product order,
so appending values anywhere but the leftmost axis renumbers later
points and reseeds their trials — an extended grid is a *new* sweep
(new fingerprint, fresh journal), not a superset of the old one.

:class:`SweepRunner` drives the expansion through any
:class:`~repro.dispatch.backend.DispatchBackend` as **one spec stream**:
every point's trials go to the backend in a single
:meth:`~repro.dispatch.backend.DispatchBackend.run` call, so a pooled
backend keeps its workers warm across sweep points instead of paying
startup per point, and per-point aggregation in :class:`SweepState` is
completion-order-oblivious — a point's report renders the moment its
last trial lands, whichever points' trials interleaved around it.
Trials are optionally journalled (:mod:`repro.dispatch.journal`) and
:meth:`SweepState.partial_report` renders whatever has completed
mid-sweep.  The final :class:`SweepReport` contains nothing
backend-dependent, so a socket-pool sweep (killed, resumed, requeued,
re-batched — whatever happened on the way) serialises byte-identically
to a serial uninterrupted run of the same spec and seed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Sequence

from ..analysis.disruption import disruptability_histogram
from ..analysis.stats import empirical_rate, meets_whp, min_informative_trials
from ..errors import ConfigurationError, DispatchError
from ..experiments.trial import TrialResult, TrialSpec
from ..experiments.workloads import (
    ADVERSARY_FACTORIES,
    WORKLOAD_MODEL_CHECKS,
    WORKLOAD_USES_ADVERSARY,
    make_workload,
)
from ..radio.metrics import NetworkMetrics
from ..rng import RANDOMNESS_VERSION, derive_seeds
from .backend import DispatchBackend, SerialBackend
from .journal import SweepJournal


@dataclass(frozen=True)
class SweepPoint:
    """One grid point: a full model configuration plus its stable index."""

    point_index: int
    workload: str
    n: int
    channels: int
    t: int
    adversary: str

    def label(self) -> str:
        """Compact human-readable coordinates for progress lines."""
        return (
            f"{self.workload} n={self.n} C={self.channels} t={self.t} "
            f"adv={self.adversary}"
        )


@dataclass(frozen=True)
class SweepSpec:
    """A parameter grid plus everything needed to derive every trial.

    Axes are tuples; the expansion order is the cartesian product
    ``workloads × ns × channels × ts × adversaries`` with the rightmost
    axis varying fastest (``itertools.product`` order), so point indices
    are a stable, documented function of the spec.  Duplicate values
    within an axis are rejected — they would silently double-run points.
    """

    workloads: tuple[str, ...] = ("fame",)
    ns: tuple[int, ...] = (20,)
    channels: tuple[int, ...] = (2,)
    ts: tuple[int, ...] = (1,)
    adversaries: tuple[str, ...] = ("schedule",)
    trials: int = 20
    seed: int = 0
    pairs: int = 5

    def __post_init__(self) -> None:
        for name, axis in (
            ("workloads", self.workloads),
            ("ns", self.ns),
            ("channels", self.channels),
            ("ts", self.ts),
            ("adversaries", self.adversaries),
        ):
            object.__setattr__(self, name, tuple(axis))
            axis = getattr(self, name)
            if not axis:
                raise ConfigurationError(f"sweep axis {name!r} is empty")
            if len(set(axis)) != len(axis):
                raise ConfigurationError(
                    f"sweep axis {name!r} contains duplicates: {axis}"
                )
        for w in self.workloads:
            # Resolves gallery workloads and lazily registers
            # ``scenario:NAME`` ones (populating the adversary-blind
            # map consulted below); unknown names raise typed here.
            make_workload(w)
        unknown = [a for a in self.adversaries if a not in ADVERSARY_FACTORIES]
        if unknown:
            raise ConfigurationError(
                f"unknown adversaries {unknown}; pick from "
                f"{sorted(ADVERSARY_FACTORIES)}"
            )
        if self.trials < 1:
            raise ConfigurationError("trials per point must be >= 1")
        if self.pairs < 1:
            raise ConfigurationError("AME pairs per trial must be >= 1")
        if len(self.adversaries) > 1:
            blind = [
                w for w in self.workloads
                if not WORKLOAD_USES_ADVERSARY.get(w, True)
            ]
            if blind:
                raise ConfigurationError(
                    f"workloads {blind} ignore the adversary axis (they run "
                    f"the whole gallery internally), so sweeping "
                    f"{len(self.adversaries)} adversaries would silently "
                    "duplicate identical configurations; sweep them in a "
                    "separate single-adversary grid"
                )

    # ------------------------------------------------------------------

    def points(self) -> tuple[SweepPoint, ...]:
        """The grid in its stable expansion order."""
        return tuple(
            SweepPoint(i, workload, n, c, t, adversary)
            for i, (workload, n, c, t, adversary) in enumerate(
                itertools.product(
                    self.workloads, self.ns, self.channels, self.ts,
                    self.adversaries,
                )
            )
        )

    @property
    def total_trials(self) -> int:
        """Trials across the whole grid."""
        return len(self.points()) * self.trials

    def point_for_index(self, global_index: int) -> int:
        """The point index a global trial index belongs to."""
        return global_index // self.trials

    def specs(self) -> list[TrialSpec]:
        """Every trial of every point, global-index order.

        Seeds come from the bulk :func:`repro.rng.derive_seeds` helper —
        one hashlib loop per grid point, no per-trial registries.
        """
        return [
            TrialSpec(
                workload=point.workload,
                index=point.point_index * self.trials + j,
                seed=seed,
                n=point.n,
                channels=point.channels,
                t=point.t,
                pairs=self.pairs,
                adversary=point.adversary,
            )
            for point in self.points()
            for j, seed in enumerate(
                derive_seeds(
                    self.seed, "sweep", point.point_index, count=self.trials
                )
            )
        ]

    # ------------------------------------------------------------------

    def as_dict(self) -> dict[str, Any]:
        """Canonical JSON-ready description (the fingerprint's preimage),
        with the version of the coins every trial draws
        (:data:`repro.rng.RANDOMNESS_VERSION`)."""
        return {
            "workloads": list(self.workloads),
            "ns": list(self.ns),
            "channels": list(self.channels),
            "ts": list(self.ts),
            "adversaries": list(self.adversaries),
            "trials": self.trials,
            "seed": self.seed,
            "pairs": self.pairs,
            "randomness": RANDOMNESS_VERSION,
        }

    def fingerprint(self) -> str:
        """Hex digest identifying this exact sweep (journal header key)."""
        material = json.dumps(self.as_dict(), sort_keys=True)
        return hashlib.sha256(material.encode("utf-8")).hexdigest()


def _point_report(
    spec: SweepSpec, point: SweepPoint, results: Sequence[TrialResult]
) -> dict[str, Any]:
    """Fold one point's results (any order) into its report section.

    * counters merge via :meth:`~repro.radio.metrics.NetworkMetrics.merge`
      in trial-index order, so the section is byte-identical whichever
      backend produced the results and in whatever order they landed;
    * the success rate gets a Wilson interval, and the ``1/n`` w.h.p.
      claim is checked with :func:`~repro.analysis.stats.meets_whp` only
      when the trial count is informative for it (``claim_holds`` is
      ``None`` otherwise, never a vacuous confirmation);
    * per-trial disruptability (``min_vertex_cover`` over failed pairs,
      Definition 1) is histogrammed.
    """
    ordered = sorted(results, key=lambda r: r.index)
    if not ordered:
        raise ConfigurationError("cannot aggregate zero trial results")
    trials = len(ordered)
    # merge promotes to the more derived operand type, so a plain base
    # seed is safe even when trials carry a metrics subclass, and the
    # section's counters never alias a trial's.
    merged = NetworkMetrics()
    for result in ordered:
        merged = merged.merge(result.metrics)
    successes = sum(1 for r in ordered if r.success)
    rate = empirical_rate(successes, trials)
    covers = [r.disruptability() for r in ordered]
    # meets_whp owns the informative-trials gate: it raises below
    # min_informative_trials.
    try:
        claim: bool | None = meets_whp(trials - successes, trials, point.n)
    except ValueError:
        claim = None
    return {
        "point_index": point.point_index,
        "workload": point.workload,
        "seed": spec.seed,
        "trials": trials,
        "model": {
            "n": point.n,
            "channels": point.channels,
            "t": point.t,
            "pairs": spec.pairs,
            "adversary": point.adversary,
        },
        "success_rate": {
            "successes": successes,
            "trials": trials,
            "point": rate.point,
            "wilson_low": rate.low,
            "wilson_high": rate.high,
        },
        "whp": {
            "n": point.n,
            "target_failure_rate": 1.0 / point.n,
            "min_informative_trials": min_informative_trials(point.n),
            "informative": claim is not None,
            "claim_holds": claim,
        },
        "disruptability": {
            "histogram": {
                str(cover): count
                for cover, count in sorted(
                    disruptability_histogram(covers).items()
                )
            },
            "max": max(covers),
            "mean": sum(covers) / trials,
        },
        "merged_metrics": asdict(merged),
        "trial_outcomes": [
            {
                "index": r.index,
                "seed": r.seed,
                "success": r.success,
                "disruptability": cover,
            }
            for r, cover in zip(ordered, covers)
        ],
    }


class SweepState:
    """Streaming sweep aggregation: add results, render reports anytime."""

    def __init__(self, spec: SweepSpec) -> None:
        self.spec = spec
        self._points = spec.points()
        self._by_point: dict[int, dict[int, TrialResult]] = {
            p.point_index: {} for p in self._points
        }

    def add(self, result: TrialResult) -> bool:
        """Record one result; True when it completed its point."""
        point_index = self.spec.point_for_index(result.index)
        if point_index not in self._by_point:
            raise DispatchError(
                f"trial index {result.index} is outside the sweep grid"
            )
        bucket = self._by_point[point_index]
        bucket.setdefault(result.index, result)
        return len(bucket) == self.spec.trials

    @property
    def completed_trials(self) -> int:
        return sum(len(b) for b in self._by_point.values())

    @property
    def complete(self) -> bool:
        return self.completed_trials == self.spec.total_trials

    def ordered(self) -> list[TrialResult]:
        """All recorded results in global-index order."""
        merged: dict[int, TrialResult] = {}
        for bucket in self._by_point.values():
            merged.update(bucket)
        return [merged[i] for i in sorted(merged)]

    def point_results(self, point_index: int) -> list[TrialResult]:
        """One point's recorded results in global-index order."""
        bucket = self._by_point[point_index]
        return [bucket[i] for i in sorted(bucket)]

    def point_report(self, point: SweepPoint) -> dict[str, Any]:
        """The finished per-point section (requires >= 1 result)."""
        return _point_report(
            self.spec, point, self.point_results(point.point_index)
        )

    def partial_report(self) -> dict[str, Any]:
        """Render whatever has completed so far (mid-sweep snapshot).

        Points with at least one result get a full per-point section
        (annotated with ``completed_trials``/``expected_trials``); empty
        points are listed under ``pending_points``.
        """
        rendered = []
        pending = []
        for point in self._points:
            done = len(self._by_point[point.point_index])
            if done == 0:
                pending.append(
                    {"point_index": point.point_index, "label": point.label()}
                )
                continue
            section = self.point_report(point)
            section["completed_trials"] = done
            section["expected_trials"] = self.spec.trials
            rendered.append(section)
        return {
            "sweep": self.spec.as_dict(),
            "fingerprint": self.spec.fingerprint(),
            "completed_trials": self.completed_trials,
            "total_trials": self.spec.total_trials,
            "points": rendered,
            "pending_points": pending,
        }


@dataclass(frozen=True)
class SweepReport:
    """A finished sweep: every point aggregated, nothing backend-shaped."""

    spec: SweepSpec
    results: tuple[TrialResult, ...]
    point_sections: tuple[dict[str, Any], ...] = field(repr=False)

    @classmethod
    def build(
        cls, spec: SweepSpec, results: Sequence[TrialResult]
    ) -> "SweepReport":
        ordered = sorted(results, key=lambda r: r.index)
        if len(ordered) != spec.total_trials:
            raise DispatchError(
                f"sweep incomplete: {len(ordered)} of {spec.total_trials} "
                "trials present"
            )
        by_point: dict[int, list[TrialResult]] = {}
        for result in ordered:
            by_point.setdefault(
                spec.point_for_index(result.index), []
            ).append(result)
        sections = tuple(
            _point_report(spec, point, by_point[point.point_index])
            for point in spec.points()
        )
        return cls(spec, tuple(ordered), sections)

    @property
    def trials(self) -> int:
        return len(self.results)

    @property
    def successes(self) -> int:
        return sum(1 for r in self.results if r.success)

    def whp_failures(self) -> list[int]:
        """Point indices whose 1/n claim was checkable and failed."""
        return [
            s["point_index"]
            for s in self.point_sections
            if s["whp"]["claim_holds"] is False
        ]

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready report, deterministic given the spec and seed."""
        worst = max(
            (s["disruptability"]["max"] for s in self.point_sections),
            default=0,
        )
        return {
            "sweep": self.spec.as_dict(),
            "fingerprint": self.spec.fingerprint(),
            "points": list(self.point_sections),
            "totals": {
                "points": len(self.point_sections),
                "trials": self.trials,
                "successes": self.successes,
                "success_rate": (
                    self.successes / self.trials if self.trials else 0.0
                ),
                "worst_disruptability": worst,
                "whp_failed_points": self.whp_failures(),
            },
        }

    def summary_line(self) -> str:
        """The one-line stdout summary used with ``--json-out``.

        The w.h.p. verdict is ``uninformative`` when no point ran enough
        trials to check its ``1/n`` claim; otherwise it counts the points
        that could.
        """
        failed = self.whp_failures()
        informative = sum(
            1 for s in self.point_sections if s["whp"]["informative"]
        )
        if not informative:
            whp = "uninformative"
        else:
            verdict = f"FAILED at points {failed}" if failed else "ok"
            whp = (
                f"{verdict} ({informative}/{len(self.point_sections)} "
                "points informative)"
            )
        return (
            f"sweep: {len(self.point_sections)} points x "
            f"{self.spec.trials} trials, success "
            f"{self.successes}/{self.trials}, whp {whp}"
        )


ProgressCallback = Callable[[SweepPoint, dict[str, Any]], None]


class SweepRunner:
    """Drive a :class:`SweepSpec` through a backend, durably if asked.

    Parameters
    ----------
    spec:
        The grid to run.
    backend:
        Any :class:`~repro.dispatch.backend.DispatchBackend`; defaults to
        :class:`~repro.dispatch.backend.SerialBackend` (the degenerate
        case of the design).
    journal_path:
        When given, every completed trial is appended (flushed + fsynced)
        to this JSONL journal before the sweep proceeds.
    resume:
        Replay an existing journal first: completed indices are skipped
        and their recorded results merged into the report, which ends up
        byte-identical to an uninterrupted run.  (With no journal file
        yet, ``resume`` is a no-op and the run starts fresh; without a
        ``journal_path`` it is a :class:`ConfigurationError`.)
    on_point_complete:
        Streaming hook: called with ``(point, point_report_dict)`` the
        moment a grid point's last trial lands — this is what renders
        partial output mid-sweep.
    stop_after:
        Fault-injection/testing knob: stop (``SweepInterrupted``) after
        this many *newly executed* trials have been applied and
        journalled; resumed-from-journal results don't count.
    """

    def __init__(
        self,
        spec: SweepSpec,
        *,
        backend: DispatchBackend | None = None,
        journal_path: str | None = None,
        resume: bool = False,
        on_point_complete: ProgressCallback | None = None,
        stop_after: int | None = None,
    ) -> None:
        if stop_after is not None and stop_after < 1:
            raise ConfigurationError("stop_after must be >= 1 when given")
        if resume and journal_path is None:
            raise ConfigurationError("resume needs a journal_path to replay")
        self.spec = spec
        self.backend = backend if backend is not None else SerialBackend()
        self.journal_path = journal_path
        self.resume = resume
        self.on_point_complete = on_point_complete
        self.stop_after = stop_after
        self.state = SweepState(spec)

    def run(self) -> SweepReport:
        """Execute (or finish) the sweep; raises ``SweepInterrupted`` on
        an early stop, with everything so far already journalled."""
        spec = self.spec
        points = {p.point_index: p for p in spec.points()}
        for point in points.values():
            # Before any backend starts: the same error at every --workers.
            check = WORKLOAD_MODEL_CHECKS.get(point.workload)
            if check is not None:
                check(point.n, point.channels, point.t)
        specs = spec.specs()
        journal: SweepJournal | None = None
        if self.journal_path is not None:
            journal, completed = SweepJournal.attach(
                self.journal_path,
                spec.fingerprint(),
                resume=self.resume,
                specs={s.index: s for s in specs},
            )
            for result in completed.values():
                if self.state.add(result) and self.on_point_complete:
                    point = points[spec.point_for_index(result.index)]
                    self.on_point_complete(
                        point, self.state.point_report(point)
                    )
        already_done = {r.index for r in self.state.ordered()}
        remaining = [s for s in specs if s.index not in already_done]
        newly_done = 0

        def on_result(result: TrialResult) -> None:
            nonlocal newly_done
            if journal is not None:
                journal.append(result)
            finished_point = self.state.add(result)
            newly_done += 1
            if finished_point and self.on_point_complete:
                point = points[spec.point_for_index(result.index)]
                self.on_point_complete(point, self.state.point_report(point))

        def should_stop() -> bool:
            return (
                self.stop_after is not None and newly_done >= self.stop_after
            )

        try:
            if remaining:
                self.backend.run(
                    remaining, on_result=on_result, should_stop=should_stop
                )
        finally:
            if journal is not None:
                journal.close()
        return SweepReport.build(spec, self.state.ordered())
