"""Monte Carlo experiment harness for the paper's w.h.p. claims.

The guarantees reproduced here — ``t``-disruptability (Definition 1),
group-key adoption by all but ``t`` nodes (Section 6) — hold "with high
probability", so verifying them means many independent seeded executions,
not one.  This package turns that into a subsystem:

* :class:`~repro.experiments.trial.TrialSpec` /
  :class:`~repro.experiments.trial.TrialResult` — one execution as a
  plain-data unit of work and its outcome;
* :mod:`~repro.experiments.workloads` — ready-made factories for the
  headline workloads (f-AME delivery, group-key establishment, the
  adversary gauntlet) plus the shared adversary gallery.

This package defines *what* a trial is.  :mod:`repro.dispatch` decides
*where* trials run and how outcomes aggregate: a Monte Carlo run is a
one-point :class:`~repro.dispatch.sweep.SweepSpec`, whose report carries
Wilson intervals, disruptability histograms, and merged radio metrics.
``python -m repro sweep`` (alias ``montecarlo``) is the CLI front-end.
"""

from .trial import TrialResult, TrialSpec, trial_seed
from .workloads import (
    ADVERSARY_FACTORIES,
    SCENARIO_WORKLOAD_PREFIX,
    WORKLOAD_USES_ADVERSARY,
    WORKLOADS,
    default_pairs,
    make_adversary,
    make_workload,
    run_trial,
)

__all__ = [
    "ADVERSARY_FACTORIES",
    "SCENARIO_WORKLOAD_PREFIX",
    "TrialResult",
    "TrialSpec",
    "WORKLOAD_USES_ADVERSARY",
    "WORKLOADS",
    "default_pairs",
    "make_adversary",
    "make_workload",
    "run_trial",
    "trial_seed",
]
