"""Trial descriptions and outcomes for the Monte Carlo harness.

The paper's guarantees are "with high probability" statements, so checking
them empirically means running many *independent* seeded executions and
aggregating.  A :class:`TrialSpec` describes exactly one such execution as a
plain value — workload name, model parameters, and a per-trial master seed
derived via :meth:`repro.rng.RngRegistry.spawn` — so trials can ship to
socket workers as self-contained units of work.  A :class:`TrialResult` is
the symmetric return value: the headline success flag, the failed pairs
(the disruption graph's edges, Definition 1), and the run's
:class:`~repro.radio.metrics.NetworkMetrics` so counters can be merged
across trials regardless of which worker executed them.  Both travel as
JSON in the :mod:`repro.dispatch.wire` codec, rebuilt from the annotations
below, so every field holds plain data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..analysis.disruption import disruptability
from ..radio.metrics import NetworkMetrics
from ..rng import derive_seed


def trial_seed(master_seed: int, index: int) -> int:
    """The per-trial master seed: ``RngRegistry(master).spawn("trial", i)``.

    Seeds are derived from the trial *index*, never from execution order,
    so a trial's randomness is identical whether it runs serially, in any
    worker process, or is replayed alone for debugging.  Computed as one
    direct :func:`repro.rng.derive_seed` hash (no intermediate registry);
    planners deriving many seeds at once should use the bulk
    :func:`repro.rng.derive_seeds` instead.
    """
    return derive_seed(master_seed, "spawn", "trial", index)


@dataclass(frozen=True)
class TrialSpec:
    """One independent seeded execution, as a plain value.

    Attributes
    ----------
    workload:
        Key into :data:`repro.experiments.workloads.WORKLOADS`.
    index:
        Trial index within the sweep (also the result's sort key).
    seed:
        The per-trial master seed (see :func:`trial_seed`); the worker
        builds its :class:`~repro.rng.RngRegistry` from this alone.
    n, channels, t:
        The radio model parameters.
    pairs:
        AME pair-set size for the f-AME workloads.
    adversary:
        Adversary gallery name (see
        :data:`repro.experiments.workloads.ADVERSARY_FACTORIES`).
    """

    workload: str
    index: int
    seed: int
    n: int = 20
    channels: int = 2
    t: int = 1
    pairs: int = 5
    adversary: str = "schedule"


@dataclass(frozen=True)
class TrialResult:
    """The outcome of one executed :class:`TrialSpec`.

    Attributes
    ----------
    index, seed:
        Echoed from the spec so results can be re-ordered and replayed.
    success:
        The workload's headline claim for this run (e.g. ``t``-disruptability
        for f-AME); the harness Wilson-estimates this rate.
    failed_pairs:
        The disruption graph's edges, canonically sorted — the input to the
        per-trial minimum-vertex-cover histogram.
    metrics:
        The run's radio counters, merged across trials via
        :meth:`~repro.radio.metrics.NetworkMetrics.merge`.
    detail:
        Workload-specific extras as a sorted key/value tuple.
    cover:
        Precomputed disruptability.  :func:`~repro.experiments.workloads.
        run_trial` fills this inside the worker so the exact (worst-case
        exponential) ``min_vertex_cover`` runs in parallel with the trials
        instead of serially in the aggregating parent; ``None`` means
        "compute on demand" (hand-built results in tests).
    """

    index: int
    seed: int
    success: bool
    failed_pairs: tuple[tuple[int, int], ...]
    metrics: NetworkMetrics
    detail: tuple[tuple[str, Any], ...] = ()
    cover: int | None = None

    def disruptability(self) -> int:
        """Minimum vertex cover of this trial's failed pairs (Definition 1)."""
        if self.cover is not None:
            return self.cover
        return disruptability(self.failed_pairs)

    def detail_dict(self) -> dict[str, Any]:
        """The ``detail`` extras as a dict."""
        return dict(self.detail)
