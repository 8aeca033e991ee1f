"""The ``fame`` and ``groupkey`` workloads: a serial in-process trial loop.

Trial ``i`` of a run with seed ``s`` is ``run_trial`` of the workload's
spec at ``trial_seed(s, i)``; the loop runs trials until ``seconds`` have
passed.  Every trial's output is checked: an f-AME trial must be
``t``-disruptable, and a group-key trial must leave at least ``n - t``
nodes holding one agreed key.
"""

from __future__ import annotations

import statistics
import sys
import time
import traceback
from dataclasses import asdict

from common import (
    SETUP_SAMPLES,
    Digest,
    Report,
    peak_rss_mb,
    percentile,
    reference_seconds,
    time_setup_probe,
)

SPECS = {
    "fame": dict(n=256, channels=4, t=1, pairs=32, adversary="schedule"),
    "groupkey": dict(n=64, channels=2, t=1, adversary="random"),
}

WARMUP_INDEX = 1 << 30
"""Trial index of the warm-up trial: outside every timed set."""

PREFIX_TRIALS = {"fame": 8, "groupkey": 2}
"""Trials every run plays whatever the clock says.  ``prefix_sha256`` and
the exact counts ``rounds_per_op`` and ``air_units_per_op`` cover only
these, so they compare across runs of any length, traced or not."""


def make_spec(workload: str, seed: int, index: int):
    from repro.experiments.trial import TrialSpec, trial_seed

    return TrialSpec(
        workload=workload,
        index=index,
        seed=trial_seed(seed, index),
        **SPECS[workload],
    )


def check(spec, result) -> bool:
    """The workload's output check for one trial."""
    if spec.workload == "fame":
        return result.success and result.disruptability() <= spec.t
    holders = result.detail_dict()["holders"]
    return result.success and holders >= spec.n - spec.t


def canonical(result) -> list:
    """A trial result as plain, order-stable JSON data."""
    return [
        result.index,
        result.seed,
        result.success,
        result.failed_pairs,
        result.detail,
        asdict(result.metrics),
        result.cover,
    ]


def warm_up(workload: str, seed: int) -> None:
    """One untimed trial outside the timed set, filling module-level
    tables (the rng byte-table cache, schedule shapes) before timing."""
    from repro.experiments.workloads import run_trial

    run_trial(make_spec(workload, seed, WARMUP_INDEX))


class Loop:
    """Checked, digested results of a sequence of timed trials."""

    def __init__(self, workload: str) -> None:
        self.prefix_len = PREFIX_TRIALS[workload]
        self.times: list[float] = []
        self.costs: list[float] = []  # over the reference kernel's time
        self.reference = 0.0  # the kernel's time after the last trial
        self.rounds = 0  # over the prefix trials
        self.air_units = 0
        self.failed = 0
        self.digest = Digest()
        self.prefix = Digest()

    @property
    def attempted(self) -> int:
        return len(self.times)

    def run(self, spec, trial) -> None:
        """Time ``trial(spec)`` and the reference kernel before and after
        it, then check and digest the trial's result."""
        before = self.reference or reference_seconds()
        start = time.perf_counter()
        try:
            result = trial(spec)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            result = None
        self.times.append(time.perf_counter() - start)
        self.reference = reference_seconds()
        self.costs.append(2 * self.times[-1] / (before + self.reference))
        if result is not None and spec.index < self.prefix_len:
            self.rounds += result.metrics.rounds
            self.air_units += result.metrics.payload_units
        if result is None or not check(spec, result):
            self.failed += 1
            value = ["failed", spec.index]
        else:
            value = canonical(result)
        self.digest.add(value)
        if spec.index < self.prefix_len:
            self.prefix.add(value)


def specs_for(workload: str, seed: int, seconds: float):
    """Specs of trials 0, 1, ... until ``seconds`` have passed and the
    prefix trials have run."""
    begin = time.perf_counter()
    index = 0
    while index < PREFIX_TRIALS[workload] or time.perf_counter() - begin < seconds:
        yield make_spec(workload, seed, index)
        index += 1


def measure_setup(workload: str, seed: int) -> list[float]:
    return [
        time_setup_probe(["perfbench/probe.py", workload, str(seed)])
        for _ in range(SETUP_SAMPLES)
    ]


def run(workload: str, seed: int, seconds: float, trace: bool) -> Report:
    report = Report(workload, trace)
    if trace:
        return run_traced(workload, seed, seconds, report)
    setups = measure_setup(workload, seed)
    warm_up(workload, seed)
    from repro.experiments.workloads import run_trial

    loop = Loop(workload)
    for spec in specs_for(workload, seed, seconds):
        loop.run(spec, run_trial)
    trials = loop.attempted
    ms = [t * 1e3 for t in loop.times]
    report.attempted = trials
    report.failed = loop.failed
    report.notes["results_sha256"] = loop.digest.hexdigest()
    report.notes["prefix_sha256"] = loop.prefix.hexdigest()
    report.notes["spec"] = SPECS[workload]
    report.add("op_cost", statistics.median(loop.costs), "ref", trials)
    report.add("op_ms.p50", statistics.median(ms), "ms", trials)
    report.add("op_ms.p90", percentile(ms, 90), "ms", trials)
    prefix = loop.prefix_len
    report.add("rounds_per_op", loop.rounds / prefix, "count", prefix)
    report.add("air_units_per_op", loop.air_units / prefix, "count", prefix)
    report.add("setup_s", statistics.median(setups), "s", len(setups))
    report.add("peak_rss_mb", peak_rss_mb(), "MiB", 1)
    return report


def run_traced(workload: str, seed: int, seconds: float, report: Report) -> Report:
    """Each trial runs twice, traced and then untraced, so machine drift
    hits both alike: the two digests must be equal, and the ratio of the
    two times is the tracing overhead."""
    from layers import add_layer_metrics
    from repro.experiments.workloads import run_trial
    from tracing import Tracer, install

    warm_up(workload, seed)
    tracer = Tracer()
    traced_trial = tracer.span("trial", run_trial)
    traced, plain = Loop(workload), Loop(workload)
    for spec in specs_for(workload, seed, seconds):
        uninstall = install(tracer)
        try:
            traced.run(spec, traced_trial)
        finally:
            uninstall()
        plain.run(spec, run_trial)
    trials = traced.attempted
    report.attempted = trials
    report.failed = traced.failed + plain.failed
    if traced.digest.hexdigest() != plain.digest.hexdigest():
        print("traced results differ from untraced results", file=sys.stderr)
        report.correct = False
    report.notes["results_sha256"] = plain.digest.hexdigest()
    report.notes["prefix_sha256"] = plain.prefix.hexdigest()
    add_layer_metrics(report, tracer, trials)
    add_serve_placeholders(report)
    report.add(
        "trace.overhead_ratio", sum(traced.times) / sum(plain.times), "ratio", trials
    )
    report.add(
        "trace.uncovered_ratio",
        tracer.self_s("trial") / tracer.total_s("trial"),
        "ratio",
        trials,
    )
    report.trace_spans = tracer
    return report


def add_serve_placeholders(report: Report) -> None:
    """The serve-only per-layer metrics read 0 on trial workloads."""
    from serve import SERVE_LAYER_METRICS

    for name, unit in SERVE_LAYER_METRICS:
        report.add(name, 0.0, unit, 0)
