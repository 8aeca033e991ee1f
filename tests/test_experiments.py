"""Tests for the Monte Carlo trial harness.

Trials are defined in ``repro.experiments``; a Monte Carlo run of one
configuration is a one-point :class:`~repro.dispatch.SweepSpec`, so the
aggregation checks here go through ``SweepRunner``/``SweepReport.build``.
"""

from __future__ import annotations

import json
import multiprocessing
import pickle
from dataclasses import asdict

import pytest

from repro.dispatch import (
    SocketBackend,
    SweepReport,
    SweepRunner,
    SweepSpec,
    SweepState,
)
from repro.errors import ConfigurationError, DispatchError
from repro.experiments import (
    TrialResult,
    TrialSpec,
    WORKLOADS,
    default_pairs,
    run_trial,
    trial_seed,
)
from repro.radio.actions import Transmit
from repro.radio.messages import Message
from repro.radio.metrics import NetworkMetrics
from repro.radio.network import CompiledRound, RoundMeta
from repro.rng import RngRegistry

N = 18  # smallest population comfortably above the f-AME witness bound


def one_point(trials: int = 6, **axes) -> SweepSpec:
    """A Monte Carlo run: a one-point f-AME sweep at n=18."""
    axes.setdefault("ns", (N,))
    return SweepSpec(trials=trials, seed=7, pairs=4, **axes)


def section(spec: SweepSpec, results) -> dict:
    """The report section of a one-point sweep built from ``results``."""
    [point] = SweepReport.build(spec, results).point_sections
    return point


@pytest.fixture(scope="module")
def serial_report() -> SweepReport:
    return SweepRunner(one_point()).run()


def pooled(**kwargs) -> SocketBackend:
    """Two forked socket workers: what ``--workers 2`` runs."""
    return SocketBackend(workers=2, accept_timeout=60.0, **kwargs)


@pytest.fixture(scope="module")
def socket_report() -> SweepReport:
    return SweepRunner(one_point(), backend=pooled()).run()


def metrics_json(report: SweepReport) -> str:
    return json.dumps(report.point_sections[0]["merged_metrics"], sort_keys=True)


class TestTrialSeeds:
    def test_seeds_come_from_spawn_trial_index(self):
        # One-point sweeps seed trial i from spawn("sweep", 0, i); the
        # standalone trial_seed helper keeps the ("trial", i) namespace.
        root = RngRegistry(seed=7)
        for spec in one_point().specs():
            assert spec.seed == root.spawn("sweep", 0, spec.index).seed
            assert trial_seed(7, spec.index) == root.spawn(
                "trial", spec.index
            ).seed

    def test_seeds_independent_of_worker_count(
        self, serial_report, socket_report
    ):
        def seeds(report):
            return [o["seed"] for o in report.point_sections[0]["trial_outcomes"]]

        expected = [s.seed for s in one_point().specs()]
        assert seeds(serial_report) == seeds(socket_report) == expected

    def test_seeds_are_distinct_across_trials(self):
        seeds = [s.seed for s in one_point(trials=32).specs()]
        assert len(set(seeds)) == len(seeds)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            one_point(workloads=("nope",))
        with pytest.raises(ConfigurationError):
            one_point(trials=0)
        with pytest.raises(ConfigurationError):
            one_point(adversaries=("nope",))


class TestSerialParallelEquivalence:
    def test_merged_metrics_byte_identical(self, serial_report, socket_report):
        assert metrics_json(serial_report) == metrics_json(socket_report)

    def test_per_trial_results_identical(self, serial_report, socket_report):
        assert serial_report.results == socket_report.results
        assert serial_report.point_sections == socket_report.point_sections

    def test_scheduling_order_irrelevant(self):
        # batch_size=1 interleaves trials across workers; batch_size=6
        # hands one worker the whole point.  Same report either way.
        a = SweepRunner(one_point(), backend=pooled(batch_size=1)).run()
        b = SweepRunner(one_point(), backend=pooled(batch_size=6)).run()
        assert a.results == b.results
        assert json.dumps(a.as_dict(), sort_keys=True) == json.dumps(
            b.as_dict(), sort_keys=True
        )

    def test_aggregate_insensitive_to_result_order(self, serial_report):
        results = list(serial_report.results)
        spec = one_point()
        assert section(spec, results) == section(spec, results[::-1])


class TestPickling:
    def test_trial_spec_round_trips(self):
        spec = one_point().specs()[0]
        # repro-lint: disable=WIRE001 -- unpickles what this test pickled
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_trial_result_round_trips(self):
        result = run_trial(one_point().specs()[0])
        # repro-lint: disable=WIRE001 -- unpickles what this test pickled
        clone = pickle.loads(pickle.dumps(result))
        assert clone == result
        assert clone.metrics == result.metrics

    def test_round_schedule_round_trips(self):
        msg = Message(kind="k", sender=1, payload=("x", 2))
        loops = [
            CompiledRound.make(
                {1: Transmit(0, msg)},
                {0: (2, 3)},
                RoundMeta(phase="p", extra={"slot": 4}),
            )
        ]
        # repro-lint: disable=WIRE001 -- unpickles what this test pickled
        clone = pickle.loads(pickle.dumps(loops))
        (cr_clone,), (cr,) = clone, loops
        assert cr_clone.transmits == cr.transmits
        assert cr_clone.listeners == cr.listeners == (2, 3)
        assert cr_clone.hops == cr.hops == b"\x00\x00"
        assert cr_clone.meta == cr.meta

    def test_spec_round_trips_into_worker(self):
        # A pickled spec executed by a real worker process reproduces the
        # in-process result exactly.
        spec = one_point().specs()[0]
        expected = run_trial(spec)
        with multiprocessing.get_context().Pool(1) as pool:
            [remote] = pool.map(run_trial, [spec])
        assert remote == expected


class TestWorkloads:
    def test_registry_contents(self):
        assert {"fame", "groupkey", "gauntlet"} <= set(WORKLOADS)

    def test_unknown_workload_rejected_by_run_trial(self):
        spec = TrialSpec(workload="nope", index=0, seed=1)
        with pytest.raises(ConfigurationError):
            run_trial(spec)

    def test_fame_trial_shape(self):
        result = run_trial(one_point().specs()[0])
        detail = result.detail_dict()
        assert detail["pairs"] == len(default_pairs(N, 4))
        assert detail["delivered"] + len(result.failed_pairs) == detail["pairs"]
        assert result.metrics.rounds > 0
        assert result.success  # schedule jammer stays within t=1

    def test_groupkey_trial(self):
        spec = TrialSpec(
            workload="groupkey", index=0, seed=trial_seed(3, 0), n=N,
            adversary="random",
        )
        result = run_trial(spec)
        detail = result.detail_dict()
        assert detail["holders"] >= N - spec.t
        assert result.success
        assert result.metrics.rounds == detail["total_rounds"]

    def test_gauntlet_trial_merges_all_gallery_runs(self):
        spec = TrialSpec(
            workload="gauntlet", index=0, seed=trial_seed(5, 0), n=N, pairs=4
        )
        result = run_trial(spec)
        covers = dict(result.detail_dict()["covers"])
        assert set(covers) == {
            "null", "random", "reactive", "schedule", "spoofer", "sweep"
        }
        assert result.detail_dict()["worst_cover"] == max(covers.values())
        assert result.success == (max(covers.values()) <= spec.t)
        # metrics merged across six networks: at least six runs of rounds
        assert result.metrics.rounds > 6

    def test_run_trial_precomputes_cover_in_worker(self):
        from repro.analysis.vertex_cover import min_vertex_cover

        result = run_trial(one_point().specs()[0])
        assert result.cover is not None
        assert result.cover == len(min_vertex_cover(result.failed_pairs))
        assert result.disruptability() == result.cover

    def test_trial_disruptability_is_cover_of_failed_pairs(self):
        result = TrialResult(
            index=0,
            seed=0,
            success=False,
            failed_pairs=((0, 1), (0, 2), (3, 4)),
            metrics=NetworkMetrics(),
        )
        assert result.disruptability() == 2


class TestAggregation:
    def test_whp_uninformative_at_small_trial_counts(self, serial_report):
        # 6 trials cannot resolve a 1/18 claim: report says so instead of
        # vacuously confirming.
        whp = serial_report.point_sections[0]["whp"]
        assert whp["informative"] is False
        assert whp["claim_holds"] is None
        assert serial_report.whp_failures() == []

    def test_whp_informative_with_synthetic_results(self):
        results = [
            TrialResult(
                index=i, seed=i, success=True, failed_pairs=(),
                metrics=NetworkMetrics(rounds=1),
            )
            for i in range(80)
        ]
        point = section(one_point(trials=80), results)
        assert point["whp"]["informative"] is True
        assert point["whp"]["claim_holds"] is True
        assert point["merged_metrics"]["rounds"] == 80

    def test_aggregate_preserves_metrics_subclass_counters(self):
        # merge promotes to the more derived operand type, so subclass
        # counters survive a fold seeded with plain NetworkMetrics.
        import dataclasses

        @dataclasses.dataclass
        class Extended(NetworkMetrics):
            dropped_frames: int = 0

        results = [
            TrialResult(
                index=i, seed=i, success=True, failed_pairs=(),
                metrics=Extended(rounds=1, dropped_frames=i + 1),
            )
            for i in range(2)
        ]
        merged = section(one_point(trials=2), results)["merged_metrics"]
        assert merged["rounds"] == 2
        assert merged["dropped_frames"] == 3

    def test_aggregate_rejects_empty_results(self):
        spec = one_point()
        [point] = spec.points()
        with pytest.raises(ConfigurationError):
            SweepState(spec).point_report(point)
        with pytest.raises(DispatchError):
            SweepReport.build(spec, [])

    def test_single_trial_merged_metrics_not_aliased(self):
        result = TrialResult(
            index=0, seed=0, success=True, failed_pairs=(),
            metrics=NetworkMetrics(rounds=5),
        )
        merged = section(one_point(trials=1), [result])["merged_metrics"]
        assert merged == asdict(result.metrics)
        merged["rounds"] += 1  # must not touch the trial
        assert result.metrics.rounds == 5

    def test_histogram_and_wilson(self):
        results = [
            TrialResult(
                index=i, seed=i, success=(i % 2 == 0),
                failed_pairs=((0, 1),) if i < 3 else (),
                metrics=NetworkMetrics(),
            )
            for i in range(4)
        ]
        point = section(one_point(trials=4), results)
        assert point["disruptability"]["histogram"] == {"0": 1, "1": 3}
        assert point["disruptability"]["max"] == 1
        assert point["disruptability"]["mean"] == 0.75
        rate = point["success_rate"]
        assert rate["successes"] == 2
        assert rate["wilson_low"] < 0.5 < rate["wilson_high"]

    def test_report_dict_is_json_serialisable(self, serial_report):
        payload = serial_report.as_dict()
        parsed = json.loads(json.dumps(payload, sort_keys=True))
        assert parsed == payload
        assert parsed["totals"]["trials"] == 6
