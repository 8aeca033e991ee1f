"""Tests for the dispatch subsystem: backends, journal, sweeps.

The socket backend's end-to-end scenarios (real worker processes, kills,
resume) live in ``tests/test_dispatch_socket.py``; hypothesis properties
in ``tests/test_dispatch_properties.py``.
"""

from __future__ import annotations

import json

import pytest

from repro.dispatch import (
    ResultAssembler,
    SerialBackend,
    SocketBackend,
    SweepJournal,
    SweepReport,
    SweepRunner,
    SweepSpec,
)
from repro.dispatch.journal import decode_record, encode_record
from repro.errors import ConfigurationError, DispatchError
from repro.experiments import TrialResult, TrialSpec
from repro.radio.metrics import NetworkMetrics
from repro.rng import RANDOMNESS_VERSION, RngRegistry

N = 18  # smallest population comfortably above the f-AME witness bound


def fake_result(index: int, success: bool = True) -> TrialResult:
    return TrialResult(
        index=index,
        seed=index * 11,
        success=success,
        failed_pairs=() if success else ((0, 1),),
        metrics=NetworkMetrics(rounds=index + 1),
        cover=0 if success else 1,
    )


SPECS = {i: TrialSpec("fame", i, i * 11) for i in range(8)}
"""The specs :func:`fake_result` answers, by index (n=20)."""

small_spec = SweepSpec(ns=(N,), trials=2, seed=7, pairs=4)
four_trials = SweepSpec(ns=(N,), trials=4, seed=7, pairs=4)


class TestResultAssembler:
    def test_applies_each_index_once(self):
        seen = []
        assembler = ResultAssembler([0, 1, 2], on_result=seen.append)
        assert assembler.apply(fake_result(1))
        assert not assembler.apply(fake_result(1))  # duplicate dropped
        assert not assembler.apply(fake_result(9))  # unexpected dropped
        assert [r.index for r in seen] == [1]
        assert assembler.missing() == [0, 2]
        assert not assembler.done

    def test_ordered_is_index_order_whatever_arrival_order(self):
        assembler = ResultAssembler([0, 1, 2])
        for i in (2, 0, 1, 2, 0):
            assembler.apply(fake_result(i))
        assert assembler.done
        assert [r.index for r in assembler.ordered()] == [0, 1, 2]

    def test_empty_batch_rejected(self):
        with pytest.raises(ConfigurationError):
            ResultAssembler([])


class TestBackends:
    def test_serial_matches_multiprocess(self):
        specs = four_trials.specs()
        serial = SerialBackend().run(specs)
        parallel = SocketBackend(workers=2, accept_timeout=60.0).run(specs)
        assert serial == parallel

    def test_runner_accepts_explicit_backend(self):
        dispatched: list[int] = []

        class RecordingBackend(SerialBackend):
            def _execute(self, specs, assembler):
                dispatched.extend(s.index for s in specs)
                super()._execute(specs, assembler)

        default = SweepRunner(four_trials)
        assert isinstance(default.backend, SerialBackend)
        explicit = SweepRunner(four_trials, backend=RecordingBackend()).run()
        assert dispatched == [0, 1, 2, 3]
        assert explicit.as_dict() == default.run().as_dict()

    def test_on_result_streams_in_index_order_for_serial(self):
        seen: list[int] = []
        SerialBackend().run(
            four_trials.specs(), on_result=lambda r: seen.append(r.index)
        )
        assert seen == [0, 1, 2, 3]


class TestJournal:
    def test_record_round_trips_exact_result(self):
        result = fake_result(3, success=False)
        record = json.loads(encode_record(result))
        assert record["index"] == 3 and record["success"] is False
        assert decode_record(record, SPECS) == result

    def test_attach_fresh_then_resume(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal, completed = SweepJournal.attach(path, "fp", resume=False, specs=SPECS)
        assert completed == {}
        journal.append(fake_result(0))
        journal.append(fake_result(2))
        journal.close()
        journal, completed = SweepJournal.attach(path, "fp", resume=True, specs=SPECS)
        journal.close()
        assert sorted(completed) == [0, 2]
        assert completed[2] == fake_result(2)

    def test_existing_journal_requires_resume(self, tmp_path):
        path = tmp_path / "j.jsonl"
        SweepJournal.attach(path, "fp", resume=False, specs=SPECS)[0].close()
        with pytest.raises(ConfigurationError):
            SweepJournal.attach(path, "fp", resume=False, specs=SPECS)

    def test_fingerprint_mismatch_refused(self, tmp_path):
        path = tmp_path / "j.jsonl"
        SweepJournal.attach(path, "fp-a", resume=False, specs=SPECS)[0].close()
        with pytest.raises(ConfigurationError):
            SweepJournal.attach(path, "fp-b", resume=True, specs=SPECS)

    def test_truncated_final_line_is_tolerated(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal, _ = SweepJournal.attach(path, "fp", resume=False, specs=SPECS)
        journal.append(fake_result(0))
        journal.close()
        with path.open("a", encoding="utf-8") as fh:
            fh.write(encode_record(fake_result(1))[: 40])  # crash mid-write
        _journal, completed = SweepJournal.attach(path, "fp", resume=True, specs=SPECS)
        _journal.close()
        assert sorted(completed) == [0]

    def test_corrupt_interior_line_is_an_error(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal, _ = SweepJournal.attach(path, "fp", resume=False, specs=SPECS)
        journal.close()
        with path.open("a", encoding="utf-8") as fh:
            fh.write("{broken\n")
            fh.write(encode_record(fake_result(1)) + "\n")
        with pytest.raises(DispatchError):
            SweepJournal.attach(path, "fp", resume=True, specs=SPECS)

    @pytest.mark.parametrize(
        "line",
        [
            "[1, 2]",
            '"x"',
            "null",
            '{"kind": "trial", "index": 0, "result": 5}',
            5,
            (0, 1),
        ],
    )
    @pytest.mark.parametrize("final", [False, True])
    def test_wrong_shaped_record_is_a_typed_error(self, tmp_path, line, final):
        # Well-formed JSON is never a crash artifact: fatal on any line,
        # and the error names the line.
        if not isinstance(line, str):  # a record whose metrics are ``line``
            record = json.loads(encode_record(fake_result(0)))
            line = json.dumps({**record, "metrics": line})
        path = tmp_path / "j.jsonl"
        journal, _ = SweepJournal.attach(path, "fp", resume=False, specs=SPECS)
        journal.close()
        lines = [line, encode_record(fake_result(1))]
        if final:
            lines.reverse()
        path.write_text(
            path.read_text() + "\n".join(lines) + "\n", encoding="utf-8"
        )
        bad_line = 3 if final else 2
        with pytest.raises(DispatchError, match=f"line {bad_line} "):
            SweepJournal.attach(path, "fp", resume=True, specs=SPECS)

    @pytest.mark.parametrize("header", ["[1]", '"x"'])
    def test_wrong_shaped_header_is_a_typed_error(self, tmp_path, header):
        path = tmp_path / "j.jsonl"
        path.write_text(header + "\n", encoding="utf-8")
        with pytest.raises(DispatchError, match="header"):
            SweepJournal.attach(path, "fp", resume=True, specs=SPECS)

    def test_non_utf8_journal_is_a_typed_error(self, tmp_path):
        path = tmp_path / "j.jsonl"
        SweepJournal.attach(path, "fp", resume=False, specs=SPECS)[0].close()
        with path.open("ab") as fh:
            fh.write(b"\xff\xfe\n")
        with pytest.raises(DispatchError, match="UTF-8"):
            SweepJournal.attach(path, "fp", resume=True, specs=SPECS)

    def test_duplicate_records_keep_first(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal, _ = SweepJournal.attach(path, "fp", resume=False, specs=SPECS)
        journal.append(fake_result(0, success=True))
        journal.append(fake_result(0, success=False))  # redelivery
        journal.close()
        _journal, completed = SweepJournal.attach(path, "fp", resume=True, specs=SPECS)
        _journal.close()
        assert completed[0].success is True


class TestSweepSpec:
    def test_grid_order_is_product_order(self):
        spec = SweepSpec(
            workloads=("fame",), ns=(18, 24), channels=(2,), ts=(1,),
            adversaries=("schedule", "null"), trials=2,
        )
        labels = [(p.n, p.adversary) for p in spec.points()]
        assert labels == [
            (18, "schedule"), (18, "null"), (24, "schedule"), (24, "null")
        ]
        assert [p.point_index for p in spec.points()] == [0, 1, 2, 3]
        assert spec.total_trials == 8

    def test_seeds_come_from_sweep_point_trial_spawn(self):
        spec = SweepSpec(ns=(18, 24), trials=3, seed=11)
        root = RngRegistry(seed=11)
        for trial in spec.specs():
            point_index = spec.point_for_index(trial.index)
            trial_index = trial.index - point_index * spec.trials
            assert trial.seed == root.spawn(
                "sweep", point_index, trial_index
            ).seed

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(ns=())
        with pytest.raises(ConfigurationError):
            SweepSpec(ns=(18, 18))
        with pytest.raises(ConfigurationError):
            SweepSpec(workloads=("nope",))
        with pytest.raises(ConfigurationError):
            SweepSpec(adversaries=("nope",))
        with pytest.raises(ConfigurationError):
            SweepSpec(trials=0)

    def test_adversary_blind_workload_rejects_adversary_axis(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(
                workloads=("gauntlet",), adversaries=("schedule", "null")
            )
        # mixed grids too: the gauntlet points would be the identical
        # configuration run twice under different labels
        with pytest.raises(ConfigurationError):
            SweepSpec(
                workloads=("fame", "gauntlet"),
                adversaries=("schedule", "null"),
            )
        # a single-adversary grid is the supported way to sweep gauntlet
        SweepSpec(workloads=("fame", "gauntlet"), adversaries=("schedule",))

    def test_fingerprint_tracks_config(self):
        a, b = SweepSpec(seed=1), SweepSpec(seed=2)
        assert a.fingerprint() != b.fingerprint()
        assert a.fingerprint() == SweepSpec(seed=1).fingerprint()


class ExplodingBackend(SerialBackend):
    """A backend for runs that must dispatch no trial."""

    def _execute(self, specs, assembler):
        raise AssertionError("no trials should be dispatched")


def cut_journal(path, records: int, tail: str = "") -> None:
    """Leave a finished run's journal as a crash would: its header, the
    first ``records`` trial records, then ``tail`` with no newline."""
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[: 1 + records]) + tail)


class TestSweepRunnerSerial:
    def test_report_is_backend_shape_free(self):
        report = SweepRunner(small_spec).run().as_dict()
        text = json.dumps(report, sort_keys=True)
        assert '"workers"' not in text
        assert '"batch_size"' not in text
        assert report["totals"]["trials"] == small_spec.total_trials

    def test_multiprocess_backend_matches_serial(self):
        serial = SweepRunner(small_spec).run()
        pooled = SweepRunner(
            small_spec, backend=SocketBackend(workers=2, accept_timeout=60.0)
        ).run()
        assert json.dumps(serial.as_dict(), sort_keys=True) == json.dumps(
            pooled.as_dict(), sort_keys=True
        )

    def test_journal_stop_resume_identical_to_uninterrupted(self, tmp_path):
        uninterrupted = SweepRunner(small_spec).run().as_dict()
        journal = tmp_path / "sweep.jsonl"
        SweepRunner(small_spec, journal_path=str(journal)).run()
        cut_journal(journal, records=1)
        resumed = SweepRunner(
            small_spec, journal_path=str(journal), resume=True
        ).run().as_dict()
        assert json.dumps(resumed, sort_keys=True) == json.dumps(
            uninterrupted, sort_keys=True
        )

    @pytest.mark.parametrize("torn", [True, False])
    def test_crash_tail_stays_resumable(self, tmp_path, torn):
        # A crash mid-append leaves 40 bytes of the third record, or the
        # whole record without its newline.  Both resume, and resume
        # again, to the uninterrupted report, each index journalled once.
        journal = tmp_path / "sweep.jsonl"
        reference = SweepRunner(four_trials, journal_path=str(journal)).run()
        third = journal.read_text().splitlines()[3]
        cut_journal(journal, records=2, tail=third[:40] if torn else third)
        for _ in range(2):
            resumed = SweepRunner(
                four_trials, journal_path=str(journal), resume=True
            ).run()
            assert resumed.as_dict() == reference.as_dict()
        indices = [
            json.loads(line)["index"]
            for line in journal.read_text().splitlines()[1:]
        ]
        assert sorted(indices) == [0, 1, 2, 3]

    def test_resume_with_complete_journal_runs_nothing(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        first = SweepRunner(small_spec, journal_path=str(journal)).run()
        again = SweepRunner(
            small_spec,
            backend=ExplodingBackend(),
            journal_path=str(journal),
            resume=True,
        ).run()
        assert again.as_dict() == first.as_dict()

    @pytest.mark.parametrize("recorded", [None, 1])
    def test_resume_refuses_a_journal_drawn_on_other_coins(
        self, tmp_path, recorded
    ):
        # A header without the randomness field predates version 2 of
        # the coins: resuming must fail, naming both versions, before any
        # trial is dispatched.
        journal = tmp_path / "sweep.jsonl"
        SweepRunner(small_spec, journal_path=str(journal)).run()
        cut_journal(journal, records=1)
        header, *records = journal.read_text().splitlines()
        fields = json.loads(header)
        fields.pop("randomness", None)
        if recorded is not None:
            fields["randomness"] = recorded
        journal.write_text(
            "\n".join([json.dumps(fields), *records]) + "\n"
        )
        runner = SweepRunner(
            small_spec,
            backend=ExplodingBackend(),
            journal_path=str(journal),
            resume=True,
        )
        with pytest.raises(
            DispatchError,
            match=f"randomness version 1.*version {RANDOMNESS_VERSION}",
        ):
            runner.run()
        assert RANDOMNESS_VERSION == 2
        assert small_spec.as_dict()["randomness"] == RANDOMNESS_VERSION

    def test_on_point_complete_streams(self):
        finished = []
        SweepRunner(
            small_spec,
            on_point_complete=lambda point, section: finished.append(
                (point.point_index, section["success_rate"]["trials"])
            ),
        ).run()
        assert finished == [(0, small_spec.trials)]

    def test_report_build_requires_completeness(self):
        with pytest.raises(DispatchError):
            SweepReport.build(small_spec, [])


class TestSweepReportSummary:
    """The w.h.p. verdict of the one-line ``--json-out`` summary."""

    # min_informative_trials(18) == 66 and (100) == 381, so 70 trials
    # per point check the n=18 claim but not the n=100 one.
    mixed = SweepSpec(ns=(18, 100), trials=70, seed=7)

    def test_uninformative_when_no_point_can_check(self):
        report = SweepReport.build(
            small_spec, [fake_result(i) for i in range(2)]
        )
        assert report.point_sections[0]["whp"]["claim_holds"] is None
        assert report.summary_line().endswith("whp uninformative")

    def test_counts_informative_points(self):
        report = SweepReport.build(
            self.mixed, [fake_result(i) for i in range(140)]
        )
        assert report.summary_line().endswith(
            "whp ok (1/2 points informative)"
        )

    def test_failed_points_named_with_the_informative_count(self):
        # Every n=100 trial fails: rejected even below the informative
        # trial count, so both points have a verdict.
        report = SweepReport.build(
            self.mixed,
            [fake_result(i, success=i < 70) for i in range(140)],
        )
        assert report.whp_failures() == [1]
        assert report.summary_line().endswith(
            "whp FAILED at points [1] (2/2 points informative)"
        )
