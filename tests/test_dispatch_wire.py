"""Tests for :mod:`repro.dispatch.wire` — the restricted unpickler.

The threat model: whoever can write to the coordinator's socket or edit
a journal file controls pickle bytes that the dispatcher will decode.
``loads_restricted`` must round-trip every frame shape the protocol
legitimately produces and reject everything else — most importantly
``__reduce__`` gadgets, which a bare ``pickle.loads`` would *execute*.
"""

from __future__ import annotations

import base64
import json
import pickle

import pytest

from repro.dispatch.journal import SweepJournal, encode_record
from repro.dispatch.socket_pool import FrameDecoder
from repro.dispatch.wire import (
    UNPICKLE_ALLOWLIST,
    FrameRejected,
    RestrictedUnpickler,
    loads_restricted,
)
from repro.errors import DispatchError
from repro.experiments.trial import TrialResult, TrialSpec
from repro.radio.metrics import NetworkMetrics


def sample_result(index: int = 3) -> TrialResult:
    metrics = NetworkMetrics(rounds=7, honest_transmissions=21)
    metrics.rounds_by_phase["exchange"] = 7
    return TrialResult(
        index=index,
        seed=index * 11,
        success=False,
        failed_pairs=((0, 1), (2, 5)),
        metrics=metrics,
        detail=(("phase", "exchange"),),
        cover=1,
    )


def frame(obj) -> bytes:
    """Length-prefix ``obj`` the way ``send_frame`` does."""
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    return len(data).to_bytes(4, "big") + data


class EvilReduce:
    """Classic pickle RCE gadget: decoding would call ``os.system``."""

    command = "echo pwned"

    def __reduce__(self):
        import os

        return (os.system, (self.command,))


class TestLoadsRestricted:
    def test_primitive_frames_round_trip(self):
        for obj in (
            None,
            True,
            42,
            3.5,
            b"\x00\xff",
            "hello",
            [1, 2, [3]],
            (1, ("a", b"b")),
            {"kind": "hello", "protocol": 2, "nested": {"pid": 1}},
        ):
            assert loads_restricted(pickle.dumps(obj)) == obj

    def test_trial_spec_and_result_round_trip(self):
        spec = TrialSpec(
            workload="fame", index=4, seed=99, n=12, channels=2, t=1,
            pairs=3, adversary="schedule",
        )
        assert loads_restricted(pickle.dumps(spec)) == spec
        result = sample_result()
        clone = loads_restricted(pickle.dumps(result))
        assert clone == result
        assert clone.metrics.rounds_by_phase == {"exchange": 7}

    def test_results_frame_shape_round_trips(self):
        payload = {
            "kind": "results",
            "results": [(3, sample_result(3)), (4, sample_result(4))],
            "elapsed": 0.25,
        }
        assert loads_restricted(pickle.dumps(payload)) == payload

    def test_memoryview_input_accepted(self):
        blob = pickle.dumps(sample_result())
        assert loads_restricted(memoryview(blob)) == sample_result()

    def test_pickled_function_rejected(self):
        import os

        blob = pickle.dumps(os.system)
        # os.system pickles under its real module, posix/nt.
        with pytest.raises(FrameRejected, match=r"\.system"):
            loads_restricted(blob)

    def test_reduce_gadget_rejected_not_executed(self, tmp_path):
        canary = tmp_path / "canary"

        class TouchCanary(EvilReduce):
            command = f"touch {canary}"

        blob = pickle.dumps(TouchCanary())
        with pytest.raises(FrameRejected):
            loads_restricted(blob)
        assert not canary.exists()

    def test_builtin_eval_rejected(self):
        blob = pickle.dumps(eval)
        with pytest.raises(FrameRejected, match="disallowed global"):
            loads_restricted(blob)

    def test_unlisted_repro_class_rejected(self):
        from repro.rng import RngRegistry

        blob = pickle.dumps(RngRegistry(seed=1))
        with pytest.raises(FrameRejected, match="RngRegistry"):
            loads_restricted(blob)

    def test_rejection_is_a_dispatch_error(self):
        assert issubclass(FrameRejected, DispatchError)

    def test_truncated_pickle_still_raises_pickle_errors(self):
        blob = pickle.dumps(sample_result())
        with pytest.raises((pickle.UnpicklingError, EOFError)):
            loads_restricted(blob[: len(blob) // 2])

    def test_allowlist_is_exactly_the_wire_classes(self):
        assert UNPICKLE_ALLOWLIST == {
            ("repro.experiments.trial", "TrialSpec"),
            ("repro.experiments.trial", "TrialResult"),
            ("repro.radio.metrics", "NetworkMetrics"),
        }
        for module, name in sorted(UNPICKLE_ALLOWLIST):
            imported = __import__(module, fromlist=[name])
            assert hasattr(imported, name)

    def test_unpickler_subclass_is_the_enforcement_point(self):
        import io

        unpickler = RestrictedUnpickler(io.BytesIO(b""))
        with pytest.raises(FrameRejected):
            unpickler.find_class("subprocess", "Popen")


class TestFrameDecoderRejectsHostileFrames:
    def test_decoder_raises_on_gadget_frame(self):
        decoder = FrameDecoder()
        assert decoder.feed(frame({"kind": "hello"})) == [{"kind": "hello"}]
        with pytest.raises(FrameRejected):
            decoder.feed(frame(EvilReduce()))

    def test_decoder_still_streams_partial_frames(self):
        decoder = FrameDecoder()
        data = frame({"kind": "results", "results": [(0, sample_result(0))]})
        assert decoder.feed(data[:5]) == []
        frames = decoder.feed(data[5:])
        assert [f["kind"] for f in frames] == ["results"]


class TestJournalTamperResistance:
    def hostile_line(self, index: int = 1) -> str:
        blob = base64.b64encode(pickle.dumps(EvilReduce())).decode("ascii")
        return json.dumps(
            {
                "kind": "trial",
                "index": index,
                "seed": 0,
                "success": True,
                "cover": 0,
                "result": blob,
            },
            sort_keys=True,
        )

    def test_hostile_interior_record_is_fatal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal, _ = SweepJournal.attach(path, "fp", resume=False)
        journal.close()
        with path.open("a", encoding="utf-8") as fh:
            fh.write(self.hostile_line(0) + "\n")
            fh.write(encode_record(sample_result(1)) + "\n")
        with pytest.raises(DispatchError, match="rejected"):
            SweepJournal.attach(path, "fp", resume=True)

    def test_hostile_final_record_is_fatal_too(self, tmp_path):
        # Unlike truncation (a crash artifact), a complete record naming
        # a disallowed global is tampering — never forgiven, even on the
        # final line.
        path = tmp_path / "j.jsonl"
        journal, _ = SweepJournal.attach(path, "fp", resume=False)
        journal.append(sample_result(0))
        journal.close()
        with path.open("a", encoding="utf-8") as fh:
            fh.write(self.hostile_line(1) + "\n")
        with pytest.raises(DispatchError, match="rejected"):
            SweepJournal.attach(path, "fp", resume=True)

    def test_truncated_final_line_still_tolerated(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal, _ = SweepJournal.attach(path, "fp", resume=False)
        journal.append(sample_result(0))
        journal.close()
        with path.open("a", encoding="utf-8") as fh:
            fh.write(encode_record(sample_result(1))[:40])
        _journal, completed = SweepJournal.attach(path, "fp", resume=True)
        _journal.close()
        assert sorted(completed) == [0]
