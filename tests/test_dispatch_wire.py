"""Tests for :mod:`repro.dispatch.wire` — the one codec for untrusted bytes.

The threat model: whoever can write to either listening port or edit a
journal file controls the bytes the codec reads.  It must round-trip
every value the protocol legitimately produces, refuse everything else
with one typed error that names the field, and never execute anything —
least of all a pickle ``__reduce__`` gadget, which a bare
``pickle.loads`` would *run*.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import math
import pickle
import re
import typing
from typing import Any

import pytest
from hypothesis import given, settings, strategies as st

from repro.dispatch.journal import SweepJournal, encode_record
from repro.dispatch.socket_pool import FrameDecoder, frame_bytes
from repro.dispatch.wire import (
    FrameRejected,
    as_dict,
    check_fields,
    check_result,
    decode,
    dumps,
    loads,
)
from repro.errors import DispatchError, JournalRejected
from repro.experiments.trial import TrialResult, TrialSpec
from repro.experiments.workloads import run_trial
from repro.radio.metrics import NetworkMetrics
from repro.scenarios import scenario_names
from repro.serve import protocol as p


def sample_result(index: int = 3) -> TrialResult:
    metrics = NetworkMetrics(rounds=7, honest_transmissions=21)
    metrics.rounds_by_phase["exchange"] = 7
    return TrialResult(
        index=index,
        seed=index * 11,
        success=False,
        failed_pairs=((0, 1), (2, 5)),
        metrics=metrics,
        detail=(("phase", "exchange"), ("blob", b"\x00\xff")),
        cover=1,
    )


def sample_specs(count: int = 8) -> dict[int, TrialSpec]:
    """The specs :func:`sample_result` answers, by index."""
    return {i: TrialSpec("fame", i, i * 11, n=6) for i in range(count)}


def over_the_wire(tp, value):
    """``value`` encoded, read back and rebuilt as ``tp``."""
    return decode(tp, loads(dumps(value)))


def plain(value):
    """What the wire reads back for ``value``: tuples become lists."""
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    return value


class EvilReduce:
    """Classic pickle RCE gadget: decoding would call ``os.system``."""

    command = "echo pwned"

    def __reduce__(self):
        import os

        return (os.system, (self.command,))


def gadget(canary) -> bytes:
    """A pickle that would create ``canary`` if anything unpickled it."""

    class TouchCanary(EvilReduce):
        command = f"touch {canary}"

    return pickle.dumps(TouchCanary())


def prefixed(payload: bytes) -> bytes:
    return len(payload).to_bytes(4, "big") + payload


class TestLoadsRestricted:
    """The inputs the restricted unpickler this codec replaced was pinned
    on: plain frames still round-trip, and every pickle is refused."""

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
            assert loads(dumps(obj)) == plain(obj)

    def test_trial_spec_and_result_round_trip(self):
        spec = TrialSpec(
            workload="fame", index=4, seed=99, n=12, channels=2, t=1,
            pairs=3, adversary="schedule",
        )
        assert over_the_wire(TrialSpec, spec) == spec
        result = sample_result()
        clone = over_the_wire(TrialResult, result)
        assert clone == result
        assert clone.metrics.rounds_by_phase == {"exchange": 7}

    def test_results_frame_shape_round_trips(self):
        frame = loads(
            dumps(
                {
                    "kind": "results",
                    "results": [sample_result(3), sample_result(4)],
                    "elapsed": 0.25,
                }
            )
        )
        assert frame["kind"] == "results" and frame["elapsed"] == 0.25
        results = decode(tuple[TrialResult, ...], frame["results"])
        assert results == (sample_result(3), sample_result(4))

    def test_memoryview_input_accepted(self):
        blob = dumps(sample_result())
        assert decode(TrialResult, loads(memoryview(blob))) == sample_result()

    def test_pickled_function_rejected(self):
        import os

        with pytest.raises(FrameRejected, match="not JSON"):
            loads(pickle.dumps(os.system))

    def test_reduce_gadget_rejected_not_executed(self, tmp_path):
        canary = tmp_path / "canary"
        with pytest.raises(FrameRejected):
            loads(gadget(canary))
        with pytest.raises(FrameRejected):
            FrameDecoder().feed(prefixed(gadget(canary)))
        assert not canary.exists()

    def test_builtin_eval_rejected(self):
        with pytest.raises(FrameRejected, match="not JSON"):
            loads(pickle.dumps(eval))

    def test_unlisted_repro_class_rejected(self):
        from repro.rng import RngRegistry

        with pytest.raises(FrameRejected, match="RngRegistry"):
            dumps(RngRegistry(seed=1))
        with pytest.raises(FrameRejected, match="not JSON"):
            loads(pickle.dumps(RngRegistry(seed=1)))

    def test_rejection_is_a_dispatch_error(self):
        assert issubclass(FrameRejected, DispatchError)

    def test_truncated_frame_raises_the_typed_error(self):
        blob = dumps(sample_result())
        for cut in (1, len(blob) // 2, len(blob) - 1):
            with pytest.raises(FrameRejected, match="not JSON"):
                loads(blob[:cut])


class TestFrameDecoderRejectsHostileFrames:
    def test_decoder_raises_on_gadget_frame(self):
        decoder = FrameDecoder()
        assert decoder.feed(frame_bytes({"kind": "hello"})) == [
            {"kind": "hello"}
        ]
        with pytest.raises(FrameRejected):
            decoder.feed(prefixed(pickle.dumps(EvilReduce())))

    def test_decoder_still_streams_partial_frames(self):
        decoder = FrameDecoder()
        data = frame_bytes({"kind": "results", "results": [sample_result(0)]})
        assert decoder.feed(data[:5]) == []
        frames = decoder.feed(data[5:])
        assert [f["kind"] for f in frames] == ["results"]


class TestJournalTamperResistance:
    def hostile_line(self, canary, index: int = 1) -> str:
        """A version-1 style record: its ``result`` is a pickled gadget."""
        blob = base64.b64encode(gadget(canary)).decode("ascii")
        return json.dumps(
            {
                "kind": "trial",
                "index": index,
                "seed": index * 11,
                "success": True,
                "cover": 0,
                "result": blob,
            },
            sort_keys=True,
        )

    def test_hostile_interior_record_is_fatal(self, tmp_path):
        canary = tmp_path / "canary"
        path = tmp_path / "j.jsonl"
        journal, _ = SweepJournal.attach(
            path, "fp", resume=False, specs=sample_specs()
        )
        journal.close()
        with path.open("a", encoding="utf-8") as fh:
            fh.write(self.hostile_line(canary, 0) + "\n")
            fh.write(encode_record(sample_result(1)) + "\n")
        with pytest.raises(JournalRejected, match="line 2 record"):
            SweepJournal.attach(path, "fp", resume=True, specs=sample_specs())
        assert not canary.exists()

    def test_hostile_final_record_is_fatal_too(self, tmp_path):
        # Unlike truncation (a crash artifact), a complete record with a
        # field the format does not have is tampering — never forgiven,
        # even on the final line.
        canary = tmp_path / "canary"
        path = tmp_path / "j.jsonl"
        journal, _ = SweepJournal.attach(
            path, "fp", resume=False, specs=sample_specs()
        )
        journal.append(sample_result(0))
        journal.close()
        with path.open("a", encoding="utf-8") as fh:
            fh.write(self.hostile_line(canary, 1) + "\n")
        with pytest.raises(JournalRejected, match="line 3 record"):
            SweepJournal.attach(path, "fp", resume=True, specs=sample_specs())
        assert not canary.exists()

    def test_truncated_final_line_still_tolerated(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal, _ = SweepJournal.attach(
            path, "fp", resume=False, specs=sample_specs()
        )
        journal.append(sample_result(0))
        journal.close()
        with path.open("a", encoding="utf-8") as fh:
            fh.write(encode_record(sample_result(1))[:40])
        _journal, completed = SweepJournal.attach(
            path, "fp", resume=True, specs=sample_specs()
        )
        _journal.close()
        assert sorted(completed) == [0]


# ----------------------------------------------------------------------
# Properties of the typed decoder
# ----------------------------------------------------------------------

_finite_floats = st.floats(allow_nan=False, allow_infinity=False)
_any_values = st.recursive(
    st.none() | st.booleans() | st.integers() | _finite_floats | st.text()
    | st.binary(),
    lambda inner: st.lists(inner, max_size=3).map(tuple),
    max_leaves=6,
)


def strategy(tp) -> st.SearchStrategy:
    """Values of ``tp``, read off the same annotations the decoder reads."""
    if tp is int:
        return st.integers()
    if tp is bool:
        return st.booleans()
    if tp is str:
        return st.text(max_size=8)
    if tp is bytes:
        return st.binary(max_size=8)
    if tp is float:
        return _finite_floats
    if tp is Any:
        return _any_values
    if tp is tuple:
        return st.lists(_any_values, max_size=3).map(tuple)
    if dataclasses.is_dataclass(tp):
        hints = typing.get_type_hints(tp)
        return st.builds(
            tp,
            **{f.name: strategy(hints[f.name]) for f in dataclasses.fields(tp)},
        )
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is tuple and args[-1] is Ellipsis:
        return st.lists(strategy(args[0]), max_size=3).map(tuple)
    if origin is tuple:
        return st.tuples(*(strategy(arg) for arg in args))
    if origin is dict:
        return st.dictionaries(strategy(args[0]), strategy(args[1]), max_size=3)
    inner, _none = args  # X | None
    return st.none() | strategy(inner)


_WIRE_TYPES = [
    TrialResult,
    TrialSpec,
    *p.REQUEST_TYPES.values(),
    *p.RESPONSE_TYPES.values(),
]


@pytest.mark.parametrize("tp", _WIRE_TYPES, ids=lambda tp: tp.__name__)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_wire_type_round_trips(tp, data):
    value = data.draw(strategy(tp))
    assert over_the_wire(tp, value) == value


def _results_in_bounds(spec: TrialSpec) -> st.SearchStrategy:
    """Results that answer ``spec``: in-range sorted pairs, a fitting
    cover, non-negative counters."""
    pairs = st.lists(
        st.tuples(st.integers(0, spec.n - 1), st.integers(0, spec.n - 1))
        .filter(lambda pair: pair[0] < pair[1]),
        max_size=5,
        unique=True,
    ).map(lambda found: tuple(sorted(found)))
    counter = st.integers(0, 1 << 40)
    metrics = st.builds(
        NetworkMetrics,
        rounds=counter,
        listens=counter,
        rounds_by_phase=st.dictionaries(st.text(max_size=4), counter, max_size=2),
    )
    return pairs.flatmap(
        lambda failed: st.builds(
            TrialResult,
            index=st.just(spec.index),
            seed=st.just(spec.seed),
            success=st.booleans(),
            failed_pairs=st.just(failed),
            metrics=metrics,
            detail=strategy(typing.get_type_hints(TrialResult)["detail"]),
            cover=st.integers(0, len(failed)),
        )
    )


_SPEC = TrialSpec("fame", 5, 77, n=20)


def _mutations(result: TrialResult) -> list[tuple[str, dict]]:
    """``(field, wire dict)``: one field of ``result`` broken per entry."""
    record = loads(dumps(result))
    pairs = record["failed_pairs"]
    broken = [
        ("index", {"index": True}),
        ("seed", {"seed": 77.0}),
        ("success", {"success": 1}),
        ("failed_pairs", {"failed_pairs": [[0, 1, 2]]}),
        ("failed_pairs", {"failed_pairs": [[0, "1"]]}),
        ("metrics", {"metrics": None}),
        ("metrics.rounds", {"metrics": {**record["metrics"], "rounds": 1.5}}),
        ("detail", {"detail": [["k", {"a": 1}]]}),
        ("cover", {"cover": "1"}),
        # bounds
        ("index", {"index": 6}),
        ("seed", {"seed": 78}),
        ("failed_pairs", {"failed_pairs": [[0, 20]], "cover": 1}),
        ("failed_pairs", {"failed_pairs": [[3, 3]], "cover": 1}),
        ("failed_pairs", {"failed_pairs": [[1, 2], [0, 1]], "cover": 1}),
        ("failed_pairs", {"failed_pairs": [[0, 1], [0, 1]], "cover": 1}),
        ("cover", {"cover": None}),
        ("cover", {"cover": len(pairs) + 1}),
        ("cover", {"cover": -1}),
        ("metrics", {"metrics": {**record["metrics"], "listens": -1}}),
        (
            "metrics",
            {"metrics": {**record["metrics"], "rounds_by_phase": {"x": -2}}},
        ),
    ]
    return [(name, {**record, **change}) for name, change in broken]


@settings(max_examples=25, deadline=None)
@given(result=_results_in_bounds(_SPEC))
def test_one_broken_field_is_refused_by_name(result):
    specs = {_SPEC.index: _SPEC}
    clone = over_the_wire(TrialResult, result)
    check_result(clone, specs)
    assert clone == result
    for name, record in _mutations(result):
        with pytest.raises(FrameRejected, match="^" + re.escape(f"record.{name}")):
            check_result(decode(TrialResult, record, "record"), specs, "record")


@pytest.mark.parametrize(
    "workload",
    ["fame", "groupkey", "gauntlet"]
    + [f"scenario:{name}" for name in scenario_names()],
)
def test_real_trials_round_trip_and_pass_their_bounds(workload):
    spec = TrialSpec(workload, 2, 41, n=18, pairs=4)
    result = run_trial(spec)
    clone = over_the_wire(TrialResult, result)
    assert clone == result
    check_result(clone, {spec.index: spec})
    record = loads(encode_record(result))
    assert record.pop("kind") == "trial"
    assert decode(TrialResult, record) == result


@pytest.mark.parametrize(
    "text",
    [
        "NaN",
        "[Infinity]",
        '{"elapsed": -Infinity}',
        '{"elapsed": 1e400}',
        "[" * 50_000 + "]" * 50_000,
    ],
    ids=["nan", "infinity", "minus-infinity", "float-overflow", "deep"],
)
def test_values_json_admits_but_no_frame_holds_are_refused(text):
    with pytest.raises(FrameRejected):
        loads(text)
    with pytest.raises(FrameRejected):
        FrameDecoder().feed(prefixed(text.encode()))


@pytest.mark.parametrize(
    "blob",
    [
        {"$bytes": "not base64!"},
        {"$bytes": 5},
        {"$bytes": "AAAA", "extra": 1},
    ],
    ids=["garbage", "not-a-string", "two-keys"],
)
def test_malformed_bytes_tag_is_refused(blob):
    with pytest.raises(FrameRejected, match=r"\$bytes"):
        loads(json.dumps(blob))


def test_bool_is_not_an_int_and_floats_must_be_finite():
    with pytest.raises(FrameRejected, match="expected int, got bool"):
        decode(int, True)
    with pytest.raises(FrameRejected, match="finite"):
        decode(float, math.inf)
    # An int too large for a float is refused, not an OverflowError.
    with pytest.raises(FrameRejected, match="^elapsed: expected a finite float"):
        decode(float, loads(b"1" + b"0" * 400), "elapsed")
    assert decode(float, 2) == 2.0 and type(decode(float, 2)) is float


def test_an_instance_is_checked_in_place():
    request = p.Flush(name="s", max_rounds="soon")
    with pytest.raises(FrameRejected, match=r"^flush\.max_rounds: expected int"):
        check_fields(request, "flush")
    # A list is what the wire holds, not what an instance may hold.
    listed = p.OpenSession(name="s", members=[0, 1])
    with pytest.raises(FrameRejected, match=r"^open\.members: a list where a tuple"):
        check_fields(listed, "open")
    check_fields(p.OpenSession(name="s", members=(0, 1)), "open")
    # An int too long to print is still refused with the typed error.
    with pytest.raises(FrameRejected, match=r"^flush\.name: expected str, got int$"):
        check_fields(p.Flush(name=10**5000), "flush")
    with pytest.raises(FrameRejected, match="expected a SendMessage object"):
        decode(p.SendMessage, p.SendMessage(name="s", sender=0, payload=b""))


def test_the_first_unknown_or_missing_field_is_named():
    record = loads(dumps(sample_result()))
    with pytest.raises(FrameRejected, match=r"^TrialResult\.bogus: unknown"):
        decode(TrialResult, {**record, "bogus": 1})
    del record["metrics"]
    with pytest.raises(FrameRejected, match=r"^TrialResult\.metrics: missing"):
        decode(TrialResult, record)


def test_as_dict_is_what_the_wire_reads_back():
    response = p.Flushed(
        name="a",
        deliveries=((1, 0, 0, b"x"),),
        emulated_rounds=1,
        pending=0,
        rekeys=((1, 0, (0, 1), (), (), 42),),
    )
    assert loads(dumps(as_dict(response))) == as_dict(response)
    assert as_dict(response)["deliveries"] == [[1, 0, 0, b"x"]]
