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
  byte-identically to index order (the at-most-once + index-sort rule);
* **journal replay** — over any header (one recorded on other coins
  or in another journal version included) and record lines (cut short,
  wrong JSON types, missing, unknown or mistyped fields, reordered,
  duplicated or forged indexes, and records out of bounds for their
  trial: no metrics, no cover over a K20 of failed pairs, a pair outside
  ``[0, n)``, a negative counter, a cover above the pair count, a forged
  seed), with or without a final newline, ``--resume`` replay returns
  the first record of each index, skips only a cut-short final line, or
  raises ``DispatchError`` / ``ConfigurationError``; a journal it
  returns from resumes again after one more record.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.dispatch import (
    ResultAssembler,
    SweepJournal,
    SweepReport,
    SweepSpec,
)
from repro.dispatch.journal import JOURNAL_VERSION, decode_record, encode_record
from repro.errors import ConfigurationError, DispatchError
from repro.experiments import TrialResult, TrialSpec
from repro.radio.metrics import NetworkMetrics
from repro.rng import RANDOMNESS_VERSION, RngRegistry

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


# ----------------------------------------------------------------------
# Journal replay over hostile lines.
# ----------------------------------------------------------------------


def _journal_result(index: int) -> TrialResult:
    return TrialResult(
        index=index,
        seed=index * 7 + 3,
        success=index % 3 != 0,
        failed_pairs=((0, 1),) if index % 3 == 0 else (),
        metrics=NetworkMetrics(rounds=index + 1),
        cover=1 if index % 3 == 0 else 0,
    )


_SPECS = {i: TrialSpec("fame", i, i * 7 + 3, n=24) for i in range(6)}
"""The specs :func:`_journal_result` answers, by index."""


def _record(index: int) -> dict:
    return json.loads(encode_record(_journal_result(index)))


def _out_of_bounds(index: int, fault: str) -> TrialResult:
    """A well-typed result that does not answer ``_SPECS[index]``."""
    result = _journal_result(index)
    if fault == "no-metrics":
        return dataclasses.replace(result, metrics=None)
    if fault == "no-cover-k20":
        k20 = tuple(itertools.combinations(range(20), 2))
        return dataclasses.replace(result, failed_pairs=k20, cover=None)
    if fault == "pair-outside-n":
        return dataclasses.replace(result, failed_pairs=((0, 24),), cover=1)
    if fault == "negative-counter":
        return dataclasses.replace(result, metrics=NetworkMetrics(rounds=-1))
    if fault == "cover-above-pairs":
        return dataclasses.replace(result, cover=len(result.failed_pairs) + 1)
    return dataclasses.replace(result, seed=result.seed + 1)  # forged seed


_BOUND_FAULTS = (
    "no-metrics", "no-cover-k20", "pair-outside-n", "negative-counter",
    "cover-above-pairs", "forged-seed",
)
_indexes = st.integers(0, 5)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=2)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)
_REQUIRED = (
    "kind", "index", "seed", "success", "failed_pairs", "metrics", "cover",
)
"""Record fields replay cannot do without (``detail`` defaults to ``()``;
a record without ``cover`` has none, which is out of bounds)."""


def _mistyped(field: str, value: object):
    """Values of another JSON type than ``value`` (a ``kind`` other than
    ``"trial"``)."""
    if field == "kind":
        return _json_values.filter(lambda v: v != "trial")
    return _json_values.filter(lambda v: type(v) is not type(value))


@st.composite
def _journal_line(draw):
    """``(line, fault)``: a journal line and the fault it carries (``None``
    for a well-formed record, ``"truncated"`` for a cut-short one)."""
    index = draw(_indexes)
    record = _record(index)
    kind = draw(
        st.sampled_from(
            ["good", "good", "truncated", "json", "missing", "mistyped",
             "unknown", "forged", "bounds"]
        )
    )
    if kind == "good":
        return json.dumps(record, sort_keys=True), None
    if kind == "truncated":
        line = json.dumps(record, sort_keys=True)
        return line[: draw(st.integers(1, len(line) - 1))], "truncated"
    if kind == "json":
        value = draw(_json_values.filter(lambda v: not isinstance(v, dict)))
        return json.dumps(value), "shape"
    if kind == "bounds":
        fault = draw(st.sampled_from(_BOUND_FAULTS))
        return encode_record(_out_of_bounds(index, fault)), "shape"
    if kind == "missing":
        del record[draw(st.sampled_from(_REQUIRED))]
    elif kind == "mistyped":
        field = draw(st.sampled_from(sorted(record)))
        record[field] = draw(_mistyped(field, record[field]))
    elif kind == "unknown":
        record[draw(st.sampled_from(["result", "extra", ""]))] = 0
    else:
        record["index"] = draw(_indexes.filter(lambda i: i != index))
    return json.dumps(record, sort_keys=True), "shape"


_HEADER = {
    "kind": "header",
    "journal_version": JOURNAL_VERSION,
    "fingerprint": "fp",
    "randomness": RANDOMNESS_VERSION,
}


@st.composite
def _journal_header(draw):
    """``(line, error)``: a header line and the error replay must raise."""
    kind = draw(
        st.sampled_from(
            ["good", "good", "json", "kind", "version", "randomness",
             "fingerprint", "truncated"]
        )
    )
    header = dict(_HEADER)
    if kind == "good":
        return json.dumps(header), None
    if kind == "json":
        value = draw(_json_values.filter(lambda v: not isinstance(v, dict)))
        return json.dumps(value), DispatchError
    if kind == "kind":
        header["kind"] = draw(_json_values.filter(lambda v: v != "header"))
    elif kind == "version":
        header["journal_version"] = draw(
            _json_values.filter(lambda v: v != JOURNAL_VERSION)
        )
    elif kind == "randomness":
        # Another version of the coins; a header without the field
        # predates versioning and holds version 1.
        if draw(st.booleans()):
            del header["randomness"]
        else:
            header["randomness"] = draw(
                _json_values.filter(lambda v: v != RANDOMNESS_VERSION)
            )
    elif kind == "fingerprint":
        header["fingerprint"] = draw(_json_values.filter(lambda v: v != "fp"))
        return json.dumps(header), ConfigurationError
    else:
        line = json.dumps(header)
        return line[: draw(st.integers(1, len(line) - 1))], DispatchError
    return json.dumps(header), DispatchError


@given(
    header=_journal_header(),
    lines=st.lists(_journal_line(), max_size=6),
    ended=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_journal_replay_returns_skips_a_cut_tail_or_raises_typed(
    header, lines, ended
):
    """Whatever the lines, replay returns the first record of each index
    (skipping only a cut-short final line) or raises the typed error the
    first faulty line calls for — never anything else.  A journal that
    replays takes one more record and replays again."""
    header_line, header_error = header
    expected: dict[int, TrialResult] | type = {}
    if header_error is not None:
        expected = header_error
    else:
        for position, (line, fault) in enumerate(lines):
            if fault is None:
                result = decode_record(json.loads(line), _SPECS)
                expected.setdefault(result.index, result)
            elif fault == "truncated" and position == len(lines) - 1:
                break
            else:
                expected = DispatchError
                break
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "j.jsonl"
        text = "\n".join([header_line] + [line for line, _ in lines])
        path.write_text(text + "\n" * ended, encoding="utf-8")
        if isinstance(expected, dict):
            journal, completed = SweepJournal.attach(
                path, "fp", resume=True, specs=_SPECS
            )
            journal.append(_journal_result(0))
            journal.close()
            assert completed == expected
            journal, completed = SweepJournal.attach(
                path, "fp", resume=True, specs=_SPECS
            )
            journal.close()
            assert completed == {0: _journal_result(0), **expected}
        else:
            with pytest.raises(expected):
                SweepJournal.attach(path, "fp", resume=True, specs=_SPECS)
