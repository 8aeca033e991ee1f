"""Unit tests for FameResult / PairOutcome helpers."""

from __future__ import annotations

import pytest

from repro.fame.config import make_config
from repro.fame.result import FameResult, PairOutcome


def outcomes_from_pairs(pairs, delivered):
    """An outcome table from a delivered-message map."""
    out = {}
    for pair in pairs:
        if pair in delivered:
            out[pair] = PairOutcome(
                pair=pair, success=True, message=delivered[pair]
            )
        else:
            out[pair] = PairOutcome(pair=pair, success=False)
    return out


def result_with(outcomes):
    return FameResult(
        config=make_config(20, 2, 1),
        outcomes=outcomes,
        moves=3,
        rounds=100,
    )


class TestOutcomesFromPairs:
    def test_partitions_success_and_failure(self):
        pairs = [(0, 1), (2, 3), (4, 5)]
        delivered = {(0, 1): "a", (4, 5): "b"}
        out = outcomes_from_pairs(pairs, delivered)
        assert out[(0, 1)].success and out[(0, 1)].message == "a"
        assert not out[(2, 3)].success
        assert out[(2, 3)].message is None


class TestFameResult:
    def test_succeeded_failed_partition(self):
        res = result_with(outcomes_from_pairs(
            [(0, 1), (2, 3)], {(0, 1): "m"}
        ))
        assert res.succeeded == [(0, 1)]
        assert res.failed == [(2, 3)]
        assert set(res.pairs) == {(0, 1), (2, 3)}

    def test_disruptability_of_star_failures(self):
        res = result_with(outcomes_from_pairs(
            [(0, 1), (0, 2), (0, 3)], {}
        ))
        assert res.disruptability() == 1
        assert res.is_d_disruptable(1)
        assert not res.is_d_disruptable(0)

    def test_sender_report_filters_by_source(self):
        res = result_with(outcomes_from_pairs(
            [(0, 1), (0, 2), (3, 4)], {(0, 1): "m"}
        ))
        assert res.sender_report(0) == {(0, 1): True, (0, 2): False}
        assert res.sender_report(3) == {(3, 4): False}
        assert res.sender_report(9) == {}

    def test_summary_shape(self):
        res = result_with(outcomes_from_pairs([(0, 1)], {(0, 1): "m"}))
        s = res.summary()
        assert s["succeeded"] == 1 and s["failed"] == 0
        assert s["regime"] == "base"
        assert s["moves"] == 3 and s["rounds"] == 100

    def test_empty_result(self):
        res = result_with({})
        assert res.succeeded == [] and res.failed == []
        assert res.disruptability() == 0


class TestPairOutcome:
    def test_frozen(self):
        o = PairOutcome(pair=(0, 1), success=True, message="m", move=2)
        with pytest.raises(AttributeError):
            o.success = False  # type: ignore[misc]
