"""Tests for witness assignments and rank()."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.feedback.witness import WitnessAssignment, rank


class TestRank:
    def test_rank_positions(self):
        assert rank(5, (5, 7, 9)) == 0
        assert rank(9, (5, 7, 9)) == 2

    def test_rank_missing_raises(self):
        with pytest.raises(ConfigurationError):
            rank(1, (5, 7, 9))


class TestWitnessAssignment:
    def test_valid_assignment(self):
        wa = WitnessAssignment(sets=((0, 1), (2, 3)), channels=(0, 1))
        assert wa.slots == 2
        assert wa.witnesses_of(1) == (2, 3)

    def test_set_size_must_match_channels(self):
        with pytest.raises(ConfigurationError, match="needs exactly"):
            WitnessAssignment(sets=((0, 1, 2),), channels=(0, 1))

    def test_duplicate_within_set_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicates"):
            WitnessAssignment(sets=((0, 0),), channels=(0, 1))

    def test_overlapping_sets_rejected(self):
        with pytest.raises(ConfigurationError, match="overlap"):
            WitnessAssignment(sets=((0, 1), (1, 2)), channels=(0, 1))

    def test_empty_assignment_allowed(self):
        wa = WitnessAssignment(sets=(), channels=(0, 1))
        assert wa.slots == 0
