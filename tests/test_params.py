"""Tests for repro.params: constants, round formulas, model validation."""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigurationError
from repro.fame.config import make_config
from repro.params import (
    DEFAULT_PARAMETERS,
    ProtocolParameters,
    log2n,
    min_population,
    validate_model,
)
from repro.radio.network import RadioNetwork


class TestMinPopulation:
    def test_matches_paper_bound_t1(self):
        # n > 3(t+1)^2 + 2(t+1) = 12 + 4 = 16  =>  min is 17
        assert min_population(1) == 17

    def test_matches_paper_bound_t2(self):
        assert min_population(2) == 3 * 9 + 6 + 1

    def test_monotone_in_t(self):
        values = [min_population(t) for t in range(6)]
        assert values == sorted(values)
        assert len(set(values)) == len(values)

    def test_fame_config_enforces_the_bound(self):
        # The model alone admits n=16 at t=1; f-AME's configuration, which
        # needs the witness assignment, refuses it and admits n=17.
        validate_model(min_population(1) - 1, 2, 1)
        with pytest.raises(ConfigurationError, match="n >= 17"):
            make_config(min_population(1) - 1, 2, 1)
        make_config(min_population(1), 2, 1)


class TestLog2n:
    def test_floor_at_one(self):
        assert log2n(1) == 1.0
        assert log2n(2) == 1.0

    def test_matches_log2_for_larger_n(self):
        assert log2n(1024) == pytest.approx(10.0)


class TestValidation:
    def test_default_parameters_valid(self):
        assert DEFAULT_PARAMETERS.validate() is DEFAULT_PARAMETERS

    @pytest.mark.parametrize(
        "field", ["feedback_factor", "dissemination_factor", "gossip_epoch_factor"]
    )
    def test_rejects_nonpositive_factors(self, field):
        with pytest.raises(ConfigurationError):
            ProtocolParameters(**{field: 0.0}).validate()
        with pytest.raises(ConfigurationError):
            ProtocolParameters(**{field: -1.0}).validate()

    def test_rejects_nonpositive_round_cap(self):
        with pytest.raises(ConfigurationError):
            ProtocolParameters(max_rounds=0).validate()

    def test_none_round_cap_allowed(self):
        assert ProtocolParameters(max_rounds=None).validate().max_rounds is None


class TestFeedbackRepetitions:
    def test_base_regime_scales_with_t(self):
        p = DEFAULT_PARAMETERS
        # C = t+1: ratio C/(C-t) = t+1, so repetitions grow ~t.
        r1 = p.feedback_repetitions(64, 2, 1)
        r3 = p.feedback_repetitions(64, 4, 3)
        assert r3 > r1

    def test_exact_formula(self):
        p = ProtocolParameters(feedback_factor=2.0)
        expected = math.ceil(2.0 * (4 / 2) * math.log2(64))
        assert p.feedback_repetitions(64, 4, 2) == expected

    def test_grows_with_n(self):
        p = DEFAULT_PARAMETERS
        assert p.feedback_repetitions(1024, 2, 1) > p.feedback_repetitions(16, 2, 1)

    def test_rejects_saturated_channels(self):
        with pytest.raises(ConfigurationError):
            DEFAULT_PARAMETERS.feedback_repetitions(64, 2, 2)

    def test_double_channel_regime_cheaper_per_slot(self):
        p = DEFAULT_PARAMETERS
        t = 4
        base = p.feedback_repetitions(64, t + 1, t)
        double = p.feedback_repetitions(64, 2 * t, t)
        assert double < base


class TestEpochLengths:
    def test_dissemination_epoch_scales(self):
        p = DEFAULT_PARAMETERS
        assert p.dissemination_epoch_rounds(64, 2) > p.dissemination_epoch_rounds(64, 1)
        assert p.dissemination_epoch_rounds(256, 1) > p.dissemination_epoch_rounds(16, 1)

    def test_gossip_epoch_quadratic_in_t(self):
        p = ProtocolParameters(gossip_epoch_factor=1.0)
        n = 64
        e1 = p.gossip_epoch_rounds(n, 1)
        e3 = p.gossip_epoch_rounds(n, 3)
        # (t+1)^2 ratio: 16/4 = 4
        assert e3 == pytest.approx(4 * e1, rel=0.01)

    def test_agreement_group_size_is_2t_plus_1(self):
        assert DEFAULT_PARAMETERS.agreement_group_size(3) == 7


class TestModelValidation:
    def test_accepts_minimal_model(self):
        validate_model(2, 2, 1)

    def test_rejects_single_node(self):
        with pytest.raises(ConfigurationError):
            validate_model(1, 2, 1)

    def test_rejects_single_channel(self):
        # Paper: C > 1.
        with pytest.raises(ConfigurationError):
            validate_model(10, 1, 0)

    def test_rejects_negative_t(self):
        with pytest.raises(ConfigurationError):
            validate_model(10, 2, -1)

    def test_rejects_t_geq_c(self):
        # With t >= C no communication is possible.
        with pytest.raises(ConfigurationError):
            validate_model(10, 2, 2)
        with pytest.raises(ConfigurationError):
            validate_model(10, 3, 5)

    @pytest.mark.parametrize(
        "n, channels, t, field",
        [
            (8, 2.0, 1, "C"),
            (8.5, 2, 1, "n"),
            (8, 2, 0.5, "t"),
            ("8", 2, 1, "n"),
            (True, 2, 1, "n"),
            (8, True, 0, "C"),
            (8, 2, True, "t"),
        ],
    )
    def test_rejects_sizes_that_are_not_exact_ints(self, n, channels, t, field):
        with pytest.raises(ConfigurationError, match=f"^{field} must be an int"):
            RadioNetwork(n, channels, t)
