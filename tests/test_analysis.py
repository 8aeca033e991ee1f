"""Tests for disruption graphs, statistics, and complexity fitting."""

from __future__ import annotations

import math

import pytest

from repro.analysis.disruption import (
    disruptability,
    disruptability_histogram,
    disruption_graph,
    is_d_disruptable,
)
from repro.analysis.stats import (
    RateEstimate,
    empirical_rate,
    meets_whp,
    min_informative_trials,
    wilson_interval,
)

from oracles import fit_power_law, normalized_cost, scaling_ratios


class TestDisruption:
    def test_disruption_graph_extracts_failures(self):
        outcomes = {(0, 1): True, (2, 3): False, (4, 5): False}
        assert sorted(disruption_graph(outcomes)) == [(2, 3), (4, 5)]

    def test_disruptability_is_cover_size(self):
        assert disruptability([(0, 1), (0, 2), (0, 3)]) == 1
        assert disruptability([(0, 1), (2, 3)]) == 2

    def test_is_d_disruptable(self):
        failures = [(0, 1), (1, 2), (2, 0)]  # triangle: cover 2
        assert is_d_disruptable(failures, 2)
        assert not is_d_disruptable(failures, 1)

    def test_empty_failures_zero_disruptable(self):
        assert disruptability([]) == 0
        assert is_d_disruptable([], 0)

    def test_disruptability_histogram(self):
        runs = [
            [],                        # cover 0
            [(0, 1)],                  # cover 1
            [(0, 1), (0, 2), (0, 3)],  # star: cover 1
            [(0, 1), (2, 3)],          # matching: cover 2
        ]
        covers = [disruptability(failed) for failed in runs]
        assert disruptability_histogram(covers) == {0: 1, 1: 2, 2: 1}
        assert disruptability_histogram([]) == {}


class TestWilson:
    def test_interval_contains_point_estimate(self):
        low, high = wilson_interval(7, 10)
        assert low < 0.7 < high

    def test_zero_failure_boundary(self):
        low, high = wilson_interval(0, 50)
        assert low == 0.0
        assert 0 < high < 0.12

    def test_all_success_boundary(self):
        low, high = wilson_interval(50, 50)
        assert high == 1.0
        assert low > 0.9

    def test_narrower_with_more_trials(self):
        l1, h1 = wilson_interval(5, 10)
        l2, h2 = wilson_interval(500, 1000)
        assert (h2 - l2) < (h1 - l1)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 0)
        with pytest.raises(ValueError):
            wilson_interval(5, 3)

    def test_empirical_rate_bundles(self):
        est = empirical_rate(3, 12)
        assert isinstance(est, RateEstimate)
        assert est.point == pytest.approx(0.25)
        assert est.low <= est.point <= est.high

    def test_meets_whp_accepts_zero_failures(self):
        assert meets_whp(0, 200, n=50)

    def test_meets_whp_rejects_gross_failure_rates(self):
        assert not meets_whp(100, 200, n=50)

    def test_meets_whp_single_trial_no_longer_vacuous(self):
        # Regression: one trial used to "confirm" a 1/n claim because the
        # Wilson lower bound of any tiny sample is ~0.
        with pytest.raises(ValueError):
            meets_whp(0, 1, n=50)

    def test_meets_whp_raises_just_below_threshold(self):
        needed = min_informative_trials(50)
        with pytest.raises(ValueError):
            meets_whp(0, needed - 1, n=50)
        assert meets_whp(0, needed, n=50)

    def test_meets_whp_small_sample_rejection_still_valid(self):
        # A decisive rejection needs no minimum trial count: 72/72
        # failures refutes a 1/20 claim even though 72 < the 73 trials an
        # acceptance would need.
        assert not meets_whp(72, 72, n=20)
        assert not meets_whp(10, 10, n=50)

    def test_min_informative_trials_closed_form(self):
        # Zero-failure Wilson upper bound z^2/(T+z^2) reaches 1/n exactly
        # at T = z^2 (n-1).  n=1251 pins the one-ulp float edge where
        # ceil() alone lands one trial short of the invariant.
        for n in (2, 10, 50, 1000, 1251):
            needed = min_informative_trials(n)
            assert wilson_interval(0, needed)[1] <= 1.0 / n
            if needed > 1:
                assert wilson_interval(0, needed - 1)[1] > 1.0 / n

    def test_min_informative_trials_validates_n(self):
        with pytest.raises(ValueError):
            min_informative_trials(0)

    def test_meets_whp_validates_n(self):
        with pytest.raises(ValueError):
            meets_whp(0, 100, n=0)
        with pytest.raises(ValueError):
            meets_whp(5, 100, n=-3)

    def test_rate_estimate_point_nan_contract(self):
        est = RateEstimate(successes=0, trials=0, low=0.0, high=1.0)
        assert math.isnan(est.point)
        assert not est.point >= 0.0  # NaN fails every threshold


class TestPowerLawFit:
    def test_recovers_exact_exponent(self):
        xs = [1, 2, 4, 8, 16]
        ys = [3 * x**2 for x in xs]
        fit = fit_power_law(xs, ys)
        assert fit.exponent == pytest.approx(2.0)
        assert fit.coefficient == pytest.approx(3.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_linear_data(self):
        xs = [1, 2, 3, 4]
        fit = fit_power_law(xs, [5 * x for x in xs])
        assert fit.exponent == pytest.approx(1.0)

    def test_noisy_data_reasonable_r2(self):
        xs = [2.0, 4.0, 8.0, 16.0]
        ys = [1.1 * x**1.5 * f for x, f in zip(xs, [0.95, 1.03, 0.98, 1.02])]
        fit = fit_power_law(xs, ys)
        assert 1.3 < fit.exponent < 1.7
        assert fit.r_squared > 0.98

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            fit_power_law([1], [1])
        with pytest.raises(ValueError):
            fit_power_law([1, 2], [1])
        with pytest.raises(ValueError):
            fit_power_law([3, 3], [1, 2])

    def test_nonpositive_points_filtered(self):
        fit = fit_power_law([0, 1, 2, 4], [9, 1, 2, 4])
        assert fit.exponent == pytest.approx(1.0)

    def test_scaling_ratios(self):
        assert scaling_ratios([1, 2, 4, 8]) == [2.0, 2.0, 2.0]
        assert scaling_ratios([5]) == []

    def test_normalized_cost_flat_for_matching_shape(self):
        measured = [10, 40, 90]
        predicted = [1, 4, 9]
        ratios = normalized_cost(measured, predicted)
        assert all(r == pytest.approx(10.0) for r in ratios)

    def test_normalized_cost_length_mismatch(self):
        with pytest.raises(ValueError):
            normalized_cost([1, 2], [1])
