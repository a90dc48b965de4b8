"""Tests for metric helpers."""

import pytest

from repro.experiments.metrics import (
    SeriesSummary,
    median_from_cdf,
    peak_value,
    steady_state_average,
)


SERIES = [(0.0, 0.0), (5.0, 100.0), (10.0, 200.0), (15.0, 400.0), (20.0, 400.0)]


class TestSeriesHelpers:
    def test_steady_state_average_uses_tail(self):
        # Last half of five samples = last 3 samples (index 2, 3, 4).
        assert steady_state_average(SERIES, tail_fraction=0.5) == pytest.approx(1000 / 3)

    def test_steady_state_empty(self):
        assert steady_state_average([]) == 0.0

    def test_steady_state_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            steady_state_average(SERIES, tail_fraction=0.0)

    def test_peak_value(self):
        assert peak_value(SERIES) == 400.0

    def test_series_summary(self):
        summary = SeriesSummary.from_series(SERIES)
        assert summary.peak_kbps == 400.0
        assert summary.final_kbps == 400.0
        assert summary.steady_state_kbps > 0


class TestCdfHelpers:
    def test_median(self):
        cdf = [(10.0, 0.2), (20.0, 0.4), (30.0, 0.6), (40.0, 0.8), (50.0, 1.0)]
        assert median_from_cdf(cdf) == 30.0
        assert median_from_cdf([]) == 0.0
