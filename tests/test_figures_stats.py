"""Tests for fit statistics and table formatting."""

from __future__ import annotations

import pytest

from repro.figures.stats import (
    format_table,
    linear_fit,
    percentile,
    relative_overhead,
)


class TestLinearFit:
    def test_exact_line_recovered(self):
        xs = [1, 2, 3, 4]
        ys = [2 * x + 5 for x in xs]
        fit = linear_fit(xs, ys)
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(5.0)
        assert fit.correlation == pytest.approx(1.0)
        assert fit.is_linear

    def test_noisy_line_still_correlates(self):
        xs = list(range(10))
        ys = [3 * x + (1 if x % 2 else -1) * 0.01 for x in xs]
        fit = linear_fit(xs, ys)
        assert fit.is_linear

    def test_nonlinear_not_linear(self):
        xs = list(range(1, 20))
        ys = [x**3 for x in xs]
        fit = linear_fit(xs, ys)
        assert fit.correlation < 0.99 or not fit.is_linear

    def test_predict(self):
        fit = linear_fit([0, 1], [1, 3])
        assert fit.predict(2) == pytest.approx(5.0)

    def test_flat_series_is_linear(self):
        fit = linear_fit([1, 2, 3], [7, 7, 7])
        assert fit.slope == pytest.approx(0.0)
        assert fit.is_linear

    def test_validation(self):
        with pytest.raises(ValueError):
            linear_fit([1], [1])
        with pytest.raises(ValueError):
            linear_fit([1, 2], [1])
        with pytest.raises(ValueError):
            linear_fit([2, 2], [1, 3])

    def test_negative_slope(self):
        fit = linear_fit([0, 1, 2], [10, 8, 6])
        assert fit.slope == pytest.approx(-2.0)
        assert fit.is_linear  # |r| criterion


class TestRelativeOverhead:
    def test_ten_percent(self):
        assert relative_overhead([100, 200], [110, 220]) == pytest.approx(0.1)

    def test_zero_overhead(self):
        assert relative_overhead([5, 5], [5, 5]) == pytest.approx(0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            relative_overhead([1], [1, 2])
        with pytest.raises(ValueError):
            relative_overhead([], [])
        with pytest.raises(ValueError):
            relative_overhead([0], [1])


class TestPercentile:
    def test_nearest_rank_of_unsorted_samples(self):
        samples = [5.0, 1.0, 4.0, 2.0, 3.0]
        assert percentile(samples, 0.0) == 1.0
        assert percentile(samples, 0.5) == 3.0
        assert percentile(samples, 0.99) == 5.0

    def test_empty_samples_read_zero(self):
        assert percentile([], 0.5) == 0.0


class TestFormatTable:
    def test_alignment(self):
        out = format_table(["a", "bbb"], [[1, 2], [333, 4]])
        lines = out.splitlines()
        assert len(lines) == 4
        # All rows same width.
        assert len({len(l) for l in lines}) == 1
        assert "333" in lines[3]
