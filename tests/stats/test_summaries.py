"""Unit tests for series and table helpers."""

import pytest

from repro.stats.summaries import downsample, format_table


class TestDownsample:
    def test_short_series_unchanged(self):
        series = [(1, 1), (2, 2)]
        assert downsample(series, 10) == series

    def test_keeps_endpoints(self):
        series = [(i, i * i) for i in range(100)]
        sampled = downsample(series, 5)
        assert sampled[0] == series[0]
        assert sampled[-1] == series[-1]
        assert len(sampled) <= 5

    def test_monotone_x_preserved(self):
        series = [(i, 0) for i in range(1000)]
        xs = [x for x, _ in downsample(series, 20)]
        assert xs == sorted(xs)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            downsample([(1, 1)], 1)


class TestFormatTable:
    def test_renders_alignment(self):
        table = format_table(["name", "value"], [("a", 1), ("longer", 22)])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert all(len(line) == len(lines[0]) for line in lines[1:])

    def test_row_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [(1,)])

    def test_float_formatting(self):
        table = format_table(["x"], [(0.123456,)])
        assert "0.1235" in table
