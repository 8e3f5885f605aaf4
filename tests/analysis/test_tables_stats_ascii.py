"""Tests for table formatting, statistics, and ASCII rendering."""

import pytest

from repro.analysis import Series, ascii_chart, ascii_timeline, format_table, summarize
from repro.core.spacefunc import UsageTimeline, residency_profile
from repro.errors import ReproError


class TestFormatTable:
    def test_alignment_and_formatting(self):
        out = format_table(
            ["name", "value"],
            [["alpha", 1234.5], ["beta", 7.0]],
            title="t",
        )
        lines = out.splitlines()
        assert lines[0] == "t"
        assert "name" in lines[1] and "value" in lines[1]
        assert "1,234.5" in out
        assert "alpha" in out

    def test_int_formatting(self):
        out = format_table(["n"], [[1234567]])
        assert "1,234,567" in out

    def test_row_length_mismatch(self):
        with pytest.raises(ReproError):
            format_table(["a", "b"], [[1]])

    def test_empty_headers(self):
        with pytest.raises(ReproError):
            format_table([], [])

    def test_no_rows(self):
        out = format_table(["a"], [])
        assert "a" in out


class TestSummarize:
    def test_basic(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert s.n == 4
        assert s.mean == 2.5
        assert s.minimum == 1.0
        assert s.maximum == 4.0
        assert s.median == 2.5

    def test_empty_rejected(self):
        with pytest.raises(ReproError):
            summarize([])


class TestAsciiChart:
    def test_renders_series_and_legend(self):
        s1 = Series("up", (0.0, 1.0, 2.0), (0.0, 1.0, 2.0))
        s2 = Series("down", (0.0, 1.0, 2.0), (2.0, 1.0, 0.0))
        out = ascii_chart([s1, s2], title="demo")
        assert "demo" in out
        assert "* up" in out and "+ down" in out
        assert "*" in out and "+" in out

    def test_flat_series(self):
        s = Series("flat", (0.0, 1.0), (5.0, 5.0))
        out = ascii_chart([s])
        assert "*" in out

    def test_requires_series(self):
        with pytest.raises(ReproError):
            ascii_chart([])


class TestAsciiTimeline:
    def test_renders_usage_blocks(self):
        tl = UsageTimeline([residency_profile(100.0, 10.0, 0.0, 30.0)])
        out = ascii_timeline(tl, title="usage")
        assert "usage" in out
        assert "#" in out

    def test_overflow_marked(self):
        tl = UsageTimeline(
            [
                residency_profile(100.0, 10.0, 0.0, 30.0),
                residency_profile(100.0, 10.0, 5.0, 35.0),
            ]
        )
        out = ascii_timeline(tl, capacity=150.0)
        assert "!" in out
        assert "capacity = 150" in out

    def test_empty_timeline(self):
        out = ascii_timeline(UsageTimeline([]), title="t")
        assert "(no usage)" in out
