"""Tests for the FigureResult container itself."""

import pytest

from repro.analysis import Series
from repro.experiments.figures import FigureResult


@pytest.fixture
def fig():
    f = FigureResult(
        figure_id="figX",
        title="demo",
        xlabel="x",
        ylabel="y",
        notes="a note",
    )
    f.series.append(Series("a", (1.0, 2.0), (10.0, 20.0)))
    f.series.append(Series("b", (1.0, 3.0), (5.0, 6.0)))
    return f


class TestFigureResult:
    def test_series_by_name(self, fig):
        assert fig.series_by_name("a").y == (10.0, 20.0)
        with pytest.raises(KeyError):
            fig.series_by_name("zzz")

    def test_as_table_handles_missing_x(self, fig):
        table = fig.as_table()
        assert "figX" in table
        # series 'a' has no x=3, series 'b' no x=2 -> dashes appear
        assert "-" in table

    def test_as_chart(self, fig):
        chart = fig.as_chart()
        assert "figX" in chart
        assert "a" in chart and "b" in chart

    def test_render_includes_notes(self, fig):
        assert "a note" in fig.render()
