"""Tests for Series shape predicates."""

import pytest

from repro.analysis import Series, gap_between
from repro.errors import ReproError


class TestSeriesConstruction:
    def test_basic(self):
        s = Series("a", (1.0, 2.0, 3.0), (10.0, 20.0, 30.0))
        assert len(s) == 3
        assert s.points == [(1.0, 10.0), (2.0, 20.0), (3.0, 30.0)]

    def test_length_mismatch(self):
        with pytest.raises(ReproError, match="lengths differ"):
            Series("a", (1.0, 2.0), (1.0,))

    def test_empty(self):
        with pytest.raises(ReproError, match="empty"):
            Series("a", (), ())

    def test_unsorted_x(self):
        with pytest.raises(ReproError, match="strictly increasing"):
            Series("a", (2.0, 1.0), (1.0, 2.0))


class TestShapePredicates:
    def test_increasing(self):
        assert Series("a", (1, 2, 3), (1.0, 2.0, 3.0)).is_increasing(strict=True)
        assert Series("a", (1, 2, 3), (1.0, 1.0, 3.0)).is_increasing()
        assert not Series("a", (1, 2, 3), (1.0, 1.0, 3.0)).is_increasing(strict=True)
        assert not Series("a", (1, 2, 3), (3.0, 1.0, 2.0)).is_increasing()

    def test_decreasing(self):
        assert Series("a", (1, 2, 3), (3.0, 2.0, 1.0)).is_decreasing()
        assert not Series("a", (1, 2, 3), (1.0, 2.0, 1.0)).is_decreasing()

    def test_dominates(self):
        hi = Series("hi", (1, 2, 3), (5.0, 6.0, 7.0))
        lo = Series("lo", (1, 2, 3), (1.0, 6.0, 5.0))
        assert hi.dominates(lo)
        assert not lo.dominates(hi)

    def test_dominates_no_shared_x(self):
        a = Series("a", (1, 2), (1.0, 2.0))
        b = Series("b", (5, 6), (1.0, 2.0))
        with pytest.raises(ReproError, match="share no x"):
            a.dominates(b)

    def test_linearity(self):
        lin = Series("a", (0.0, 1.0, 2.0, 3.0), (1.0, 3.0, 5.0, 7.0))
        assert lin.linearity() == pytest.approx(1.0)
        curved = Series("b", (0.0, 1.0, 2.0, 3.0), (0.0, 1.0, 4.0, 9.0))
        assert curved.linearity() < 1.0
        flat = Series("c", (0.0, 1.0), (2.0, 2.0))
        assert flat.linearity() == 1.0


class TestGaps:
    def test_gap_between(self):
        hi = Series("hi", (1, 2), (10.0, 20.0))
        lo = Series("lo", (1, 2), (4.0, 5.0))
        assert gap_between(hi, lo) == [6.0, 15.0]

    def test_no_shared(self):
        with pytest.raises(ReproError):
            gap_between(Series("a", (1,), (1.0,)), Series("b", (2,), (1.0,)))
