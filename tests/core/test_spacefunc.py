"""Tests for space profiles and usage timelines (Eqs. 5-7)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.spacefunc import (
    UsageTimeline,
    delta_space,
    gamma_coefficient,
    residency_profile,
)
from repro.errors import ScheduleError

from .timeline_reference import integral_above


class TestGamma:
    def test_long_residency(self):
        assert gamma_coefficient(0.0, 100.0, 50.0) == 1.0

    def test_boundary_exactly_playback(self):
        assert gamma_coefficient(0.0, 50.0, 50.0) == 1.0

    def test_short_residency(self):
        assert gamma_coefficient(0.0, 25.0, 50.0) == 0.5

    def test_zero_extent(self):
        assert gamma_coefficient(10.0, 10.0, 50.0) == 0.0

    def test_reversed_interval(self):
        with pytest.raises(ScheduleError):
            gamma_coefficient(10.0, 5.0, 50.0)

    def test_invalid_playback(self):
        with pytest.raises(ScheduleError):
            gamma_coefficient(0.0, 1.0, 0.0)


class TestResidencyProfile:
    def test_long_residency_shape(self):
        p = residency_profile(size=100.0, playback=10.0, t_start=0.0, t_last=30.0)
        assert p.support == (0.0, 40.0)
        assert p.peak == 100.0
        assert p.value(0.0) == 100.0
        assert p.value(15.0) == 100.0
        assert p.value(35.0) == pytest.approx(50.0)  # halfway down the drain
        assert p.value(40.0) == 0.0
        assert p.value(-1.0) == 0.0 and p.value(41.0) == 0.0

    def test_short_residency_peak_scaled(self):
        p = residency_profile(size=100.0, playback=10.0, t_start=0.0, t_last=5.0)
        assert p.peak == pytest.approx(50.0)
        assert p.support == (0.0, 15.0)

    def test_zero_extent_is_empty(self):
        p = residency_profile(size=100.0, playback=10.0, t_start=3.0, t_last=3.0)
        assert p.segments == ()
        assert p.peak == 0.0
        assert p.integral() == 0.0

    def test_integral_equals_cost_model_spacetime_long(self):
        """Integral of the Eq. 6 profile == gamma*size*((tf-ts) + P/2)."""
        size, play, ts, tf = 100.0, 10.0, 5.0, 35.0
        p = residency_profile(size, play, ts, tf)
        expected = 1.0 * size * ((tf - ts) + play / 2)
        assert p.integral() == pytest.approx(expected)

    def test_integral_equals_cost_model_spacetime_short(self):
        size, play, ts, tf = 100.0, 10.0, 5.0, 9.0
        p = residency_profile(size, play, ts, tf)
        g = (tf - ts) / play
        expected = g * size * ((tf - ts) + play / 2)
        assert p.integral() == pytest.approx(expected)

    def test_continuity_at_long_short_boundary(self):
        """Cost/space model is continuous where tf-ts crosses P."""
        size, play = 100.0, 10.0
        eps = 1e-7
        below = residency_profile(size, play, 0.0, play - eps).integral()
        at = residency_profile(size, play, 0.0, play).integral()
        above = residency_profile(size, play, 0.0, play + eps).integral()
        assert below == pytest.approx(at, rel=1e-5)
        assert above == pytest.approx(at, rel=1e-5)

    def test_partial_integral(self):
        p = residency_profile(size=100.0, playback=10.0, t_start=0.0, t_last=30.0)
        assert p.integral(0.0, 30.0) == pytest.approx(3000.0)
        assert p.integral(30.0, 40.0) == pytest.approx(500.0)
        assert p.integral(50.0, 60.0) == 0.0

    def test_positive_in(self):
        p = residency_profile(size=100.0, playback=10.0, t_start=10.0, t_last=30.0)
        assert p.positive_in(0.0, 5.0) is False
        assert p.positive_in(0.0, 15.0) is True
        assert p.positive_in(39.0, 45.0) is True
        assert p.positive_in(40.0, 45.0) is False
        assert p.positive_in(20.0, 20.0) is False  # empty interval

    def test_invalid_size(self):
        with pytest.raises(ScheduleError):
            residency_profile(0.0, 10.0, 0.0, 5.0)


class TestDeltaSpace:
    def test_full_overlap_equals_total_integral(self):
        p = residency_profile(100.0, 10.0, 0.0, 30.0)
        assert delta_space(p, -10.0, 100.0) == pytest.approx(p.integral())

    def test_partial_overlap(self):
        p = residency_profile(100.0, 10.0, 0.0, 30.0)
        assert delta_space(p, 10.0, 20.0) == pytest.approx(1000.0)

    def test_no_overlap(self):
        p = residency_profile(100.0, 10.0, 0.0, 30.0)
        assert delta_space(p, 50.0, 60.0) == 0.0

    def test_reversed_interval_rejected(self):
        p = residency_profile(100.0, 10.0, 0.0, 30.0)
        with pytest.raises(ScheduleError):
            delta_space(p, 20.0, 10.0)


class TestUsageTimeline:
    def test_empty(self):
        tl = UsageTimeline([])
        assert tl.is_empty
        assert tl.value(5.0) == 0.0
        assert tl.peak == 0.0
        assert tl.intervals_above(0.0) == []
        assert integral_above(tl, 0.0) == 0.0
        assert tl.max_over(0.0, 10.0) == 0.0

    def test_single_profile_matches(self):
        p = residency_profile(100.0, 10.0, 0.0, 30.0)
        tl = UsageTimeline([p])
        for t in (0.0, 5.0, 29.9, 31.0, 35.0, 39.9):
            assert tl.value(t) == pytest.approx(p.value(t), abs=1e-6)
        assert tl.value(45.0) == 0.0
        assert tl.peak == pytest.approx(100.0)

    def test_sum_of_two(self):
        p1 = residency_profile(100.0, 10.0, 0.0, 30.0)
        p2 = residency_profile(50.0, 10.0, 20.0, 50.0)
        tl = UsageTimeline([p1, p2])
        assert tl.value(25.0) == pytest.approx(150.0)
        assert tl.value(5.0) == pytest.approx(100.0)
        assert tl.value(45.0) == pytest.approx(50.0)
        assert tl.peak == pytest.approx(150.0)

    def test_value_left_at_jump(self):
        p = residency_profile(100.0, 10.0, 10.0, 30.0)
        tl = UsageTimeline([p])
        assert tl.value_left(10.0) == 0.0
        assert tl.value(10.0) == pytest.approx(100.0)
        assert tl.value_left(20.0) == pytest.approx(100.0)

    def test_intervals_above_whole_block(self):
        p = residency_profile(100.0, 10.0, 0.0, 30.0)
        tl = UsageTimeline([p])
        ivs = tl.intervals_above(80.0)
        assert len(ivs) == 1
        (a, b) = ivs[0]
        assert a == pytest.approx(0.0)
        assert b == pytest.approx(32.0, abs=0.01)  # drain hits 80 at t=32

    def test_intervals_above_none(self):
        p = residency_profile(100.0, 10.0, 0.0, 30.0)
        tl = UsageTimeline([p])
        assert tl.intervals_above(100.0) == []

    def test_intervals_above_merges_overlap(self):
        p1 = residency_profile(100.0, 10.0, 0.0, 20.0)
        p2 = residency_profile(100.0, 10.0, 10.0, 40.0)
        tl = UsageTimeline([p1, p2])
        ivs = tl.intervals_above(150.0)
        assert len(ivs) == 1
        a, b = ivs[0]
        assert a == pytest.approx(10.0)

    def test_intervals_above_two_separate(self):
        p1 = residency_profile(100.0, 10.0, 0.0, 10.0)
        p2 = residency_profile(100.0, 10.0, 100.0, 110.0)
        tl = UsageTimeline([p1, p2])
        ivs = tl.intervals_above(50.0)
        assert len(ivs) == 2

    def test_integral_above(self):
        # constant 100 over [0, 30] plus drain; threshold 50
        p = residency_profile(100.0, 10.0, 0.0, 30.0)
        tl = UsageTimeline([p])
        # excess: 50 for 30s, then drain from 100->0 over 10s exceeds 50
        # until t=35: triangle of height 50 over 5s = 125
        assert integral_above(tl, 50.0) == pytest.approx(50 * 30 + 0.5 * 50 * 5)

    def test_max_over_window(self):
        p1 = residency_profile(100.0, 10.0, 0.0, 30.0)
        p2 = residency_profile(50.0, 10.0, 20.0, 50.0)
        tl = UsageTimeline([p1, p2])
        assert tl.max_over(0.0, 15.0) == pytest.approx(100.0)
        assert tl.max_over(22.0, 28.0) == pytest.approx(150.0)
        assert tl.max_over(100.0, 200.0) == 0.0

    def test_max_over_catches_downward_jump_left_limit(self):
        # profile ends abruptly at t_last+P; window starting exactly there
        p = residency_profile(100.0, 10.0, 0.0, 30.0)
        tl = UsageTimeline([p])
        assert tl.max_over(0.0, 40.0) == pytest.approx(100.0)
        assert tl.max_over(39.0, 41.0) == pytest.approx(10.0, abs=0.01)


class TestUsageTimelineProperties:
    @staticmethod
    def _profiles(specs):
        return [
            residency_profile(size, play, ts, ts + dur)
            for (size, play, ts, dur) in specs
        ]

    @given(
        specs=st.lists(
            st.tuples(
                st.floats(min_value=1.0, max_value=1e3),  # size
                st.floats(min_value=1.0, max_value=100.0),  # playback
                st.floats(min_value=0.0, max_value=1e3),  # t_start
                st.floats(min_value=0.0, max_value=500.0),  # duration
            ),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_timeline_equals_sum_of_profiles(self, specs):
        profiles = self._profiles(specs)
        tl = UsageTimeline(profiles)
        lo = min(p.support[0] for p in profiles)
        hi = max(p.support[1] for p in profiles)
        for frac in (0.0, 0.17, 0.31, 0.5, 0.77, 0.93):
            t = lo + frac * (hi - lo) + 1e-6
            expected = sum(p.value(t) for p in profiles)
            assert tl.value(t) == pytest.approx(expected, abs=1e-5 * max(expected, 1))

    @given(
        specs=st.lists(
            st.tuples(
                st.floats(min_value=1.0, max_value=1e3),
                st.floats(min_value=1.0, max_value=100.0),
                st.floats(min_value=0.0, max_value=1e3),
                st.floats(min_value=0.0, max_value=500.0),
            ),
            min_size=1,
            max_size=8,
        ),
        threshold=st.floats(min_value=0.0, max_value=2e3),
    )
    @settings(max_examples=60, deadline=None)
    def test_intervals_above_are_actually_above(self, specs, threshold):
        profiles = self._profiles(specs)
        tl = UsageTimeline(profiles)
        for (a, b) in tl.intervals_above(threshold):
            assert b > a
            mid = 0.5 * (a + b)
            assert tl.value(mid) >= threshold - 1e-6 * max(threshold, 1.0)

    @given(
        specs=st.lists(
            st.tuples(
                st.floats(min_value=1.0, max_value=1e3),
                st.floats(min_value=1.0, max_value=100.0),
                st.floats(min_value=0.0, max_value=1e3),
                st.floats(min_value=0.0, max_value=500.0),
            ),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_peak_bounds_values(self, specs):
        profiles = self._profiles(specs)
        tl = UsageTimeline(profiles)
        peak = tl.peak
        lo = min(p.support[0] for p in profiles)
        hi = max(p.support[1] for p in profiles)
        for frac in (0.1, 0.33, 0.5, 0.66, 0.9):
            t = lo + frac * (hi - lo)
            assert tl.value(t) <= peak + 1e-6 * max(peak, 1.0)

    @given(
        size=st.floats(min_value=1.0, max_value=1e6),
        playback=st.floats(min_value=1.0, max_value=1e4),
        t_start=st.floats(min_value=0.0, max_value=1e5),
        duration=st.floats(min_value=0.0, max_value=1e5),
    )
    @settings(max_examples=100, deadline=None)
    def test_profile_integral_closed_form(self, size, playback, t_start, duration):
        """Profile integral == Eq. 2/3 space-time for arbitrary residencies."""
        t_last = t_start + duration
        span = t_last - t_start  # the float-representable duration
        p = residency_profile(size, playback, t_start, t_last)
        g = min(span / playback, 1.0)
        expected = g * size * (span + playback / 2)
        assert p.integral() == pytest.approx(expected, rel=1e-9, abs=1e-9)

    @given(
        size=st.floats(min_value=1.0, max_value=1e6),
        playback=st.floats(min_value=1.0, max_value=1e4),
        duration=st.floats(min_value=0.0, max_value=1e5),
    )
    @settings(max_examples=100, deadline=None)
    def test_gamma_in_unit_interval(self, size, playback, duration):
        g = gamma_coefficient(0.0, duration, playback)
        assert 0.0 <= g <= 1.0
        if duration >= playback:
            assert g == 1.0
