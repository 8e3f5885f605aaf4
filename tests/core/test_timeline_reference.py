"""The one-pass timeline build and the tracker's window peak, against the
reference sweeps in ``timeline_reference.py``."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Topology
from repro.core.spacefunc import (
    LinearSegment,
    SpaceProfile,
    UsageTimeline,
    residency_profile,
)
from repro.extensions import LinkBandwidthTracker
from repro.topology import Router

from .timeline_reference import link_sweep_max, two_pass_arrays

# a coarse time grid makes coincident endpoints common; free floats make
# the running sums round
_times = st.one_of(
    st.integers(min_value=0, max_value=40).map(lambda k: 2.5 * k),
    st.floats(min_value=0.0, max_value=100.0),
)

_flat = st.builds(
    lambda a, b, h: SpaceProfile((LinearSegment(a, max(a, b), h, h),)),
    _times,
    _times,
    st.floats(min_value=0.0, max_value=1e3),
)  # b <= a leaves a zero-extent segment


@st.composite
def _profiles(draw):
    out = []
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        if draw(st.booleans()):
            t_start = draw(_times)
            # duration 0: a zero-extent residency, whose profile is empty
            t_last = t_start + draw(st.sampled_from([0.0, 2.5, 5.0, 20.0]))
            out.append(
                residency_profile(
                    draw(st.floats(min_value=1.0, max_value=1e3)),
                    draw(st.sampled_from([5.0, 7.5, 10.0, 12.5])),
                    t_start,
                    t_last,
                )
            )
        else:
            out.append(draw(_flat))
    return out


def _assert_bitwise(timeline: UsageTimeline, profiles) -> None:
    ts, y_right, y_next = two_pass_arrays(profiles)
    assert timeline._ts.tobytes() == ts.tobytes()
    assert timeline._y_right.tobytes() == y_right.tobytes()
    assert timeline._y_next.tobytes() == y_next.tobytes()


class TestOnePassBuild:
    @given(profiles=_profiles())
    @settings(max_examples=300, deadline=None)
    def test_arrays_equal_the_two_pass_build(self, profiles):
        _assert_bitwise(UsageTimeline(profiles), profiles)

    def test_empty_input(self):
        _assert_bitwise(UsageTimeline([]), [])
        assert UsageTimeline([]).is_empty

    def test_zero_extent_residency_adds_no_events(self):
        profiles = [residency_profile(100.0, 10.0, 5.0, 5.0)]
        assert profiles[0].segments == ()
        _assert_bitwise(UsageTimeline(profiles), profiles)
        assert UsageTimeline(profiles).is_empty

    def test_coincident_endpoints_and_flat_background(self):
        profiles = [
            residency_profile(100.0, 10.0, 0.0, 20.0),  # drains on [20, 30]
            residency_profile(40.0, 10.0, 20.0, 30.0),  # starts where it drains
            SpaceProfile((LinearSegment(0.0, 30.0, 25.0, 25.0),)),
            SpaceProfile((LinearSegment(30.0, 30.0, 9.0, 9.0),)),  # no extent
        ]
        timeline = UsageTimeline(profiles)
        _assert_bitwise(timeline, profiles)
        assert timeline.grid.tolist() == [0.0, 20.0, 30.0, 40.0]


def _link():
    topo = Topology()
    topo.add_warehouse("VW")
    topo.add_storage("IS1", srate=1e-3, capacity=1e9)
    topo.add_edge("VW", "IS1", nrate=1.0, bandwidth=1e3)
    return topo, Router(topo).route("VW", "IS1")


_booking = st.tuples(
    _times,
    st.sampled_from([0.0, 2.5, 10.0, 30.0]),
    st.floats(min_value=0.1, max_value=1e2),
)


class TestTrackerWindowPeak:
    @given(
        bookings=st.lists(_booking, max_size=12),
        window=st.tuples(_times, _times),
    )
    @settings(max_examples=300, deadline=None)
    def test_usage_max_agrees_with_the_link_sweep(self, bookings, window):
        topo, route = _link()
        tracker = LinkBandwidthTracker(topo)
        spans = [(t0, t0 + d, bw) for t0, d, bw in bookings]
        for t0, t1, bw in spans:
            tracker.book(route, t0, t1, bw)
        t0, t1 = min(window), max(window)
        expected = link_sweep_max(spans, t0, t1)
        got = tracker.usage_max("VW", "IS1", t0, t1)
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)
        everything = link_sweep_max(spans, float("-inf"), float("inf"))
        assert tracker.peak("VW", "IS1") == pytest.approx(
            everything, rel=1e-12, abs=1e-12
        )
