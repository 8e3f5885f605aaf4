"""Tests for storage overflow detection."""

import pytest

from repro import (
    FileSchedule,
    ResidencyInfo,
    Schedule,
    Topology,
    VideoCatalog,
    VideoFile,
    detect_overflows,
)
from repro.core.overflow import storage_usage

from .timeline_reference import integral_above


@pytest.fixture
def env():
    topo = Topology()
    topo.add_warehouse("VW")
    topo.add_storage("IS1", srate=0.0, capacity=150.0)
    topo.add_storage("IS2", srate=0.0, capacity=150.0)
    topo.add_edge("VW", "IS1", nrate=1.0)
    topo.add_edge("IS1", "IS2", nrate=1.0)
    catalog = VideoCatalog(
        [
            VideoFile("a", size=100.0, playback=10.0),
            VideoFile("b", size=100.0, playback=10.0),
        ]
    )
    return topo, catalog


def _schedule(residencies):
    by_video = {}
    for c in residencies:
        by_video.setdefault(c.video_id, FileSchedule(c.video_id)).add_residency(c)
    return Schedule(by_video.values())


class TestDetectOverflows:
    def test_no_overflow_when_fits(self, env):
        topo, catalog = env
        s = _schedule([ResidencyInfo("a", "IS1", "VW", 0.0, 30.0)])
        assert detect_overflows(s, catalog, topo) == []

    def test_two_overlapping_files_overflow(self, env):
        topo, catalog = env
        s = _schedule(
            [
                ResidencyInfo("a", "IS1", "VW", 0.0, 30.0),
                ResidencyInfo("b", "IS1", "VW", 10.0, 40.0),
            ]
        )
        ofs = detect_overflows(s, catalog, topo)
        assert len(ofs) == 1
        of = ofs[0]
        assert of.location == "IS1"
        # both at full 100 over [10, 30]; usage 200 > 150 until a's drain
        # crosses: a drains 100->0 on [30,40]; combined dips to 150 at t=35
        a, b = of.interval
        assert a == pytest.approx(10.0)
        assert b == pytest.approx(35.0)
        assert {c.video_id for c in of.members} == {"a", "b"}
        assert of.peak_usage == pytest.approx(200.0)
        assert of.capacity == 150.0
        assert of.duration == pytest.approx(25.0)

    def test_non_overlapping_residencies_fine(self, env):
        topo, catalog = env
        s = _schedule(
            [
                ResidencyInfo("a", "IS1", "VW", 0.0, 30.0),
                ResidencyInfo("b", "IS1", "VW", 100.0, 130.0),
            ]
        )
        assert detect_overflows(s, catalog, topo) == []

    def test_two_distinct_overflow_intervals(self, env):
        """Fig. 3's shape: two separate overflow windows at one storage."""
        topo, catalog = env
        s = _schedule(
            [
                ResidencyInfo("a", "IS1", "VW", 0.0, 30.0),
                ResidencyInfo("b", "IS1", "VW", 0.0, 30.0),
                ResidencyInfo("a", "IS2", "VW", 0.0, 30.0),  # other storage, fine
            ]
            + [
                ResidencyInfo("b", "IS2", "VW", 100.0, 130.0),
            ]
        )
        # overflow only on IS1 where a and b overlap
        ofs = detect_overflows(s, catalog, topo)
        assert len(ofs) == 1 and ofs[0].location == "IS1"

    def test_members_only_cover_the_interval(self, env):
        topo, catalog = env
        s = _schedule(
            [
                ResidencyInfo("a", "IS1", "VW", 0.0, 30.0),
                ResidencyInfo("b", "IS1", "VW", 20.0, 50.0),
            ]
        )
        ofs = detect_overflows(s, catalog, topo)
        assert len(ofs) == 1
        # a third residency far away would not be a member
        s2 = _schedule(
            [
                ResidencyInfo("a", "IS1", "VW", 0.0, 30.0),
                ResidencyInfo("b", "IS1", "VW", 20.0, 50.0),
                ResidencyInfo("a", "IS2", "VW", 500.0, 530.0),
            ]
        )
        ofs2 = detect_overflows(s2, catalog, topo)
        assert {c.video_id for c in ofs2[0].members} == {"a", "b"}

    def test_sorted_output(self, env):
        topo, catalog = env
        s = _schedule(
            [
                ResidencyInfo("a", "IS2", "VW", 0.0, 30.0),
                ResidencyInfo("b", "IS2", "VW", 0.0, 30.0),
                ResidencyInfo("a", "IS1", "VW", 0.0, 30.0),
                ResidencyInfo("b", "IS1", "VW", 0.0, 30.0),
            ]
        )
        ofs = detect_overflows(s, catalog, topo)
        assert [o.location for o in ofs] == ["IS1", "IS2"]

    def test_single_oversized_residency(self, env):
        """A file bigger than the capacity overflows on its own."""
        topo, catalog = env
        big = VideoCatalog(
            [VideoFile("a", size=200.0, playback=10.0), catalog["b"]]
        )
        s = _schedule([ResidencyInfo("a", "IS1", "VW", 0.0, 30.0)])
        ofs = detect_overflows(s, big, topo)
        assert len(ofs) == 1
        assert len(ofs[0].members) == 1


class TestExcessMeasures:
    def test_total_excess_zero_when_feasible(self, env):
        topo, catalog = env
        s = _schedule([ResidencyInfo("a", "IS1", "VW", 0.0, 30.0)])
        for spec in topo.storages:
            usage = storage_usage(s, catalog, spec.name)
            assert integral_above(usage, spec.capacity) == 0.0

    def test_total_excess_positive_and_localized(self, env):
        topo, catalog = env
        s = _schedule(
            [
                ResidencyInfo("a", "IS1", "VW", 0.0, 30.0),
                ResidencyInfo("b", "IS1", "VW", 10.0, 40.0),
            ]
        )
        excess = integral_above(storage_usage(s, catalog, "IS1"), 150.0)
        # 50 over capacity during [10,30] plus the drain-overlap triangle
        assert excess == pytest.approx(50 * 20 + 0.5 * 50 * 5, rel=1e-6)
        assert integral_above(storage_usage(s, catalog, "IS2"), 150.0) == 0.0

    def test_overflow_excess_matches_total(self, env):
        topo, catalog = env
        s = _schedule(
            [
                ResidencyInfo("a", "IS1", "VW", 0.0, 30.0),
                ResidencyInfo("b", "IS1", "VW", 10.0, 40.0),
            ]
        )
        ofs = detect_overflows(s, catalog, topo)
        assert sum(o.excess_spacetime for o in ofs) == pytest.approx(
            integral_above(storage_usage(s, catalog, "IS1"), 150.0), rel=1e-6
        )

    def test_storage_usage_timeline(self, env):
        topo, catalog = env
        s = _schedule(
            [
                ResidencyInfo("a", "IS1", "VW", 0.0, 30.0),
                ResidencyInfo("b", "IS1", "VW", 10.0, 40.0),
            ]
        )
        tl = storage_usage(s, catalog, "IS1")
        assert tl.value(15.0) == pytest.approx(200.0)
        assert storage_usage(s, catalog, "IS2").is_empty
