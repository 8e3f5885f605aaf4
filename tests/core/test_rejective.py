"""Tests for the rejective greedy and its constraint machinery."""

import pytest

from repro import (
    CostModel,
    FileSchedule,
    Request,
    ResidencyInfo,
    Schedule,
    Topology,
    VideoCatalog,
    VideoFile,
)
from repro.core.overflow import StorageLedger
from repro.core.rejective import (
    RejectiveGreedyScheduler,
    ResidencyConstraints,
    fits_under,
)
from repro.core.spacefunc import UsageTimeline, residency_profile


@pytest.fixture
def env():
    topo = Topology()
    topo.add_warehouse("VW")
    topo.add_storage("IS1", srate=1e-3, capacity=150.0)
    topo.add_storage("IS2", srate=1e-3, capacity=150.0)
    topo.add_edge("VW", "IS1", nrate=1.0)
    topo.add_edge("IS1", "IS2", nrate=1.0)
    catalog = VideoCatalog(
        [
            VideoFile("a", size=100.0, playback=10.0),
            VideoFile("b", size=100.0, playback=10.0),
        ]
    )
    return topo, catalog, CostModel(topo, catalog)


class TestFitsUnder:
    def test_empty_timeline_fits_small_profile(self):
        p = residency_profile(100.0, 10.0, 0.0, 30.0)
        assert fits_under(UsageTimeline([]), p, 100.0)

    def test_empty_timeline_rejects_big_profile(self):
        p = residency_profile(100.0, 10.0, 0.0, 30.0)
        assert not fits_under(UsageTimeline([]), p, 99.0)

    def test_overlapping_usage_rejected(self):
        other = UsageTimeline([residency_profile(100.0, 10.0, 0.0, 30.0)])
        p = residency_profile(100.0, 10.0, 10.0, 20.0)
        assert not fits_under(other, p, 150.0)
        assert fits_under(other, p, 200.0)

    def test_disjoint_usage_fits(self):
        other = UsageTimeline([residency_profile(100.0, 10.0, 0.0, 30.0)])
        p = residency_profile(100.0, 10.0, 100.0, 130.0)
        assert fits_under(other, p, 100.0)

    def test_drain_overlap_counts(self):
        # other drains over [30, 40]; a profile starting at 35 sees ~50 in use
        other = UsageTimeline([residency_profile(100.0, 10.0, 0.0, 30.0)])
        p = residency_profile(100.0, 10.0, 35.0, 60.0)
        assert not fits_under(other, p, 140.0)
        assert fits_under(other, p, 151.0)

    def test_empty_profile_always_fits(self):
        other = UsageTimeline([residency_profile(100.0, 10.0, 0.0, 30.0)])
        p = residency_profile(100.0, 10.0, 5.0, 5.0)
        assert fits_under(other, p, 0.0)


class TestFitsUnderProperties:
    """fits_under must agree with a dense-sampling brute-force check."""

    from hypothesis import given, settings, assume
    from hypothesis import strategies as st

    @given(
        others=st.lists(
            st.tuples(
                st.floats(min_value=10.0, max_value=200.0),  # size
                st.floats(min_value=2.0, max_value=40.0),  # playback
                st.floats(min_value=0.0, max_value=100.0),  # t_start
                st.floats(min_value=0.0, max_value=100.0),  # duration
            ),
            min_size=0,
            max_size=5,
        ),
        cand=st.tuples(
            st.floats(min_value=10.0, max_value=200.0),
            st.floats(min_value=2.0, max_value=40.0),
            st.floats(min_value=0.0, max_value=100.0),
            st.floats(min_value=0.1, max_value=100.0),
        ),
        capacity=st.floats(min_value=50.0, max_value=600.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_force(self, others, cand, capacity):
        import numpy as np
        from hypothesis import assume

        timeline = UsageTimeline(
            [residency_profile(s, p, t, t + d) for (s, p, t, d) in others]
        )
        size, play, ts, dur = cand
        profile = residency_profile(size, play, ts, ts + dur)
        lo, hi = profile.support
        pts = np.linspace(lo, hi, 400)
        dense_max = max(
            float(profile.value(float(t))) + timeline.value(float(t))
            for t in pts
        )
        # skip razor-edge cases where sampling vs breakpoints could disagree
        assume(abs(dense_max - capacity) > 1e-6 * max(capacity, 1.0) + 1e-9)
        assert fits_under(timeline, profile, capacity) == (dense_max <= capacity)


class TestAvailabilityOracle:
    """The ledger's availability answers: what every other file leaves."""

    def test_excludes_victims_own_residencies(self, env):
        topo, catalog, cm = env
        fs_a = FileSchedule("a")
        fs_a.add_residency(ResidencyInfo("a", "IS1", "VW", 0.0, 30.0))
        ledger = StorageLedger(Schedule([fs_a]), catalog, topo)
        # with "a" excluded, IS1 is empty; a full-size profile fits
        p = residency_profile(100.0, 10.0, 0.0, 30.0)
        assert ledger.fits("IS1", "a", 0.0, 30.0, p)

    def test_counts_other_files(self, env):
        topo, catalog, cm = env
        fs_b = FileSchedule("b")
        fs_b.add_residency(ResidencyInfo("b", "IS1", "VW", 0.0, 30.0))
        ledger = StorageLedger(Schedule([fs_b]), catalog, topo)
        p = residency_profile(100.0, 10.0, 10.0, 20.0)
        assert not ledger.fits("IS1", "a", 10.0, 20.0, p)  # 100 + 100 > 150

    def test_peak_shortcut(self, env):
        topo, catalog, cm = env
        ledger = StorageLedger(Schedule(), catalog, topo)
        p = residency_profile(200.0, 10.0, 0.0, 30.0)
        assert not ledger.fits("IS1", "a", 0.0, 30.0, p)  # peak 200 > capacity
        assert ledger.timeline_builds == 0  # answered without a timeline


def _allows(cons, video, c):
    return cons.allows(video, c.location, c.t_start, c.t_last)


def _empty_ledger(env):
    topo, catalog, _ = env
    return StorageLedger(Schedule(), catalog, topo)


class TestResidencyConstraints:
    def test_forbidden_interval_blocks(self, env):
        _, catalog, _ = env
        video = catalog["a"]
        cons = ResidencyConstraints(
            _empty_ledger(env), forbidden=[("IS1", (10.0, 20.0))]
        )
        inside = ResidencyInfo("a", "IS1", "VW", 5.0, 30.0)
        outside = ResidencyInfo("a", "IS1", "VW", 50.0, 80.0)
        elsewhere = ResidencyInfo("a", "IS2", "VW", 5.0, 30.0)
        assert not _allows(cons, video, inside)
        assert _allows(cons, video, outside)
        assert _allows(cons, video, elsewhere)

    def test_drain_tail_respects_forbidden_window(self, env):
        """A residency whose drain reaches into Δt still occupies space."""
        _, catalog, _ = env
        video = catalog["a"]
        cons = ResidencyConstraints(
            _empty_ledger(env), forbidden=[("IS1", (32.0, 40.0))]
        )
        # t_last=30, drain spans [30, 40] -> positive inside the window
        tail = ResidencyInfo("a", "IS1", "VW", 0.0, 30.0)
        assert not _allows(cons, video, tail)

    def test_zero_extent_always_allowed(self, env):
        _, catalog, _ = env
        video = catalog["a"]
        cons = ResidencyConstraints(
            _empty_ledger(env), forbidden=[("IS1", (0.0, 100.0))]
        )
        candidate = ResidencyInfo("a", "IS1", "VW", 10.0, 10.0)
        assert _allows(cons, video, candidate)
        assert cons.log.decisions == []  # occupies no space: not a decision

    def test_oracle_wired_in(self, env):
        topo, catalog, _ = env
        fs_b = FileSchedule("b")
        fs_b.add_residency(ResidencyInfo("b", "IS1", "VW", 0.0, 30.0))
        cons = ResidencyConstraints(StorageLedger(Schedule([fs_b]), catalog, topo))
        clash = ResidencyInfo("a", "IS1", "VW", 10.0, 20.0)
        free = ResidencyInfo("a", "IS2", "VW", 10.0, 20.0)
        assert not _allows(cons, catalog["a"], clash)
        assert _allows(cons, catalog["a"], free)


class TestRejectiveGreedy:
    def test_vacates_forbidden_window(self, env):
        topo, catalog, cm = env
        reqs = [
            Request(0.0, "a", "u1", "IS1"),
            Request(5.0, "a", "u2", "IS1"),
        ]
        # Unconstrained, the greedy would cache at IS1 over [0, 5].
        scheduler = RejectiveGreedyScheduler(cm)
        fs = scheduler.reschedule(
            catalog["a"], reqs, StorageLedger(Schedule(), catalog, topo),
            forbidden=[("IS1", (0.0, 50.0))],
        )
        for c in fs.residencies:
            if c.location == "IS1":
                assert not c.profile(catalog["a"]).positive_in(0.0, 50.0)
        # both users still served
        assert sorted(d.request.user_id for d in fs.deliveries) == ["u1", "u2"]

    def test_falls_back_to_warehouse(self, env):
        topo, catalog, cm = env
        reqs = [
            Request(0.0, "a", "u1", "IS1"),
            Request(5.0, "a", "u2", "IS1"),
        ]
        scheduler = RejectiveGreedyScheduler(cm)
        fs = scheduler.reschedule(
            catalog["a"],
            reqs,
            StorageLedger(Schedule(), catalog, topo),
            forbidden=[("IS1", (0.0, 1e6)), ("IS2", (0.0, 1e6))],
        )
        assert all(d.route[0] == "VW" for d in fs.deliveries)
        assert fs.residencies == []

    def test_short_residency_squeezes_into_leftover_space(self, env):
        """A gamma-scaled short residency may fit where a full copy cannot."""
        topo, catalog, cm = env
        fs_b = FileSchedule("b")
        fs_b.add_residency(ResidencyInfo("b", "IS1", "VW", 0.0, 30.0))
        schedule = Schedule([fs_b])  # 100 of 150 used at IS1 until t=40
        reqs = [
            Request(0.0, "a", "u1", "IS1"),
            Request(5.0, "a", "u2", "IS1"),
        ]
        fs = RejectiveGreedyScheduler(cm).reschedule(
            catalog["a"], reqs, StorageLedger(schedule, catalog, topo), forbidden=[]
        )
        # the [0, 5] extension peaks at gamma*size = 50, exactly the free room
        at_is1 = [c for c in fs.residencies if c.location == "IS1"]
        assert len(at_is1) == 1
        assert at_is1[0].profile(catalog["a"]).peak == pytest.approx(50.0)

    def test_respects_other_files_capacity(self):
        """With too little free space, the victim retreats to the warehouse."""
        topo = Topology()
        topo.add_warehouse("VW")
        topo.add_storage("IS1", srate=1e-3, capacity=120.0)
        topo.add_edge("VW", "IS1", nrate=1.0)
        catalog = VideoCatalog(
            [
                VideoFile("a", size=100.0, playback=10.0),
                VideoFile("b", size=100.0, playback=10.0),
            ]
        )
        cm = CostModel(topo, catalog)
        fs_b = FileSchedule("b")
        fs_b.add_residency(ResidencyInfo("b", "IS1", "VW", 0.0, 30.0))
        schedule = Schedule([fs_b])  # leaves 20 free; any extension peaks >= 50
        reqs = [
            Request(0.0, "a", "u1", "IS1"),
            Request(5.0, "a", "u2", "IS1"),
        ]
        fs = RejectiveGreedyScheduler(cm).reschedule(
            catalog["a"], reqs, StorageLedger(schedule, catalog, topo), forbidden=[]
        )
        assert all(c.location != "IS1" for c in fs.residencies)
        assert all(d.route[0] == "VW" for d in fs.deliveries)
