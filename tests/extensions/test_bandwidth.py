"""Tests for the bandwidth-constraint extension."""

import pytest

from repro import (
    CostModel,
    Request,
    RequestBatch,
    Topology,
    VideoCatalog,
    VideoFile,
)
from repro.core.spacefunc import EPS, capacity_slack
from repro.extensions import (
    BandwidthAwareScheduler,
    BandwidthRoutePolicy,
    LinkBandwidthTracker,
)
from repro.extensions.bandwidth import LiveCapacityConstraints
from repro.sim import validate_schedule
from repro.topology import Router


def _diamond(link_bw=15.0):
    """VW->IS1 direct (cheap) or via IS2 (expensive), capacitated links."""
    topo = Topology()
    topo.add_warehouse("VW")
    topo.add_storage("IS1", srate=1e-3, capacity=1e9)
    topo.add_storage("IS2", srate=1e-3, capacity=1e9)
    topo.add_edge("VW", "IS1", nrate=1.0, bandwidth=link_bw)
    topo.add_edge("VW", "IS2", nrate=2.0, bandwidth=link_bw)
    topo.add_edge("IS1", "IS2", nrate=1.0, bandwidth=link_bw)
    catalog = VideoCatalog([VideoFile("v", size=100.0, playback=10.0)])  # 10 B/s
    return topo, catalog


class TestLinkBandwidthTracker:
    def test_empty_usage(self):
        topo, _ = _diamond()
        tr = LinkBandwidthTracker(topo)
        assert tr.usage_max("VW", "IS1", 0.0, 10.0) == 0.0
        assert tr.peak("VW", "IS1") == 0.0

    def test_booking_and_overlap(self):
        topo, _ = _diamond()
        tr = LinkBandwidthTracker(topo)
        route = Router(topo).route("VW", "IS1")
        tr.book(route, 0.0, 10.0, 10.0)
        assert tr.usage_max("VW", "IS1", 5.0, 6.0) == 10.0
        assert tr.usage_max("VW", "IS1", 10.0, 20.0) == 0.0  # half-open
        tr.book(route, 5.0, 15.0, 10.0)
        assert tr.usage_max("VW", "IS1", 0.0, 20.0) == 20.0
        assert tr.peak("VW", "IS1") == 20.0

    def test_fits(self):
        topo, _ = _diamond(link_bw=15.0)
        tr = LinkBandwidthTracker(topo)
        route = Router(topo).route("VW", "IS1")
        assert tr.fits(route, 0.0, 10.0, 10.0)
        tr.book(route, 0.0, 10.0, 10.0)
        assert not tr.fits(route, 5.0, 15.0, 10.0)
        assert tr.fits(route, 10.0, 20.0, 10.0)
        assert tr.fits(route, 0.0, 10.0, 5.0)

    def test_fits_uses_the_replay_link_tolerance(self):
        # the tracker admits exactly what the validation replay's link
        # check (usage <= capacity_slack(cap)) accepts
        topo, _ = _diamond(link_bw=15.0)
        tr = LinkBandwidthTracker(topo)
        route = Router(topo).route("VW", "IS1")
        tr.book(route, 0.0, 10.0, 10.0)
        inside, outside = 5.0 + 5e-10, 5.0 + 2e-9
        assert 10.0 + inside <= capacity_slack(15.0) < 10.0 + outside
        assert tr.fits(route, 0.0, 10.0, inside)
        assert not tr.fits(route, 0.0, 10.0, outside)

    def test_infinite_links_always_fit(self):
        topo = Topology()
        topo.add_warehouse("VW")
        topo.add_storage("IS1", srate=0.0, capacity=1e9)
        topo.add_edge("VW", "IS1", nrate=1.0)  # inf bandwidth
        tr = LinkBandwidthTracker(topo)
        route = Router(topo).route("VW", "IS1")
        tr.book(route, 0.0, 10.0, 1e12)
        assert tr.fits(route, 0.0, 10.0, 1e12)


class TestBandwidthRoutePolicy:
    def test_diverts_to_alternate(self):
        topo, catalog = _diamond()
        tr = LinkBandwidthTracker(topo)
        policy = BandwidthRoutePolicy(Router(topo), tr, k=4)
        r1 = policy.routes("IS1", 0.0, 10.0, 10.0).get("VW")
        assert r1.nodes == ("VW", "IS1")
        policy.commit(r1, 0.0, 10.0, 10.0)
        r2 = policy.routes("IS1", 0.0, 10.0, 10.0).get("VW")
        assert r2.nodes == ("VW", "IS2", "IS1")
        policy.commit(r2, 0.0, 10.0, 10.0)
        assert policy.diverted == 1

    def test_returns_none_when_saturated(self):
        topo, catalog = _diamond()
        tr = LinkBandwidthTracker(topo)
        policy = BandwidthRoutePolicy(Router(topo), tr, k=4)
        for _ in range(2):
            r = policy.routes("IS1", 0.0, 10.0, 10.0).get("VW")
            policy.commit(r, 0.0, 10.0, 10.0)
        assert policy.routes("IS1", 0.0, 10.0, 10.0).get("VW") is None

    def test_zero_hop_always_ok(self):
        topo, catalog = _diamond()
        tr = LinkBandwidthTracker(topo)
        policy = BandwidthRoutePolicy(Router(topo), tr, k=2)
        r = policy.routes("IS1", 0.0, 10.0, 10.0).get("IS1")
        assert r.hops == 0


class TestBandwidthAwareScheduler:
    def test_unconstrained_matches_plain_scheduler_cost(self):
        from repro import VideoScheduler

        topo = Topology()
        topo.add_warehouse("VW")
        topo.add_storage("IS1", srate=1e-3, capacity=1e9)
        topo.add_edge("VW", "IS1", nrate=1.0)
        catalog = VideoCatalog([VideoFile("v", size=100.0, playback=10.0)])
        batch = RequestBatch(
            [Request(float(i) * 30.0, "v", f"u{i}", "IS1") for i in range(4)]
        )
        plain = VideoScheduler(topo, catalog).solve(batch)
        aware = BandwidthAwareScheduler(topo, catalog).solve(batch)
        assert aware.total_cost == pytest.approx(plain.total_cost)
        assert aware.rejected == []
        assert aware.diverted_streams == 0

    def test_caching_relieves_link_pressure(self):
        """Simultaneous local requests share the cached copy, not the link."""
        topo, catalog = _diamond(link_bw=15.0)
        batch = RequestBatch(
            [
                Request(0.0, "v", "u1", "IS1"),
                Request(1.0, "v", "u2", "IS1"),
                Request(2.0, "v", "u3", "IS1"),
            ]
        )
        r = BandwidthAwareScheduler(topo, catalog).solve(batch)
        assert r.rejected == []
        local = [d for d in r.schedule.deliveries if d.route == ("IS1",)]
        assert len(local) == 2

    def test_rejection_when_no_capacity(self):
        """Distinct videos cannot share a cache; concurrent streams exhaust
        both the direct and the alternate path, so the third is rejected."""
        topo, _ = _diamond(link_bw=15.0)
        catalog = VideoCatalog(
            [VideoFile(f"v{i}", size=100.0, playback=10.0) for i in range(3)]
        )
        batch = RequestBatch(
            [
                Request(0.0, "v0", "u1", "IS1"),
                Request(1.0, "v1", "u2", "IS1"),
                Request(2.0, "v2", "u3", "IS1"),
            ]
        )
        r = BandwidthAwareScheduler(topo, catalog).solve(batch)
        # stream 1 direct, stream 2 diverted via IS2, stream 3 has no path
        assert len(r.rejected) == 1
        assert r.rejected[0].user_id == "u3"
        assert r.diverted_streams == 1
        assert r.admitted == 2

    def test_schedule_validates_including_links(self):
        topo, catalog = _diamond(link_bw=15.0)
        batch = RequestBatch(
            [
                Request(0.0, "v", "u1", "IS1"),
                Request(1.0, "v", "u2", "IS2"),
                Request(5.0, "v", "u3", "IS1"),
            ]
        )
        r = BandwidthAwareScheduler(topo, catalog).solve(batch)
        admitted = RequestBatch(
            [q for q in batch if q not in r.rejected]
        )
        cm = CostModel(topo, catalog)
        assert validate_schedule(r.schedule, admitted, cm) == []

    def test_rejection_rate(self):
        topo, catalog = _diamond()
        r = BandwidthAwareScheduler(topo, catalog).solve(
            RequestBatch([Request(0.0, "v", "u1", "IS1")])
        )
        assert r.rejection_rate == 0.0


class TestLiveCapacityConstraints:
    """Placement tolerance: the live oracle accepts what ``fits_under``,
    the SORP oracle and overflow detection accept."""

    GB = 1e9

    def _tight(self, excess):
        """One 1 GB storage and a title ``excess`` bytes larger than it."""
        topo = Topology()
        topo.add_warehouse("VW")
        topo.add_storage("IS1", srate=1e-3, capacity=self.GB)
        topo.add_edge("VW", "IS1", nrate=1.0)
        catalog = VideoCatalog(
            [VideoFile("v", size=self.GB + excess, playback=10.0)]
        )
        return topo, catalog

    def test_peak_within_capacity_slack_is_cached(self):
        # capacity + EPS < peak <= capacity_slack(capacity)
        excess = 5e-4
        assert EPS < excess
        assert self.GB + excess <= capacity_slack(self.GB)
        topo, catalog = self._tight(excess)
        batch = RequestBatch(
            [Request(0.0, "v", "u1", "IS1"), Request(30.0, "v", "u2", "IS1")]
        )
        r = BandwidthAwareScheduler(topo, catalog).solve(batch)
        assert [c.location for c in r.schedule.residencies] == ["IS1"]
        assert [d.route for d in r.schedule.deliveries] == [("VW", "IS1"), ("IS1",)]
        assert validate_schedule(r.schedule, batch, CostModel(topo, catalog)) == []

    def test_peak_above_capacity_slack_is_refused(self):
        topo, catalog = self._tight(2e-3)
        assert self.GB + 2e-3 > capacity_slack(self.GB)
        live = LiveCapacityConstraints(topo, catalog)
        assert not live.allows(catalog["v"], "IS1", 0.0, 30.0)
        assert live.allows(catalog["v"], "IS1", 30.0, 30.0)  # zero extent
