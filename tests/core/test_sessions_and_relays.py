"""Tests for incremental greedy sessions and zero-lag relay residencies."""

import pytest

from repro import (
    CostModel,
    IndividualScheduler,
    Request,
    RequestBatch,
    ResidencyInfo,
    VideoCatalog,
    VideoFile,
    VideoScheduler,
    chain_topology,
)
from repro.core.individual import RoutePolicy
from repro.errors import ScheduleError
from repro.sim import validate_schedule


def _env(srate=0.0):
    topo = chain_topology(2, nrate=1.0, srate=srate, capacity=1e12)
    catalog = VideoCatalog([VideoFile("v", size=100.0, playback=10.0)])
    return topo, catalog, CostModel(topo, catalog)


class TestFileGreedySession:
    def test_incremental_equals_batch(self):
        topo, catalog, cm = _env(srate=1e-3)
        reqs = [
            Request(0.0, "v", "u1", "IS2"),
            Request(5.0, "v", "u2", "IS1"),
            Request(9.0, "v", "u3", "IS2"),
        ]
        greedy = IndividualScheduler(cm)
        batch_fs = greedy.schedule_file(catalog["v"], reqs)
        session = greedy.session(catalog["v"])
        for r in reqs:
            session.serve(r)
        session_fs = session.finish()
        assert cm.file_cost(batch_fs).total == pytest.approx(
            cm.file_cost(session_fs).total
        )
        assert [d.route for d in batch_fs.deliveries] == [
            d.route for d in session_fs.deliveries
        ]

    def test_out_of_order_serving_rejected(self):
        topo, catalog, cm = _env()
        session = IndividualScheduler(cm).session(catalog["v"])
        session.serve(Request(10.0, "v", "u1", "IS1"))
        with pytest.raises(ScheduleError, match="chronologically"):
            session.serve(Request(5.0, "v", "u2", "IS1"))

    def test_equal_times_allowed(self):
        topo, catalog, cm = _env()
        session = IndividualScheduler(cm).session(catalog["v"])
        session.serve(Request(10.0, "v", "u1", "IS1"))
        session.serve(Request(10.0, "v", "u2", "IS1"))
        fs = session.finish()
        assert len(fs.deliveries) == 2

    def test_seed_video_mismatch_rejected(self):
        topo, catalog, cm = _env()
        bad_seed = ResidencyInfo("other", "IS1", "VW", 0.0, 5.0)
        with pytest.raises(ScheduleError, match="seed residency"):
            IndividualScheduler(cm).session(
                catalog["v"], initial_residencies=(bad_seed,)
            )

    def test_failed_serve_leaves_state_intact(self):
        """A rejected request must not corrupt the session."""
        topo, catalog, cm = _env()

        class RefuseAll(RoutePolicy):
            def routes(self, dst, t0, t1, bw):
                return {}

        greedy = IndividualScheduler(
            cm, route_policy=RefuseAll(cm.router)
        )
        session = greedy.session(catalog["v"])
        with pytest.raises(ScheduleError, match="no feasible source"):
            session.serve(Request(0.0, "v", "u1", "IS2"))
        assert session.schedule.deliveries == []
        assert session.residencies == []


class TestRelayResidencies:
    """Two simultaneous requests: the second tees off the first in-flight."""

    def test_relay_kept_in_schedule(self):
        topo, catalog, cm = _env(srate=0.0)
        batch = RequestBatch(
            [
                Request(0.0, "v", "u1", "IS1"),
                Request(0.0, "v", "u2", "IS1"),
            ]
        )
        result = VideoScheduler(topo, catalog).solve(batch)
        relays = [
            c
            for c in result.schedule.residencies
            if c.t_last == c.t_start and c.service_list
        ]
        assert len(relays) == 1
        assert relays[0].location == "IS1"

    def test_relay_costs_nothing(self):
        topo, catalog, cm = _env(srate=1e6)  # storage absurdly expensive
        batch = RequestBatch(
            [
                Request(0.0, "v", "u1", "IS1"),
                Request(0.0, "v", "u2", "IS1"),
            ]
        )
        result = VideoScheduler(topo, catalog).solve(batch)
        # one network stream + one free relay beats two streams
        assert result.cost.storage == 0.0
        assert result.cost.network == pytest.approx(100.0)

    def test_relay_schedule_validates(self):
        topo, catalog, cm = _env()
        batch = RequestBatch(
            [
                Request(0.0, "v", "u1", "IS2"),
                Request(0.0, "v", "u2", "IS2"),
                Request(0.0, "v", "u3", "IS1"),
            ]
        )
        result = VideoScheduler(topo, catalog).solve(batch)
        assert validate_schedule(result.schedule, batch, cm) == []

    def test_relay_takes_no_space(self):
        relay = ResidencyInfo("v", "IS1", "VW", 5.0, 5.0, ("u2",))
        video = VideoFile("v", size=100.0, playback=10.0)
        assert relay.profile(video).segments == ()


class TestDefaultRoutePolicy:
    def test_select_returns_cheapest(self):
        topo, catalog, cm = _env()
        policy = RoutePolicy(cm.router)
        route = policy.routes("IS2", 0.0, 10.0, 10.0)["VW"]
        assert route.nodes == ("VW", "IS1", "IS2")

    def test_commit_is_noop(self):
        topo, catalog, cm = _env()
        policy = RoutePolicy(cm.router)
        route = cm.router.route("VW", "IS1")
        policy.commit(route, 0.0, 10.0, 10.0)  # must not raise


class TestDepositScopeOption:
    def test_destination_only_never_deposits_midroute(self):
        # nonzero srate so drawing on the IS2 cache (extension + 1 hop) is
        # strictly dearer than a fresh warehouse hop
        topo, catalog, cm = _env(srate=1e-3)
        greedy = IndividualScheduler(cm, deposit_scope="destination")
        reqs = [
            Request(0.0, "v", "u1", "IS2"),
            Request(5.0, "v", "u2", "IS1"),  # IS1 was mid-route but no cache
        ]
        fs = greedy.schedule_file(catalog["v"], reqs)
        by_user = {d.request.user_id: d for d in fs.deliveries}
        assert by_user["u2"].route[0] == "VW"  # no IS1 copy to draw on
        # whereas route-wide deposits serve u2 from the IS1 copy for free
        wide = IndividualScheduler(cm).schedule_file(catalog["v"], reqs)
        by_user_wide = {d.request.user_id: d for d in wide.deliveries}
        assert by_user_wide["u2"].route == ("IS1",)

    def test_invalid_scope_rejected(self):
        topo, catalog, cm = _env()
        with pytest.raises(ScheduleError, match="deposit_scope"):
            IndividualScheduler(cm, deposit_scope="everywhere")
