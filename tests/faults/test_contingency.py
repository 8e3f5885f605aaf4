"""Tests for contingency re-scheduling around an active fault plan.

The fixture topology is a triangle -- ``VW -- IS1 -- IS2`` plus an expensive
direct ``VW -- IS2`` backup link -- so a fault on the cheap chain leaves a
recovery path for the re-solve to find.
"""

import pytest

from repro import (
    ContingencyScheduler,
    FaultKind,
    FaultPlan,
    FaultSpec,
    Topology,
    VideoCatalog,
    VideoFile,
    VideoScheduler,
    VORService,
    units,
)
from repro.core.costmodel import CostModel
from repro.errors import ScheduleError
from repro.extensions.pricing import DiurnalCostModel, TimeOfDayTariff
from repro.extensions.rolling import RollingScheduler
from repro.faults import build_degraded_report, masked_topology
from repro.faults.contingency import _MaskViews
from repro.sim.validate import validate_schedule
from repro.workload.requests import Request, RequestBatch


def _triangle() -> Topology:
    topo = Topology()
    topo.add_warehouse("VW")
    topo.add_storage("IS1", srate=1e-9, capacity=units.gb(50))
    topo.add_storage("IS2", srate=1e-9, capacity=units.gb(50))
    topo.add_edge("VW", "IS1", nrate=1e-9)
    topo.add_edge("IS1", "IS2", nrate=1e-9)
    topo.add_edge("VW", "IS2", nrate=1e-8)  # pricey direct backup
    return topo


@pytest.fixture
def env():
    topo = _triangle()
    catalog = VideoCatalog(
        [
            VideoFile(f"m{i}", size=units.gb(2.5), playback=units.minutes(90))
            for i in range(2)
        ]
    )
    batch = RequestBatch(
        [
            Request(1 * units.HOUR, "m0", "a", "IS1"),
            Request(1 * units.HOUR, "m1", "b", "IS2"),
            Request(2 * units.HOUR, "m1", "c", "IS2"),
        ]
    )
    return topo, catalog, batch, VideoScheduler(topo, catalog).solve(batch)


def _window_plan(kind, target, severity=0.0):
    return FaultPlan(
        (
            FaultSpec(
                kind=kind,
                target=target,
                t_start=0.0,
                t_end=24 * units.HOUR,
                severity=severity,
            ),
        )
    )


def _impacted(topo, catalog, batch, solved, plan):
    cm = CostModel(topo, catalog)
    return ContingencyScheduler(cm).recover(solved, plan).impacted


class TestImpactedVideos:
    def test_delivery_through_down_edge(self, env):
        topo, catalog, batch, solved = env
        plan = _window_plan(FaultKind.LINK_DOWN, ("IS1", "IS2"))
        assert _impacted(topo, catalog, batch, solved, plan) == ("m1",)

    def test_down_storage_impacts_its_users(self, env):
        topo, catalog, batch, solved = env
        plan = _window_plan(FaultKind.IS_OUTAGE, "IS2")
        assert "m1" in _impacted(topo, catalog, batch, solved, plan)

    def test_shrunk_storage_impacts_its_caches(self):
        topo = Topology()
        topo.add_warehouse("VW")
        topo.add_storage("IS1", srate=1e-15, capacity=units.gb(50))
        topo.add_edge("VW", "IS1", nrate=1e-9)
        catalog = VideoCatalog(
            [VideoFile("m0", size=units.gb(2.5), playback=units.minutes(90))]
        )
        batch = RequestBatch(
            [
                Request(1 * units.HOUR, "m0", "a", "IS1"),
                Request(2 * units.HOUR, "m0", "b", "IS1"),
            ]
        )
        solved = VideoScheduler(topo, catalog).solve(batch)
        assert solved.schedule.residencies  # the second showing plays from IS1
        plan = _window_plan(FaultKind.CAPACITY_SHRINK, "IS1", severity=0.5)
        assert _impacted(topo, catalog, batch, solved, plan) == ("m0",)

    def test_empty_effects_impact_nothing(self, env):
        topo, catalog, batch, solved = env
        assert _impacted(topo, catalog, batch, solved, FaultPlan()) == ()


class TestRecover:
    def test_empty_plan_is_a_noop(self, env):
        topo, catalog, batch, solved = env
        schedule = solved.schedule
        cm = CostModel(topo, catalog)
        rec = ContingencyScheduler(cm).recover(solved, FaultPlan())
        assert rec.schedule == schedule
        assert rec.schedule is not schedule  # input never mutated
        assert rec.impacted == () and rec.resolution is None
        assert rec.cost_delta == 0.0
        assert rec.requests_saved == 0 and rec.requests_lost == 0

    def test_link_down_reroutes_impacted_video(self, env):
        topo, catalog, batch, solved = env
        schedule = solved.schedule
        cm = CostModel(topo, catalog)
        plan = _window_plan(FaultKind.LINK_DOWN, ("IS1", "IS2"))
        rec = ContingencyScheduler(cm).recover(solved, plan)
        assert rec.impacted == ("m1",)
        # the direct VW--IS2 link keeps everyone reachable: nothing lost
        assert rec.requests_lost == 0 and rec.requests_saved == 2
        assert len(rec.schedule.deliveries) == len(batch)
        # unimpacted file carried over bit-for-bit
        assert rec.schedule.file("m0") == schedule.file("m0")
        # no patched route crosses the dead link
        for d in rec.schedule.file("m1").deliveries:
            assert ("IS1", "IS2") != tuple(sorted(d.route[-2:]))
        # rerouting over the pricey backup costs more
        assert rec.cost_delta > 0.0

    def test_patched_schedule_valid_on_masked_model(self, env):
        topo, catalog, batch, solved = env
        cm = CostModel(topo, catalog)
        plan = _window_plan(FaultKind.LINK_DOWN, ("IS1", "IS2"))
        rec = ContingencyScheduler(cm).recover(solved, plan)
        masked_cm = CostModel(masked_topology(topo, plan), catalog)
        surviving = RequestBatch(r for r in batch if r not in set(rec.lost))
        assert validate_schedule(rec.schedule, surviving, masked_cm) == []

    def test_outage_loses_unreachable_requests(self, env):
        topo, catalog, batch, solved = env
        cm = CostModel(topo, catalog)
        plan = _window_plan(FaultKind.IS_OUTAGE, "IS2")
        rec = ContingencyScheduler(cm).recover(solved, plan)
        assert {r.user_id for r in rec.lost} == {"b", "c"}
        assert "m1" not in rec.schedule
        # dropped deliveries take their cost with them
        assert rec.cost_delta < 0.0
        masked_cm = CostModel(masked_topology(topo, plan), catalog)
        surviving = RequestBatch(r for r in batch if r not in set(rec.lost))
        assert validate_schedule(rec.schedule, surviving, masked_cm) == []

    def test_costs_priced_on_the_original_model(self, env):
        topo, catalog, batch, solved = env
        schedule = solved.schedule
        cm = CostModel(topo, catalog)
        plan = _window_plan(FaultKind.LINK_DOWN, ("IS1", "IS2"))
        rec = ContingencyScheduler(cm).recover(solved, plan)
        assert rec.cost_before.total == pytest.approx(
            cm.schedule_cost(schedule).total
        )
        assert rec.cost_after.total == pytest.approx(
            cm.schedule_cost(rec.schedule).total
        )
        assert rec.cost_delta == pytest.approx(
            rec.cost_after.total - rec.cost_before.total
        )

    def test_recovery_bit_identical_on_rerun(self, env):
        topo, catalog, batch, solved = env
        plan = _window_plan(FaultKind.LINK_DOWN, ("IS1", "IS2"))
        first = ContingencyScheduler(CostModel(topo, catalog)).recover(
            solved, plan
        )
        again = ContingencyScheduler(CostModel(topo, catalog)).recover(
            solved, plan
        )
        assert again.schedule == first.schedule
        assert again.saved == first.saved
        assert again.lost == first.lost
        assert again.cost_after.total == first.cost_after.total

    def test_json_dict_round_trips(self, env):
        import json

        topo, catalog, batch, solved = env
        cm = CostModel(topo, catalog)
        plan = _window_plan(FaultKind.IS_OUTAGE, "IS2")
        rec = ContingencyScheduler(cm).recover(solved, plan)
        doc = rec.to_json_dict()
        assert json.loads(json.dumps(doc)) == doc
        assert doc["requests_lost"] == 2
        assert doc["plan"] == plan.to_dict()
        assert "recovery" in rec.sla_summary()


class TestMaskedModel:
    """Recovery re-solves on the healthy model itself, so a tariff subclass
    re-solves under its tariff."""

    @staticmethod
    def _tariff_env():
        """Two evening-peak requests at IS2.  The cheap route crosses IS1;
        on the VW-IS2 link a flat-rate solve streams twice ($100 each, less
        than the $129.60 cache extension) while a peak-rate one ($300 a
        stream) caches at IS2."""
        topo = Topology()
        topo.add_warehouse("VW")
        topo.add_storage("IS1", srate=2.4e-4, capacity=1e12)
        topo.add_storage("IS2", srate=2.4e-4, capacity=1e12)
        topo.add_edge("VW", "IS1", nrate=0.4)
        topo.add_edge("IS1", "IS2", nrate=0.4)
        topo.add_edge("VW", "IS2", nrate=1.0)
        catalog = VideoCatalog(
            [VideoFile("v", size=100.0, playback=units.HOUR)]
        )
        batch = RequestBatch(
            [
                Request(19.0 * units.HOUR, "v", "u1", "IS2"),
                Request(20.0 * units.HOUR, "v", "u2", "IS2"),
            ]
        )
        tariff = TimeOfDayTariff.evening_peak(peak_multiplier=3.0)
        cm = DiurnalCostModel(topo, catalog, tariff)
        solved = VideoScheduler(topo, catalog, cost_model=cm).solve(batch)
        return topo, catalog, batch, tariff, cm, solved

    def test_recovery_resolves_under_the_tariff(self):
        # IS1 is down all day, and a mild shrink of IS2 hits the healthy
        # schedule's cache there, so both requests are re-solved
        topo, catalog, batch, tariff, cm, solved = self._tariff_env()
        plan = FaultPlan((
            FaultSpec(FaultKind.IS_OUTAGE, "IS1", 0.0, units.DAY),
            FaultSpec(FaultKind.CAPACITY_SHRINK, "IS2", 0.0, units.DAY, 0.5),
        ))
        rec = ContingencyScheduler(cm).recover(solved, plan)
        assert rec.saved == tuple(batch)
        masked = masked_topology(topo, plan)
        peak = VideoScheduler(
            masked, catalog, cost_model=DiurnalCostModel(masked, catalog, tariff)
        ).solve(batch).schedule
        flat = VideoScheduler(masked, catalog).solve(batch).schedule
        assert peak.residencies and not flat.residencies
        assert rec.schedule.deliveries == peak.deliveries
        assert rec.schedule.residencies == peak.residencies

    def test_cache_filled_over_a_down_node_is_hit(self):
        # The healthy schedule caches at IS2 from the 19:00 stream, which
        # crosses IS1.  With IS1 down all day that cache never fills: no
        # fault touches IS2 or the warehouse, yet the cache is hit, so the
        # 20:00 request it serves is re-solved with the 19:00 one, and the
        # degraded replay strands it.
        topo, catalog, batch, tariff, cm, solved = self._tariff_env()
        (cache,) = solved.schedule.residencies
        first, _ = solved.schedule.deliveries
        assert (cache.location, cache.source) == ("IS2", "VW")
        assert first.route == ("VW", "IS1", "IS2")
        assert first.start_time == cache.t_start
        plan = FaultPlan(
            (FaultSpec(FaultKind.IS_OUTAGE, "IS1", 0.0, units.DAY),)
        )
        (stranded,) = build_degraded_report(solved.schedule, cm, plan).stranded
        assert stranded.location == "IS2"
        rec = ContingencyScheduler(cm).recover(solved, plan)
        assert rec.saved == tuple(batch)
        masked = masked_topology(topo, plan)
        peak = VideoScheduler(
            masked, catalog, cost_model=DiurnalCostModel(masked, catalog, tariff)
        ).solve(batch).schedule
        assert rec.schedule.deliveries == peak.deliveries
        assert rec.schedule.residencies == peak.residencies
        assert validate_schedule(rec.schedule, batch, cm, faults=plan) == []


class TestRollingAmend:
    def test_amend_before_any_cycle_rejected(self):
        topo = _triangle()
        catalog = VideoCatalog([VideoFile("m0", size=units.gb(2.5),
                                          playback=units.minutes(90))])
        rolling = RollingScheduler(topo, catalog)
        with pytest.raises(ScheduleError, match="nothing to amend"):
            rolling.amend_cycle(None, FaultPlan())

    def test_amend_reroll_drops_stranded_carryover(self):
        topo = _triangle()
        catalog = VideoCatalog(
            [VideoFile("m0", size=units.gb(2.5), playback=units.minutes(90))]
        )
        rolling = RollingScheduler(topo, catalog)
        # a request near the cycle end leaves a residency tail crossing
        # the boundary when the greedy caches at the destination
        batch = RequestBatch(
            [
                Request(20 * units.HOUR, "m0", "a", "IS2"),
                Request(23 * units.HOUR, "m0", "b", "IS2"),
            ]
        )
        result = rolling.schedule_cycle(batch, cycle_end=24 * units.HOUR)
        plan = _window_plan(FaultKind.IS_OUTAGE, "IS2")
        recovery = rolling.amend_cycle(result, plan)
        assert recovery.requests_lost == 2
        rolling.commit_amendment(recovery)
        # IS2's cached copy is gone; nothing at a down node may carry over
        assert all(
            c.location != "IS2" for c in rolling.carryover
        )


class TestServiceAmend:
    @pytest.fixture
    def service_env(self):
        topo = _triangle()
        catalog = VideoCatalog(
            [
                VideoFile(
                    f"m{i}", size=units.gb(2.5), playback=units.minutes(90)
                )
                for i in range(2)
            ]
        )
        return topo, catalog

    def test_amend_cycle_reports_recovery(self, service_env):
        topo, catalog = service_env
        svc = VORService(topo, catalog)
        svc.reserve("alice", "m0", 5 * units.HOUR, local_storage="IS1")
        svc.reserve("bob", "m1", 7 * units.HOUR, local_storage="IS2")
        report = svc.close_cycle(cycle_end=units.DAY)
        assert report.feasible and report.recovery is None

        plan = _window_plan(FaultKind.IS_OUTAGE, "IS2")
        amended = svc.amend_cycle(report, plan)
        assert amended.recovery is not None
        assert amended.recovery.requests_lost == 1
        assert {r.user_id for r in amended.recovery.lost} == {"bob"}
        # patched schedule is feasible on the masked topology
        assert amended.feasible
        # billing re-allocated over the patched schedule
        assert amended.billing.grand_total == pytest.approx(
            amended.cycle.total_cost
        )
        assert "alice" in amended.billing.invoices
        assert "bob" not in amended.billing.invoices
        assert "recovery" in amended.summary()

    def test_amend_with_reroute_keeps_everyone_served(self, service_env):
        topo, catalog = service_env
        svc = VORService(topo, catalog)
        svc.reserve("alice", "m0", 5 * units.HOUR, local_storage="IS1")
        svc.reserve("bob", "m1", 7 * units.HOUR, local_storage="IS2")
        report = svc.close_cycle(cycle_end=units.DAY)

        plan = _window_plan(FaultKind.LINK_DOWN, ("IS1", "IS2"))
        amended = svc.amend_cycle(report, plan)
        assert amended.recovery.requests_lost == 0
        assert amended.feasible
        assert len(amended.cycle.schedule.deliveries) == 2


class TestWindowRoutes:
    """Windowed recovery routes each stream on the mask of the faults in
    effect during it, and never falls back to the healthy route."""

    @staticmethod
    def _route(plan, src, dst, t0, t1):
        cm = CostModel(_triangle(), VideoCatalog([]))
        route = _MaskViews(cm, plan).routes(dst, t0, t1, 1.0).get(src)
        return None if route is None else route.nodes

    def test_node_down_inside_the_stream_window(self):
        plan = FaultPlan(
            (FaultSpec(FaultKind.IS_OUTAGE, "IS1", 4 * units.HOUR, 8 * units.HOUR),)
        )
        h = units.HOUR
        # the cheap chain crosses IS1: down during the stream, so the
        # pricey direct link carries it
        assert self._route(plan, "VW", "IS2", 5 * h, 6 * h) == ("VW", "IS2")
        assert self._route(plan, "VW", "IS2", 7 * h, 9 * h) == ("VW", "IS2")
        assert self._route(plan, "IS1", "IS2", 5 * h, 6 * h) is None
        # outside the window the healthy route stands
        assert self._route(plan, "VW", "IS2", 8 * h, 9 * h) == ("VW", "IS1", "IS2")
        assert self._route(plan, "VW", "IS2", 2 * h, 4 * h) == ("VW", "IS1", "IS2")

    def test_caches_stream_while_every_warehouse_is_down(self):
        plan = _window_plan(FaultKind.WAREHOUSE_LOSS, "VW")
        assert self._route(plan, "VW", "IS2", 0.0, units.HOUR) is None
        assert self._route(plan, "IS1", "IS2", 0.0, units.HOUR) == ("IS1", "IS2")
