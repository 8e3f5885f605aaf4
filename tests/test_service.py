"""Tests for the VORService operator facade."""

import pytest

from repro import (
    Topology,
    VideoCatalog,
    VideoFile,
    VORService,
    units,
)
from repro.errors import WorkloadError
from repro.extensions import DiurnalCostModel, TimeOfDayTariff


@pytest.fixture
def env():
    topo = Topology()
    topo.add_warehouse("VW")
    topo.add_storage("IS1", srate=units.per_gb_hour(2), capacity=units.gb(6))
    topo.add_storage("IS2", srate=units.per_gb_hour(2), capacity=units.gb(6))
    topo.add_edge("VW", "IS1", nrate=units.per_gb(500))
    topo.add_edge("IS1", "IS2", nrate=units.per_gb(300))
    catalog = VideoCatalog(
        [
            VideoFile(f"m{i}", size=units.gb(2.5), playback=units.minutes(90))
            for i in range(4)
        ]
    )
    return topo, catalog


class TestReservationIntake:
    def test_accepts_valid_reservation(self, env):
        topo, catalog = env
        svc = VORService(topo, catalog)
        r = svc.reserve("alice", "m0", 5 * units.HOUR, local_storage="IS1")
        assert svc.pending == 1
        assert r.user_id == "alice"

    def test_unknown_title_rejected(self, env):
        topo, catalog = env
        svc = VORService(topo, catalog)
        with pytest.raises(WorkloadError, match="unknown title"):
            svc.reserve("alice", "nope", 5 * units.HOUR, local_storage="IS1")

    def test_unknown_neighborhood_rejected(self, env):
        topo, catalog = env
        svc = VORService(topo, catalog)
        with pytest.raises(WorkloadError, match="neighborhood"):
            svc.reserve("alice", "m0", 5 * units.HOUR, local_storage="IS9")

    def test_lead_time_enforced(self, env):
        topo, catalog = env
        svc = VORService(topo, catalog, lead_time=units.HOUR)
        with pytest.raises(WorkloadError, match="lead"):
            svc.reserve(
                "alice", "m0", 30 * units.MINUTE, local_storage="IS1", now=0.0
            )
        # exactly at the lead time is fine
        svc.reserve("alice", "m0", units.HOUR, local_storage="IS1", now=0.0)


class TestCycleClose:
    def test_close_schedules_and_bills(self, env):
        topo, catalog = env
        svc = VORService(topo, catalog)
        svc.reserve("alice", "m0", 5 * units.HOUR, local_storage="IS1")
        svc.reserve("bob", "m0", 7 * units.HOUR, local_storage="IS1")
        report = svc.close_cycle(cycle_end=units.DAY)
        assert report.feasible
        assert svc.pending == 0
        assert len(report.cycle.schedule.deliveries) == 2
        assert report.billing.grand_total == pytest.approx(
            report.cycle.total_cost
        )
        assert {i for i in report.billing.invoices} == {"alice", "bob"}

    def test_future_reservations_stay_pending(self, env):
        topo, catalog = env
        svc = VORService(topo, catalog)
        svc.reserve("alice", "m0", 5 * units.HOUR, local_storage="IS1")
        svc.reserve("bob", "m1", 30 * units.HOUR, local_storage="IS2")
        report = svc.close_cycle(cycle_end=units.DAY)
        assert len(report.cycle.schedule.deliveries) == 1
        assert svc.pending == 1
        # next cycle picks bob up
        report2 = svc.close_cycle(cycle_end=2 * units.DAY)
        assert len(report2.cycle.schedule.deliveries) == 1

    def test_clock_advances_with_cycles(self, env):
        topo, catalog = env
        svc = VORService(topo, catalog, lead_time=units.HOUR)
        svc.close_cycle(cycle_end=units.DAY)
        with pytest.raises(WorkloadError, match="lead"):
            # booking "now" defaults to the last boundary = 24 h
            svc.reserve("carol", "m0", 24.5 * units.HOUR, local_storage="IS1")

    def test_custom_cost_model_used_everywhere(self, env):
        topo, catalog = env
        tariff = TimeOfDayTariff.evening_peak(peak_multiplier=2.0)
        cm = DiurnalCostModel(topo, catalog, tariff)
        svc = VORService(topo, catalog)
        svc.reserve("alice", "m0", 20 * units.HOUR, local_storage="IS1")  # peak
        # a what-if prices the due batch under the tariff...
        priced = svc.what_if(svc.due(units.DAY), cm)
        assert priced.total_cost == pytest.approx(cm.total(priced.schedule))
        # ...and the close, on the service's own flat model, solves afresh
        report = svc.close_cycle(cycle_end=units.DAY)
        assert not report.cycle.reused_solve
        assert report.cycle.total_cost == pytest.approx(
            svc.cost_model.total(report.cycle.schedule)
        )
        assert report.cycle.total_cost < priced.total_cost  # 2x peak network
        assert report.billing.grand_total == pytest.approx(
            report.cycle.total_cost
        )

    def test_empty_cycle(self, env):
        topo, catalog = env
        svc = VORService(topo, catalog)
        report = svc.close_cycle(cycle_end=units.DAY)
        assert report.feasible
        assert report.cycle.total_cost == 0.0
        assert "cycle 0" in report.summary()

    def test_carryover_across_service_cycles(self, env):
        topo, catalog = env
        svc = VORService(topo, catalog)
        svc.reserve("a", "m0", 22 * units.HOUR, local_storage="IS1")
        svc.reserve("b", "m0", 23.8 * units.HOUR, local_storage="IS1")
        r0 = svc.close_cycle(cycle_end=units.DAY)
        assert r0.cycle.carried_out >= 1
        svc.reserve("c", "m0", 25.5 * units.HOUR, local_storage="IS1")
        r1 = svc.close_cycle(cycle_end=2 * units.DAY)
        assert r1.cycle.carried_in >= 1
        assert r1.feasible