"""Cross-module integration tests: full pipelines at realistic scale."""

import pytest

from repro import (
    CostModel,
    PeakHourArrivals,
    StagingPlanner,
    VORService,
    VideoScheduler,
    WarehouseSpec,
    WorkloadGenerator,
    allocate_costs,
    detect_overflows,
    paper_catalog,
    paper_topology,
    units,
)
from repro.analysis import ascii_timeline
from repro.baselines import network_only_cost
from repro.core.overflow import storage_usage
from repro.extensions import (
    BandwidthAwareScheduler,
    DiurnalCostModel,
    RollingScheduler,
    TimeOfDayTariff,
)
from repro.sim import SimulationEngine, validate_schedule


@pytest.fixture(scope="module")
def paper_env():
    topo = paper_topology(
        nrate=units.per_gb(500),
        srate=units.per_gb_hour(5),
        capacity=units.gb(5),
    )
    catalog = paper_catalog(seed=17)
    batch = WorkloadGenerator(
        topo, catalog, alpha=0.271, arrivals=PeakHourArrivals()
    ).generate(seed=17)
    return topo, catalog, batch


class TestFullPipeline:
    def test_schedule_validate_bill_stage(self, paper_env):
        """scheduler -> simulator -> billing -> warehouse staging, one flow."""
        topo, catalog, batch = paper_env
        cm = CostModel(topo, catalog)
        result = VideoScheduler(topo, catalog).solve(batch)

        assert validate_schedule(result.schedule, batch, cm) == []

        statement = allocate_costs(result.schedule, cm)
        assert statement.grand_total == pytest.approx(result.total_cost)

        spec = WarehouseSpec(
            disk_capacity=units.gb(500),
            tape_drives=8,
            tape_bandwidth=60 * units.MB,
        )
        staging = StagingPlanner(spec, catalog).plan(result.schedule)
        assert staging.total_streams == sum(
            1 for d in result.schedule.deliveries if d.source == "VW"
        )

        report = SimulationEngine(cm).run(result.schedule)
        assert report.n_streams == len(batch)

    def test_scheduler_beats_both_baselines(self, paper_env):
        topo, catalog, batch = paper_env
        cm = CostModel(topo, catalog)
        result = VideoScheduler(topo, catalog).solve(batch)
        assert result.total_cost <= network_only_cost(batch, cm) + 1e-6

    def test_ascii_figure_of_real_usage(self, paper_env):
        topo, catalog, batch = paper_env
        result = VideoScheduler(topo, catalog).solve(batch)
        busiest = max(
            topo.storages,
            key=lambda s: storage_usage(result.schedule, catalog, s.name).peak,
        )
        art = ascii_timeline(
            storage_usage(result.schedule, catalog, busiest.name),
            capacity=busiest.capacity,
        )
        assert "#" in art
        grid_rows = [line for line in art.splitlines() if "|" in line]
        assert all("!" not in row for row in grid_rows)  # never overflows


class TestServiceWithEverything:
    def test_diurnal_service_with_warehouse(self):
        """VORService wiring: rolling cycles and a tariff what-if of each,
        every schedule staged through the warehouse hierarchy."""
        topo = paper_topology(
            nrate=units.per_gb(500),
            srate=units.per_gb_hour(10),
            capacity=units.gb(8),
        )
        catalog = paper_catalog(80, seed=23)
        cm = DiurnalCostModel(
            topo, catalog, TimeOfDayTariff.evening_peak(peak_multiplier=2.0)
        )
        svc = VORService(topo, catalog)
        staging_planner = StagingPlanner(
            WarehouseSpec(
                disk_capacity=units.gb(300),
                tape_drives=6,
                tape_bandwidth=60 * units.MB,
            ),
            catalog,
        )
        gen = WorkloadGenerator(
            topo, catalog, alpha=0.271, users_per_neighborhood=4
        )
        for day in range(2):
            offset = day * units.DAY
            for r in gen.generate(seed=30 + day):
                svc.reserve(
                    f"d{day}/{r.user_id}",
                    r.video_id,
                    r.start_time + offset + units.HOUR,
                    local_storage=r.local_storage,
                    now=offset,
                )
            cycle_end = offset + units.DAY + units.HOUR
            priced = svc.what_if(svc.due(cycle_end), cm)
            report = svc.close_cycle(cycle_end=cycle_end)
            assert report.feasible
            for schedule in (priced.schedule, report.cycle.schedule):
                staging = staging_planner.plan(schedule)
                from_vw = sum(1 for d in schedule.deliveries if d.source == "VW")
                assert staging.total_streams == from_vw > 0
            assert report.billing.grand_total == pytest.approx(
                report.cycle.total_cost
            )

    def test_rolling_total_matches_sum_of_cycles(self):
        """Net cycle costs telescope: no cost is double-counted across days."""
        topo = paper_topology(
            nrate=units.per_gb(500),
            srate=units.per_gb_hour(5),
            capacity=units.gb(8),
        )
        catalog = paper_catalog(60, seed=29)
        rolling = RollingScheduler(topo, catalog)
        cm = rolling.cost_model
        gross = []
        credits = []
        from repro.workload.requests import Request, RequestBatch

        gen = WorkloadGenerator(
            topo, catalog, alpha=0.271, users_per_neighborhood=3
        )
        for day in range(3):
            offset = day * units.DAY
            raw = gen.generate(seed=50 + day)
            batch = RequestBatch(
                Request(
                    r.start_time + offset,
                    r.video_id,
                    f"d{day}/{r.user_id}",
                    r.local_storage,
                )
                for r in raw
            )
            res = rolling.schedule_cycle(batch, cycle_end=offset + units.DAY)
            gross.append(res.total_cost)
            credits.append(res.carryover_credit)
            assert res.net_total_cost == pytest.approx(
                res.total_cost - res.carryover_credit
            )
            assert res.carryover_credit <= res.total_cost + 1e-9


class TestRelayStress:
    def test_slotted_arrivals_mass_simultaneity(self):
        """Slotted showings create many exact-time collisions (relays);
        everything must still validate and stay capacity-feasible."""
        from repro import SlottedArrivals

        topo = paper_topology(
            nrate=units.per_gb(500),
            srate=units.per_gb_hour(5),
            capacity=units.gb(5),
        )
        catalog = paper_catalog(40, seed=19)  # small catalog = collisions
        batch = WorkloadGenerator(
            topo,
            catalog,
            alpha=0.1,
            users_per_neighborhood=10,
            # a 2 h cycle holds four 30-minute showings
            arrivals=SlottedArrivals(2 * units.HOUR),
        ).generate(seed=19)
        result = VideoScheduler(topo, catalog).solve(batch)
        relays = [
            c
            for c in result.schedule.residencies
            if c.t_last == c.t_start and c.service_list
        ]
        assert len(relays) >= 20, "slotted workload must produce zero-lag relays"
        cm = CostModel(topo, catalog)
        assert validate_schedule(result.schedule, batch, cm) == []
        assert detect_overflows(result.schedule, catalog, topo) == []


class TestBandwidthAtPaperScale:
    def test_tight_links_still_validate(self, paper_env):
        topo, catalog, batch = paper_env
        from repro import Topology

        limited = Topology()
        limited.add_warehouse(topo.warehouse.name)
        for s in topo.storages:
            limited.add_storage(s.name, srate=s.srate, capacity=s.capacity)
        for e in topo.edges:
            limited.add_edge(e.a, e.b, nrate=e.nrate, bandwidth=units.mbps(30))
        result = BandwidthAwareScheduler(limited, catalog).solve(batch)
        admitted_users = {d.request.user_id for d in result.schedule.deliveries}
        rejected_users = {r.user_id for r in result.rejected}
        assert admitted_users | rejected_users == {r.user_id for r in batch}
        assert admitted_users.isdisjoint(rejected_users)
        from repro.workload.requests import RequestBatch

        admitted = RequestBatch(r for r in batch if r.user_id in admitted_users)
        cm = CostModel(limited, catalog)
        assert validate_schedule(result.schedule, admitted, cm) == []
