"""End-to-end tests for the two-phase VideoScheduler facade."""

import pytest

from repro import (
    CostModel,
    HeatMetric,
    Request,
    RequestBatch,
    Topology,
    VideoCatalog,
    VideoFile,
    VideoScheduler,
    WorkloadGenerator,
    detect_overflows,
    paper_catalog,
    paper_topology,
    units,
)
from repro.errors import TopologyError
from repro.extensions import RollingScheduler


class TestFacade:
    def test_validates_topology(self):
        t = Topology()
        t.add_warehouse("VW")  # no storage
        with pytest.raises(TopologyError):
            VideoScheduler(t, VideoCatalog([VideoFile("v", size=1.0, playback=1.0)]))

    def test_result_structure(self, fig2_topology, fig2_catalog, fig2_batch):
        result = VideoScheduler(fig2_topology, fig2_catalog).solve(fig2_batch)
        assert result.total_cost == pytest.approx(result.cost.total)
        assert result.resolution.iterations == 0  # plenty of capacity
        # no SORP round: the final Ψ is the Phase-1 Ψ
        assert result.cost.total == result.phase1_cost
        assert result.overflow_cost_ratio == 0.0

    def test_result_reports_cache_activity(self, fig2_topology, fig2_catalog, fig2_batch):
        result = VideoScheduler(fig2_topology, fig2_catalog).solve(fig2_batch)
        assert result.cache_stats.lookups > 0
        assert 0.0 <= result.cache_hit_rate <= 1.0
        assert (
            result.cache_stats.lookups
            == result.cache_stats.hits + result.cache_stats.misses
        )

    def test_final_schedule_feasible(self):
        topo = Topology()
        topo.add_warehouse("VW")
        topo.add_storage("IS1", srate=1e-3, capacity=150.0)
        topo.add_edge("VW", "IS1", nrate=1.0)
        catalog = VideoCatalog(
            [VideoFile(f"v{i}", size=100.0, playback=10.0) for i in range(3)]
        )
        reqs = []
        for i in range(3):
            reqs.append(Request(float(i), f"v{i}", f"u{i}a", "IS1"))
            reqs.append(Request(60.0 + i, f"v{i}", f"u{i}b", "IS1"))
        result = VideoScheduler(topo, catalog).solve(RequestBatch(reqs))
        assert detect_overflows(result.schedule, catalog, topo) == []
        assert result.resolution.had_overflow
        assert result.resolution.resolved_cost >= result.resolution.phase1_cost

    def test_pruned_output(self, fig2_topology, fig2_catalog, fig2_batch):
        result = VideoScheduler(fig2_topology, fig2_catalog).solve(fig2_batch)
        for c in result.schedule.residencies:
            assert c.t_last > c.t_start

    def test_every_request_served(self, fig2_topology, fig2_catalog, fig2_batch):
        result = VideoScheduler(fig2_topology, fig2_catalog).solve(fig2_batch)
        served = {d.request.user_id for d in result.schedule.deliveries}
        assert served == {r.user_id for r in fig2_batch}


class TestPaperScale:
    """Smoke tests at the paper's experimental scale (Table 4)."""

    @pytest.fixture(scope="class")
    def result(self):
        topo = paper_topology(
            nrate=units.per_gb(500),
            srate=units.per_gb_hour(5),
            capacity=units.gb(5),
        )
        catalog = paper_catalog(seed=11)
        batch = WorkloadGenerator(topo, catalog, alpha=0.271).generate(seed=11)
        scheduler = VideoScheduler(topo, catalog)
        return topo, catalog, batch, scheduler.solve(batch)

    def test_all_served(self, result):
        topo, catalog, batch, res = result
        assert len(res.schedule.deliveries) == len(batch) == 190

    def test_feasible(self, result):
        topo, catalog, batch, res = result
        assert detect_overflows(res.schedule, catalog, topo) == []

    def test_cost_magnitude_matches_paper(self, result):
        """Paper Fig. 5 reports totals of roughly 3.5e5..1.3e6 at these rates."""
        _, _, _, res = result
        assert 1e5 < res.total_cost < 3e6

    def test_beats_trivial_direct_delivery(self, result):
        topo, catalog, batch, res = result
        cm = CostModel(topo, catalog)
        direct_total = sum(
            catalog[r.video_id].network_volume
            * cm.router.rate("VW", r.local_storage)
            for r in batch
        )
        assert res.total_cost <= direct_total + 1e-6


class TestOnePipeline:
    """The facade and a fresh rolling scheduler run the same pipeline."""

    @pytest.fixture(scope="class")
    def instance(self):
        topo = paper_topology(
            nrate=units.per_gb(500),
            srate=units.per_gb_hour(5),
            capacity=units.gb(1),
        )
        catalog = paper_catalog(n_videos=20, seed=5)
        batch = WorkloadGenerator(
            topo, catalog, alpha=0.271, users_per_neighborhood=4
        ).generate(seed=5)
        return topo, catalog, batch

    @pytest.mark.parametrize("metric", list(HeatMetric))
    def test_facade_equals_fresh_rolling_cycle(self, instance, metric):
        topo, catalog, batch = instance
        solved = VideoScheduler(topo, catalog, heat_metric=metric).solve(batch)
        cycle = RollingScheduler(
            topo, catalog, heat_metric=metric
        ).schedule_cycle(batch, cycle_end=batch.span[1])
        assert solved.resolution.iterations > 0  # SORP ran rounds
        assert cycle.schedule == solved.schedule
        assert cycle.cost == solved.cost
        assert cycle.resolution == solved.resolution
