"""Tests for the rolling multi-cycle scheduler."""

import pytest

from repro import (
    CostModel,
    ReplicaMap,
    Request,
    RequestBatch,
    Topology,
    VideoCatalog,
    VideoFile,
    VideoScheduler,
    VORService,
    detect_overflows,
    units,
)
from repro.errors import ScheduleError
from repro.extensions import RollingScheduler
from repro.sim import validate_schedule


def _env(capacity=250.0, srate=1e-4, nrate=1.0, n_files=3):
    topo = Topology()
    topo.add_warehouse("VW")
    topo.add_storage("IS1", srate=srate, capacity=capacity)
    topo.add_storage("IS2", srate=srate, capacity=capacity)
    topo.add_edge("VW", "IS1", nrate=nrate)
    topo.add_edge("IS1", "IS2", nrate=nrate)
    catalog = VideoCatalog(
        [VideoFile(f"v{i}", size=100.0, playback=50.0) for i in range(n_files)]
    )
    return topo, catalog


CYCLE = 1000.0


class TestConstruction:
    """Every scheduler gets its model the same way."""

    @staticmethod
    def _two_homes():
        topo, catalog = _env()
        topo.add_warehouse("VW2")
        topo.add_edge("VW2", "IS2", nrate=1.0)
        at = {
            home: ReplicaMap({v.video_id: (home,) for v in catalog})
            for home in ("VW", "VW2")
        }
        return topo, catalog, at

    @pytest.mark.parametrize(
        "make", [RollingScheduler, VideoScheduler, VORService]
    )
    def test_replicas_conflicting_with_cost_model_rejected(self, make):
        topo, catalog, at = self._two_homes()
        cm = CostModel(topo, catalog, replicas=at["VW"])
        with pytest.raises(ScheduleError, match="not both"):
            make(topo, catalog, cost_model=cm, replicas=at["VW2"])

    @pytest.mark.parametrize(
        "make", [RollingScheduler, VideoScheduler, VORService]
    )
    def test_replicas_matching_cost_model_accepted(self, make):
        topo, catalog, at = self._two_homes()
        cm = CostModel(topo, catalog, replicas=at["VW2"])
        assert make(
            topo, catalog, cost_model=cm, replicas=at["VW2"]
        ).cost_model is cm

    def test_service_reads_the_rolling_model(self):
        topo, catalog, at = self._two_homes()
        service = VORService(topo, catalog, replicas=at["VW"])
        assert service.cost_model.replicas is at["VW"]
        service.migrate_replicas(at["VW2"])
        assert service.cost_model.replicas is at["VW2"]
        assert service.cost_model is service._rolling.cost_model


class TestRollingBasics:
    def test_single_cycle_matches_standalone(self):
        """With no carryover, a rolling cycle equals the plain scheduler."""
        from repro import VideoScheduler

        topo, catalog = _env()
        batch = RequestBatch(
            [
                Request(100.0, "v0", "u1", "IS1"),
                Request(300.0, "v0", "u2", "IS1"),
            ]
        )
        rolling = RollingScheduler(topo, catalog)
        res = rolling.schedule_cycle(batch, cycle_end=CYCLE)
        plain = VideoScheduler(topo, catalog).solve(batch)
        assert res.total_cost == pytest.approx(plain.total_cost)
        assert res.carried_in == 0
        assert res.carryover_credit == 0.0
        assert res.net_total_cost == pytest.approx(res.total_cost)

    def test_carryover_detected_at_boundary(self):
        """A residency ending near the boundary carries its drain tail over."""
        topo, catalog = _env()
        batch = RequestBatch(
            [
                Request(100.0, "v0", "u1", "IS1"),
                Request(980.0, "v0", "u2", "IS1"),  # tail to 1030 > 1000
            ]
        )
        rolling = RollingScheduler(topo, catalog)
        res = rolling.schedule_cycle(batch, cycle_end=CYCLE)
        assert res.carried_out == 1
        assert len(rolling.carryover) == 1
        assert rolling.carryover[0].video_id == "v0"

    def test_no_carryover_when_drained(self):
        topo, catalog = _env()
        batch = RequestBatch(
            [
                Request(100.0, "v0", "u1", "IS1"),
                Request(300.0, "v0", "u2", "IS1"),  # drains at 350 << 1000
            ]
        )
        rolling = RollingScheduler(topo, catalog)
        res = rolling.schedule_cycle(batch, cycle_end=CYCLE)
        assert res.carried_out == 0

    def test_cycles_must_advance(self):
        topo, catalog = _env()
        rolling = RollingScheduler(topo, catalog)
        rolling.schedule_cycle(
            RequestBatch([Request(100.0, "v0", "u1", "IS1")]), cycle_end=CYCLE
        )
        with pytest.raises(ScheduleError, match="move forward"):
            rolling.schedule_cycle(
                RequestBatch([Request(50.0, "v0", "u2", "IS1")]),
                cycle_end=2 * CYCLE,
            )

    def test_requests_beyond_cycle_end_rejected(self):
        topo, catalog = _env()
        rolling = RollingScheduler(topo, catalog)
        with pytest.raises(ScheduleError, match="beyond cycle_end"):
            rolling.schedule_cycle(
                RequestBatch([Request(1500.0, "v0", "u1", "IS1")]),
                cycle_end=CYCLE,
            )


class TestCrossCycleReuse:
    def test_carryover_cache_extended_next_cycle(self):
        """A title cached late in cycle 0 serves cycle 1 from the cache."""
        topo, catalog = _env()
        rolling = RollingScheduler(topo, catalog)
        c0 = rolling.schedule_cycle(
            RequestBatch(
                [
                    Request(800.0, "v0", "u1", "IS1"),
                    Request(980.0, "v0", "u2", "IS1"),
                ]
            ),
            cycle_end=CYCLE,
        )
        assert c0.carried_out == 1
        c1 = rolling.schedule_cycle(
            RequestBatch([Request(1010.0, "v0", "u3", "IS1")]),
            cycle_end=2 * CYCLE,
        )
        assert c1.reused_carryover == 1
        # u3 is served from the local cache, not the warehouse
        d = [x for x in c1.schedule.deliveries if x.request.user_id == "u3"][0]
        assert d.route == ("IS1",)
        # the extended residency keeps the committed start
        res = c1.schedule.file("v0").residencies_at("IS1")[0]
        assert res.t_start == 800.0
        assert res.t_last == 1010.0

    def test_carryover_credit_avoids_double_charge(self):
        topo, catalog = _env()
        rolling = RollingScheduler(topo, catalog)
        rolling.schedule_cycle(
            RequestBatch(
                [
                    Request(800.0, "v0", "u1", "IS1"),
                    Request(980.0, "v0", "u2", "IS1"),
                ]
            ),
            cycle_end=CYCLE,
        )
        c1 = rolling.schedule_cycle(
            RequestBatch([Request(1010.0, "v0", "u3", "IS1")]),
            cycle_end=2 * CYCLE,
        )
        assert c1.carryover_credit > 0
        assert c1.net_total_cost < c1.total_cost
        assert c1.net_total_cost >= 0

    def test_unrequested_carryover_blocks_capacity(self):
        """A carryover tail at a full storage pushes new files elsewhere."""
        topo, catalog = _env(capacity=150.0)
        rolling = RollingScheduler(topo, catalog)
        rolling.schedule_cycle(
            RequestBatch(
                [
                    Request(800.0, "v0", "u1", "IS1"),
                    Request(980.0, "v0", "u2", "IS1"),  # tail [980, 1030]
                ]
            ),
            cycle_end=CYCLE,
        )
        # cycle 1: v1 requested twice at IS1 right at the boundary; the
        # carryover tail (100 of 150) leaves no room for a full v1 residency
        c1 = rolling.schedule_cycle(
            RequestBatch(
                [
                    Request(1001.0, "v1", "u3", "IS1"),
                    Request(1020.0, "v1", "u4", "IS1"),
                ]
            ),
            cycle_end=2 * CYCLE,
        )
        # combined usage (carryover tail + new placements) respects capacity:
        # the v0 tail holds the full 100 bytes until t=1030
        from repro.core.overflow import storage_usage

        usage = storage_usage(c1.schedule, catalog, "IS1")
        v0_tail_peak = 100.0
        assert usage.max_over(1001.0, 1029.9) + v0_tail_peak <= 150.0 + 1e-6

    def test_multi_cycle_feasible_and_valid(self):
        """Three consecutive cycles all validate end-to-end."""
        topo, catalog = _env(capacity=220.0)
        cm = CostModel(topo, catalog)
        rolling = RollingScheduler(topo, catalog)
        for k in range(3):
            base = k * CYCLE
            batch = RequestBatch(
                [
                    Request(base + 100.0, "v0", f"a{k}", "IS1"),
                    Request(base + 600.0, "v1", f"b{k}", "IS2"),
                    Request(base + 950.0, "v2", f"c{k}", "IS1"),
                    Request(base + 990.0, "v0", f"d{k}", "IS2"),
                ]
            )
            res = rolling.schedule_cycle(batch, cycle_end=(k + 1) * CYCLE)
            assert detect_overflows(res.schedule, catalog, topo) == []
            assert validate_schedule(res.schedule, batch, cm) == []
            served = {d.request.user_id for d in res.schedule.deliveries}
            assert served == {r.user_id for r in batch}
