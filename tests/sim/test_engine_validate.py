"""Tests for the simulation engine and schedule validation."""

import pytest

from repro import (
    CostModel,
    DeliveryInfo,
    FileSchedule,
    Request,
    RequestBatch,
    ResidencyInfo,
    Schedule,
    Topology,
    VideoCatalog,
    VideoFile,
    VideoScheduler,
    WorkloadGenerator,
    chain_topology,
    paper_catalog,
    paper_topology,
    units,
)
from repro.sim import SimulationEngine, validate_schedule


@pytest.fixture
def env():
    topo = chain_topology(2, nrate=1.0, srate=1e-3, capacity=150.0)
    catalog = VideoCatalog([VideoFile("v", size=100.0, playback=10.0)])
    return topo, catalog, CostModel(topo, catalog)


def _schedule_with_cache(env_tuple):
    """Two IS2 requests: direct + cached, the canonical feasible schedule."""
    _, _, cm = env_tuple
    batch = RequestBatch(
        [
            Request(0.0, "v", "u1", "IS2"),
            Request(20.0, "v", "u2", "IS2"),
        ]
    )
    from repro import IndividualScheduler

    return IndividualScheduler(cm).solve(batch), batch


class TestEngine:
    def test_counts_complete(self, env):
        schedule, batch = _schedule_with_cache(env)
        report = SimulationEngine(env[2]).run(schedule)
        assert report.n_streams == 2
        assert report.n_residencies == len(schedule.residencies) == 1
        assert report.n_events == 4 * 2 + 3 * 1
        assert report.events_by_kind()["stream_start"] == 2
        assert report.events_by_kind()["cache_release"] == 1

    def test_storage_loads_present_for_all_storages(self, env):
        schedule, _ = _schedule_with_cache(env)
        report = SimulationEngine(env[2]).run(schedule)
        assert set(report.storages) == {"IS1", "IS2"}

    def test_fluid_peak_at_most_reserved(self, env):
        schedule, _ = _schedule_with_cache(env)
        report = SimulationEngine(env[2]).run(schedule)
        for load in report.storages.values():
            assert load.fluid_peak <= load.reserved_peak + 1e-9

    def test_link_loads(self, env):
        schedule, _ = _schedule_with_cache(env)
        report = SimulationEngine(env[2]).run(schedule)
        # first delivery traverses VW-IS1 and IS1-IS2
        assert ("IS1", "VW") in report.links
        load = report.links[("IS1", "VW")]
        video_bw = env[1]["v"].bandwidth
        assert load.peak == pytest.approx(video_bw)

    def test_makespan(self, env):
        schedule, _ = _schedule_with_cache(env)
        report = SimulationEngine(env[2]).run(schedule)
        t0, t1 = report.makespan
        # last event: u2's service end == cache release at t_last + P = 30
        assert t0 == 0.0 and t1 == pytest.approx(30.0)

    def test_empty_schedule(self, env):
        report = SimulationEngine(env[2]).run(Schedule())
        assert report.n_events == 0
        assert report.events_by_kind() == {}
        assert report.makespan == (0.0, 0.0)


class TestValidate:
    def test_valid_schedule_passes(self, env):
        schedule, batch = _schedule_with_cache(env)
        assert validate_schedule(schedule, batch, env[2]) == []

    def test_unserved_request_flagged(self, env):
        schedule, batch = _schedule_with_cache(env)
        batch.add(Request(99.0, "v", "u3", "IS1"))
        vs = validate_schedule(schedule, batch, env[2])
        assert any(v.kind == "coverage" and "unserved" in v.message for v in vs)

    def test_double_service_flagged(self, env):
        schedule, batch = _schedule_with_cache(env)
        d = schedule.deliveries[0]
        schedule.file("v").add_delivery(d)
        vs = validate_schedule(schedule, batch, env[2])
        assert any("served 2 times" in v.message for v in vs)

    def test_missing_backing_residency_flagged(self, env):
        _, _, cm = env
        req = Request(5.0, "v", "u1", "IS2")
        fs = FileSchedule("v")
        fs.add_delivery(DeliveryInfo("v", ("IS1", "IS2"), 5.0, req))
        # no residency at IS1 at all
        vs = validate_schedule(Schedule([fs]), RequestBatch([req]), cm)
        assert any(v.kind == "causality" for v in vs)

    def test_residency_without_feeder_flagged(self, env):
        _, _, cm = env
        req = Request(5.0, "v", "u1", "IS1")
        fs = FileSchedule("v")
        fs.add_delivery(DeliveryInfo("v", ("VW", "IS1"), 5.0, req))
        # claims to have been filled from IS2, where nothing ever streamed
        fs.add_residency(ResidencyInfo("v", "IS1", "IS2", 5.0, 6.0))
        vs = validate_schedule(Schedule([fs]), RequestBatch([req]), cm)
        assert any(
            v.kind == "causality" and "no copy there" in v.message for v in vs
        )

    def test_capacity_violation_flagged(self, env):
        topo, catalog, cm = env
        req1 = Request(0.0, "v", "u1", "IS1")
        fs = FileSchedule("v")
        fs.add_delivery(DeliveryInfo("v", ("VW", "IS1"), 0.0, req1))
        fs.add_residency(ResidencyInfo("v", "IS1", "VW", 0.0, 20.0))
        # duplicate overlapping residency pushes reserved usage to 200 > 150
        fs2 = FileSchedule("v")  # same video id is fine in a fresh schedule
        fs.add_residency(ResidencyInfo("v", "IS1", "VW", 1.0, 21.0))
        vs = validate_schedule(Schedule([fs]), RequestBatch([req1]), cm)
        assert any(v.kind == "capacity" for v in vs)

    def test_bandwidth_violation_flagged(self):
        topo = Topology()
        topo.add_warehouse("VW")
        topo.add_storage("IS1", srate=0.0, capacity=1e9)
        topo.add_edge("VW", "IS1", nrate=1.0, bandwidth=15.0)
        catalog = VideoCatalog([VideoFile("v", size=100.0, playback=10.0)])
        cm = CostModel(topo, catalog)  # bandwidth = 10 B/s per stream
        reqs = [
            Request(0.0, "v", "u1", "IS1"),
            Request(1.0, "v", "u2", "IS1"),
        ]
        fs = FileSchedule("v")
        for r in reqs:
            fs.add_delivery(DeliveryInfo("v", ("VW", "IS1"), r.start_time, r))
        vs = validate_schedule(Schedule([fs]), RequestBatch(reqs), cm)
        assert any(v.kind == "bandwidth" for v in vs)
        # the link load is the schedule's only fault
        assert [v for v in vs if v.kind != "bandwidth"] == []

    def test_trusted_residencies_exempt_from_feeder_check(self, env):
        """A cache filled by a previous cycle's stream must be trustable."""
        _, _, cm = env
        req = Request(5.0, "v", "u1", "IS1")
        fs = FileSchedule("v")
        fs.add_delivery(DeliveryInfo("v", ("IS1",), 5.0, req))
        # sourced from IS2, but no IS2 stream exists in THIS schedule
        carryover = ResidencyInfo("v", "IS1", "IS2", 0.0, 5.0, ("u1",))
        fs.add_residency(carryover)
        schedule = Schedule([fs])
        batch = RequestBatch([req])
        vs = validate_schedule(schedule, batch, cm)
        assert any(v.kind == "causality" for v in vs)
        vs_trusted = validate_schedule(
            schedule, batch, cm, trusted_residencies=[carryover]
        )
        assert vs_trusted == []


class TestEndToEndValidation:
    def test_two_phase_output_always_validates(self):
        """The scheduler's final schedule passes every simulator check."""
        topo = paper_topology(
            nrate=units.per_gb(500),
            srate=units.per_gb_hour(5),
            capacity=units.gb(5),
        )
        catalog = paper_catalog(seed=3)
        batch = WorkloadGenerator(topo, catalog, alpha=0.271).generate(seed=3)
        result = VideoScheduler(topo, catalog).solve(batch)
        cm = CostModel(topo, catalog)
        assert validate_schedule(result.schedule, batch, cm) == []
