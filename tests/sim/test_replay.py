"""The schedule replay against a reference computed from the schedule.

Every delivery starts and ends a stream and a service at ``start`` and
``start + P``; every residency opens at ``t_start``, starts its last
service at ``t_last`` and releases at ``t_last + P``.  The replay's
counts, makespan, ``vor_sim_events_total`` children and ``simulate``
span must match those instants exactly.  A validation replays once, with
or without a fault plan.  The fluid and link loads the replay builds on
first read equal timelines built eagerly from the schedule, and a
validation builds only the timelines its checks read.
"""

from collections import Counter

import numpy as np
import pytest

from repro import (
    CostModel,
    FaultKind,
    FaultPlan,
    FaultSpec,
    Observability,
    Topology,
    VideoScheduler,
    WorkloadGenerator,
    paper_catalog,
    paper_topology,
    units,
)
from repro.core.schedule import FileSchedule, ResidencyInfo, Schedule
from repro.core.spacefunc import (
    LinearSegment,
    SpaceProfile,
    UsageTimeline,
    residency_profile,
)
from repro.errors import ScheduleError
from repro.extensions import BandwidthAwareScheduler
from repro.sim import (
    SimulationEngine,
    fault_violations,
    fluid_occupancy_profile,
    validate_schedule,
)
from repro.workload.requests import RequestBatch


def _drill_env():
    """The CI fault-drill environment, solved."""
    topo = paper_topology(
        nrate=units.per_gb(500),
        srate=units.per_gb_hour(5),
        capacity=units.gb(5),
    )
    catalog = paper_catalog(60, seed=4)
    batch = WorkloadGenerator(topo, catalog, alpha=0.271).generate(seed=4)
    schedule = VideoScheduler(topo, catalog).solve(batch).schedule
    return CostModel(topo, catalog), batch, schedule


def _capped_env():
    """The drill topology with every link capped at 30 Mbps."""
    base = paper_topology(
        nrate=units.per_gb(500),
        srate=units.per_gb_hour(5),
        capacity=units.gb(5),
    )
    topo = Topology()
    topo.add_warehouse(base.warehouse.name)
    for s in base.storages:
        topo.add_storage(s.name, srate=s.srate, capacity=s.capacity)
    for e in base.edges:
        topo.add_edge(e.a, e.b, nrate=e.nrate, bandwidth=units.mbps(30))
    catalog = paper_catalog(60, seed=4)
    batch = WorkloadGenerator(topo, catalog, alpha=0.271).generate(seed=4)
    result = BandwidthAwareScheduler(topo, catalog).solve(batch)
    served = {d.request for d in result.schedule.deliveries}
    return (
        CostModel(topo, catalog),
        RequestBatch(r for r in batch if r in served),
        result.schedule,
    )


ENVS = {"drill": _drill_env, "capped": _capped_env}


@pytest.fixture(scope="module", params=sorted(ENVS))
def env(request):
    return ENVS[request.param]()


def _reference(schedule, catalog) -> tuple[Counter, list[float]]:
    """Event kinds and sorted event times of the schedule's replay."""
    kinds: Counter = Counter()
    times: list[float] = []
    for fs in schedule:
        playback = catalog[fs.video_id].playback
        for d in fs.deliveries:
            t0, t1 = d.start_time, d.start_time + playback
            kinds.update(
                ("stream_start", "stream_end", "service_start", "service_end")
            )
            times += [t0, t1, t0, t1]
        for c in fs.residencies:
            kinds.update(("cache_open", "cache_last_service", "cache_release"))
            times += [c.t_start, c.t_last, c.t_last + playback]
    return kinds, sorted(times)


class TestReplayEquivalence:
    def test_counts_and_makespan(self, env):
        cm, _, schedule = env
        kinds, times = _reference(schedule, cm.catalog)
        report = SimulationEngine(cm).run(schedule)
        assert report.n_streams == len(schedule.deliveries)
        assert report.n_residencies == len(schedule.residencies) > 0
        assert report.n_events == len(times)
        assert report.events_by_kind() == dict(kinds)
        assert report.makespan == (times[0], times[-1])

    def test_metrics_and_span(self, env):
        cm, _, schedule = env
        kinds, times = _reference(schedule, cm.catalog)
        obs = Observability.on()
        SimulationEngine(cm, obs=obs).run(schedule)
        values = obs.metrics.snapshot()["vor_sim_events_total"]["values"]
        assert {e["labels"]["kind"]: e["value"] for e in values} == dict(kinds)
        (span,) = obs.tracer.records
        assert span.name == "simulate"
        assert dict(span.attrs) == {
            "deliveries": len(schedule.deliveries),
            "residencies": len(schedule.residencies),
            "events": len(times),
        }


class TestOneReplayPerValidation:
    @pytest.fixture
    def runs(self, monkeypatch):
        calls = []
        original = SimulationEngine._run

        def counting(engine, *args):
            calls.append(args)
            return original(engine, *args)

        monkeypatch.setattr(SimulationEngine, "_run", counting)
        return calls

    @staticmethod
    def _plan(cm, batch):
        t0, t1 = batch.span
        tail = max(v.playback for v in cm.catalog)
        return FaultPlan.generate(
            cm.topology, seed=3, horizon=(t0, t1 + tail), n_faults=3
        )

    def test_validation_under_faults_replays_once(self, env, runs):
        cm, batch, schedule = env
        validate_schedule(schedule, batch, cm, faults=self._plan(cm, batch))
        assert len(runs) == 1

    def test_validation_without_faults_replays_once(self, env, runs):
        cm, batch, schedule = env
        validate_schedule(schedule, batch, cm)
        assert len(runs) == 1

    def test_shared_replay_classifies_like_its_own(self, env):
        cm, batch, schedule = env
        plan = self._plan(cm, batch)
        validated = validate_schedule(schedule, batch, cm, faults=plan)
        own = fault_violations(schedule, cm, plan)
        assert [v for v in validated if v.kind.startswith("fault-")] == own


def _eager_loads(schedule, cm):
    """Fluid and link timelines built eagerly, in schedule order."""
    fluid: dict[str, list] = {s.name: [] for s in cm.topology.storages}
    links: dict[tuple[str, str], list] = {}
    for fs in schedule:
        video = cm.catalog[fs.video_id]
        bw = video.bandwidth
        for d in fs.deliveries:
            t0, t1 = d.start_time, d.start_time + video.playback
            for a, b in zip(d.route, d.route[1:]):
                links.setdefault(tuple(sorted((a, b))), []).append(
                    SpaceProfile((LinearSegment(t0, t1, bw, bw),))
                )
        for c in fs.residencies:
            fluid[c.location].append(
                fluid_occupancy_profile(
                    video.size, video.playback, c.t_start, c.t_last
                )
            )
    return (
        {k: UsageTimeline(v) for k, v in fluid.items()},
        {k: UsageTimeline(v) for k, v in links.items()},
    )


def _assert_same_timeline(lazy: UsageTimeline, eager: UsageTimeline) -> None:
    assert np.array_equal(lazy.grid, eager.grid)
    for t in eager.grid.tolist():
        assert lazy.value(t) == eager.value(t)
        assert lazy.value_left(t) == eager.value_left(t)
    assert lazy.peak == eager.peak


def _gauge(snapshot, name: str, label: str) -> dict:
    return {e["labels"][label]: e["value"] for e in snapshot[name]["values"]}


class TestLazyLoads:
    def test_loads_equal_eager_timelines(self, env):
        cm, _, schedule = env
        fluid, links = _eager_loads(schedule, cm)
        report = SimulationEngine(cm).run(schedule)
        assert report.storages.keys() == fluid.keys()
        assert report.links.keys() == links.keys()
        for name, load in report.storages.items():
            _assert_same_timeline(load.fluid, fluid[name])
            assert load.fluid_peak == fluid[name].peak
        for key, load in report.links.items():
            _assert_same_timeline(load.timeline, links[key])
            assert load.peak == links[key].peak

    def test_peak_gauges_equal_eager_peaks(self, env):
        cm, _, schedule = env
        fluid, links = _eager_loads(schedule, cm)
        obs = Observability.on()
        SimulationEngine(cm, obs=obs).run(schedule)
        snap = obs.metrics.snapshot()
        assert _gauge(snap, "vor_storage_peak_fluid_bytes", "location") == {
            name: tl.peak for name, tl in fluid.items()
        }
        assert _gauge(snap, "vor_link_peak_bytes_per_second", "link") == {
            f"{a}-{b}": tl.peak for (a, b), tl in links.items()
        }

    @pytest.mark.parametrize(
        "size, playback, t_start, t_last",
        [
            (0.0, 10.0, 0.0, 5.0),
            (-1.0, 10.0, 0.0, 5.0),
            (100.0, 0.0, 0.0, 5.0),
            (100.0, -10.0, 0.0, 5.0),
            (100.0, 10.0, 5.0, 0.0),
        ],
    )
    def test_eq6_profile_rejects_what_fluid_rejects(
        self, size, playback, t_start, t_last
    ):
        """The replay builds Eq. 6 profiles eagerly, so it still rejects
        every residency the deferred fluid profile would."""
        with pytest.raises(ScheduleError):
            fluid_occupancy_profile(size, playback, t_start, t_last)
        with pytest.raises(ScheduleError):
            residency_profile(size, playback, t_start, t_last)

    def test_replay_rejects_malformed_residency(self, env):
        cm, _, schedule = env
        c = schedule.residencies[0]
        bad = ResidencyInfo(
            c.video_id, c.location, c.source, c.t_start, c.t_last
        )
        object.__setattr__(bad, "t_last", c.t_start - 1.0)  # reversed
        fs = FileSchedule(c.video_id)
        fs.add_residency(bad)
        with pytest.raises(ScheduleError):
            SimulationEngine(cm).run(Schedule([fs]))


class TestValidationBuildsWhatItReads:
    """A validation builds the Eq. 6 timeline of every storage, the link
    timelines its bandwidth check reads (finite capacity only) and, under
    a fault plan, those of the links a fault downs or degrades."""

    @pytest.fixture
    def builds(self, monkeypatch):
        built = []
        original = UsageTimeline.__init__

        def counting(timeline, *args, **kwargs):
            built.append(timeline)
            original(timeline, *args, **kwargs)

        monkeypatch.setattr(UsageTimeline, "__init__", counting)
        return built

    def test_uncapped_builds_one_per_storage(self, builds):
        cm, batch, schedule = _drill_env()
        builds.clear()
        assert validate_schedule(schedule, batch, cm) == []
        assert len(builds) == len(cm.topology.storages)

    def test_capped_also_builds_one_per_used_link(self, builds):
        cm, batch, schedule = _capped_env()
        used = len(SimulationEngine(cm).run(schedule).links)
        assert used > 0
        builds.clear()
        assert validate_schedule(schedule, batch, cm) == []
        assert len(builds) == len(cm.topology.storages) + used

    def test_fault_plan_builds_only_faulted_links(self, builds):
        cm, batch, schedule = _drill_env()
        report = SimulationEngine(cm).run(schedule)
        down, degraded = list(report.links)[:2]
        t0, t1 = batch.span
        plan = FaultPlan((
            FaultSpec(FaultKind.LINK_DOWN, down, t0, t1),
            # uncapped: a degraded fraction of infinity is not judged
            FaultSpec(FaultKind.LINK_DEGRADED, degraded, t0, t1, severity=0.5),
            FaultSpec(
                FaultKind.CAPACITY_SHRINK, cm.topology.storages[0].name,
                t0, t1, severity=0.5,
            ),
        ))
        builds.clear()
        validate_schedule(schedule, batch, cm, faults=plan)
        assert len(builds) == len(cm.topology.storages) + 1
