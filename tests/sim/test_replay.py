"""The schedule replay against a reference computed from the schedule.

Every delivery starts and ends a stream and a service at ``start`` and
``start + P``; every residency opens at ``t_start``, starts its last
service at ``t_last`` and releases at ``t_last + P``.  The replay's
counts, makespan, ``vor_sim_events_total`` children and ``simulate``
span must match those instants exactly.  A validation replays once, with
or without a fault plan.
"""

from collections import Counter

import pytest

from repro import (
    CostModel,
    FaultPlan,
    Observability,
    Topology,
    VideoScheduler,
    WorkloadGenerator,
    paper_catalog,
    paper_topology,
    units,
)
from repro.extensions import BandwidthAwareScheduler
from repro.sim import SimulationEngine, fault_violations, validate_schedule
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
