"""Integration tests: observability threaded through the whole pipeline.

The acceptance contract of the obs layer:

* a live handle never changes a bit of any schedule;
* deterministic metric families and span counts are identical across
  runs of a seeded batch, counter-exact and histogram-bucket-exact.
"""

import json

import pytest

from repro import (
    NULL_OBS,
    Observability,
    VideoScheduler,
    VORService,
    WorkloadGenerator,
    paper_catalog,
    paper_topology,
    units,
)
from repro.core.costmodel import CostModel
from repro.sim.engine import SimulationEngine


@pytest.fixture(scope="module")
def env():
    topo = paper_topology(
        nrate=units.per_gb(500),
        srate=units.per_gb_hour(5),
        capacity=units.gb(5),
    )
    catalog = paper_catalog(12, seed=3)
    batch = WorkloadGenerator(
        topo, catalog, users_per_neighborhood=2
    ).generate(seed=3)
    return topo, catalog, batch


def _solve(env, *, obs=None):
    topo, catalog, batch = env
    return VideoScheduler(topo, catalog, obs=obs).solve(batch)


class TestBitIdenticalSchedules:
    def test_obs_on_equals_obs_off(self, env):
        plain = _solve(env)
        observed = _solve(env, obs=Observability.on())
        assert observed.schedule == plain.schedule
        assert observed.cost == plain.cost
        assert observed.resolution.victims == plain.resolution.victims


class TestRunDeterminism:
    @pytest.fixture(scope="class")
    def runs(self, env):
        out = []
        for _ in range(2):
            obs = Observability.on()
            out.append((_solve(env, obs=obs), obs))
        return out

    def test_schedules_identical(self, runs):
        (first, _), (again, _) = runs
        assert again.schedule == first.schedule

    def test_deterministic_metric_families_identical(self, runs):
        first, again = (
            {k: v for k, v in obs.metrics.snapshot().items() if v["deterministic"]}
            for _, obs in runs
        )
        assert again == first

    def test_histograms_bucket_exact_across_runs(self, runs):
        first, again = (obs.metrics.snapshot() for _, obs in runs)
        assert first["vor_requests_per_video"]["values"]
        assert (
            again["vor_requests_per_video"]["values"]
            == first["vor_requests_per_video"]["values"]
        )

    def test_span_counts_identical(self, runs):
        first, again = (obs.tracer.counts() for _, obs in runs)
        for name in ("ivsp.video", "sorp", "sorp.round"):
            assert again[name] == first[name]

    def test_last_gauges_identical_across_runs(self, runs):
        # vor_schedule_cost_dollars is a mode="last" gauge set by the
        # facade once per solve
        first, again = (
            obs.metrics.snapshot()["vor_schedule_cost_dollars"]
            for _, obs in runs
        )
        assert first["values"]  # the facade populated it
        assert again == first

    def test_cache_eval_totals_deterministic(self, runs):
        # hits+misses per (cache, phase) counts Ψ evaluations and must
        # match exactly
        first, again = (
            obs.metrics.snapshot()["vor_psi_evaluations_total"]["values"]
            for _, obs in runs
        )
        assert again == first


class TestSpanTaxonomy:
    def test_solve_spans_nest(self, env):
        obs = Observability.on()
        _solve(env, obs=obs)
        by_name = {}
        for r in obs.tracer.records:
            by_name.setdefault(r.name, r)
        assert by_name["solve"].parent is None
        assert by_name["ivsp"].parent == "solve"
        assert by_name["ivsp.video"].parent == "ivsp"
        assert by_name["sorp"].parent == "solve"

    def test_phase_totals_cover_pipeline(self, env):
        obs = Observability.on()
        _solve(env, obs=obs)
        phases = obs.telemetry().phase_totals()
        for name in ("solve", "ivsp", "ivsp.video", "sorp", "overflow"):
            assert phases[name]["count"] >= 1
            assert phases[name]["total_seconds"] >= 0.0


class TestReportTelemetry:
    """Reports carry no telemetry copy: callers read ``obs.telemetry()``."""

    def test_cycle_report_attaches_telemetry(self, env):
        topo, catalog, _ = env
        obs = Observability.on()
        svc = VORService(topo, catalog, lead_time=0.0, obs=obs)
        svc.reserve("alice", "video0001", 5 * units.HOUR, local_storage="IS3")
        report = svc.close_cycle(cycle_end=units.DAY)
        assert not hasattr(report, "telemetry")
        telemetry = obs.telemetry()
        phases = telemetry.phase_totals()
        assert phases["close_cycle"]["count"] == 1
        for name in ("cycle", "ivsp", "billing", "validate"):
            assert name in phases
        assert (
            telemetry.metrics["vor_reservations_total"]["values"][0]["value"]
            == 1
        )

    def test_cycle_report_telemetry_none_by_default(self, env):
        topo, catalog, _ = env
        svc = VORService(topo, catalog, lead_time=0.0)
        svc.reserve("alice", "video0001", 5 * units.HOUR, local_storage="IS3")
        svc.close_cycle(cycle_end=units.DAY)
        assert svc.obs is NULL_OBS
        telemetry = svc.obs.telemetry()
        assert telemetry.metrics == {} and telemetry.spans == ()

    def test_simulation_report_telemetry(self, env):
        topo, catalog, batch = env
        result = _solve(env)
        obs = Observability.on()
        engine = SimulationEngine(CostModel(topo, catalog), obs=obs)
        report = engine.run(result.schedule)
        assert not hasattr(report, "telemetry")
        telemetry = obs.telemetry()
        assert telemetry.phase_totals()["simulate"]["count"] == 1
        snap = telemetry.metrics
        assert "vor_sim_events_total" in snap
        locations = {
            entry["labels"]["location"]
            for entry in snap["vor_storage_peak_reserved_bytes"]["values"]
        }
        assert locations == {s.name for s in topo.storages}


class TestCliTelemetry:
    @pytest.fixture
    def env_file(self, env, tmp_path):
        from repro.io import save_environment

        topo, catalog, batch = env
        path = tmp_path / "env.json"
        save_environment(path, topology=topo, catalog=catalog, batch=batch)
        return path

    def test_metrics_and_trace_out(self, env_file, tmp_path, capsys):
        from repro.cli import main

        metrics_path = tmp_path / "metrics.json"
        trace_path = tmp_path / "trace.jsonl"
        assert (
            main(
                [
                    "run-env",
                    str(env_file),
                    "--metrics-out",
                    str(metrics_path),
                    "--trace-out",
                    str(trace_path),
                ]
            )
            == 0
        )
        doc = json.loads(metrics_path.read_text())
        # per-phase wall-time spans, incl. the simulator replay
        for phase in ("ivsp", "sorp", "overflow", "simulate", "solve"):
            assert phase in doc["phases"], phase
            assert doc["phases"][phase]["total_seconds"] >= 0.0
        # route-table lookup counters per phase, table hit/miss series
        assert "vor_psi_evaluations_total" in doc["metrics"]
        labels = [
            entry["labels"]
            for entry in doc["metrics"]["vor_psi_evaluations_total"]["values"]
        ]
        assert all("cache" not in lab for lab in labels)
        # the solving model's result is not priced again: no costing pass
        assert {lab["phase"] for lab in labels} == {"sorp"}
        assert "vor_cost_cache_hits_total" in doc["metrics"]
        assert "vor_cost_cache_misses_total" in doc["metrics"]
        # per-IS peak storage gauges
        gauges = doc["metrics"]["vor_storage_peak_reserved_bytes"]["values"]
        assert {e["labels"]["location"] for e in gauges} >= {"IS1", "IS2"}
        # trace is one JSON object per line
        records = [
            json.loads(line) for line in trace_path.read_text().splitlines()
        ]
        assert any(r["name"] == "ivsp.video" for r in records)

    def test_prometheus_suffix(self, env_file, tmp_path, capsys):
        from repro.cli import main

        prom_path = tmp_path / "metrics.prom"
        assert (
            main(["run-env", str(env_file), "--metrics-out", str(prom_path)])
            == 0
        )
        text = prom_path.read_text()
        assert "# TYPE vor_deliveries_total counter" in text
        assert "vor_schedule_cost_dollars" in text

    def test_no_flags_no_files(self, env_file, tmp_path, capsys):
        from repro.cli import main

        assert main(["run-env", str(env_file)]) == 0
        assert not (tmp_path / "metrics.json").exists()
        assert not (tmp_path / "trace.jsonl").exists()
