"""Pure performance benchmarks of the scheduler itself.

Not a paper artifact: tracks the runtime of the two-phase solve at the
paper's scale and of its building blocks, so regressions in the hot paths
(routing, greedy pricing, overflow sweeps) are caught by
``pytest benchmarks/ --benchmark-only``.

Also runs standalone as the scheduler report::

    PYTHONPATH=src python benchmarks/bench_scheduler_perf.py [--quick]
        [--videos N] [--json-out BENCH_phase1.json]

which times Phase 1 over a 500-video batch (``--quick``: 60 videos) and
reports the route-table hit rate of a full solve.  ``--json-out``
additionally writes the whole report as machine-readable JSON (wall
times, route-table hit rates, schedule Ψ) so CI can archive it as an
artifact and diff runs over time.

``--compare BASELINE.json`` checks the run against a committed baseline
report (see ``benchmarks/BENCH_phase1.json``): the deterministic outputs
(Ψ totals, overflow iterations, warehouse-loss recovery outcome) must
match bit-for-bit and the configurations must agree, else the process
exits 2.  Wall-clock numbers are printed for context but never gate --
they depend on the machine.

Beyond Phase 1, the report also times Phase 2 (a standalone SORP pass
over the greedy schedule) and runs a seeded warehouse-loss drill on a
replicated two-warehouse copy of the paper topology, recording recovery
latency plus the deterministic saved/lost/Ψ-delta outcome.

The scale sweep solves 380, 950 and 1,520 requests on the 5 GB paper
topology, whatever the flags, gating each point's SORP rounds, victims
and trial work (trials run, reused, revalidated and resumed; requests
kept and served) and recording its wall time and the wall time of a
separate Phase-1 run (best of 3, printed per request) as a non-gating
trajectory.

The recovery sweep recovers 20 seeded 3-fault plans on the CI
fault-drill environment, whatever the flags, gating the recoveries that
raise, the recoveries left with degraded-replay violations, the
violations by kind, and the requests lost.  A second sweep gates the same
keys on 20 seeded 6-fault plans of warehouse losses, outages and shrinks,
on the environment with a second warehouse and heat-placed replicas.

Finally an online amendment drill replays a seeded fault feed (with one
injected transient failure) through the
:class:`~repro.online.OnlineAmendmentLoop`, recording amendment latency
plus the deterministic batch/retry/shed counters and the requests a
recovery of the feed's whole plan loses.

The multi-cycle horizon drill replays the committed
``benchmarks/scenarios/rush_hour_brownout.jsonl`` feed through a 3-cycle
:class:`~repro.horizon.HorizonOrchestrator` on the shrunken-cache
two-warehouse topology, gating the migration decisions, the per-cycle
Ψ trajectory, the resume/restart split, and the migrating-vs-frozen
horizon-total Ψ comparison -- migration must never cost more than the
frozen replica map, staging included.

The admission-gateway drill replays the committed
``benchmarks/scenarios/flash_crowd.jsonl`` booking spike through the
:class:`~repro.gateway.ReservationGateway` under a tight backpressure
envelope (batch 60, queue 8), gating the admitted/rejected/shed split,
the admission ratio, and the quote-vs-realized Ψ error.
"""

import argparse
import json
import sys
import time

import pytest

from repro import (
    CostModel,
    IndividualScheduler,
    ParallelIndividualScheduler,
    VideoScheduler,
    WorkloadGenerator,
    paper_catalog,
    paper_topology,
    units,
)
from repro.core.overflow import detect_overflows
from repro.topology.generators import PAPER_STORAGE_COUNT
from repro.core.spacefunc import UsageTimeline, residency_profile


@pytest.fixture(scope="module")
def env():
    topo = paper_topology(
        nrate=units.per_gb(500),
        srate=units.per_gb_hour(5),
        capacity=units.gb(5),
    )
    catalog = paper_catalog(seed=4)
    batch = WorkloadGenerator(topo, catalog, alpha=0.271).generate(seed=4)
    return topo, catalog, batch


def test_bench_two_phase_solve(benchmark, env):
    topo, catalog, batch = env
    scheduler = VideoScheduler(topo, catalog)
    result = benchmark(lambda: scheduler.solve(batch))
    assert len(result.schedule.deliveries) == len(batch)


def test_bench_phase1_only(benchmark, env):
    topo, catalog, batch = env
    cm = CostModel(topo, catalog)
    greedy = IndividualScheduler(cm)
    schedule = benchmark(lambda: greedy.solve(batch))
    assert len(schedule.deliveries) == len(batch)


def test_bench_overflow_detection(benchmark, env):
    topo, catalog, batch = env
    cm = CostModel(topo, catalog)
    schedule = IndividualScheduler(cm).solve(batch)
    benchmark(lambda: detect_overflows(schedule, catalog, topo))


def test_bench_usage_timeline_sweep(benchmark):
    profiles = [
        residency_profile(2.5e9, 5400.0, float(i * 600), float(i * 600 + 7200))
        for i in range(200)
    ]
    tl = benchmark(lambda: UsageTimeline(profiles))
    assert tl.peak > 0


# -- standalone report --------------------------------------------------------


#: Baseline keys that must match bit-for-bit: pure functions of the seeded
#: workload, independent of the machine.
_DETERMINISTIC_SOLVE_KEYS = (
    "psi_total_dollars",
    "psi_network_dollars",
    "psi_storage_dollars",
    "overflow_iterations",
)
#: Config keys that define the workload a baseline was taken against.
_CONFIG_KEYS = ("n_videos", "n_requests", "users_per_neighborhood", "quick")
#: Recovery-drill keys that must match bit-for-bit: the warehouse-loss
#: outcome is a pure function of the seeded workload and replica map.
_DETERMINISTIC_RECOVERY_KEYS = (
    "requests_saved",
    "requests_lost",
    "impacted_videos",
    "psi_delta_dollars",
)
#: Online-drill keys that must match bit-for-bit: the amendment loop's
#: trajectory is a pure function of (feed seed, injected failures).
_DETERMINISTIC_ONLINE_KEYS = (
    "feed_events",
    "batches",
    "batches_amended",
    "retries",
    "failures_injected",
    "requests_lost_windowed",
)
#: SLO indicators that must match bit-for-bit: ratios of deterministic
#: counters (latency indicators stay outside the gate).
_DETERMINISTIC_SLO_KEYS = (
    "deadline_hit_rate",
    "rejection_rate",
    "amendment_failure_rate",
    "shed_rate",
)
#: Horizon-drill keys that must match bit-for-bit: the multi-cycle
#: trajectory is a pure function of (workload seed, committed feed).
_DETERMINISTIC_HORIZON_KEYS = (
    "cycles",
    "migrations_accepted",
    "migrations_rejected",
    "staging_dollars",
    "resumed",
    "restarted",
    "resume_credit_dollars",
    "carried_events",
    "psi_trajectory",
    "psi_total_dollars",
    "psi_frozen_dollars",
)
#: Gateway-drill keys that must match bit-for-bit: the intake trajectory
#: is a pure function of the committed feed and the backpressure envelope.
_DETERMINISTIC_GATEWAY_KEYS = (
    "bookings_offered",
    "bookings_admitted",
    "bookings_rejected",
    "bookings_shed",
    "cycles_sealed",
    "admission_ratio",
    "shed_rate",
    "quote_error",
    "quote_total_dollars",
    "realized_total_dollars",
)
#: SORP trial work counters: pure functions of the workload.
_SORP_WORK_KEYS = (
    "trials_run",
    "trials_reused",
    "trials_revalidated",
    "trials_resumed",
    "serves_kept",
    "serves_served",
)
#: Standalone-SORP keys that must match bit-for-bit: the round count and
#: the trial work counters.
_DETERMINISTIC_SORP_KEYS = ("iterations", *_SORP_WORK_KEYS)
#: Request counts of the scale sweep: full two-phase solves on the 5 GB
#: paper topology, whatever ``--quick`` or ``--videos`` say.
_SCALE_REQUESTS = (380, 950, 1520)
#: Scale-point keys that must match bit-for-bit; wall times never gate.
_DETERMINISTIC_SCALE_KEYS = ("rounds", "victims", *_SORP_WORK_KEYS)
#: Plan seeds of the recovery sweep: generated 3-fault plans on the
#: CI fault-drill environment, whatever ``--quick`` or ``--videos`` say.
_STANCE_PLAN_SEEDS = range(20)
#: Stance-sweep keys that must match bit-for-bit.
_DETERMINISTIC_STANCE_KEYS = ("raised", "invalid", "violations", "requests_lost")
#: Every gated report section -- (path of nested keys, keys that must
#: match the baseline bit-for-bit).
_GATED_SECTIONS = (
    (("solve",), _DETERMINISTIC_SOLVE_KEYS),
    (("recovery",), _DETERMINISTIC_RECOVERY_KEYS),
    (("online",), _DETERMINISTIC_ONLINE_KEYS),
    (("online", "slo"), _DETERMINISTIC_SLO_KEYS),
    (("horizon",), _DETERMINISTIC_HORIZON_KEYS),
    (("gateway",), _DETERMINISTIC_GATEWAY_KEYS),
    (("sorp",), _DETERMINISTIC_SORP_KEYS),
    *((("scale", str(n)), _DETERMINISTIC_SCALE_KEYS) for n in _SCALE_REQUESTS),
    *(
        ((section, "windowed"), _DETERMINISTIC_STANCE_KEYS)
        for section in ("stances", "stances_replicated")
    ),
)


def compare_reports(baseline: dict, current: dict) -> list[str]:
    """Differences between a baseline report and the current run.

    Returns human-readable mismatch lines (empty = pass).  Only the
    deterministic keys of :data:`_GATED_SECTIONS` gate, after checking the
    two runs solved the same workload.  Timing fields are ignored.
    """
    problems: list[str] = []
    if baseline.get("benchmark") != current.get("benchmark"):
        problems.append(
            f"benchmark name differs: baseline "
            f"{baseline.get('benchmark')!r} vs {current.get('benchmark')!r}"
        )
        return problems
    b_cfg, c_cfg = baseline.get("config", {}), current.get("config", {})
    for key in _CONFIG_KEYS:
        if b_cfg.get(key) != c_cfg.get(key):
            problems.append(
                f"config.{key} differs: baseline {b_cfg.get(key)!r} vs "
                f"{c_cfg.get(key)!r} (re-record the baseline or rerun with "
                "matching flags)"
            )
    if problems:
        return problems
    for path, keys in _GATED_SECTIONS:
        b_sec, c_sec = baseline, current
        for name in path:
            b_sec, c_sec = b_sec.get(name, {}), c_sec.get(name, {})
        label = ".".join(path)
        for key in keys:
            if b_sec.get(key) != c_sec.get(key):
                problems.append(
                    f"{label}.{key} regressed: baseline {b_sec.get(key)!r} vs "
                    f"{c_sec.get(key)!r}"
                )
    return problems


def _build_env(n_videos: int, users: int):
    topo = paper_topology(
        nrate=units.per_gb(500),
        srate=units.per_gb_hour(5),
        capacity=units.gb(5),
    )
    catalog = paper_catalog(n_videos=n_videos, seed=4)
    batch = WorkloadGenerator(
        topo, catalog, alpha=0.271, users_per_neighborhood=users
    ).generate(seed=4)
    return topo, catalog, batch


def _sorp_work(metrics) -> dict:
    """``trials_<outcome>`` and ``serves_<part>`` counts of a metrics
    registry that saw one SORP run."""
    labels = {
        "vor_sorp_trials_total": ("trials", "outcome"),
        "vor_sorp_trial_serves_total": ("serves", "part"),
    }
    return {
        f"{labels[fam.name][0]}_{dict(key)[labels[fam.name][1]]}": child.value
        for fam in metrics.families()
        if fam.name in labels
        for key, child in fam.children.items()
    }


def _time_sorp(topo, catalog, batch, repeats):
    """Best-of-N wall time of a standalone Phase-2 (SORP) pass, with its
    round count and trial work (read from the run's metrics registry)."""
    from repro import resolve_overflows
    from repro.obs import NULL_TRACER, MetricsRegistry, Observability

    best = float("inf")
    for _ in range(repeats):
        cm = CostModel(topo, catalog)
        phase1 = ParallelIndividualScheduler(cm).run(batch).schedule
        obs = Observability(MetricsRegistry(), NULL_TRACER)
        t0 = time.perf_counter()
        _, stats = resolve_overflows(phase1, batch, cm, obs=obs)
        best = min(best, time.perf_counter() - t0)
    return {
        "wall_time_seconds": best,
        "iterations": stats.iterations,
        **_sorp_work(obs.metrics),
    }


def _scale_sweep() -> dict:
    """One two-phase solve per :data:`_SCALE_REQUESTS` point on the 5 GB
    paper topology (500-video catalog): SORP rounds, victims and trial
    work, which gate, plus the solve's wall time and the best-of-3 wall
    time of a separate Phase-1 run on the same batch, which do not."""
    from repro.obs import NULL_TRACER, MetricsRegistry, Observability

    points = {}
    for n in _SCALE_REQUESTS:
        users, rest = divmod(n, PAPER_STORAGE_COUNT)
        assert rest == 0, f"{n} requests do not split over the storages"
        topo, catalog, batch = _build_env(500, users)
        phase1 = _time_phase1(topo, catalog, batch, 3)
        obs = Observability(MetricsRegistry(), NULL_TRACER)
        t0 = time.perf_counter()
        result = VideoScheduler(topo, catalog, obs=obs).solve(batch)
        wall = time.perf_counter() - t0
        points[str(n)] = {
            "rounds": result.resolution.iterations,
            "victims": len(result.resolution.victims),
            **_sorp_work(obs.metrics),
            "wall_time_seconds": wall,
            "phase1_wall_time_seconds": phase1,
        }
    return points


def _recovery_drill(n_videos: int, users: int):
    """Seeded warehouse-loss drill on a replicated paper topology.

    A second warehouse is grafted onto the IS7 leaf cluster, every video
    is full-copy replicated, and the original warehouse is then lost for
    the whole horizon.  The outcome (saved/lost/Ψ-delta) is deterministic;
    the recovery wall time is the latency metric.
    """
    from repro import (
        ContingencyScheduler,
        FaultKind,
        FaultPlan,
        FaultSpec,
        ReplicaMap,
    )

    topo = paper_topology(
        nrate=units.per_gb(500),
        srate=units.per_gb_hour(5),
        capacity=units.gb(5),
    )
    topo.add_warehouse("VW2")
    topo.add_edge("IS7", "VW2", nrate=units.per_gb(500))
    catalog = paper_catalog(n_videos=n_videos, seed=4)
    batch = WorkloadGenerator(
        topo, catalog, alpha=0.271, users_per_neighborhood=users
    ).generate(seed=4)
    replicas = ReplicaMap.full_copy(topo, catalog)
    scheduler = VideoScheduler(topo, catalog, replicas=replicas)
    result = scheduler.solve(batch)
    t_lo, t_hi = batch.span
    plan = FaultPlan(
        (FaultSpec(FaultKind.WAREHOUSE_LOSS, "VW", t_lo, t_hi + 1.0),),
        name="bench-warehouse-loss",
        seed=4,
    )
    t0 = time.perf_counter()
    rec = ContingencyScheduler(scheduler.cost_model).recover(result, plan)
    wall = time.perf_counter() - t0
    return {
        "requests_saved": rec.requests_saved,
        "requests_lost": rec.requests_lost,
        "impacted_videos": rec.videos_resolved,
        "psi_delta_dollars": rec.cost_delta,
        "wall_time_seconds": wall,
    }


def _stance_sweep(replicated: bool = False) -> dict:
    """Recovery over :data:`_STANCE_PLAN_SEEDS` on the CI fault-drill
    environment (60 videos, seed 4, 5 GB caches): generated
    3-fault plans, or with ``replicated`` 6-fault plans of warehouse
    losses, outages and shrinks on the environment with a second
    warehouse behind IS7 and heat-placed replicas.

    Under ``"windowed"``: recoveries that raise, recoveries whose patched
    schedule has a violation under the plan's degraded replay, the
    violations by kind, and the requests lost -- all of which gate -- plus
    the sweep's wall time, which does not.
    """
    from collections import Counter

    from repro import ReplicaMap
    from repro.errors import ReproError
    from repro.faults import ContingencyScheduler, FaultKind, FaultPlan
    from repro.sim.validate import validate_schedule
    from repro.workload.requests import RequestBatch

    topo = paper_topology(
        nrate=units.per_gb(500),
        srate=units.per_gb_hour(5),
        capacity=units.gb(5),
    )
    if replicated:
        topo.add_warehouse("VW2")
        topo.add_edge("IS7", "VW2", nrate=units.per_gb(500))
    catalog = paper_catalog(60, seed=4)
    batch = WorkloadGenerator(topo, catalog, alpha=0.271).generate(seed=4)
    replicas = (
        ReplicaMap.heat_placement(topo, catalog, batch) if replicated else None
    )
    scheduler = VideoScheduler(topo, catalog, replicas=replicas)
    solved = scheduler.solve(batch)
    cm = scheduler.cost_model
    t_lo, t_hi = batch.span
    horizon = (t_lo, t_hi + max(v.playback for v in catalog))
    kinds = (
        (FaultKind.WAREHOUSE_LOSS, FaultKind.IS_OUTAGE, FaultKind.CAPACITY_SHRINK)
        if replicated
        else None
    )
    plans = [
        FaultPlan.generate(
            topo, seed=seed, horizon=horizon, n_faults=6 if replicated else 3,
            kinds=kinds,
        )
        for seed in _STANCE_PLAN_SEEDS
    ]
    raised = invalid = lost = 0
    kinds: Counter = Counter()
    t0 = time.perf_counter()
    for plan in plans:
        try:
            rec = ContingencyScheduler(cm).recover(solved, plan)
        except ReproError:
            raised += 1
            continue
        dropped = set(rec.lost)
        surviving = RequestBatch(r for r in batch if r not in dropped)
        violations = validate_schedule(rec.schedule, surviving, cm, faults=plan)
        invalid += bool(violations)
        kinds.update(v.kind for v in violations)
        lost += rec.requests_lost
    return {
        "windowed": {
            "raised": raised,
            "invalid": invalid,
            "violations": dict(sorted(kinds.items())),
            "requests_lost": lost,
            "wall_time_seconds": time.perf_counter() - t0,
        }
    }


def _online_drill(n_videos: int, users: int):
    """Seeded online-amendment drill on the paper topology.

    Replays a generated fault feed (feed seed 7, with an IS outage)
    through the online loop with one injected transient failure.  The loop
    trajectory and the recovered schedule are deterministic; the amendment
    wall time is the latency metric.  Also recovers the original schedule
    around the feed's whole plan to record the requests it loses.
    """
    from repro import VORService
    from repro.faults import ContingencyScheduler, FaultFeed
    from repro.obs.slo import deterministic_slice, online_indicators
    from repro.online import (
        OnlineAmendmentLoop,
        OnlineLoopConfig,
        TransientFailureInjector,
    )

    topo, catalog, batch = _build_env(n_videos, users)
    service = VORService(topo, catalog, lead_time=0.0)
    for r in batch:
        service.reserve(
            r.user_id, r.video_id, r.start_time,
            local_storage=r.local_storage, now=0.0,
        )
    t_lo, t_hi = batch.span
    report = service.close_cycle(cycle_end=t_hi)
    feed = FaultFeed.generate(
        topo,
        seed=7,
        horizon=(t_lo, t_hi + max(v.playback for v in catalog)),
        n_events=4,
    )
    loop = OnlineAmendmentLoop(
        service,
        OnlineLoopConfig(max_retries=2, backoff_base=0.0),
        failure_injector=TransientFailureInjector({0: 1}),
    )
    t0 = time.perf_counter()
    run = loop.run(feed, report)
    wall = time.perf_counter() - t0
    amend_times = [rec.duration_s for rec in run.records if rec.duration_s]

    rec = ContingencyScheduler(CostModel(topo, catalog)).recover(
        report.cycle, run.plan
    )
    return {
        "feed_events": run.events_total,
        "batches": run.batches_total,
        "batches_amended": run.amended,
        "retries": run.retries_total,
        "failures_injected": run.failures_injected,
        "requests_lost_windowed": rec.requests_lost,
        "wall_time_seconds": wall,
        "amendment_seconds_max": max(amend_times, default=0.0),
        "amendment_seconds_mean": (
            sum(amend_times) / len(amend_times) if amend_times else 0.0
        ),
        "slo": deterministic_slice(
            online_indicators(run, reservations=len(batch))
        ),
    }


def _horizon_drill(n_videos: int, users: int):
    """Multi-cycle horizon drill on the rush-hour-brownout scenario.

    Shrinks the neighborhood caches to 3 GB (a demand spike the caches
    cannot absorb -- the regime where staged replicas pay for
    themselves), grafts a second warehouse behind IS15, and replays the
    committed boundary-straddling brownout feed through a 3-cycle
    horizon twice: once with the migration planner live, once with the
    replica map frozen.  Everything but the wall time is deterministic.
    """
    from pathlib import Path

    from repro import ReplicaMap
    from repro.faults import FaultFeed
    from repro.horizon import (
        HorizonConfig,
        HorizonOrchestrator,
        generate_drifting_cycles,
    )

    topo = paper_topology(
        nrate=units.per_gb(500),
        srate=units.per_gb_hour(5),
        capacity=units.gb(3),
    )
    topo.add_warehouse("VW2")
    topo.add_edge("IS15", "VW2", nrate=units.per_gb(100))
    catalog = paper_catalog(n_videos=n_videos, seed=4)
    cycles = generate_drifting_cycles(
        topo, catalog, cycles=3, cycle_length=units.DAY, seed=4, churn=0.5,
        users_per_neighborhood=users,
    )
    replicas = ReplicaMap.heat_placement(
        topo, catalog, cycles[0][0], degree=1, seed=0
    )
    feed = FaultFeed.load(
        Path(__file__).parent / "scenarios" / "rush_hour_brownout.jsonl"
    )
    t0 = time.perf_counter()
    report = HorizonOrchestrator(topo, catalog, replicas=replicas).run(
        cycles, feed=feed
    )
    wall = time.perf_counter() - t0
    frozen = HorizonOrchestrator(
        topo, catalog, replicas=replicas,
        config=HorizonConfig(migration=None),
    ).run(cycles, feed=feed)
    assert report.total_psi <= frozen.total_psi + 1e-6, (
        "migration raised horizon-total psi!"
    )
    return {
        "cycles": len(report.cycles),
        "migrations_accepted": report.migrations_accepted,
        "migrations_rejected": report.migrations_rejected,
        "staging_dollars": round(report.staging_cost, 6),
        "resumed": report.resumed,
        "restarted": report.restarted,
        "resume_credit_dollars": round(report.resume_credit, 6),
        "carried_events": sum(c.carried_events for c in report.cycles),
        "psi_trajectory": [round(p, 6) for p in report.psi_trajectory],
        "psi_total_dollars": round(report.total_psi, 6),
        "psi_frozen_dollars": round(frozen.total_psi, 6),
        "wall_time_seconds": wall,
    }


def _gateway_drill():
    """Admission-gateway drill on the committed flash-crowd spike.

    Replays ``scenarios/flash_crowd.jsonl`` (a slotted booking spike on
    the 60-video paper environment -- the feed embeds its video ids, so
    the drill always builds that environment regardless of ``--videos``)
    through the gateway with a batch of 60 and a queue of 8: the spike
    must overflow into shedding.  Everything but the wall time is
    deterministic.
    """
    from pathlib import Path

    from repro import (
        GatewayConfig,
        RequestFeed,
        ReservationGateway,
        VORService,
    )

    topo = paper_topology(
        nrate=units.per_gb(500),
        srate=units.per_gb_hour(5),
        capacity=units.gb(5),
    )
    catalog = paper_catalog(n_videos=60, seed=4)
    feed = RequestFeed.load(
        Path(__file__).parent / "scenarios" / "flash_crowd.jsonl"
    )
    gateway = ReservationGateway(
        VORService(topo, catalog),
        config=GatewayConfig(max_batch=60, queue_depth=8),
    )
    t0 = time.perf_counter()
    run = gateway.run(
        feed, boundaries=[max(feed.span[1], feed.showing_span[1])]
    )
    wall = time.perf_counter() - t0
    assert run.shed > 0, "flash crowd did not trigger shedding!"
    assert run.feasible, "gateway drill sealed an infeasible cycle!"
    return {
        "bookings_offered": run.offered,
        "bookings_admitted": run.admitted,
        "bookings_rejected": dict(run.rejected),
        "bookings_shed": run.shed,
        "cycles_sealed": len(run.cycles),
        "admission_ratio": round(run.admission_ratio, 6),
        "shed_rate": round(run.shed_rate, 6),
        "quote_error": round(run.quote_error, 6),
        "quote_total_dollars": round(
            sum(c.quote_total for c in run.cycles), 6
        ),
        "realized_total_dollars": round(
            sum(c.realized_total for c in run.cycles), 6
        ),
        "wall_time_seconds": wall,
    }


def _time_phase1(topo, catalog, batch, repeats):
    """Best-of-N wall time of one Phase-1 run."""
    best = float("inf")
    for _ in range(repeats):
        engine = ParallelIndividualScheduler(CostModel(topo, catalog))
        t0 = time.perf_counter()
        engine.run(batch)
        best = min(best, time.perf_counter() - t0)
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Phase-1 timing, route-table and drill report"
    )
    parser.add_argument(
        "--quick", action="store_true", help="60-video smoke run (CI-sized)"
    )
    parser.add_argument("--videos", type=int, default=None, help="catalog size")
    parser.add_argument(
        "--repeats", type=int, default=None, help="best-of-N timing (default 3/1)"
    )
    parser.add_argument(
        "--json-out",
        default=None,
        metavar="PATH",
        help="also write the report as machine-readable JSON",
    )
    parser.add_argument(
        "--compare",
        default=None,
        metavar="BASELINE.json",
        help="diff the deterministic outputs (psi, overflow iterations) "
        "against a committed baseline report; exit 2 on mismatch",
    )
    args = parser.parse_args(argv)

    n_videos = args.videos if args.videos else (60 if args.quick else 500)
    users = 4 if args.quick else 10
    repeats = args.repeats if args.repeats else (1 if args.quick else 3)

    topo, catalog, batch = _build_env(n_videos, users)
    print(
        f"scheduler report: {n_videos} videos, {len(batch)} requests, "
        f"best of {repeats}"
    )

    phase1_t = _time_phase1(topo, catalog, batch, repeats)
    # route-table hit rate of a full two-phase solve (Phase 1 and SORP;
    # the result is not priced again)
    solve = VideoScheduler(topo, catalog).solve(batch)

    print(f"\nPhase 1: {phase1_t:.3f}s")
    print(
        f"full solve route table: {solve.cache_stats.hits}/"
        f"{solve.cache_stats.lookups} hits "
        f"({100 * solve.cache_hit_rate:.1f}%), "
        f"SORP share {solve.resolution.cache_stats.lookups} lookups"
    )

    sorp = _time_sorp(topo, catalog, batch, repeats)
    print(
        f"SORP (Phase 2): {sorp['wall_time_seconds']:.3f}s standalone, "
        f"{sorp['iterations']} overflow iteration(s), trials "
        f"{sorp['trials_run']} run / {sorp['trials_reused']} reused / "
        f"{sorp['trials_revalidated']} revalidated / "
        f"{sorp['trials_resumed']} resumed"
    )
    scale = _scale_sweep()
    for n, point in scale.items():
        print(
            f"scale {n:>5} requests: {point['wall_time_seconds']:.2f}s "
            f"(Phase 1 {1e6 * point['phase1_wall_time_seconds'] / int(n):.1f}"
            " µs/request), "
            f"{point['rounds']} SORP round(s), trials "
            f"{point['trials_run']} run / {point['trials_resumed']} resumed, "
            f"serves {point['serves_served']} served / "
            f"{point['serves_kept']} kept"
        )
    stances = _stance_sweep()
    stances_replicated = _stance_sweep(replicated=True)
    for label, sweeps in (("", stances), (" replicated", stances_replicated)):
        sweep = sweeps["windowed"]
        print(
            f"recovery sweep{label}: {len(_STANCE_PLAN_SEEDS)} plans, "
            f"{sweep['raised']} raise, {sweep['invalid']} invalid "
            f"{sweep['violations']}, {sweep['requests_lost']} lost in "
            f"{sweep['wall_time_seconds']:.2f}s"
        )
    recovery = _recovery_drill(n_videos, users)
    print(
        f"warehouse-loss drill: saved "
        f"{recovery['requests_saved']}/"
        f"{recovery['requests_saved'] + recovery['requests_lost']} requests "
        f"over {recovery['impacted_videos']} video(s) in "
        f"{recovery['wall_time_seconds']:.3f}s "
        f"(psi delta {recovery['psi_delta_dollars']:+,.2f})"
    )
    online = _online_drill(n_videos, users)
    print(
        f"online amendment drill: {online['feed_events']} event(s), "
        f"{online['batches_amended']}/{online['batches']} batch(es) amended, "
        f"{online['retries']} retry(ies) in {online['wall_time_seconds']:.3f}s "
        f"(max amendment {online['amendment_seconds_max']:.3f}s); "
        f"recovery of the whole feed loses "
        f"{online['requests_lost_windowed']}"
    )
    horizon = _horizon_drill(n_videos, users)
    print(
        f"horizon drill: {horizon['cycles']} cycle(s), "
        f"{horizon['migrations_accepted']} migration(s) accepted "
        f"(staging ${horizon['staging_dollars']:,.2f}), "
        f"{horizon['resumed']} resumed / {horizon['restarted']} restarted "
        f"in {horizon['wall_time_seconds']:.3f}s; "
        f"psi ${horizon['psi_total_dollars']:,.2f} migrating vs "
        f"${horizon['psi_frozen_dollars']:,.2f} frozen"
    )
    gateway = _gateway_drill()
    print(
        f"gateway drill: {gateway['bookings_offered']} booking(s) -> "
        f"{gateway['bookings_admitted']} admitted / "
        f"{sum(gateway['bookings_rejected'].values())} rejected / "
        f"{gateway['bookings_shed']} shed in "
        f"{gateway['wall_time_seconds']:.3f}s "
        f"(quote error {100 * gateway['quote_error']:.1f}%)"
    )
    if args.json_out or args.compare:
        report = {
            # The name predates the report's scope; committed baselines
            # are matched on it.
            "benchmark": "phase1_speedup",
            "config": {
                "n_videos": n_videos,
                "n_requests": len(batch),
                "users_per_neighborhood": users,
                "repeats": repeats,
                "quick": args.quick,
            },
            "phase1": {"wall_time_seconds": phase1_t},
            "solve": {
                "psi_total_dollars": solve.total_cost,
                "psi_network_dollars": solve.cost.network,
                "psi_storage_dollars": solve.cost.storage,
                "cache_hits": solve.cache_stats.hits,
                "cache_lookups": solve.cache_stats.lookups,
                "overflow_iterations": solve.resolution.iterations,
            },
            "sorp": sorp,
            "scale": scale,
            "stances": stances,
            "stances_replicated": stances_replicated,
            "recovery": recovery,
            "online": online,
            "horizon": horizon,
            "gateway": gateway,
        }
        if args.json_out:
            with open(args.json_out, "w") as fh:
                json.dump(report, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"wrote {args.json_out}")
        if args.compare:
            with open(args.compare) as fh:
                baseline = json.load(fh)
            problems = compare_reports(baseline, report)
            if problems:
                print(f"\nbaseline comparison vs {args.compare}: FAIL")
                for p in problems:
                    print(f"  {p}")
                return 2
            print(
                f"\nbaseline comparison vs {args.compare}: OK "
                f"(psi ${report['solve']['psi_total_dollars']:,.2f}, "
                f"{report['solve']['overflow_iterations']} overflow fixes)"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
