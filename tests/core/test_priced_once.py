"""Ψ is priced once per schedule.

Ψ(S) = Σ_i Ψ(S_i) (Eq. 1), so SORP prices the integrated schedule's files
once and keeps the per-file costs as a ledger that each committed victim
updates with its trial's own breakdown.  Every cost a solve reports must
still be, bit for bit, what :meth:`CostModel.schedule_cost` gives on the
final schedule -- on the flat model, a time-of-day tariff, a replica map,
a rolling close with seeds and a background, and a recovery around faults
over windows of the cycle or over all of it.
"""

import dataclasses
from unittest import mock

import pytest

from repro import (
    ContingencyScheduler,
    FaultPlan,
    HeatMetric,
    Observability,
    RequestBatch,
    VideoScheduler,
    VORService,
    WorkloadGenerator,
    paper_catalog,
    paper_topology,
    units,
)
from repro.billing import allocate_costs
from repro.core.scheduler import solve_two_phase
from repro.extensions import rolling as rolling_module
from repro.extensions.pricing import DiurnalCostModel, TimeOfDayTariff
from repro.extensions.rolling import RollingScheduler
from repro.replication import ReplicaMap

from .test_sorp_incremental import _trial_outcomes


def _topology():
    return paper_topology(
        nrate=units.per_gb(500),
        srate=units.per_gb_hour(5),
        capacity=units.gb(5),
    )


@pytest.fixture(scope="module")
def drill():
    """60 videos, seed 4, 5 GB caches: SORP commits victims."""
    topo = _topology()
    catalog = paper_catalog(60, seed=4)
    batch = WorkloadGenerator(topo, catalog, alpha=0.271).generate(seed=4)
    return topo, catalog, batch


def _plan(topo, seed, horizon, window):
    """Generated 3-fault plan ``seed``; with ``window == "cycle"`` every
    fault spans the whole cycle."""
    plan = FaultPlan.generate(topo, seed=seed, horizon=horizon, n_faults=3)
    if window == "windowed":
        return plan
    t0, t1 = horizon
    return FaultPlan(
        tuple(dataclasses.replace(f, t_start=t0, t_end=t1) for f in plan)
    )


def assert_bit_identical(cost, cost_model, schedule):
    want = cost_model.schedule_cost(schedule)
    assert (cost.storage.hex(), cost.network.hex(), cost.total.hex()) == (
        want.storage.hex(),
        want.network.hex(),
        want.total.hex(),
    )


def _model(kind, topo, catalog, batch):
    if kind == "flat":
        return topo, {}
    if kind == "diurnal":
        tariff = TimeOfDayTariff.evening_peak(peak_multiplier=2.0)
        return topo, {"cost_model": DiurnalCostModel(topo, catalog, tariff)}
    # a second warehouse; each video homed at one of the two
    topo = _topology()
    topo.add_warehouse("VW2")
    topo.add_edge("VW2", "IS10", nrate=units.per_gb(500))
    replicas = ReplicaMap.heat_placement(topo, catalog, batch, degree=1)
    return topo, {"replicas": replicas}


class TestScheduleResultCost:
    @pytest.mark.parametrize("kind", ["flat", "diurnal", "replicas"])
    def test_video_scheduler(self, drill, kind):
        topo, catalog, batch = drill
        topo, kwargs = _model(kind, topo, catalog, batch)
        scheduler = VideoScheduler(topo, catalog, **kwargs)
        result = scheduler.solve(batch)
        assert result.resolution.victims
        assert_bit_identical(result.cost, scheduler.cost_model, result.schedule)
        assert result.resolution.resolved_cost.hex() == result.total_cost.hex()

    def test_rolling_close_with_seeds_and_background(self, drill):
        topo, catalog, batch = drill
        requests = sorted(batch)
        boundary = requests[int(0.7 * len(requests))].start_time
        rolling = RollingScheduler(topo, catalog)
        calls = []
        real = rolling_module.solve_two_phase

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return real(*args, **kwargs)

        with mock.patch.object(rolling_module, "solve_two_phase", spy):
            rolling.schedule_cycle(
                RequestBatch(r for r in requests if r.start_time <= boundary),
                cycle_end=boundary,
            )
            cycle = rolling.schedule_cycle(
                RequestBatch(r for r in requests if r.start_time > boundary),
                cycle_end=batch.span[1] + 1.0,
            )
        assert any(calls[1]["seeds"].values())
        assert calls[1]["background"]
        assert cycle.resolution.victims
        assert_bit_identical(cycle.cost, rolling.cost_model, cycle.schedule)


class TestRecoveryCost:
    @pytest.mark.parametrize("window", ["cycle", "windowed"])
    @pytest.mark.parametrize("seed", [2, 7])
    def test_cost_after_is_the_patched_schedules_psi(self, drill, window, seed):
        topo, catalog, batch = drill
        scheduler = VideoScheduler(topo, catalog)
        solved = scheduler.solve(batch)
        schedule = solved.schedule
        t0, t1 = batch.span
        horizon = (t0, t1 + max(v.playback for v in catalog))
        plan = _plan(topo, seed, horizon, window)
        cm = scheduler.cost_model
        result = ContingencyScheduler(cm).recover(solved, plan)
        # seed 2 re-solves through SORP with victims over either window;
        # seed 7 has nothing to re-solve
        ran_sorp = seed == 2
        assert (result.resolution is not None) == ran_sorp
        if ran_sorp:
            assert result.resolution.victims
        assert_bit_identical(result.cost_after, cm, result.schedule)
        assert_bit_identical(result.cost_before, cm, schedule)

    @pytest.mark.parametrize("window", ["cycle", "windowed"])
    def test_cost_before_is_the_solved_cycles_psi(self, drill, window):
        """Recovery takes Ψ before from the cycle it amends, unpriced: for
        a fresh close and for an amended cycle it is the schedule's Ψ."""
        topo, catalog, batch = drill
        svc = VORService(topo, catalog, lead_time=0.0)
        for r in batch:
            svc.reserve(
                r.user_id, r.video_id, r.start_time,
                local_storage=r.local_storage, now=0.0,
            )
        t0, t1 = batch.span
        report = svc.close_cycle(cycle_end=t1)
        horizon = (t0, t1 + max(v.playback for v in catalog))
        first, second = (_plan(topo, seed, horizon, window) for seed in (2, 7))
        amended = svc.amend_cycle(report, first)
        assert amended.recovery.resolution is not None  # a re-solved cycle
        contingency = ContingencyScheduler(svc.cost_model)
        for cycle in (report.cycle, amended.cycle):
            with mock.patch.object(
                svc.cost_model, "schedule_cost", wraps=svc.cost_model.schedule_cost
            ) as priced:
                rec = contingency.recover(cycle, second)
            assert cycle.schedule not in [c.args[0] for c in priced.call_args_list]
            assert_bit_identical(rec.cost_before, svc.cost_model, cycle.schedule)


class TestPricingPasses:
    def test_solve_prices_each_file_once_plus_each_served_trial(self, drill):
        topo, catalog, batch = drill
        cm = VideoScheduler(topo, catalog).cost_model
        obs = Observability.on()
        with mock.patch.object(
            cm, "file_cost", wraps=cm.file_cost
        ) as file_cost, mock.patch.object(
            cm, "schedule_cost", wraps=cm.schedule_cost
        ) as schedule_cost:
            result = solve_two_phase(
                batch,
                cm,
                heat_metric=HeatMetric.SPACE_TIME_PER_COST,
                obs=obs,
            )
        assert result.resolution.victims
        assert schedule_cost.call_count == 0
        trials = _trial_outcomes(obs)
        served = trials["run"] + trials["resumed"]
        assert file_cost.call_count == len(batch.video_ids) + served
        phases = {
            dict(key)["phase"]
            for f in obs.metrics.families()
            if f.name == "vor_psi_evaluations_total"
            for key in f.children
        }
        assert phases == {"sorp"}
        assert_bit_identical(result.cost, cm, result.schedule)


def reference_realized_psi(schedule, cost_model):
    """Billed Ψ per request, as the gateway computed it before billing
    did: own deliveries, plus each consumed residency's cost split evenly
    across its ``service_list`` users and then across each user's
    delivered requests of the video.  Unconsumed residencies are not
    attributed."""
    realized = {}
    for fs in schedule:
        by_user = {}
        for d in fs.deliveries:
            r = d.request
            realized[r] = realized.get(r, 0.0) + cost_model.delivery_cost(d)
            by_user.setdefault(r.user_id, []).append(r)
        for c in fs.residencies:
            if not c.service_list:
                continue
            share = cost_model.residency_cost(c) / len(c.service_list)
            for user_id in c.service_list:
                served = by_user.get(user_id)
                if not served:
                    continue
                per_request = share / len(served)
                for r in served:
                    realized[r] = realized.get(r, 0.0) + per_request
    return realized


class TestBillingShares:
    def test_per_request_shares_match_the_reference_loop(self, drill):
        topo, catalog, batch = drill
        service = VORService(topo, catalog, lead_time=0.0)
        # every user books each title twice, so residency shares split
        # across a user's requests of one video as well as across users
        for r in batch:
            for offset in (0.0, units.minutes(1)):
                service.reserve(
                    r.user_id, r.video_id, r.start_time + offset,
                    local_storage=r.local_storage, now=0.0,
                )
        report = service.close_cycle(cycle_end=units.DAY)
        schedule = report.cycle.schedule
        assert any(len(c.service_list) > 1 for c in schedule.residencies)
        assert any(
            sum(d.request.user_id == user for d in fs.deliveries) > 1
            for fs in schedule
            for c in fs.residencies
            for user in c.service_list
        )
        want = reference_realized_psi(schedule, service.cost_model)
        got = report.billing.requests
        assert {k: v.hex() for k, v in got.items()} == {
            k: v.hex() for k, v in want.items()
        }
        again = allocate_costs(schedule, service.cost_model)
        assert again.requests == got
