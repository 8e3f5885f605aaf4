"""Classification rules of the mid-stream carryover ledger."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro import (
    VideoScheduler,
    VORService,
    WorkloadGenerator,
    paper_catalog,
    units,
)
from repro.core.schedule import Schedule
from repro.faults.plan import LINK_KINDS, FaultKind, FaultPlan, FaultSpec
from repro.horizon import build_resume_ledger
from repro.horizon.carryover import CarryoverLedger, ResumeEntry
from repro.topology import paper_topology


@pytest.fixture(scope="module")
def solved():
    """One solved paper cycle; the ledger is pure post-hoc accounting,
    so the same schedule can stand in for original *and* amended."""
    topo = paper_topology(
        nrate=units.per_gb(500),
        srate=units.per_gb_hour(5),
        capacity=units.gb(5),
    )
    catalog = paper_catalog(20, seed=2)
    batch = WorkloadGenerator(topo, catalog, alpha=0.271).generate(seed=2)
    service = VORService(topo, catalog, lead_time=0.0)
    for r in sorted(batch):
        service.reserve(
            r.user_id, r.video_id, r.start_time,
            local_storage=r.local_storage, now=0.0,
        )
    report = service.close_cycle(cycle_end=units.DAY)
    return SimpleNamespace(
        catalog=catalog,
        schedule=report.cycle.schedule,
        cost_model=service.cost_model,
    )


@pytest.fixture(scope="module")
def victim(solved):
    """A mid-cycle delivery over a multi-hop route to interrupt."""
    for fs in solved.schedule:
        for d in fs.deliveries:
            if d.start_time > 0 and len(d.route) >= 2:
                return d
    raise AssertionError("no interruptible delivery in the solved cycle")


def ledger_for(solved, plan, amended=None):
    return build_resume_ledger(
        solved.schedule,
        solved.schedule if amended is None else amended,
        plan,
        solved.cost_model,
        solved.catalog,
    )


def entry_for(ledger, request):
    matches = [e for e in ledger.entries if e.request == request]
    assert len(matches) == 1, f"expected one entry for {request}"
    return matches[0]


class TestResume:
    def test_midstream_link_down_resumes_with_tail_credit(
        self, solved, victim
    ):
        playback = solved.catalog[victim.request.video_id].playback
        hit_at = victim.start_time + 0.5 * playback
        plan = FaultPlan((
            FaultSpec(
                kind=FaultKind.LINK_DOWN,
                target=(victim.route[0], victim.route[1]),
                t_start=hit_at,
                t_end=victim.start_time + playback + 60.0,
            ),
        ))
        entry = entry_for(ledger_for(solved, plan), victim.request)
        assert entry.outcome == "resumed"
        assert entry.fraction == pytest.approx(0.5)
        assert entry.credit == pytest.approx(
            0.5 * solved.cost_model.delivery_cost(victim)
        )
        assert entry.reason == ""

    def test_credit_is_fraction_of_replacement_delivery(self, solved, victim):
        """The credit scales with where in the playback the fault lands."""
        playback = solved.catalog[victim.request.video_id].playback
        credits = []
        for frac in (0.25, 0.75):
            plan = FaultPlan((
                FaultSpec(
                    kind=FaultKind.LINK_DOWN,
                    target=(victim.route[0], victim.route[1]),
                    t_start=victim.start_time + frac * playback,
                    t_end=victim.start_time + playback + 60.0,
                ),
            ))
            entry = entry_for(ledger_for(solved, plan), victim.request)
            assert entry.fraction == pytest.approx(frac)
            credits.append(entry.credit)
        assert credits[0] < credits[1]


class TestRestart:
    def test_fault_before_first_byte_restarts(self, solved, victim):
        playback = solved.catalog[victim.request.video_id].playback
        plan = FaultPlan((
            FaultSpec(
                kind=FaultKind.LINK_DOWN,
                target=(victim.route[0], victim.route[1]),
                t_start=victim.start_time - 10.0,
                t_end=victim.start_time + 0.5 * playback,
            ),
        ))
        entry = entry_for(ledger_for(solved, plan), victim.request)
        assert entry.outcome == "restarted"
        assert entry.reason == "not-started"
        assert entry.fraction == 0.0
        assert entry.credit == 0.0

    def test_neighborhood_storage_loss_forfeits_buffered_blocks(
        self, solved, victim
    ):
        playback = solved.catalog[victim.request.video_id].playback
        plan = FaultPlan((
            FaultSpec(
                kind=FaultKind.IS_OUTAGE,
                target=victim.request.local_storage,
                t_start=victim.start_time + 0.5 * playback,
                t_end=victim.start_time + playback + 60.0,
            ),
        ))
        entry = entry_for(ledger_for(solved, plan), victim.request)
        assert entry.outcome == "restarted"
        assert entry.reason == "is-lost"
        assert entry.credit == 0.0


class TestNoEntry:
    def test_lost_requests_never_enter_the_ledger(self, solved, victim):
        playback = solved.catalog[victim.request.video_id].playback
        plan = FaultPlan((
            FaultSpec(
                kind=FaultKind.LINK_DOWN,
                target=(victim.route[0], victim.route[1]),
                t_start=victim.start_time + 0.5 * playback,
                t_end=victim.start_time + playback + 60.0,
            ),
        ))
        amended = Schedule(
            fs
            for fs in solved.schedule
            if fs.video_id != victim.request.video_id
        )
        ledger = ledger_for(solved, plan, amended=amended)
        assert not any(e.request == victim.request for e in ledger.entries)

    def test_partial_faults_interrupt_nothing(self, solved, victim):
        playback = solved.catalog[victim.request.video_id].playback
        plan = FaultPlan((
            FaultSpec(
                kind=FaultKind.LINK_DEGRADED,
                target=(victim.route[0], victim.route[1]),
                t_start=victim.start_time,
                t_end=victim.start_time + playback,
                severity=0.5,
            ),
        ))
        assert ledger_for(solved, plan).entries == ()

    def test_disjoint_windows_interrupt_nothing(self, solved):
        plan = FaultPlan((
            FaultSpec(
                kind=FaultKind.LINK_DOWN,
                target=("VW", "IS3"),
                t_start=10 * units.DAY,
                t_end=11 * units.DAY,
            ),
        ))
        assert ledger_for(solved, plan).entries == ()


class TestAggregation:
    def test_totals_and_json_round_trip(self, solved, victim):
        playback = solved.catalog[victim.request.video_id].playback
        plan = FaultPlan((
            FaultSpec(
                kind=FaultKind.LINK_DOWN,
                target=(victim.route[0], victim.route[1]),
                t_start=victim.start_time + 0.5 * playback,
                t_end=victim.start_time + playback + 60.0,
            ),
        ))
        ledger = ledger_for(solved, plan)
        assert ledger.resumed + ledger.restarted == len(ledger.entries)
        assert ledger.credit_total == pytest.approx(
            sum(e.credit for e in ledger.entries)
        )
        doc = ledger.to_json_dict()
        assert doc["resumed"] == ledger.resumed
        assert doc["restarted"] == ledger.restarted
        assert len(doc["entries"]) == len(ledger.entries)
        for entry_doc in doc["entries"]:
            assert entry_doc["outcome"] in ("resumed", "restarted")


# -- the carryover's own fault-hit rule, before it asked fault_hits ----------


def _is_total(f):
    """Whether the fault leaves its target completely unusable."""
    if f.kind in (FaultKind.IS_OUTAGE, FaultKind.LINK_DOWN, FaultKind.WAREHOUSE_LOSS):
        return True
    return f.severity == 0.0


def _reference_earliest_fault(delivery, playback, plan):
    """Earliest *total* fault striking the delivery's stream window."""
    t0, t1 = delivery.start_time, delivery.start_time + playback
    edges = set()
    for a, b in zip(delivery.route, delivery.route[1:]):
        edges |= {(a, b), (b, a)}
    hits = []
    for f in plan:
        if not _is_total(f) or not f.overlaps(t0, t1):
            continue
        if f.kind in LINK_KINDS:
            if tuple(f.target) in edges:
                hits.append(f)
        elif f.target in delivery.route:
            hits.append(f)
    if not hits:
        return None
    return min(hits, key=lambda f: (f.t_start, f._sort_key()))


def _reference_neighborhood_down(request, t0, t1, plan):
    return any(
        _is_total(f)
        and f.kind not in LINK_KINDS
        and f.target == request.local_storage
        and f.overlaps(t0, t1)
        for f in plan
    )


def _reference_ledger(schedule, plan, cost_model, catalog):
    """:func:`build_resume_ledger` of a schedule amended to itself, by the
    carryover's former private rule."""
    hit = []
    for fs in schedule:
        video = catalog[fs.video_id]
        for d in fs.deliveries:
            f = _reference_earliest_fault(d, video.playback, plan)
            if f is not None:
                hit.append((d, f, video))
    hit.sort(key=lambda t: t[0].request)
    entries = []
    for d, f, video in hit:
        request = d.request
        t0 = d.start_time
        if _reference_neighborhood_down(request, t0, t0 + video.playback, plan):
            entries.append(ResumeEntry(request, "restarted", reason="is-lost"))
            continue
        fraction = max(0.0, min(1.0, (f.t_start - t0) / video.playback))
        if fraction <= 0.0:
            entries.append(
                ResumeEntry(request, "restarted", reason="not-started")
            )
            continue
        credit = fraction * cost_model.delivery_cost(d)
        entries.append(
            ResumeEntry(request, "resumed", fraction=fraction, credit=credit)
        )
    return CarryoverLedger(entries=tuple(entries))


def _drill_env(replicated):
    """The CI fault-drill environment, or its two-warehouse variant."""
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
    scheduler = VideoScheduler(topo, catalog)
    schedule = scheduler.solve(batch).schedule
    t0, t1 = batch.span
    horizon = (t0, t1 + max(v.playback for v in catalog))
    return topo, catalog, schedule, scheduler.cost_model, horizon


class TestSharedHitRule:
    """The ledger asks :func:`~repro.faults.inject.fault_hits`, the rule
    recovery uses; its former private rule is the reference."""

    @pytest.mark.parametrize(
        "replicated,kinds",
        [
            (False, None),
            (True, None),
            (True, (FaultKind.WAREHOUSE_LOSS,)),
        ],
    )
    def test_ledger_matches_the_former_rule(self, replicated, kinds):
        topo, catalog, schedule, cm, horizon = _drill_env(replicated)
        for n_faults in (1, 3, 6):
            for seed in range(40):
                plan = FaultPlan.generate(
                    topo, seed=seed, horizon=horizon,
                    n_faults=n_faults, kinds=kinds,
                )
                got = build_resume_ledger(schedule, schedule, plan, cm, catalog)
                assert got == _reference_ledger(schedule, plan, cm, catalog), (
                    n_faults, seed,
                )
