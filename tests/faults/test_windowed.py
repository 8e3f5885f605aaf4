"""Windowed vs whole-cycle recovery: the windowed stance must dominate.

Satellite property (pinned seeds): windowed recovery saves at least as
many requests as whole-cycle masking, its lost set is a subset of cycle
mode's, it never prices higher when both modes save the same requests,
and its output is bit-identical on rerun.

Both stances apply one hit rule: whole-cycle recovery is windowed recovery
with every fault in effect for the whole cycle.  The drill-environment
cases pin that identity, the windowed patches that once failed (Defect A's
raise, plan 17's capacity violation), that windowed patches validate on
the generated drill plans, and the amendment of a plan that downs every
warehouse.
"""

import dataclasses

import pytest

from repro import (
    CostModel,
    Topology,
    VideoCatalog,
    VideoFile,
    VideoScheduler,
    VORService,
    WorkloadGenerator,
    paper_catalog,
    paper_topology,
    units,
)
from repro.errors import FaultError
from repro.faults import (
    ContingencyScheduler,
    FaultKind,
    FaultPlan,
    FaultSpec,
    masked_topology,
)
from repro.sim.engine import SimulationEngine
from repro.sim.validate import validate_schedule
from repro.workload import RequestBatch

H = units.HOUR


def _triangle_service():
    """VW-IS1-IS2 triangle with requests before, during, and after an
    IS1 outage -- the canonical scenario where windowed masking wins."""
    topo = Topology()
    topo.add_warehouse("VW")
    topo.add_storage("IS1", srate=units.per_gb_hour(2), capacity=units.gb(8))
    topo.add_storage("IS2", srate=units.per_gb_hour(2), capacity=units.gb(8))
    topo.add_edge("VW", "IS1", nrate=units.per_gb(500))
    topo.add_edge("IS1", "IS2", nrate=units.per_gb(300))
    topo.add_edge("VW", "IS2", nrate=units.per_gb(900))
    catalog = VideoCatalog(
        [
            VideoFile(f"m{i}", size=units.gb(2.5), playback=units.minutes(90))
            for i in range(4)
        ]
    )
    svc = VORService(topo, catalog)
    for t in (5, 7, 9, 15):
        svc.reserve("alice", "m0", t * H, local_storage="IS1")
    for t in (6, 8, 10, 16):
        svc.reserve("bob", "m1", t * H, local_storage="IS2")
    # Entirely outside the outage window, at the faulted storage: cycle
    # masking abandons these, windowed masking never touches them.
    for t in (12, 14):
        svc.reserve("carol", "m2", t * H, local_storage="IS1")
    for t in (20, 22):
        svc.reserve("dave", "m3", t * H, local_storage="IS1")
    return svc


OUTAGE = FaultPlan(
    faults=(
        FaultSpec(
            kind=FaultKind.IS_OUTAGE,
            target="IS1",
            t_start=4 * H,
            t_end=8 * H,
        ),
    ),
    name="is1-outage",
)


def _amend(masking):
    svc = _triangle_service()
    report = svc.close_cycle(cycle_end=units.DAY)
    assert report.feasible
    return svc.amend_cycle(report, OUTAGE, masking=masking)


class TestWindowedWins:
    def test_windowed_saves_strictly_more_on_drill_scenario(self):
        cycle = _amend("cycle")
        windowed = _amend("windowed")
        assert windowed.feasible and cycle.feasible
        rec_c, rec_w = cycle.recovery, windowed.recovery
        assert rec_c.masking == "cycle"
        assert rec_w.masking == "windowed"
        # Cycle masking loses every request at IS1; windowed keeps the
        # ones whose service window misses the outage.
        assert rec_w.requests_saved > rec_c.requests_saved
        assert rec_w.requests_lost < rec_c.requests_lost

    def test_windowed_lost_is_subset_of_cycle_lost(self):
        lost_c = {(r.user_id, r.start_time) for r in _amend("cycle").recovery.lost}
        lost_w = {
            (r.user_id, r.start_time) for r in _amend("windowed").recovery.lost
        }
        assert lost_w < lost_c
        # Only the requests actually inside the outage window stay lost.
        assert lost_w == {("alice", 5 * H), ("alice", 7 * H)}

    def test_disjoint_time_videos_keep_their_schedules(self):
        windowed = _amend("windowed")
        impacted = set(windowed.recovery.impacted)
        assert "m2" not in impacted and "m3" not in impacted

    def test_requests_after_outage_rebuild_at_recovered_storage(self):
        windowed = _amend("windowed")
        saved = {(r.user_id, r.start_time) for r in windowed.recovery.saved}
        assert ("alice", 9 * H) in saved
        assert ("alice", 15 * H) in saved


class TestWindowedImpacted:
    def test_time_aware_video_classification(self):
        svc = _triangle_service()
        report = svc.close_cycle(cycle_end=units.DAY)
        impacted = ContingencyScheduler(
            svc.cost_model, masking="windowed"
        ).recover(report.cycle, OUTAGE).impacted
        # m0 caches at IS1 across the window, m1 routes through IS1
        # during it; m2/m3 only touch IS1 at disjoint times.
        assert impacted == ("m0", "m1")


@pytest.mark.parametrize("seed", [3, 11, 27])
class TestWindowedDominatesProperty:
    """Seeded property: on generated paper-shaped environments the
    windowed stance never loses a request cycle mode would save."""

    def _environment(self, seed):
        topo = paper_topology(
            nrate=units.per_gb(500),
            srate=units.per_gb_hour(5),
            capacity=units.gb(5),
        )
        catalog = paper_catalog(20, seed=seed)
        batch = WorkloadGenerator(
            topo, catalog, users_per_neighborhood=2
        ).generate(seed)
        result = VideoScheduler(topo, catalog).solve(batch)
        t0, t1 = batch.span
        tail = max(v.playback for v in catalog)
        plan = FaultPlan.generate(
            topo, seed=seed, horizon=(t0, t1 + tail), n_faults=3
        )
        cm = CostModel(topo, catalog)
        return topo, catalog, batch, result, plan, cm

    def test_windowed_dominates_cycle(self, seed):
        topo, catalog, batch, result, plan, cm = self._environment(seed)
        rec_c = ContingencyScheduler(cm, masking="cycle").recover(
            result, plan, batch=batch
        )
        rec_w = ContingencyScheduler(cm, masking="windowed").recover(
            result, plan, batch=batch
        )
        # ``saved`` only counts requests of *impacted* videos, and the
        # windowed impacted set is smaller by design -- the comparable
        # dominance metric is the lost set: windowed must serve every
        # request cycle mode serves.
        lost_c = {(r.user_id, r.start_time, r.video_id) for r in rec_c.lost}
        lost_w = {(r.user_id, r.start_time, r.video_id) for r in rec_w.lost}
        assert lost_w <= lost_c
        if lost_w == lost_c:
            # Same service level: the windowed patch must not price higher
            # (it keeps the original, cheaper routes outside the windows).
            assert rec_w.cost_after.total <= rec_c.cost_after.total + 1e-9

    def test_windowed_patch_validates_under_degraded_replay(self, seed):
        topo, catalog, batch, result, plan, cm = self._environment(seed)
        rec_w = ContingencyScheduler(cm, masking="windowed").recover(
            result, plan, batch=batch
        )
        lost = set(rec_w.lost)
        surviving = RequestBatch([r for r in batch if r not in lost])
        violations = validate_schedule(
            rec_w.schedule,
            surviving,
            cm,
            faults=plan,
        )
        assert violations == []

    def test_bit_identical_on_rerun(self, seed):
        """A warm-cache rerun and a fresh model give the same recovery."""
        topo, catalog, batch, result, plan, cm = self._environment(seed)
        a, b = (
            ContingencyScheduler(model, masking="windowed").recover(
                result, plan, batch=batch
            )
            for model in (cm, CostModel(topo, catalog))
        )
        assert a.schedule.deliveries == b.schedule.deliveries
        assert a.schedule.residencies == b.schedule.residencies
        assert a.saved == b.saved and a.lost == b.lost



@pytest.fixture(scope="module")
def drill():
    """The CI fault-drill environment: 60 videos, seed 4, 5 GB caches."""
    topo = paper_topology(
        nrate=units.per_gb(500),
        srate=units.per_gb_hour(5),
        capacity=units.gb(5),
    )
    catalog = paper_catalog(60, seed=4)
    batch = WorkloadGenerator(topo, catalog, alpha=0.271).generate(seed=4)
    scheduler = VideoScheduler(topo, catalog)
    solved = scheduler.solve(batch)
    t0, t1 = batch.span
    horizon = (t0, t1 + max(v.playback for v in catalog))
    return topo, catalog, batch, solved, scheduler.cost_model, horizon


LOSS_MIX = (FaultKind.WAREHOUSE_LOSS, FaultKind.IS_OUTAGE, FaultKind.CAPACITY_SHRINK)


def _drill_plan(drill, seed, kinds=None):
    topo, *_, horizon = drill
    return FaultPlan.generate(
        topo, seed=seed, horizon=horizon, n_faults=3, kinds=kinds
    )


def _recover(drill, plan, masking):
    _, _, batch, solved, cm, _ = drill
    return ContingencyScheduler(cm, masking=masking).recover(
        solved, plan, batch=batch
    )


def _whole_cycle(plan, horizon):
    """``plan`` with every fault window widened past the whole cycle."""
    t0, t1 = horizon
    return FaultPlan(
        tuple(
            dataclasses.replace(f, t_start=t0 - units.DAY, t_end=t1 + units.DAY)
            for f in plan
        )
    )


#: Plan seeds (0-19) whose windowed recovery on the drill environment
#: raised ``cannot shrink residency`` before Defect A was fixed, per
#: fault-kind mix, as generated and with every fault window widened to the
#: whole cycle.  None of them raises today; they stay a separate case as
#: regression pins, and so that every parametrized case keeps its id.
DEFECT_A = {None: {3, 6, 11, 12}, LOSS_MIX: {9, 10, 11}}
DEFECT_A_WIDENED = {None: {0, 3, 4, 6, 11, 13, 14, 18, 19}, LOSS_MIX: {5, 10, 11}}


def _seeds(raising, *, only=False):
    return [
        (kinds, seed)
        for kinds, skip in raising.items()
        for seed in range(20)
        if (seed in skip) == only
    ]


class TestOneHitRule:
    """Whole-cycle impact is windowed impact with every fault in effect for
    the whole cycle."""

    @pytest.mark.parametrize("kinds,seed", _seeds(DEFECT_A_WIDENED))
    def test_widened_windowed_impact_equals_cycle_impact(self, drill, kinds, seed):
        plan = _drill_plan(drill, seed, kinds)
        widened = _whole_cycle(plan, drill[-1])
        assert (
            _recover(drill, widened, "windowed").impacted
            == _recover(drill, plan, "cycle").impacted
        )

    @pytest.mark.parametrize("kinds,seed", _seeds(DEFECT_A))
    def test_windowed_impact_within_cycle_impact(self, drill, kinds, seed):
        plan = _drill_plan(drill, seed, kinds)
        windowed = _recover(drill, plan, "windowed").impacted
        assert set(windowed) <= set(_recover(drill, plan, "cycle").impacted)

    @pytest.mark.parametrize(
        "kinds,seed,widen",
        [(k, s, False) for k, s in _seeds(DEFECT_A, only=True)]
        + [(k, s, True) for k, s in _seeds(DEFECT_A_WIDENED, only=True)],
    )
    def test_defect_a_seeds_keep_the_rule(self, drill, kinds, seed, widen):
        plan = _drill_plan(drill, seed, kinds)
        cycle = _recover(drill, plan, "cycle").impacted
        if widen:
            widened = _whole_cycle(plan, drill[-1])
            assert _recover(drill, widened, "windowed").impacted == cycle
        else:
            assert set(_recover(drill, plan, "windowed").impacted) <= set(cycle)


class TestKnownWindowedDefects:
    """Windowed recovery on the drill environment: plan 3 pins the fixed
    Defect A; plan 17 pins a re-solved file once placed in a storage
    during its shrink window, which SORP's fault background now keeps
    out."""

    def test_plan_seed_3_recovers(self, drill):
        # Defect A: the healthy-model SORP pass offers a committed kept
        # cache whose t_last is past a re-served request's start; it serves
        # at a zero Ψ_C extension instead of raising "cannot shrink".
        _recover(drill, _drill_plan(drill, 3), "windowed")

    def test_plan_seed_17_validates_under_degraded_replay(self, drill):
        _, _, batch, _, cm, _ = drill
        plan = _drill_plan(drill, 17)
        rec = _recover(drill, plan, "windowed")
        lost = set(rec.lost)
        surviving = RequestBatch([r for r in batch if r not in lost])
        assert validate_schedule(rec.schedule, surviving, cm, faults=plan) == []


class TestWindowedRepairs:
    """On the drill environment's 120 generated plans (seeds 0-39 with 1, 3
    and 6 faults) the windowed patch validates under the plan's degraded
    replay, and loses only requests the whole-cycle stance loses too."""

    @pytest.mark.parametrize("n_faults", [1, 3, 6])
    def test_validates_and_loses_within_cycle(self, drill, n_faults):
        topo, _, batch, _, cm, horizon = drill
        for seed in range(40):
            plan = FaultPlan.generate(
                topo, seed=seed, horizon=horizon, n_faults=n_faults
            )
            windowed = _recover(drill, plan, "windowed")
            lost = set(windowed.lost)
            assert lost <= set(_recover(drill, plan, "cycle").lost), seed
            surviving = RequestBatch(r for r in batch if r not in lost)
            violations = validate_schedule(
                windowed.schedule, surviving, cm, faults=plan
            )
            assert violations == [], (seed, violations)


class TestTotalWarehouseLoss:
    """A plan that downs every warehouse: whole-cycle amendment loses every
    impacted request and still returns a valid amended cycle."""

    def _amend(self, drill, masking):
        topo, catalog, batch, *_ = drill
        t0, t1 = batch.span
        svc = VORService(topo, catalog, lead_time=0.0)
        for r in batch:
            svc.reserve(
                r.user_id, r.video_id, r.start_time,
                local_storage=r.local_storage, now=0.0,
            )
        report = svc.close_cycle(cycle_end=t1 + 1.0)
        plan = FaultPlan(
            (FaultSpec(FaultKind.WAREHOUSE_LOSS, "VW", (t0 + t1) / 2, t1 + 1.0),)
        )
        return svc.amend_cycle(report, plan, masking=masking)

    def test_cycle_stance_returns(self, drill):
        amended = self._amend(drill, "cycle")
        rec = amended.recovery
        assert amended.feasible
        assert rec.requests_saved == 0
        assert rec.requests_lost == len(drill[2])
        assert not amended.cycle.schedule.deliveries

    def test_windowed_stance_saves_the_first_half(self, drill):
        amended = self._amend(drill, "windowed")
        assert amended.feasible
        assert amended.recovery.requests_saved == 72
        assert amended.recovery.requests_lost == 87


def _masked_judge(cm, plan):
    """How a whole-cycle patch was judged before one judge: on the plan's
    mask without a degraded replay, or on the healthy model when the plan
    downs every warehouse."""
    try:
        masked = masked_topology(cm.topology, plan)
    except FaultError:
        return cm
    return CostModel(masked, cm.catalog)


class TestOneJudge:
    """Every patch is judged on the healthy model plus the plan's degraded
    replay; for whole-cycle patches the masked model is the reference."""

    @pytest.mark.parametrize("seed", range(20))
    def test_whole_cycle_verdict_matches_masked_judge(self, drill, seed):
        _, _, batch, _, cm, _ = drill
        plan = _drill_plan(drill, seed)
        rec = _recover(drill, plan, "cycle")
        lost = set(rec.lost)
        surviving = RequestBatch([r for r in batch if r not in lost])
        reference = validate_schedule(
            rec.schedule, surviving, _masked_judge(cm, plan)
        )
        judged = validate_schedule(rec.schedule, surviving, cm, faults=plan)
        assert bool(judged) == bool(reference)


def _tight_links(topo, catalog, schedule):
    """A copy of ``topo`` whose every busy link is capped at the peak
    bandwidth ``schedule`` puts on it."""
    links = SimulationEngine(CostModel(topo, catalog)).run(schedule).links
    tight = Topology()
    for spec in topo.nodes:
        if spec.is_warehouse:
            tight.add_warehouse(spec.name)
        else:
            tight.add_storage(spec.name, srate=spec.srate, capacity=spec.capacity)
    for e in topo.edges:
        load = links.get(e.key)
        tight.add_edge(
            e.a, e.b, nrate=e.nrate,
            bandwidth=e.bandwidth if load is None else load.peak,
        )
    return tight, max(links, key=lambda key: links[key].peak)


class TestRejectedAmendment:
    """A windowed amendment the judge rejects leaves the carryover the next
    cycle inherits as it was.

    Recovery does not model bandwidth.  On the drill topology with every
    busy link capped at its healthy peak load, a plan that also halves the
    busiest link's bandwidth fails the degraded replay
    (``fault-bandwidth``), while on the uncapped topology the generated
    plan's amendment validates and moves the carryover.
    """

    @pytest.mark.parametrize("seed", (5, 17, 41, 56))
    def test_carryover_unmoved(self, drill, seed):
        topo, catalog, batch, solved, *_, horizon = drill
        tight, busiest = _tight_links(topo, catalog, solved.schedule)
        svc = VORService(tight, catalog, lead_time=0.0)
        for r in batch:
            svc.reserve(
                r.user_id, r.video_id, r.start_time,
                local_storage=r.local_storage, now=0.0,
            )
        report = svc.close_cycle(cycle_end=batch.span[1])
        before = svc._rolling.carryover
        cut = FaultSpec(
            FaultKind.LINK_DEGRADED, busiest, *horizon, severity=0.5
        )
        plan = FaultPlan(
            (*FaultPlan.generate(topo, seed=seed, horizon=horizon, n_faults=3), cut)
        )
        amended = svc.amend_cycle(report, plan, masking="windowed")
        assert not amended.feasible
        assert svc._rolling.carryover == before
        assert amended.cycle.carried_out == len(before)
