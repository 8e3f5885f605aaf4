"""Tests for the SORP overflow-resolution loop (Table 3)."""

from unittest import mock

import pytest

from repro import (
    CostModel,
    HeatMetric,
    IndividualScheduler,
    Observability,
    Request,
    RequestBatch,
    Topology,
    VideoCatalog,
    VideoFile,
    detect_overflows,
    resolve_overflows,
)

from repro.core.individual import RoutePolicy
from repro.errors import OverflowResolutionError

from .test_sorp_incremental import _trial_outcomes, assert_matches_reference


def _env(capacity=150.0, srate=1e-3, nrate=1.0, n_files=2):
    topo = Topology()
    topo.add_warehouse("VW")
    topo.add_storage("IS1", srate=srate, capacity=capacity)
    topo.add_edge("VW", "IS1", nrate=nrate)
    catalog = VideoCatalog(
        [VideoFile(f"v{i}", size=100.0, playback=10.0) for i in range(n_files)]
    )
    return topo, catalog, CostModel(topo, catalog)


def _contended_batch(n_files=2):
    """Each file requested twice at IS1 so Phase 1 caches them all,
    overlapping in time -- guaranteed overflow when capacity < n*size."""
    reqs = []
    for i in range(n_files):
        reqs.append(Request(0.0 + i, f"v{i}", f"u{i}a", "IS1"))
        reqs.append(Request(50.0 + i, f"v{i}", f"u{i}b", "IS1"))
    return RequestBatch(reqs)


class TestResolveOverflows:
    def test_phase1_overflows_then_resolved(self):
        topo, catalog, cm = _env()
        batch = _contended_batch()
        phase1 = IndividualScheduler(cm).solve(batch)
        assert detect_overflows(phase1, catalog, topo)
        resolved, stats = resolve_overflows(phase1, batch, cm)
        assert detect_overflows(resolved, catalog, topo) == []
        assert stats.had_overflow
        assert stats.iterations >= 1
        assert stats.victims

    def test_all_requests_still_served(self):
        topo, catalog, cm = _env()
        batch = _contended_batch()
        phase1 = IndividualScheduler(cm).solve(batch)
        resolved, _ = resolve_overflows(phase1, batch, cm)
        served = sorted(d.request.user_id for d in resolved.deliveries)
        assert served == sorted(r.user_id for r in batch)

    def test_input_schedule_not_mutated(self):
        topo, catalog, cm = _env()
        batch = _contended_batch()
        phase1 = IndividualScheduler(cm).solve(batch)
        before = len(detect_overflows(phase1, catalog, topo))
        resolve_overflows(phase1, batch, cm)
        assert len(detect_overflows(phase1, catalog, topo)) == before

    def test_resolution_usually_costs_more(self):
        topo, catalog, cm = _env()
        batch = _contended_batch()
        phase1 = IndividualScheduler(cm).solve(batch)
        resolved, stats = resolve_overflows(phase1, batch, cm)
        assert stats.resolved_cost == pytest.approx(cm.total(resolved))
        assert stats.phase1_cost == pytest.approx(cm.total(phase1))
        assert stats.cost_increase >= 0.0
        assert stats.cost_increase_ratio >= 0.0

    def test_no_overflow_is_identity(self):
        topo, catalog, cm = _env(capacity=1e6)
        batch = _contended_batch()
        phase1 = IndividualScheduler(cm).solve(batch)
        resolved, stats = resolve_overflows(phase1, batch, cm)
        assert not stats.had_overflow
        assert stats.iterations == 0
        assert stats.cost_increase == 0.0
        assert cm.total(resolved) == pytest.approx(cm.total(phase1))

    @pytest.mark.parametrize("capacity, overflows", [(1e6, False), (150.0, True)])
    def test_zero_rounds_price_the_schedule_once(self, capacity, overflows):
        topo, catalog, cm = _env(capacity=capacity)
        batch = _contended_batch()
        phase1 = IndividualScheduler(cm).solve(batch)
        obs = Observability.on()
        with mock.patch.object(
            cm, "file_cost", wraps=cm.file_cost
        ) as file_cost, mock.patch.object(
            cm, "schedule_cost", wraps=cm.schedule_cost
        ) as schedule_cost:
            resolved, stats = resolve_overflows(phase1, batch, cm, obs=obs)
        trials = _trial_outcomes(obs)
        served = trials["run"] + trials["resumed"]
        # each Phase-1 file is priced once, each served trial once; the
        # ledger sums to Ψ without pricing the schedule again
        assert schedule_cost.call_count == 0
        assert file_cost.call_count == len(phase1) + served
        assert (stats.iterations > 0) == overflows == (served > 0)
        assert stats.resolved.total.hex() == cm.total(resolved).hex()
        assert stats.resolved == cm.schedule_cost(resolved)
        assert stats.phase1_cost.hex() == cm.total(phase1).hex()

    @pytest.mark.parametrize("metric", list(HeatMetric))
    def test_all_metrics_resolve(self, metric):
        topo, catalog, cm = _env(n_files=3, capacity=250.0)
        batch = _contended_batch(n_files=3)
        phase1 = IndividualScheduler(cm).solve(batch)
        resolved, stats = resolve_overflows(phase1, batch, cm, metric=metric)
        assert detect_overflows(resolved, catalog, topo) == []

    def test_oversized_file_never_cached(self):
        """A file larger than every IS ends up served purely from the VW."""
        topo = Topology()
        topo.add_warehouse("VW")
        topo.add_storage("IS1", srate=1e-3, capacity=50.0)
        topo.add_edge("VW", "IS1", nrate=1.0)
        catalog = VideoCatalog([VideoFile("big", size=100.0, playback=10.0)])
        cm = CostModel(topo, catalog)
        batch = RequestBatch(
            [
                Request(0.0, "big", "u1", "IS1"),
                Request(50.0, "big", "u2", "IS1"),
            ]
        )
        phase1 = IndividualScheduler(cm).solve(batch)
        resolved, stats = resolve_overflows(phase1, batch, cm)
        assert detect_overflows(resolved, catalog, topo) == []
        # the long residency [0,50] can't fit; only sub-capacity gamma
        # residencies (span <= 5) or none may remain
        for c in resolved.residencies:
            assert c.profile(catalog["big"]).peak <= 50.0 + 1e-9

    def test_victim_records_are_meaningful(self):
        topo, catalog, cm = _env()
        batch = _contended_batch()
        phase1 = IndividualScheduler(cm).solve(batch)
        _, stats = resolve_overflows(phase1, batch, cm)
        for v in stats.victims:
            assert v.video_id in catalog
            assert v.location == "IS1"
            assert v.interval[1] > v.interval[0]

    def test_iteration_cap_raises(self):
        from repro.errors import OverflowResolutionError

        topo, catalog, cm = _env()
        batch = _contended_batch()
        phase1 = IndividualScheduler(cm).solve(batch)
        with pytest.raises(OverflowResolutionError, match="unresolved"):
            resolve_overflows(phase1, batch, cm, max_iterations=0)

    def test_deterministic(self):
        topo, catalog, cm = _env(n_files=4, capacity=250.0)
        batch = _contended_batch(n_files=4)
        phase1 = IndividualScheduler(cm).solve(batch)
        r1, s1 = resolve_overflows(phase1, batch, cm)
        r2, s2 = resolve_overflows(phase1, batch, cm)
        assert [v.video_id for v in s1.victims] == [v.video_id for v in s2.victims]
        assert cm.total(r1) == cm.total(r2)


class _RefuseStartingAt(RoutePolicy):
    """Cheapest-path routing that refuses every stream starting at one of
    ``times``."""

    def __init__(self, router, times):
        super().__init__(router)
        self._times = set(times)

    def routes(self, dst, t_start, t_end, bandwidth):
        if t_start in self._times:
            return {}
        return super().routes(dst, t_start, t_end, bandwidth)


class TestRoutePolicySkip:
    """A member whose trial finds no feasible source under the route
    policy is not a candidate victim."""

    def test_member_without_a_source_is_skipped(self):
        topo, catalog, cm = _env()
        batch = _contended_batch()
        phase1 = IndividualScheduler(cm).solve(batch)
        _, free = resolve_overflows(phase1, batch, cm)
        hot = free.victims[0].video_id
        cold = ({"v0", "v1"} - {hot}).pop()
        # the hot file's second showing has no route: its trial raises
        policy = _RefuseStartingAt(
            cm.router, [max(r.start_time for r in batch if r.video_id == hot)]
        )
        resolved, stats = resolve_overflows(phase1, batch, cm, route_policy=policy)
        assert [v.video_id for v in stats.victims] == [cold]
        assert detect_overflows(resolved, catalog, topo) == []
        assert_matches_reference(phase1, batch, cm, route_policy=policy)

    def test_no_member_with_a_source_raises(self):
        topo, catalog, cm = _env()
        batch = _contended_batch()
        phase1 = IndividualScheduler(cm).solve(batch)
        policy = _RefuseStartingAt(cm.router, [r.start_time for r in batch])
        with pytest.raises(OverflowResolutionError, match="no reschedulable"):
            resolve_overflows(phase1, batch, cm, route_policy=policy)
