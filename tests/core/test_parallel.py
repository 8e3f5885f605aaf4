"""Phase-1 engine: determinism, cache transparency, and the
mutable-state regressions a reused scheduler would expose.

The load-bearing guarantee is *determinism*: the engine reproduces the
plain per-video greedy, and repeated runs produce exactly the same
schedule, cost, and resolution statistics.  These tests exercise it over
seeded random workloads, with and without carryover seeds, through both
the engine and the public facades.
"""

from __future__ import annotations

import random

import pytest

from repro import (
    CostModel,
    IndividualScheduler,
    ParallelIndividualScheduler,
    Request,
    RequestBatch,
    VideoScheduler,
    WorkloadGenerator,
    paper_catalog,
    paper_topology,
    units,
)
from repro.core.schedule import ResidencyInfo
from repro.extensions.rolling import RollingScheduler


def _random_batch(seed: int, *, n_videos: int = 16, n_requests: int = 60) -> tuple:
    """A seeded random workload on the paper topology (scaled down)."""
    topo = paper_topology(
        nrate=units.per_gb(500),
        srate=units.per_gb_hour(5),
        capacity=units.gb(5),
    )
    catalog = paper_catalog(n_videos=n_videos, seed=seed)
    rng = random.Random(seed)
    storages = [s.name for s in topo.storages]
    videos = list(catalog)
    requests = [
        Request(
            start_time=rng.uniform(0.0, 24 * units.HOUR),
            video_id=rng.choice(videos).video_id,
            user_id=f"u{i}",
            local_storage=rng.choice(storages),
        )
        for i in range(n_requests)
    ]
    return topo, catalog, RequestBatch(requests)


@pytest.fixture(scope="module", params=(11, 23, 47))
def workload(request):
    return _random_batch(request.param)


class TestDeterminism:
    def test_engine_matches_individual_scheduler(self, workload):
        topo, catalog, batch = workload
        want = IndividualScheduler(CostModel(topo, catalog)).solve(batch)
        cm = CostModel(topo, catalog)
        result = ParallelIndividualScheduler(cm).run(batch)
        assert result.schedule == want
        # the greedy prices with storage_cost and routes with the router
        assert cm.cache_stats.lookups == 0

    def test_two_phase_solve_identical(self, workload):
        topo, catalog, batch = workload
        first = VideoScheduler(topo, catalog).solve(batch)
        again = VideoScheduler(topo, catalog).solve(batch)
        assert again.schedule == first.schedule
        assert again.cost == first.cost
        assert again.phase1_cost == first.phase1_cost
        # ResolutionStats equality covers iteration counts, victim
        # records and costs (cache counters are excluded by design)
        assert again.resolution == first.resolution

    def test_seeded_runs_identical(self, workload):
        """Carryover-seeded Phase 1 is deterministic too."""
        topo, catalog, batch = workload
        video_id = batch.video_ids[0]
        storages = [s.name for s in topo.storages]
        seeds = {
            video_id: (
                ResidencyInfo(
                    video_id=video_id,
                    location=storages[0],
                    source=topo.warehouses[0].name,
                    t_start=0.0,
                    t_last=0.0,
                ),
            )
        }
        first = ParallelIndividualScheduler(CostModel(topo, catalog)).run(
            batch, seeds=seeds
        )
        again = ParallelIndividualScheduler(CostModel(topo, catalog)).run(
            batch, seeds=seeds
        )
        assert again.schedule == first.schedule
        assert first.schedule == IndividualScheduler(
            CostModel(topo, catalog)
        ).solve(batch, seeds=seeds)

    def test_rolling_cycles_identical(self, workload):
        topo, catalog, _ = workload
        gen = WorkloadGenerator(topo, catalog, users_per_neighborhood=4)
        batches = [gen.generate(seed=s) for s in (1, 2)]

        def run():
            rolling = RollingScheduler(topo, catalog)
            out = []
            for i, b in enumerate(batches):
                shifted = RequestBatch(
                    Request(
                        r.start_time + i * units.DAY,
                        r.video_id,
                        r.user_id,
                        r.local_storage,
                    )
                    for r in b
                )
                out.append(
                    rolling.schedule_cycle(
                        shifted, cycle_end=(i + 1) * units.DAY
                    )
                )
            return out

        for got, want in zip(run(), run()):
            assert got.schedule == want.schedule
            assert got.cost == want.cost
            assert got.resolution == want.resolution

    def test_empty_batch(self):
        topo, catalog, _ = _random_batch(1)
        engine = ParallelIndividualScheduler(CostModel(topo, catalog))
        assert len(engine.run(RequestBatch()).schedule) == 0


class TestCacheTransparency:
    def test_cached_and_uncached_schedules_identical(self, workload):
        topo, catalog, batch = workload
        cached = VideoScheduler(topo, catalog).solve(batch)
        uncached = VideoScheduler(
            topo, catalog, cost_model=CostModel(topo, catalog, cache=False)
        ).solve(batch)
        assert cached.schedule == uncached.schedule
        assert cached.total_cost == uncached.total_cost
        assert uncached.cache_stats.lookups == 0
        assert cached.cache_stats.lookups > 0
        assert 0.0 <= cached.cache_hit_rate <= 1.0

    def test_result_surfaces_cache_counters(self, workload):
        topo, catalog, batch = workload
        result = VideoScheduler(topo, catalog).solve(batch)
        assert result.cache_stats.hits > 0
        assert result.cache_stats.misses > 0
        assert (
            result.cache_stats.lookups
            == result.cache_stats.hits + result.cache_stats.misses
        )
        # SORP's share of the activity is also reported
        assert result.resolution.cache_stats.lookups >= 0


class TestMutableStateRegressions:
    """The hazards a reused scheduler would expose (audit findings)."""

    def test_back_to_back_batches_on_one_scheduler(self):
        """One VideoScheduler must give the same answers as fresh ones."""
        topo, catalog, batch_a = _random_batch(5)
        _, _, batch_b = _random_batch(5, n_requests=40)
        reused = VideoScheduler(topo, catalog)
        got_a, got_b = reused.solve(batch_a), reused.solve(batch_b)
        want_a = VideoScheduler(topo, catalog).solve(batch_a)
        want_b = VideoScheduler(topo, catalog).solve(batch_b)
        assert got_a.schedule == want_a.schedule
        assert got_b.schedule == want_b.schedule
        assert got_a.total_cost == want_a.total_cost
        assert got_b.total_cost == want_b.total_cost

    def test_back_to_back_batches_through_parallel_engine(self):
        topo, catalog, batch_a = _random_batch(7)
        _, _, batch_b = _random_batch(7, n_requests=30)
        engine = ParallelIndividualScheduler(CostModel(topo, catalog))
        got_a, got_b = engine.run(batch_a).schedule, engine.run(batch_b).schedule
        cm = CostModel(topo, catalog)
        want_a = ParallelIndividualScheduler(cm).run(batch_a).schedule
        want_b = ParallelIndividualScheduler(CostModel(topo, catalog)).run(batch_b).schedule
        assert got_a == want_a
        assert got_b == want_b

    def test_solve_does_not_mutate_batch(self):
        topo, catalog, batch = _random_batch(9)
        before = list(batch)
        by_video_before = {k: list(v) for k, v in batch.by_video().items()}
        VideoScheduler(topo, catalog).solve(batch)
        assert list(batch) == before
        assert {k: list(v) for k, v in batch.by_video().items()} == by_video_before

    def test_seed_residencies_not_mutated(self):
        """Phase 1 may extend copies of carryover seeds, never the originals."""
        topo, catalog, batch = _random_batch(13)
        video_id = batch.video_ids[0]
        seed = ResidencyInfo(
            video_id=video_id,
            location=[s.name for s in topo.storages][0],
            source=topo.warehouses[0].name,
            t_start=0.0,
            t_last=0.0,
        )
        seeds = {video_id: (seed,)}
        ParallelIndividualScheduler(CostModel(topo, catalog)).run(batch, seeds=seeds)
        assert seeds[video_id] == (seed,)
        assert seed.t_last == 0.0 and seed.service_list == ()

    def test_scheduler_internals_are_immutable(self):
        topo, catalog, _ = _random_batch(3)
        from repro.core.individual import IndividualScheduler

        cm = CostModel(topo, catalog)
        greedy = IndividualScheduler(cm)
        assert isinstance(cm.homes(catalog.ids[0]), tuple)
        assert isinstance(greedy._storage_names, frozenset)
