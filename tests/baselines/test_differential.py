"""Differential tests: two-phase heuristic vs the exhaustive optimum.

On exhaustively-searchable instances (<= 4 videos, <= 3 intermediate
storages) the brute-force :class:`OptimalScheduler` enumerates the entire
copy-assignment schedule family -- a strict superset of everything the
greedy/rejective schedulers can emit -- so

* ``optimal <= heuristic`` must hold on every instance, and
* the heuristic stays within the Sec. 5.5 optimality-gap ballpark (the
  paper reports ~30 % mean overhead; we allow 2x per instance and 1.35x on
  average over the seeded instance set).

The same instances double as an exact cached-vs-uncached differential: the
memoized cost model must price both schedulers' schedules bit-identically
to the uncached model.
"""

from __future__ import annotations

import random

import pytest

from repro import (
    CostModel,
    Request,
    RequestBatch,
    VideoCatalog,
    VideoFile,
    VideoScheduler,
    chain_topology,
)
from repro.baselines import OptimalScheduler
from tests.topology_shapes import star_topology

#: Per-instance and mean gap bounds (heuristic / optimal).
MAX_GAP = 2.0
MAX_MEAN_GAP = 1.35

N_INSTANCES = 12


def _random_instance(seed: int):
    """A tiny random instance the exhaustive search can afford."""
    rng = random.Random(seed)
    n_storages = rng.randint(2, 3)
    if rng.random() < 0.5:
        topo = chain_topology(
            n_storages,
            nrate=rng.uniform(1e-9, 1e-7),
            srate=rng.uniform(1e-12, 1e-10),
            capacity=1e15,
        )
    else:
        topo = star_topology(
            n_storages,
            nrate=rng.uniform(1e-9, 1e-7),
            srate=rng.uniform(1e-12, 1e-10),
            capacity=1e15,
        )
    storages = [s.name for s in topo.storages]
    n_videos = rng.randint(1, 4)
    videos = [
        VideoFile(
            f"v{i}",
            size=rng.uniform(5e8, 5e9),
            playback=rng.uniform(1800.0, 7200.0),
        )
        for i in range(n_videos)
    ]
    catalog = VideoCatalog(videos)
    n_requests = rng.randint(2, 6)
    requests = [
        Request(
            start_time=rng.uniform(0.0, 6 * 3600.0),
            video_id=f"v{rng.randrange(n_videos)}",
            user_id=f"u{i}",
            local_storage=rng.choice(storages),
        )
        for i in range(n_requests)
    ]
    return topo, catalog, RequestBatch(requests)


@pytest.fixture(scope="module")
def instances():
    return [_random_instance(seed) for seed in range(N_INSTANCES)]


class TestHeuristicVsOptimal:
    def test_optimal_never_exceeds_heuristic(self, instances):
        for i, (topo, catalog, batch) in enumerate(instances):
            cm = CostModel(topo, catalog)
            heuristic = VideoScheduler(topo, catalog, cost_model=cm).solve(batch)
            optimal = OptimalScheduler(cm).optimal_cost(batch)
            assert optimal <= heuristic.total_cost + 1e-9, f"instance {i}"

    def test_gap_within_paper_bounds(self, instances):
        ratios = []
        for i, (topo, catalog, batch) in enumerate(instances):
            cm = CostModel(topo, catalog)
            heuristic = VideoScheduler(topo, catalog, cost_model=cm).solve(batch)
            optimal = OptimalScheduler(cm).optimal_cost(batch)
            assert optimal > 0.0
            ratio = heuristic.total_cost / optimal
            assert ratio <= MAX_GAP + 1e-9, f"instance {i}: gap {ratio:.3f}"
            ratios.append(ratio)
        mean = sum(ratios) / len(ratios)
        assert mean <= MAX_MEAN_GAP, f"mean gap {mean:.3f}"

    def test_single_request_heuristic_is_optimal(self):
        """One request has no caching opportunity: both pick the warehouse."""
        topo = chain_topology(2, nrate=1e-8, srate=1e-11, capacity=1e15)
        catalog = VideoCatalog([VideoFile("v0", size=1e9, playback=3600.0)])
        batch = RequestBatch([Request(0.0, "v0", "u0", "IS2")])
        cm = CostModel(topo, catalog)
        heuristic = VideoScheduler(topo, catalog, cost_model=cm).solve(batch)
        assert OptimalScheduler(cm).optimal_cost(batch) == pytest.approx(
            heuristic.total_cost
        )


def _replicated_instance(seed: int):
    """Tiny two-warehouse chain with a seeded degree-1/2 replica map."""
    from repro import ReplicaMap, Topology

    rng = random.Random(10_000 + seed)
    topo = Topology()
    topo.add_warehouse("VW1")
    n_storages = rng.randint(2, 3)
    prev = "VW1"
    for i in range(1, n_storages + 1):
        topo.add_storage(
            f"IS{i}",
            srate=rng.uniform(1e-12, 1e-10),
            capacity=1e15,
        )
        topo.add_edge(prev, f"IS{i}", nrate=rng.uniform(1e-9, 1e-7))
        prev = f"IS{i}"
    topo.add_warehouse("VW2")
    topo.add_edge(prev, "VW2", nrate=rng.uniform(1e-9, 1e-7))

    storages = [s.name for s in topo.storages]
    n_videos = rng.randint(1, 3)
    catalog = VideoCatalog(
        [
            VideoFile(
                f"v{i}",
                size=rng.uniform(5e8, 5e9),
                playback=rng.uniform(1800.0, 7200.0),
            )
            for i in range(n_videos)
        ]
    )
    replicas = ReplicaMap(
        {
            f"v{i}": tuple(rng.sample(["VW1", "VW2"], rng.randint(1, 2)))
            for i in range(n_videos)
        },
        seed=seed,
    )
    n_requests = rng.randint(2, 5)
    requests = [
        Request(
            start_time=rng.uniform(0.0, 6 * 3600.0),
            video_id=f"v{rng.randrange(n_videos)}",
            user_id=f"u{i}",
            local_storage=rng.choice(storages),
        )
        for i in range(n_requests)
    ]
    return topo, catalog, replicas, RequestBatch(requests)


class TestReplicaAwareVsOptimal:
    """Replica-restricted heuristic vs the exhaustive optimum.

    With a replica map on the cost model both searches draw warehouse
    sources from the same (restricted) home sets, so ``optimal <=
    heuristic`` must still hold instance by instance.
    """

    @pytest.fixture(scope="class")
    def replicated_instances(self):
        return [_replicated_instance(seed) for seed in range(N_INSTANCES)]

    def test_optimal_never_exceeds_heuristic(self, replicated_instances):
        from repro.baselines import OptimalScheduler

        for i, (topo, catalog, replicas, batch) in enumerate(
            replicated_instances
        ):
            cm = CostModel(topo, catalog, replicas=replicas)
            heuristic = VideoScheduler(
                topo, catalog, cost_model=cm
            ).solve(batch)
            optimal = OptimalScheduler(cm).optimal_cost(batch)
            assert optimal <= heuristic.total_cost + 1e-9, f"instance {i}"

    def test_both_respect_the_replica_map(self, replicated_instances):
        """Neither search may serve a video from a non-home warehouse."""
        from repro.baselines import OptimalScheduler
        from repro.sim import validate_schedule

        topo, catalog, replicas, batch = replicated_instances[0]
        cm = CostModel(topo, catalog, replicas=replicas)
        heuristic = VideoScheduler(topo, catalog, cost_model=cm).solve(batch)
        optimal = OptimalScheduler(cm).solve(batch)
        for schedule in (heuristic.schedule, optimal):
            replica_violations = [
                v
                for v in validate_schedule(schedule, batch, cm)
                if v.kind == "replica"
            ]
            assert replica_violations == []

    def test_full_copy_map_matches_bare_multi_warehouse(self):
        """A full-copy map restricts nothing: the optimum is unchanged."""
        from repro import ReplicaMap
        from repro.baselines import OptimalScheduler

        topo, catalog, _, batch = _replicated_instance(0)
        bare = CostModel(topo, catalog)
        full = CostModel(
            topo, catalog, replicas=ReplicaMap.full_copy(topo, catalog)
        )
        assert OptimalScheduler(bare).optimal_cost(batch) == pytest.approx(
            OptimalScheduler(full).optimal_cost(batch)
        )


class TestCachedVsUncachedPricing:
    def test_exact_equality_on_all_instances(self, instances):
        for topo, catalog, batch in instances:
            cached = CostModel(topo, catalog, cache=True)
            plain = CostModel(topo, catalog, cache=False)
            schedule = VideoScheduler(topo, catalog).solve(batch).schedule
            a = cached.schedule_cost(schedule)
            b = plain.schedule_cost(schedule)
            assert a.storage == b.storage  # bit-identical, not approx
            assert a.network == b.network
            # price twice: the second (fully warm) pass must not drift
            again = cached.schedule_cost(schedule)
            assert again == a
            assert cached.cache_stats.hits > 0

    def test_optimal_search_with_cached_model(self, instances):
        """The exhaustive search makes the same decisions either way."""
        topo, catalog, batch = instances[1]
        cached_opt = OptimalScheduler(CostModel(topo, catalog, cache=True))
        plain_opt = OptimalScheduler(CostModel(topo, catalog, cache=False))
        assert cached_opt.optimal_cost(batch) == plain_opt.optimal_cost(batch)
