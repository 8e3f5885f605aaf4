"""Property-based invariants of the full scheduling pipeline.

Randomized environments (topology shape, rates, capacities, catalog,
request pattern) drive the end-to-end scheduler; each property is an
invariant the paper's algorithm must satisfy regardless of parameters:

1. every request is served exactly once, at its start time, at its local
   storage;
2. the final schedule respects every storage capacity (and passes the full
   simulator validation);
3. the two-phase result never costs more than the network-only baseline
   (the warehouse option is available at every greedy step);
4. runs are deterministic;
5. on instances small enough to solve exactly, the heuristic never beats
   the optimum (sanity of both).
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    CostModel,
    RequestBatch,
    Request,
    VideoCatalog,
    VideoFile,
    VideoScheduler,
    chain_topology,
    detect_overflows,
)
from repro.baselines import OptimalScheduler, network_only_cost
from repro.sim import validate_schedule
from tests.topology_shapes import ring_topology, star_topology, tree_topology


@st.composite
def environments(draw, max_requests: int = 10):
    """A random but always-valid scheduling environment."""
    shape = draw(
        st.sampled_from([chain_topology, star_topology, ring_topology, tree_topology])
    )
    n_storages = draw(st.integers(min_value=2, max_value=5))
    nrate = draw(st.floats(min_value=0.1, max_value=5.0))
    srate = draw(st.floats(min_value=0.0, max_value=0.02))
    capacity = draw(st.floats(min_value=80.0, max_value=400.0))
    topo = shape(n_storages, nrate=nrate, srate=srate, capacity=capacity)

    n_videos = draw(st.integers(min_value=1, max_value=3))
    catalog = VideoCatalog(
        [
            VideoFile(
                f"v{i}",
                size=draw(st.floats(min_value=50.0, max_value=150.0)),
                playback=draw(st.floats(min_value=5.0, max_value=60.0)),
            )
            for i in range(n_videos)
        ]
    )

    n_requests = draw(st.integers(min_value=1, max_value=max_requests))
    storages = [s.name for s in topo.storages]
    requests = []
    for k in range(n_requests):
        requests.append(
            Request(
                start_time=draw(st.floats(min_value=0.0, max_value=500.0)),
                video_id=f"v{draw(st.integers(min_value=0, max_value=n_videos - 1))}",
                user_id=f"u{k}",
                local_storage=draw(st.sampled_from(storages)),
            )
        )
    return topo, catalog, RequestBatch(requests)


class TestPipelineInvariants:
    @given(env=environments())
    @settings(max_examples=40, deadline=None)
    def test_every_request_served_exactly_once(self, env):
        topo, catalog, batch = env
        result = VideoScheduler(topo, catalog).solve(batch)
        served = sorted(
            (d.request.user_id, d.start_time) for d in result.schedule.deliveries
        )
        expected = sorted((r.user_id, r.start_time) for r in batch)
        assert served == expected
        for d in result.schedule.deliveries:
            assert d.destination == d.request.local_storage

    @given(env=environments())
    @settings(max_examples=40, deadline=None)
    def test_final_schedule_is_feasible(self, env):
        topo, catalog, batch = env
        result = VideoScheduler(topo, catalog).solve(batch)
        assert detect_overflows(result.schedule, catalog, topo) == []
        cm = CostModel(topo, catalog)
        assert validate_schedule(result.schedule, batch, cm) == []

    @given(env=environments())
    @settings(max_examples=40, deadline=None)
    def test_never_worse_than_network_only(self, env):
        topo, catalog, batch = env
        result = VideoScheduler(topo, catalog).solve(batch)
        cm = CostModel(topo, catalog)
        baseline = network_only_cost(batch, cm)
        assert result.total_cost <= baseline * (1 + 1e-9) + 1e-9

    @given(env=environments())
    @settings(max_examples=20, deadline=None)
    def test_deterministic(self, env):
        topo, catalog, batch = env
        a = VideoScheduler(topo, catalog).solve(batch)
        b = VideoScheduler(topo, catalog).solve(batch)
        assert a.total_cost == b.total_cost
        assert len(a.schedule.residencies) == len(b.schedule.residencies)

    @given(env=environments())
    @settings(max_examples=40, deadline=None)
    def test_cost_breakdown_consistent(self, env):
        topo, catalog, batch = env
        result = VideoScheduler(topo, catalog).solve(batch)
        cm = CostModel(topo, catalog)
        recomputed = cm.schedule_cost(result.schedule)
        assert result.cost.total == pytest.approx(recomputed.total)
        assert result.cost.storage == pytest.approx(
            math.fsum(cm.residency_cost(c) for c in result.schedule.residencies)
        )

    @given(env=environments(max_requests=5))
    @settings(max_examples=15, deadline=None)
    def test_heuristic_never_beats_optimal(self, env):
        topo, catalog, batch = env
        if (1 + len(topo.storages)) ** len(batch) > 50_000:
            return  # keep the exhaustive search snappy
        result = VideoScheduler(topo, catalog).solve(batch)
        cm = CostModel(topo, catalog)
        opt = OptimalScheduler(cm, max_nodes=60_000).optimal_cost(batch)
        assert opt <= result.total_cost * (1 + 1e-9) + 1e-9
