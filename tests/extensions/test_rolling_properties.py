"""Property-based invariants for rolling multi-cycle operation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Request,
    RequestBatch,
    VideoCatalog,
    VideoFile,
    chain_topology,
)
from repro.core.overflow import storage_usage
from repro.extensions import RollingScheduler
from tests.topology_shapes import star_topology

CYCLE = 500.0


@st.composite
def multi_cycle_runs(draw):
    shape = draw(st.sampled_from([chain_topology, star_topology]))
    n_storages = draw(st.integers(min_value=2, max_value=4))
    capacity = draw(st.floats(min_value=120.0, max_value=400.0))
    srate = draw(st.floats(min_value=0.0, max_value=0.01))
    topo = shape(n_storages, nrate=1.0, srate=srate, capacity=capacity)
    n_videos = draw(st.integers(min_value=1, max_value=3))
    catalog = VideoCatalog(
        [
            VideoFile(f"v{i}", size=100.0, playback=60.0)
            for i in range(n_videos)
        ]
    )
    storages = [s.name for s in topo.storages]
    n_cycles = draw(st.integers(min_value=2, max_value=3))
    cycles = []
    uid = 0
    for k in range(n_cycles):
        n_req = draw(st.integers(min_value=1, max_value=5))
        reqs = []
        for _ in range(n_req):
            t = k * CYCLE + draw(st.floats(min_value=0.0, max_value=CYCLE - 1.0))
            reqs.append(
                Request(
                    t,
                    f"v{draw(st.integers(min_value=0, max_value=n_videos - 1))}",
                    f"u{uid}",
                    draw(st.sampled_from(storages)),
                )
            )
            uid += 1
        cycles.append(RequestBatch(reqs))
    return topo, catalog, cycles


class TestRollingInvariants:
    @given(run=multi_cycle_runs())
    @settings(max_examples=25, deadline=None)
    def test_combined_usage_never_exceeds_capacity(self, run):
        """Cycle k's schedule + all carryover tails fit every storage at
        every time -- the whole point of the background accounting."""
        topo, catalog, cycles = run
        rolling = RollingScheduler(topo, catalog)
        for k, batch in enumerate(cycles):
            inherited = list(rolling.carryover)  # snapshot before the cycle
            res = rolling.schedule_cycle(batch, cycle_end=(k + 1) * CYCLE)
            in_schedule = set(map(id, res.schedule.residencies))
            for spec in topo.storages:
                tl = storage_usage(res.schedule, catalog, spec.name)
                cap = spec.capacity
                for c in inherited:
                    if c.location != spec.name or id(c) in in_schedule:
                        continue  # extended seeds live inside the schedule
                    # titles re-requested this cycle subsume their seed in
                    # the schedule under a possibly-extended interval
                    if c.video_id in {fs.video_id for fs in res.schedule}:
                        continue
                    p = c.profile(catalog[c.video_id])
                    lo, hi = p.support
                    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
                        t = lo + frac * (hi - lo)
                        assert (
                            tl.value(t) + p.value(t)
                            <= cap * (1 + 1e-9) + 1e-6
                        )

    @given(run=multi_cycle_runs())
    @settings(max_examples=25, deadline=None)
    def test_all_requests_served_each_cycle(self, run):
        topo, catalog, cycles = run
        rolling = RollingScheduler(topo, catalog)
        for k, batch in enumerate(cycles):
            res = rolling.schedule_cycle(batch, cycle_end=(k + 1) * CYCLE)
            served = {d.request.user_id for d in res.schedule.deliveries}
            assert served == {r.user_id for r in batch}

    @given(run=multi_cycle_runs())
    @settings(max_examples=25, deadline=None)
    def test_net_costs_nonnegative_and_credits_bounded(self, run):
        topo, catalog, cycles = run
        rolling = RollingScheduler(topo, catalog)
        for k, batch in enumerate(cycles):
            res = rolling.schedule_cycle(batch, cycle_end=(k + 1) * CYCLE)
            assert res.net_total_cost >= -1e-9
            assert 0.0 <= res.carryover_credit <= res.total_cost + 1e-9

    @given(run=multi_cycle_runs())
    @settings(max_examples=15, deadline=None)
    def test_deterministic_across_replays(self, run):
        topo, catalog, cycles = run

        def play():
            rolling = RollingScheduler(topo, catalog)
            return [
                rolling.schedule_cycle(b, cycle_end=(k + 1) * CYCLE).total_cost
                for k, b in enumerate(cycles)
            ]

        assert play() == play()
