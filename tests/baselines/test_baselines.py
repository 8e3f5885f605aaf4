"""Tests for the baseline schedulers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    CostModel,
    IndividualScheduler,
    Request,
    RequestBatch,
    Topology,
    VideoCatalog,
    VideoFile,
    VideoScheduler,
    chain_topology,
    detect_overflows,
)
from repro.baselines import (
    OptimalScheduler,
    network_only_cost,
    network_only_schedule,
)
from repro.errors import ScheduleError
from repro.extensions import DiurnalCostModel, TariffBand, TimeOfDayTariff

from .opt_reference import unpruned_optimum


def _env(nrate=1.0, srate=1e-3, capacity=1e6, n_storages=2):
    topo = chain_topology(n_storages, nrate=nrate, srate=srate, capacity=capacity)
    catalog = VideoCatalog([VideoFile("v", size=100.0, playback=10.0)])
    return topo, catalog, CostModel(topo, catalog)


class TestNetworkOnly:
    def test_every_request_direct(self):
        topo, catalog, cm = _env()
        batch = RequestBatch(
            [
                Request(0.0, "v", "u1", "IS1"),
                Request(5.0, "v", "u2", "IS2"),
            ]
        )
        s = network_only_schedule(batch, cm)
        assert all(d.route[0] == "VW" for d in s.deliveries)
        assert s.residencies == []
        assert len(s.deliveries) == 2

    def test_cost_linear_in_nrate(self):
        batch = RequestBatch(
            [
                Request(0.0, "v", "u1", "IS2"),
                Request(5.0, "v", "u2", "IS2"),
            ]
        )
        costs = []
        for nrate in (1.0, 2.0, 4.0):
            _, _, cm = _env(nrate=nrate)
            costs.append(network_only_cost(batch, cm))
        assert costs[1] == pytest.approx(2 * costs[0])
        assert costs[2] == pytest.approx(4 * costs[0])

    def test_fig2_matches_papers_s1(self, fig2_topology, fig2_catalog, fig2_batch):
        cm = CostModel(fig2_topology, fig2_catalog)
        assert network_only_cost(fig2_batch, cm) == pytest.approx(259.2)

    def test_never_cheaper_than_scheduler(self, fig2_topology, fig2_catalog, fig2_batch):
        cm = CostModel(fig2_topology, fig2_catalog)
        result = VideoScheduler(fig2_topology, fig2_catalog).solve(fig2_batch)
        assert result.total_cost <= network_only_cost(fig2_batch, cm) + 1e-9


class TestOptimal:
    def test_matches_hand_optimum_single_request(self):
        topo, catalog, cm = _env()
        batch = RequestBatch([Request(0.0, "v", "u1", "IS2")])
        opt = OptimalScheduler(cm)
        # single request: direct stream, two hops at rate 1 -> 2 * volume
        assert opt.optimal_cost(batch) == pytest.approx(200.0)

    def test_never_worse_than_greedy(self):
        topo, catalog, cm = _env(srate=0.05)
        batch = RequestBatch(
            [
                Request(0.0, "v", "u1", "IS2"),
                Request(5.0, "v", "u2", "IS1"),
                Request(9.0, "v", "u3", "IS2"),
            ]
        )
        greedy_cost = cm.total(IndividualScheduler(cm).solve(batch))
        opt_cost = cm.total(OptimalScheduler(cm).solve(batch, respect_capacity=False))
        assert opt_cost <= greedy_cost + 1e-9

    def test_never_worse_than_two_phase(self):
        topo = chain_topology(2, nrate=1.0, srate=0.05, capacity=120.0)
        catalog = VideoCatalog(
            [
                VideoFile("a", size=100.0, playback=10.0),
                VideoFile("b", size=100.0, playback=10.0),
            ]
        )
        cm = CostModel(topo, catalog)
        batch = RequestBatch(
            [
                Request(0.0, "a", "u1", "IS1"),
                Request(4.0, "b", "u2", "IS1"),
                Request(8.0, "a", "u3", "IS1"),
                Request(12.0, "b", "u4", "IS1"),
            ]
        )
        result = VideoScheduler(topo, catalog).solve(batch)
        opt = OptimalScheduler(cm)
        assert opt.optimal_cost(batch) <= result.total_cost + 1e-9

    def test_capacity_respected(self):
        topo = chain_topology(1, nrate=1.0, srate=1e-4, capacity=120.0)
        catalog = VideoCatalog(
            [
                VideoFile("a", size=100.0, playback=10.0),
                VideoFile("b", size=100.0, playback=10.0),
            ]
        )
        cm = CostModel(topo, catalog)
        batch = RequestBatch(
            [
                Request(0.0, "a", "u1", "IS1"),
                Request(1.0, "b", "u2", "IS1"),
                Request(8.0, "a", "u3", "IS1"),
                Request(9.0, "b", "u4", "IS1"),
            ]
        )
        s = OptimalScheduler(cm).solve(batch, respect_capacity=True)
        assert detect_overflows(s, catalog, topo) == []

    def test_capacity_changes_answer(self):
        """Unconstrained optimum caches both; constrained must pay more."""
        topo = chain_topology(1, nrate=1.0, srate=1e-4, capacity=120.0)
        catalog = VideoCatalog(
            [
                VideoFile("a", size=100.0, playback=10.0),
                VideoFile("b", size=100.0, playback=10.0),
            ]
        )
        cm = CostModel(topo, catalog)
        batch = RequestBatch(
            [
                Request(0.0, "a", "u1", "IS1"),
                Request(1.0, "b", "u2", "IS1"),
                Request(20.0, "a", "u3", "IS1"),
                Request(21.0, "b", "u4", "IS1"),
            ]
        )
        opt = OptimalScheduler(cm)
        unconstrained = cm.total(opt.solve(batch, respect_capacity=False))
        constrained = opt.optimal_cost(batch)
        assert constrained > unconstrained

    def test_size_guard(self):
        topo, catalog, cm = _env(n_storages=5)
        batch = RequestBatch(
            [Request(float(i), "v", f"u{i}", "IS1") for i in range(30)]
        )
        with pytest.raises(ScheduleError, match="search space"):
            OptimalScheduler(cm, max_nodes=1000).solve(batch)

    def test_fig2_optimal_beats_papers_schedules(
        self, fig2_topology, fig2_catalog, fig2_batch
    ):
        cm = CostModel(fig2_topology, fig2_catalog)
        opt_cost = OptimalScheduler(cm).optimal_cost(fig2_batch)
        assert opt_cost <= 138.975 + 1e-9
        # the greedy already finds 108.45; optimal can't be worse
        assert opt_cost <= 108.45 + 1e-9


@st.composite
def tariffed_instances(draw):
    """A chain of 2-4 storages, two 100-byte videos with P = 600 s, 2-5
    requests spread over a day, and a tariff with a cheap night band and
    a dear evening band."""
    topo = chain_topology(
        draw(st.integers(2, 4)),
        nrate=1.0,
        srate=draw(st.sampled_from((1e-5, 1e-4, 1e-3))),
        capacity=draw(st.sampled_from((150.0, 1e6))),
    )
    catalog = VideoCatalog(
        [VideoFile(v, size=100.0, playback=600.0) for v in ("a", "b")]
    )
    tariff = TimeOfDayTariff([
        TariffBand(0.0, 6.0, draw(st.sampled_from((0.2, 0.5, 0.9)))),
        TariffBand(18.0, 23.0, draw(st.sampled_from((1.0, 1.5, 3.0)))),
    ])
    storages = [s.name for s in topo.storages]
    bookings = draw(st.lists(
        st.tuples(
            st.sampled_from(("a", "b")),
            st.sampled_from(storages),
            st.integers(0, 47),
        ),
        min_size=2,
        max_size=5,
    ))
    batch = RequestBatch([
        Request(1800.0 * slot, video_id, f"u{i}", storage)
        for i, (video_id, storage, slot) in enumerate(bookings)
    ])
    return DiurnalCostModel(topo, catalog, tariff), batch


class TestOptimalUnderTariff:
    """The search prices each step under the tariff, so its bound never
    cuts off the optimum: it equals the unpruned enumeration."""

    @given(instance=tariffed_instances(), respect_capacity=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_equals_the_unpruned_optimum(self, instance, respect_capacity):
        cm, batch = instance
        expected = unpruned_optimum(cm, batch, respect_capacity=respect_capacity)
        if expected == float("inf"):
            with pytest.raises(ScheduleError, match="no feasible schedule"):
                OptimalScheduler(cm).solve(batch, respect_capacity=respect_capacity)
            return
        got = cm.total(
            OptimalScheduler(cm).solve(batch, respect_capacity=respect_capacity)
        )
        assert got == pytest.approx(expected, rel=1e-12)

    def test_night_cache_is_found(self):
        # one night stream (0.2 x 100) and a cache for the second showing
        # (1e-5 x 100 x (1800 + 300)) cost 22.1; priced without the tariff,
        # the first stream alone (100) looked dearer than two night streams
        # (40), and the bound pruned the optimum
        topo = chain_topology(1, nrate=1.0, srate=1e-5, capacity=1e6)
        catalog = VideoCatalog([VideoFile("v", size=100.0, playback=600.0)])
        tariff = TimeOfDayTariff(
            [TariffBand(0.0, 6.0, 0.2), TariffBand(18.0, 23.0, 1.5)]
        )
        cm = DiurnalCostModel(topo, catalog, tariff)
        batch = RequestBatch([
            Request(3600.0, "v", "u1", "IS1"),
            Request(5400.0, "v", "u2", "IS1"),
        ])
        assert unpruned_optimum(cm, batch) == pytest.approx(22.1)
        assert OptimalScheduler(cm).optimal_cost(batch) == pytest.approx(22.1)
