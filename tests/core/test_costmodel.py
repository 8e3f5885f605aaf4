"""Tests for the cost model Ψ (Eqs. 1-4), anchored on the paper's Fig. 2."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    CacheStats,
    ChargingBasis,
    CostModel,
    DeliveryInfo,
    FileSchedule,
    ReplicaMap,
    Request,
    ResidencyInfo,
    Schedule,
    Topology,
    VideoCatalog,
    VideoFile,
    units,
)
from repro.errors import ReplicationError, ScheduleError
from tests.conftest import FOUR_PM, ONE_PM, TWO_THIRTY_PM


@pytest.fixture
def fig2_cm(fig2_topology, fig2_catalog):
    return CostModel(fig2_topology, fig2_catalog)


def _fig2_delivery(route, t, user):
    return DeliveryInfo(
        "movie", tuple(route), t, Request(t, "movie", user, route[-1])
    )


def fig2_schedule_s1():
    """Paper's S1: all three users served directly from the warehouse."""
    fs = FileSchedule("movie")
    fs.add_delivery(_fig2_delivery(("VW", "IS1"), ONE_PM, "U1"))
    fs.add_delivery(_fig2_delivery(("VW", "IS1", "IS2"), TWO_THIRTY_PM, "U2"))
    fs.add_delivery(_fig2_delivery(("VW", "IS1", "IS2"), FOUR_PM, "U3"))
    return Schedule([fs])


def fig2_schedule_s2():
    """Paper's S2: U1 from VW; IS1 caches; U2/U3 served from IS1's copy."""
    fs = FileSchedule("movie")
    fs.add_delivery(_fig2_delivery(("VW", "IS1"), ONE_PM, "U1"))
    fs.add_delivery(_fig2_delivery(("IS1", "IS2"), TWO_THIRTY_PM, "U2"))
    fs.add_delivery(_fig2_delivery(("IS1", "IS2"), FOUR_PM, "U3"))
    fs.add_residency(
        ResidencyInfo("movie", "IS1", "VW", ONE_PM, FOUR_PM, ("U2", "U3"))
    )
    return Schedule([fs])


class TestFig2WorkedExample:
    """The paper's hand-computed costs: Ψ(S1)=$259.20, Ψ(S2)=$138.975."""

    def test_psi_s1(self, fig2_cm):
        assert fig2_cm.total(fig2_schedule_s1()) == pytest.approx(259.2)

    def test_psi_s1_is_pure_network(self, fig2_cm):
        b = fig2_cm.schedule_cost(fig2_schedule_s1())
        assert b.storage == 0.0
        assert b.network == pytest.approx(259.2)

    def test_psi_s2(self, fig2_cm):
        assert fig2_cm.total(fig2_schedule_s2()) == pytest.approx(138.975)

    def test_psi_s2_breakdown(self, fig2_cm):
        b = fig2_cm.schedule_cost(fig2_schedule_s2())
        assert b.network == pytest.approx(129.6)
        assert b.storage == pytest.approx(9.375)

    def test_s2_cheaper_than_s1(self, fig2_cm):
        assert fig2_cm.total(fig2_schedule_s2()) < fig2_cm.total(fig2_schedule_s1())


class TestResidencyCost:
    @pytest.fixture
    def cm(self):
        topo = Topology()
        topo.add_warehouse("VW")
        topo.add_storage("IS1", srate=2.0, capacity=1e9)
        topo.add_edge("VW", "IS1", nrate=0.0)
        catalog = VideoCatalog([VideoFile("v", size=10.0, playback=4.0)])
        return CostModel(topo, catalog)

    def test_long_residency_eq2(self, cm):
        # srate * size * ((tf-ts) + P/2) = 2 * 10 * (8 + 2) = 200
        c = ResidencyInfo("v", "IS1", "VW", 0.0, 8.0)
        assert cm.residency_cost(c) == pytest.approx(200.0)

    def test_short_residency_eq3(self, cm):
        # gamma = 2/4; 2 * 10 * 0.5 * (2 + 2) = 40
        c = ResidencyInfo("v", "IS1", "VW", 0.0, 2.0)
        assert cm.residency_cost(c) == pytest.approx(40.0)

    def test_zero_extent_costs_nothing(self, cm):
        c = ResidencyInfo("v", "IS1", "VW", 3.0, 3.0)
        assert cm.residency_cost(c) == 0.0

    def test_warehouse_residency_free(self, cm):
        # srate(VW) = 0 per the paper
        c = ResidencyInfo("v", "VW", "IS1", 0.0, 100.0)
        assert cm.residency_cost(c) == 0.0

    def test_cost_equals_profile_integral(self, cm):
        video = cm.catalog["v"]
        c = ResidencyInfo("v", "IS1", "VW", 1.0, 9.5)
        srate = cm.topology.srate("IS1")
        assert cm.residency_cost(c) == pytest.approx(srate * c.profile(video).integral())

    def test_residency_cost_for_matches(self, cm):
        c = ResidencyInfo("v", "IS1", "VW", 0.0, 8.0)
        assert cm.residency_cost_for("v", "IS1", 0.0, 8.0) == pytest.approx(
            cm.residency_cost(c)
        )

    def test_residency_cost_for_rejects_reversed(self, cm):
        with pytest.raises(ScheduleError):
            cm.residency_cost_for("v", "IS1", 8.0, 0.0)


class TestDeliveryCost:
    @pytest.fixture
    def cm(self):
        topo = Topology()
        topo.add_warehouse("VW")
        topo.add_storage("IS1", srate=0.0, capacity=1e9)
        topo.add_storage("IS2", srate=0.0, capacity=1e9)
        topo.add_edge("VW", "IS1", nrate=3.0)
        topo.add_edge("IS1", "IS2", nrate=2.0)
        catalog = VideoCatalog([VideoFile("v", size=10.0, playback=5.0)])
        return CostModel(topo, catalog)

    def test_per_hop_sum(self, cm):
        d = DeliveryInfo(
            "v", ("VW", "IS1", "IS2"), 0.0, Request(0.0, "v", "u", "IS2")
        )
        # volume = size = 10 (bandwidth defaults to playback rate)
        assert cm.delivery_cost(d) == pytest.approx(10.0 * 5.0)

    def test_local_service_free(self, cm):
        d = DeliveryInfo("v", ("IS2",), 0.0, Request(0.0, "v", "u", "IS2"))
        assert cm.delivery_cost(d) == 0.0

    def test_end_to_end_explicit_rate(self, cm):
        cm.topology.charging_basis = ChargingBasis.END_TO_END
        cm.topology.set_pair_rate("VW", "IS2", 1.0)
        d = DeliveryInfo(
            "v", ("VW", "IS1", "IS2"), 0.0, Request(0.0, "v", "u", "IS2")
        )
        assert cm.delivery_cost(d) == pytest.approx(10.0)

    def test_end_to_end_fallback_to_hops(self, cm):
        cm.topology.charging_basis = ChargingBasis.END_TO_END
        d = DeliveryInfo(
            "v", ("VW", "IS1", "IS2"), 0.0, Request(0.0, "v", "u", "IS2")
        )
        assert cm.delivery_cost(d) == pytest.approx(50.0)

    def test_network_volume_uses_bandwidth(self):
        topo = Topology()
        topo.add_warehouse("VW")
        topo.add_storage("IS1", srate=0.0, capacity=1e9)
        topo.add_edge("VW", "IS1", nrate=1.0)
        video = VideoFile("v", size=10.0, playback=5.0, bandwidth=4.0)
        cm = CostModel(topo, VideoCatalog([video]))
        d = DeliveryInfo("v", ("VW", "IS1"), 0.0, Request(0.0, "v", "u", "IS1"))
        assert cm.delivery_cost(d) == pytest.approx(20.0)  # P*B = 20, not size


class TestAggregation:
    def test_schedule_cost_is_sum_of_file_costs(self, fig2_cm):
        s2 = fig2_schedule_s2()
        per_file = sum(fig2_cm.file_cost(fs).total for fs in s2)
        assert fig2_cm.total(s2) == pytest.approx(per_file)

    def test_breakdown_addition(self):
        from repro import CostBreakdown

        a = CostBreakdown(1.0, 2.0)
        b = CostBreakdown(0.5, 0.25)
        c = a + b
        assert (c.storage, c.network, c.total) == (1.5, 2.25, 3.75)

    def test_empty_schedule_is_free(self, fig2_cm):
        assert fig2_cm.total(Schedule()) == 0.0


class TestReplicaClone:
    """Clones share the route table and keep their own counters."""

    def test_clone_hits_the_warm_cache(self, fig2_cm):
        s2 = fig2_schedule_s2()
        fig2_cm.total(s2)  # warm the route table
        clone = fig2_cm.with_replicas(fig2_cm.replicas)
        assert clone.cache_stats.lookups == 0  # counters start fresh
        clone.delivery_cost(s2.deliveries[0])
        assert clone.cache_stats.hits == 1
        assert clone.cache_stats.misses == 0

    def test_clones_share_the_route_table_not_the_counters(self, fig2_cm):
        s1 = fig2_schedule_s1()
        first, second = (
            fig2_cm.with_replicas(fig2_cm.replicas) for _ in range(2)
        )
        for clone in (first, second):
            assert clone._route_rates is fig2_cm._route_rates
        first.total(s1)  # two distinct routes: two misses, one hit
        assert first.cache_stats == CacheStats(hits=1, misses=2)
        assert fig2_cm.cache_stats == CacheStats()
        second.total(s1)  # the shared table is warm now
        assert second.cache_stats == CacheStats(hits=3, misses=0)
        assert first.cache_stats == CacheStats(hits=1, misses=2)
        assert fig2_cm.cache_stats == CacheStats()

    def test_clone_prices_like_the_original(self, fig2_cm):
        s2 = fig2_schedule_s2()
        want = fig2_cm.total(s2)
        clone = fig2_cm.with_replicas(fig2_cm.replicas)
        assert clone.total(s2) == want
        assert fig2_cm.cache_stats.lookups > 0  # original counters kept


def _two_warehouses():
    """VW1 and VW2 both two hops from IS2 at equal rates; VW1 one hop from
    IS1, VW2 two."""
    topo = Topology()
    for w in ("VW1", "VW2"):
        topo.add_warehouse(w)
    for name in ("IS1", "IS2", "IS3"):
        topo.add_storage(name, srate=0.0, capacity=1e12)
    topo.add_edge("VW1", "IS1", nrate=2.0)
    topo.add_edge("IS1", "IS2", nrate=1.0)
    topo.add_edge("VW2", "IS3", nrate=1.0)
    topo.add_edge("IS3", "IS1", nrate=1.0)
    topo.add_edge("IS3", "IS2", nrate=2.0)
    catalog = VideoCatalog(
        [VideoFile(v, size=100.0, playback=10.0) for v in ("a", "b")]
    )
    return topo, catalog


class TestHomes:
    def test_every_warehouse_without_a_map(self):
        topo, catalog = _two_warehouses()
        assert CostModel(topo, catalog).homes("a") == ("VW1", "VW2")

    def test_map_homes_that_are_warehouses_of_the_topology(self):
        topo, catalog = _two_warehouses()
        replicas = ReplicaMap({"a": ["VW2", "VW9"], "b": ["VW1"]})
        cm = CostModel(topo, catalog, replicas=replicas)
        assert cm.homes("a") == ("VW2",)
        assert cm.homes("b") == ("VW1",)

    def test_a_video_the_map_does_not_cover_raises(self):
        topo, catalog = _two_warehouses()
        cm = CostModel(topo, catalog, replicas=ReplicaMap({"a": ["VW1"]}))
        with pytest.raises(ReplicationError, match="'b'"):
            cm.homes("b")

    def test_a_clone_reads_its_own_map(self):
        topo, catalog = _two_warehouses()
        cm = CostModel(topo, catalog, replicas=ReplicaMap({"a": ["VW1"]}))
        assert cm.homes("a") == ("VW1",)  # memoized on the original
        clone = cm.with_replicas(ReplicaMap({"a": ["VW2"]}))
        assert clone.homes("a") == ("VW2",)
        assert cm.homes("a") == ("VW1",)


class TestCheapestHome:
    def test_least_psi_d_then_hops_then_name(self):
        topo, catalog = _two_warehouses()
        cm = CostModel(topo, catalog)
        volume = catalog["a"].network_volume
        # IS1: VW1 at rate 2 over one hop beats VW2 at rate 2 over two
        psi_d, route = cm.cheapest_home("a", 0.0, cm.router.routes_to("IS1"))
        assert route.nodes == ("VW1", "IS1")
        assert psi_d == volume * 2.0
        # IS2: both at rate 3 over two hops; the name breaks the tie
        psi_d, route = cm.cheapest_home("a", 0.0, cm.router.routes_to("IS2"))
        assert route.nodes == ("VW1", "IS1", "IS2")
        assert psi_d == volume * 3.0

    def test_only_homes_the_table_holds(self):
        topo, catalog = _two_warehouses()
        cm = CostModel(topo, catalog, replicas=ReplicaMap({"a": ["VW2"]}))
        table = cm.router.routes_to("IS1")
        _, route = cm.cheapest_home("a", 0.0, table)
        assert route.src == "VW2"
        without = {k: v for k, v in table.items() if k != "VW2"}
        assert cm.cheapest_home("a", 0.0, without) is None

    def test_tariff_in_the_greedys_operand_order(self):
        from repro.extensions import DiurnalCostModel, TimeOfDayTariff

        topo, catalog = _two_warehouses()
        cm = DiurnalCostModel(
            topo, catalog, TimeOfDayTariff.evening_peak(peak_multiplier=1.7)
        )
        t = 19 * units.HOUR
        psi_d, route = cm.cheapest_home("a", t, cm.router.routes_to("IS2"))
        volume = catalog["a"].network_volume
        assert psi_d == volume * cm.network_multiplier(t) * route.rate


class TestRouteTableCounters:
    def test_one_lookup_per_multi_hop_delivery_none_per_residency(self, fig2_cm):
        s2 = fig2_schedule_s2()
        (fs,) = s2
        fs.add_delivery(_fig2_delivery(("IS1",), FOUR_PM, "U4"))  # local copy
        multi_hop = sum(1 for d in s2.deliveries if len(d.route) > 1)
        assert (multi_hop, len(s2.residencies)) == (3, 1)
        before = fig2_cm.cache_stats
        fig2_cm.schedule_cost(s2)
        assert (fig2_cm.cache_stats - before).lookups == multi_hop
        before = fig2_cm.cache_stats
        fig2_cm.residency_cost(s2.residencies[0])
        fig2_cm.residency_cost_for("movie", "IS1", ONE_PM, FOUR_PM)
        assert fig2_cm.cache_stats == before


class TestCostModelProperties:
    @given(
        srate=st.floats(min_value=0.0, max_value=10.0),
        size=st.floats(min_value=1.0, max_value=1e3),
        playback=st.floats(min_value=1.0, max_value=100.0),
        start=st.floats(min_value=0.0, max_value=1e3),
        dur=st.floats(min_value=0.0, max_value=1e3),
    )
    @settings(max_examples=80, deadline=None)
    def test_residency_cost_nonnegative_and_monotone_in_duration(
        self, srate, size, playback, start, dur
    ):
        topo = Topology()
        topo.add_warehouse("VW")
        topo.add_storage("IS1", srate=srate, capacity=1e12)
        topo.add_edge("VW", "IS1", nrate=0.0)
        cm = CostModel(topo, VideoCatalog([VideoFile("v", size=size, playback=playback)]))
        c1 = cm.residency_cost_for("v", "IS1", start, start + dur)
        c2 = cm.residency_cost_for("v", "IS1", start, start + dur * 1.5 + 1.0)
        assert c1 >= 0.0
        assert c2 >= c1
