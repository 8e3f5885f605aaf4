"""Route tables on random small topologies.

``Router.routes_to(dst)`` and the route policies' ``routes`` tables must
answer exactly what routing each source to ``dst`` on its own answers:
the same memoized routes, the same sources left out.  Topologies mix
equal-cost ties, end-to-end pair rates and disconnected nodes.
"""

from __future__ import annotations

import copy
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FaultKind, FaultPlan, FaultSpec, VideoCatalog
from repro.core.costmodel import CostModel
from repro.errors import RoutingError
from repro.extensions.bandwidth import BandwidthRoutePolicy, LinkBandwidthTracker
from repro.faults.contingency import _MaskViews
from repro.faults.inject import masked_graph
from repro.topology import ChargingBasis, Router, Topology


@st.composite
def topologies(draw) -> Topology:
    n_warehouses = draw(st.integers(1, 2))
    n_storages = draw(st.integers(1, 5))
    basis = draw(st.sampled_from(list(ChargingBasis)))
    topo = Topology(charging_basis=basis)
    for i in range(n_warehouses):
        topo.add_warehouse(f"VW{i}")
    for i in range(n_storages):
        topo.add_storage(f"IS{i}", srate=0.0, capacity=1e9)
    names = topo.node_names
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    for a, b in pairs:
        # None leaves the pair unlinked (so some nodes end up cut off);
        # two distinct rates make equal-cost routes common
        nrate = draw(st.sampled_from((None, None, 1.0, 1.0, 2.0)))
        if nrate is not None:
            bandwidth = draw(st.sampled_from((10.0, 20.0, math.inf)))
            topo.add_edge(a, b, nrate=nrate, bandwidth=bandwidth)
    if basis is ChargingBasis.END_TO_END:
        for a, b in draw(st.lists(st.sampled_from(pairs), max_size=3)):
            topo.set_pair_rate(a, b, draw(st.sampled_from((0.5, 3.0))))
    return topo


def _route_or_none(router: Router, src: str, dst: str):
    try:
        return router.route(src, dst)
    except RoutingError:
        return None


class TestRoutesTo:
    @settings(max_examples=60, deadline=None)
    @given(topologies(), st.booleans())
    def test_holds_the_memoized_route_of_every_node_that_reaches(
        self, topo, table_first
    ):
        router = Router(topo)
        names = topo.node_names
        if table_first:
            tables = {dst: router.routes_to(dst) for dst in names}
        for dst in names:
            expected = {
                src: route
                for src in names
                if (route := _route_or_none(router, src, dst)) is not None
            }
            table = tables[dst] if table_first else router.routes_to(dst)
            assert set(table) == set(expected)
            for src, route in expected.items():
                assert table[src] is route
            assert router.routes_to(dst) is table

    def test_read_only_and_unknown_destination(self):
        topo = Topology()
        topo.add_warehouse("VW")
        topo.add_storage("IS1", srate=0.0, capacity=1e9)
        topo.add_storage("IS2", srate=0.0, capacity=1e9)
        topo.add_edge("VW", "IS1", nrate=1.0)
        router = Router(topo)
        table = router.routes_to("IS1")
        assert set(table) == {"VW", "IS1"}
        assert "IS2" not in table and table.get("IS2") is None
        with pytest.raises(TypeError):
            table["IS2"] = router.route("IS1", "IS1")  # type: ignore[index]
        with pytest.raises(RoutingError, match="unknown destination"):
            router.routes_to("IS9")


@st.composite
def fault_plans(draw, topo: Topology) -> FaultPlan:
    targets = [(FaultKind.IS_OUTAGE, s.name) for s in topo.storages]
    targets += [(FaultKind.WAREHOUSE_LOSS, w.name) for w in topo.warehouses]
    targets += [(FaultKind.LINK_DOWN, e.key) for e in topo.edges]
    faults = []
    for kind, target in draw(st.lists(st.sampled_from(targets), max_size=4)):
        t_start = draw(st.sampled_from((0.0, 1.0, 2.0, 3.0)))
        length = draw(st.sampled_from((1.0, 2.0)))
        faults.append(FaultSpec(kind, target, t_start, t_start + length))
    return FaultPlan(tuple(faults))


class TestMaskViewRoutes:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_leaves_out_exactly_the_sources_the_window_cannot_route(self, data):
        topo = data.draw(topologies())
        plan = data.draw(fault_plans(topo))
        views = _MaskViews(CostModel(topo, VideoCatalog([])), plan)
        for t0, t1 in ((0.0, 1.0), (0.5, 2.5), (2.0, 5.0), (5.0, 6.0)):
            masked = masked_graph(topo, plan.overlapping(t0, t1))
            fresh = Router(masked)
            for dst in topo.node_names:
                table = views.routes(dst, t0, t1, 1.0)
                for src in topo.node_names:
                    expected = (
                        _route_or_none(fresh, src, dst)
                        if src in masked and dst in masked
                        else None
                    )
                    assert (src in table) == (expected is not None)
                    assert table.get(src) == expected


def _fitting_route(router, tracker, k, src, dst, t0, t1, bandwidth):
    """k cheapest routes, the first whose links fit the stream; ``None``
    when none does or the two are disconnected."""
    try:
        if src == dst:
            return router.route(src, dst)
        for route in router.k_cheapest_routes(src, dst, k):
            if tracker.fits(route, t0, t1, bandwidth):
                return route
    except RoutingError:
        pass
    return None


class TestBandwidthRoutes:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_returns_the_first_fitting_route_and_books_nothing(self, data):
        topo = data.draw(topologies())
        router = Router(topo)
        tracker = LinkBandwidthTracker(topo)
        k = data.draw(st.integers(1, 3))
        names = topo.node_names
        for _ in range(data.draw(st.integers(0, 4))):
            src, dst = data.draw(st.sampled_from(names)), data.draw(
                st.sampled_from(names)
            )
            route = _route_or_none(router, src, dst)
            if route is not None:
                tracker.book(route, 0.0, 2.0, data.draw(st.sampled_from((5.0, 10.0))))
        policy = BandwidthRoutePolicy(router, tracker, k=k)
        before = copy.deepcopy(tracker._bookings)
        for dst in names:
            table = policy.routes(dst, 1.0, 3.0, 10.0)
            expected = {}
            for src in names:
                route = _fitting_route(router, tracker, k, src, dst, 1.0, 3.0, 10.0)
                assert table.get(src) == route
                if route is not None:
                    expected[src] = route
            assert set(table) == set(expected)
            assert len(table) == len(expected)
        assert tracker._bookings == before
        assert policy.diverted == 0
