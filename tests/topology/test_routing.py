"""Tests for cheapest-path routing."""

import copy
import dataclasses
import pickle

import pytest

from repro.errors import RoutingError
from repro.topology import ChargingBasis, Route, Router, Topology


@pytest.fixture
def diamond():
    """VW -> IS3 via cheap 2-hop (IS1) or expensive 1-hop direct."""
    t = Topology()
    t.add_warehouse("VW")
    for name in ("IS1", "IS2", "IS3"):
        t.add_storage(name, srate=0.0, capacity=1e9)
    t.add_edge("VW", "IS1", nrate=1.0)
    t.add_edge("IS1", "IS3", nrate=1.0)
    t.add_edge("VW", "IS3", nrate=5.0)
    t.add_edge("VW", "IS2", nrate=2.0)
    t.add_edge("IS2", "IS3", nrate=1.0)
    return t


class TestRoute:
    def test_prefers_cheaper_multihop(self, diamond):
        r = Router(diamond).route("VW", "IS3")
        assert r.nodes == ("VW", "IS1", "IS3")
        assert r.hop_cost == pytest.approx(2.0)
        assert r.rate == pytest.approx(2.0)

    def test_zero_length_route(self, diamond):
        r = Router(diamond).route("IS1", "IS1")
        assert r.nodes == ("IS1",)
        assert r.hops == 0
        assert r.rate == 0.0

    def test_route_endpoints(self, diamond):
        r = Router(diamond).route("VW", "IS3")
        assert r.src == "VW" and r.dst == "IS3"
        assert r.edges == [("IS1", "VW"), ("IS1", "IS3")]

    def test_equal_cost_prefers_fewer_hops(self):
        t = Topology()
        t.add_warehouse("VW")
        for name in ("IS1", "IS2"):
            t.add_storage(name, srate=0.0, capacity=1e9)
        t.add_edge("VW", "IS2", nrate=2.0)
        t.add_edge("VW", "IS1", nrate=1.0)
        t.add_edge("IS1", "IS2", nrate=1.0)
        r = Router(t).route("VW", "IS2")
        assert r.nodes == ("VW", "IS2")

    def test_memoised(self, diamond):
        router = Router(diamond)
        assert router.route("VW", "IS3") is router.route("VW", "IS3")

    def test_unknown_nodes(self, diamond):
        router = Router(diamond)
        with pytest.raises(RoutingError):
            router.route("nope", "IS3")
        with pytest.raises(RoutingError):
            router.route("VW", "nope")

    def test_disconnected(self):
        t = Topology()
        t.add_warehouse("VW")
        t.add_storage("IS1", srate=0.0, capacity=1e9)
        with pytest.raises(RoutingError, match="no route"):
            Router(t).route("VW", "IS1")

    def test_reachable(self, diamond):
        assert Router(diamond).reachable("VW") == {"VW", "IS1", "IS2", "IS3"}


class TestRouteRecord:
    """``hops`` is computed once at construction and stays out of
    equality, hashing and the repr."""

    def test_repr_unchanged(self, diamond):
        r = Router(diamond).route("VW", "IS3")
        assert repr(r) == (
            "Route(nodes=('VW', 'IS1', 'IS3'), hop_cost=2.0, rate=2.0)"
        )

    def test_hops_not_a_constructor_field(self):
        r = Route(("VW", "IS1"), 1.0, 1.0)
        assert r.hops == 1
        with pytest.raises(TypeError):
            Route(("VW", "IS1"), 1.0, 1.0, 1)  # type: ignore[call-arg]

    def test_round_trips(self, diamond):
        r = Router(diamond).route("VW", "IS3")
        for clone in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
            assert clone == r and hash(clone) == hash(r)
            assert clone.hops == r.hops == 2
            assert repr(clone) == repr(r)
        moved = dataclasses.replace(r, nodes=("VW", "IS3"))
        assert moved.hops == 1 and moved != r
        assert dataclasses.replace(moved, nodes=r.nodes) == r

    def test_equality_and_hash_ignore_hops(self):
        a = Route(("VW", "IS1", "IS2"), 2.0, 2.0)
        b = Route(("VW", "IS1", "IS2"), 2.0, 2.0)
        assert a == b and hash(a) == hash(b)
        assert a != Route(("VW", "IS2"), 2.0, 2.0)
        assert [f.name for f in dataclasses.fields(a) if f.compare] == [
            "nodes", "hop_cost", "rate",
        ]


class TestEndToEndCharging:
    def test_explicit_pair_rate_used(self, diamond):
        diamond.charging_basis = ChargingBasis.END_TO_END
        diamond.set_pair_rate("VW", "IS3", 0.5)
        r = Router(diamond).route("VW", "IS3")
        assert r.rate == pytest.approx(0.5)
        assert r.hop_cost == pytest.approx(2.0)  # route itself unchanged

    def test_fallback_to_hop_cost(self, diamond):
        diamond.charging_basis = ChargingBasis.END_TO_END
        r = Router(diamond).route("VW", "IS3")
        assert r.rate == pytest.approx(2.0)


class TestKCheapest:
    def test_returns_distinct_ascending(self, diamond):
        routes = Router(diamond).k_cheapest_routes("VW", "IS3", 3)
        assert len(routes) == 3
        costs = [r.hop_cost for r in routes]
        assert costs == sorted(costs)
        assert len({r.nodes for r in routes}) == 3
        assert routes[0].nodes == ("VW", "IS1", "IS3")
        assert routes[1].nodes == ("VW", "IS2", "IS3")
        assert routes[2].nodes == ("VW", "IS3")

    def test_fewer_paths_than_k(self):
        t = Topology()
        t.add_warehouse("VW")
        t.add_storage("IS1", srate=0.0, capacity=1e9)
        t.add_edge("VW", "IS1", nrate=1.0)
        routes = Router(t).k_cheapest_routes("VW", "IS1", 5)
        assert len(routes) == 1

    def test_k_must_be_positive(self, diamond):
        with pytest.raises(RoutingError):
            Router(diamond).k_cheapest_routes("VW", "IS3", 0)
