"""Tests for topology generators."""

import pytest

from repro import units
from repro.errors import TopologyError
from repro.topology import (
    Router,
    chain_topology,
    paper_topology,
    validate_topology,
    worked_example_topology,
)
from repro.topology.generators import PAPER_STORAGE_COUNT, PAPER_TOPOLOGY_EDGES
from tests.topology_shapes import (
    random_topology,
    ring_topology,
    star_topology,
    tree_topology,
)


class TestPaperTopology:
    def test_node_counts(self):
        t = paper_topology(nrate=1e-7, srate=1e-12, capacity=5e9)
        assert len(t.warehouses) == 1
        assert len(t.storages) == PAPER_STORAGE_COUNT == 19
        assert len(t.node_names) == 20

    def test_edge_count_matches_spec(self):
        t = paper_topology(nrate=1e-7, srate=1e-12, capacity=5e9)
        assert len(t.edges) == len(PAPER_TOPOLOGY_EDGES)

    def test_validates(self):
        validate_topology(paper_topology(nrate=1e-7, srate=1e-12, capacity=5e9))

    def test_uniform_rates_without_jitter(self):
        t = paper_topology(nrate=3e-7, srate=1e-12, capacity=5e9)
        assert {e.nrate for e in t.edges} == {3e-7}

    def test_multi_hop_structure(self):
        """Leaf storages are >= 2 hops from the warehouse."""
        t = paper_topology(nrate=1.0, srate=0, capacity=1e9)
        router = Router(t)
        assert router.route("VW", "IS7").hops >= 2
        assert router.route("VW", "IS11").hops >= 2


class TestWorkedExampleTopology:
    def test_structure(self):
        t = worked_example_topology()
        assert t.warehouse.name == "VW"
        assert {s.name for s in t.storages} == {"IS1", "IS2"}
        assert t.has_edge("VW", "IS1") and t.has_edge("IS1", "IS2")
        assert not t.has_edge("VW", "IS2")

    def test_link_rates_price_fig2_deliveries(self):
        t = worked_example_topology()
        volume = units.mbps(6) * units.minutes(90)
        router = Router(t)
        assert volume * router.route("VW", "IS1").rate == pytest.approx(64.8)
        assert volume * router.route("VW", "IS2").rate == pytest.approx(97.2)
        assert volume * router.route("IS1", "IS2").rate == pytest.approx(32.4)


class TestShapes:
    def test_star(self):
        t = star_topology(5, nrate=1.0, srate=0.0, capacity=1e9)
        validate_topology(t)
        router = Router(t)
        assert all(router.route("VW", f"IS{i}").hops == 1 for i in range(1, 6))

    def test_chain(self):
        t = chain_topology(4, nrate=1.0, srate=0.0, capacity=1e9)
        validate_topology(t)
        assert Router(t).route("VW", "IS4").hops == 4

    def test_ring(self):
        t = ring_topology(5, nrate=1.0, srate=0.0, capacity=1e9)
        validate_topology(t)
        # around the ring, the far node is reachable both ways in <= 3 hops
        assert Router(t).route("VW", "IS3").hops == 3

    def test_ring_two_nodes_no_duplicate_edge(self):
        t = ring_topology(1, nrate=1.0, srate=0.0, capacity=1e9)
        assert len(t.edges) == 1

    def test_tree_depths(self):
        t = tree_topology(6, nrate=1.0, srate=0.0, capacity=1e9)
        router = Router(t)
        assert router.route("VW", "IS1").hops == 1
        assert router.route("VW", "IS2").hops == 1
        assert router.route("VW", "IS3").hops == 2
        assert router.route("VW", "IS6").hops == 2

    def test_random_connected_and_deterministic(self):
        t1 = random_topology(10, nrate=1.0, srate=0.0, capacity=1e9, seed=3)
        t2 = random_topology(10, nrate=1.0, srate=0.0, capacity=1e9, seed=3)
        validate_topology(t1)
        assert [e.key for e in t1.edges] == [e.key for e in t2.edges]

    def test_random_different_seeds_differ(self):
        t1 = random_topology(10, nrate=1.0, srate=0.0, capacity=1e9, seed=3)
        t2 = random_topology(10, nrate=1.0, srate=0.0, capacity=1e9, seed=4)
        assert [e.key for e in t1.edges] != [e.key for e in t2.edges]

    def test_bad_counts(self):
        with pytest.raises(TopologyError):
            star_topology(0, nrate=1.0, srate=0.0, capacity=1e9)
