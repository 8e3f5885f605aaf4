"""Tests for the topology graph model."""

import math

import pytest

from repro.errors import TopologyError
from repro.faults import FaultKind, FaultSpec
from repro.faults.inject import masked_topology
from repro.topology import NodeKind, Topology


@pytest.fixture
def small_topo():
    t = Topology()
    t.add_warehouse("VW")
    t.add_storage("IS1", srate=1e-12, capacity=5e9)
    t.add_storage("IS2", srate=2e-12, capacity=8e9)
    t.add_edge("VW", "IS1", nrate=2e-7)
    t.add_edge("IS1", "IS2", nrate=1e-7)
    return t


class TestNodes:
    def test_warehouse_properties(self, small_topo):
        vw = small_topo.node("VW")
        assert vw.is_warehouse and not vw.is_storage
        assert vw.srate == 0.0
        assert vw.capacity == math.inf

    def test_storage_properties(self, small_topo):
        s = small_topo.node("IS1")
        assert s.is_storage and not s.is_warehouse
        assert s.srate == 1e-12
        assert s.capacity == 5e9
        assert s.kind is NodeKind.STORAGE

    def test_unique_warehouse_property(self, small_topo):
        assert small_topo.warehouse.name == "VW"

    def test_warehouse_property_raises_with_two(self, small_topo):
        small_topo.add_warehouse("VW2")
        with pytest.raises(TopologyError, match="exactly one warehouse"):
            _ = small_topo.warehouse

    def test_duplicate_node_rejected(self, small_topo):
        with pytest.raises(TopologyError, match="duplicate"):
            small_topo.add_storage("IS1", srate=0.0, capacity=1.0)

    def test_negative_srate_rejected(self):
        t = Topology()
        with pytest.raises(TopologyError, match="srate"):
            t.add_storage("IS1", srate=-1.0, capacity=1.0)

    def test_nonpositive_capacity_rejected(self):
        t = Topology()
        with pytest.raises(TopologyError, match="capacity"):
            t.add_storage("IS1", srate=0.0, capacity=0.0)

    def test_unknown_node_lookup(self, small_topo):
        with pytest.raises(TopologyError, match="unknown node"):
            small_topo.node("nope")

    def test_contains(self, small_topo):
        assert "IS1" in small_topo
        assert "nope" not in small_topo


class TestEdges:
    def test_edge_lookup_symmetric(self, small_topo):
        assert small_topo.edge("VW", "IS1") is small_topo.edge("IS1", "VW")

    def test_edge_rate(self, small_topo):
        assert small_topo.edge("IS1", "IS2").nrate == 1e-7

    def test_neighbors(self, small_topo):
        assert set(small_topo.neighbors("IS1")) == {"VW", "IS2"}

    def test_self_loop_rejected(self, small_topo):
        with pytest.raises(TopologyError, match="self-loop"):
            small_topo.add_edge("IS1", "IS1", nrate=1.0)

    def test_duplicate_edge_rejected(self, small_topo):
        with pytest.raises(TopologyError, match="duplicate edge"):
            small_topo.add_edge("IS1", "VW", nrate=1.0)

    def test_edge_to_unknown_node_rejected(self, small_topo):
        with pytest.raises(TopologyError, match="unknown node"):
            small_topo.add_edge("VW", "IS9", nrate=1.0)

    def test_negative_nrate_rejected(self, small_topo):
        small_topo.add_storage("IS3", srate=0.0, capacity=1.0)
        with pytest.raises(TopologyError, match="nrate"):
            small_topo.add_edge("IS2", "IS3", nrate=-0.5)

    def test_edge_other_endpoint(self, small_topo):
        e = small_topo.edge("VW", "IS1")
        assert e.other("VW") == "IS1"
        assert e.other("IS1") == "VW"
        with pytest.raises(TopologyError):
            e.other("IS2")

    def test_missing_edge(self, small_topo):
        with pytest.raises(TopologyError, match="no edge"):
            small_topo.edge("VW", "IS2")


class TestPairRates:
    def test_set_and_get(self, small_topo):
        small_topo.set_pair_rate("VW", "IS2", 5e-7)
        assert small_topo.pair_rate("IS2", "VW") == 5e-7

    def test_unset_is_none(self, small_topo):
        assert small_topo.pair_rate("VW", "IS2") is None

    def test_unknown_node_rejected(self, small_topo):
        with pytest.raises(TopologyError, match="unknown node"):
            small_topo.set_pair_rate("VW", "IS9", 1.0)


class TestWarehouseList:
    """``warehouses`` is kept as nodes are added, not re-scanned."""

    @staticmethod
    def _interleaved() -> Topology:
        t = Topology()
        t.add_storage("IS1", srate=1e-12, capacity=5e9)
        t.add_warehouse("VW2")
        t.add_storage("IS2", srate=2e-12, capacity=8e9)
        t.add_warehouse("VW1")
        t.add_warehouse("VW3")
        t.add_edge("VW2", "IS1", nrate=1e-7)
        t.add_edge("IS1", "IS2", nrate=1e-7)
        t.add_edge("IS2", "VW1", nrate=1e-7)
        t.add_edge("IS2", "VW3", nrate=1e-7)
        return t

    def test_insertion_order(self):
        t = self._interleaved()
        assert [w.name for w in t.warehouses] == ["VW2", "VW1", "VW3"]
        assert t.warehouses == [n for n in t.nodes if n.is_warehouse]

    def test_returns_a_copy(self):
        t = self._interleaved()
        t.warehouses.clear()
        assert len(t.warehouses) == 3

    def test_order_survives_copies_and_masks(self):
        t = self._interleaved()
        outage = FaultSpec(
            kind=FaultKind.WAREHOUSE_LOSS, target="VW1", t_start=0.0, t_end=1.0
        )
        copy = masked_topology(t, outage)
        assert [w.name for w in copy.warehouses] == ["VW2", "VW3"]
        assert copy.warehouses == [n for n in copy.nodes if n.is_warehouse]

    def test_equality_unchanged(self):
        a, b = self._interleaved(), self._interleaved()
        assert a == b
        b.add_warehouse("VW4")
        assert a != b
        # node order never entered equality; the kept list does not either
        c = Topology()
        for name in ("VW3", "VW1", "VW2"):
            c.add_warehouse(name)
        c.add_storage("IS2", srate=2e-12, capacity=8e9)
        c.add_storage("IS1", srate=1e-12, capacity=5e9)
        for x, y in (("VW2", "IS1"), ("IS1", "IS2"), ("IS2", "VW1"), ("IS2", "VW3")):
            c.add_edge(x, y, nrate=1e-7)
        assert [w.name for w in c.warehouses] == ["VW3", "VW1", "VW2"]
        assert a == c
