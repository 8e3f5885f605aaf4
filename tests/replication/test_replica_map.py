"""Unit tests for :class:`repro.replication.ReplicaMap`.

Construction invariants, validation against topology and catalog,
fail-over restriction, JSON round-tripping and the two placement
policies (full-copy and heat-driven).
"""

import json

import pytest

from repro import ReplicaMap, Request, RequestBatch, Topology
from repro.catalog.catalog import VideoCatalog
from repro.catalog.video import VideoFile
from repro.errors import ReplicationError


def _two_warehouse_topology() -> Topology:
    t = Topology()
    t.add_warehouse("VW1")
    t.add_storage("IS1", srate=0.01, capacity=1e12)
    t.add_storage("IS2", srate=0.01, capacity=1e12)
    t.add_warehouse("VW2")
    t.add_edge("VW1", "IS1", nrate=1.0)
    t.add_edge("IS1", "IS2", nrate=2.0)
    t.add_edge("IS2", "VW2", nrate=1.0)
    return t


def _catalog(n: int = 4) -> VideoCatalog:
    return VideoCatalog(
        [
            VideoFile(f"v{i}", size=100.0, playback=10.0)
            for i in range(n)
        ]
    )


class TestConstruction:
    def test_homes_are_deduped_and_sorted(self):
        rm = ReplicaMap({"v": ("VW2", "VW1", "VW2")})
        assert rm.homes("v") == ("VW1", "VW2")
        assert rm.degree("v") == 2

    def test_order_independent_equality_and_hash(self):
        a = ReplicaMap({"v": ("VW1", "VW2"), "w": ("VW1",)})
        b = ReplicaMap({"w": ("VW1",), "v": ("VW2", "VW1")})
        assert a == b
        assert hash(a) == hash(b)

    def test_unknown_video_raises(self):
        rm = ReplicaMap({"v": ("VW1",)})
        with pytest.raises(ReplicationError, match="no replica assignment"):
            rm.homes("nope")

    def test_bad_video_id_rejected(self):
        with pytest.raises(ReplicationError, match="invalid video id"):
            ReplicaMap({"": ("VW1",)})

    def test_bad_home_rejected(self):
        with pytest.raises(ReplicationError, match="invalid home set"):
            ReplicaMap({"v": ("VW1", "")})

    @pytest.mark.parametrize("homes", ["VW", None, 5])
    def test_home_set_must_be_a_list(self, homes):
        # a bare string would otherwise load as one home per character
        with pytest.raises(ReplicationError, match="must be a list"):
            ReplicaMap({"v": homes})
        with pytest.raises(ReplicationError, match="must be a list"):
            ReplicaMap.from_dict({"homes": {"v": homes}})

    @pytest.mark.parametrize("seed", ["x", [], 1.5, True])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(ReplicationError, match="seed must be an integer"):
            ReplicaMap({"v": ("VW1",)}, seed=seed)
        with pytest.raises(ReplicationError, match="seed must be an integer"):
            ReplicaMap.from_dict({"homes": {"v": ["VW1"]}, "seed": seed})

    def test_container_protocol(self):
        rm = ReplicaMap({"v": ("VW1",), "w": ("VW2",)})
        assert "v" in rm and "nope" not in rm
        assert len(rm) == 2
        assert rm.video_ids == ["v", "w"]
        assert rm.warehouses == frozenset({"VW1", "VW2"})


class TestValidate:
    def test_valid_map_passes(self):
        topo = _two_warehouse_topology()
        rm = ReplicaMap({"v0": ("VW1",), "v1": ("VW2", "VW1")})
        rm.validate(topo)

    def test_empty_home_set_rejected(self):
        rm = ReplicaMap({"v": ()})
        with pytest.raises(ReplicationError, match="no home warehouse"):
            rm.validate(_two_warehouse_topology())

    def test_unknown_node_rejected(self):
        rm = ReplicaMap({"v": ("VW9",)})
        with pytest.raises(ReplicationError, match="unknown node"):
            rm.validate(_two_warehouse_topology())

    def test_non_warehouse_home_rejected(self):
        rm = ReplicaMap({"v": ("IS1",)})
        with pytest.raises(ReplicationError, match="not a .*warehouse"):
            rm.validate(_two_warehouse_topology())

    def test_catalog_coverage_missing(self):
        topo = _two_warehouse_topology()
        rm = ReplicaMap({"v0": ("VW1",)})
        with pytest.raises(ReplicationError, match="misses catalog"):
            rm.validate(topo, _catalog(2))

    def test_catalog_coverage_extra(self):
        topo = _two_warehouse_topology()
        rm = ReplicaMap({"v0": ("VW1",), "v1": ("VW1",), "zz": ("VW2",)})
        with pytest.raises(ReplicationError, match="unknown video"):
            rm.validate(topo, _catalog(2))


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rm = ReplicaMap(
            {"v0": ("VW1", "VW2"), "v1": ("VW2",)}, name="demo", seed=3
        )
        path = tmp_path / "replicas.json"
        rm.save(path)
        loaded = ReplicaMap.load(path)
        assert loaded == rm
        assert (loaded.name, loaded.seed) == ("demo", 3)
        loaded.save(tmp_path / "resaved.json")
        assert (tmp_path / "resaved.json").read_bytes() == path.read_bytes()

    def test_format_version_pinned(self, tmp_path):
        doc = ReplicaMap({"v": ("VW1",)}).to_dict()
        assert doc["format_version"] == 1
        doc["format_version"] = 99
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ReplicationError, match="format version"):
            ReplicaMap.load(path)

    def test_malformed_document_rejected(self, tmp_path):
        path = tmp_path / "nohomes.json"
        path.write_text(json.dumps({"format_version": 1}))
        with pytest.raises(ReplicationError, match="no homes"):
            ReplicaMap.load(path)
        garbled = tmp_path / "garbled.json"
        garbled.write_text("{nope")
        with pytest.raises(ReplicationError, match="cannot read"):
            ReplicaMap.load(garbled)


class TestFullCopy:
    def test_every_video_everywhere(self):
        topo = _two_warehouse_topology()
        catalog = _catalog(3)
        rm = ReplicaMap.full_copy(topo, catalog)
        rm.validate(topo, catalog)
        assert all(rm.homes(v) == ("VW1", "VW2") for v in rm.video_ids)
        assert rm.name == "full-copy"

    def test_no_warehouse_raises(self):
        t = Topology()
        t.add_storage("IS1", srate=0.01, capacity=1e12)
        with pytest.raises(ReplicationError, match="no warehouse"):
            ReplicaMap.full_copy(t, _catalog(1))


class TestHeatPlacement:
    def test_deterministic_for_same_seed(self):
        topo = _two_warehouse_topology()
        catalog = _catalog(6)
        a = ReplicaMap.heat_placement(topo, catalog, seed=11)
        b = ReplicaMap.heat_placement(topo, catalog, seed=11)
        assert a == b

    def test_validates_and_respects_degree(self):
        topo = _two_warehouse_topology()
        catalog = _catalog(8)
        batch = RequestBatch(
            [Request(float(i), "v0", f"u{i}", "IS1") for i in range(5)]
        )
        rm = ReplicaMap.heat_placement(
            topo, catalog, batch, degree=1, seed=0
        )
        rm.validate(topo, catalog)
        # 8 videos, a hot quarter -> the hottest 2 replicate everywhere
        degrees = sorted(rm.degree(v) for v in rm.video_ids)
        assert degrees == [1, 1, 1, 1, 1, 1, 2, 2]
        # v0 carries every request, so it must be among the hot set
        assert rm.degree("v0") == 2

    def test_requested_video_homed_near_requesters(self):
        topo = _two_warehouse_topology()
        catalog = _catalog(8)
        # v1 and v2 fill the hot quarter; v0 stays cold, and all its
        # demand sits at IS2, whose cheap warehouse is VW2
        batch = RequestBatch(
            [Request(float(i), v, f"u{i}", "IS1") for v in ("v1", "v2") for i in range(3)]
            + [Request(0.0, "v0", "u9", "IS2")]
        )
        rm = ReplicaMap.heat_placement(topo, catalog, batch, degree=1, seed=0)
        assert rm.degree("v1") == rm.degree("v2") == 2
        assert rm.homes("v0") == ("VW2",)

    def test_bad_arguments_rejected(self):
        topo = _two_warehouse_topology()
        catalog = _catalog(2)
        with pytest.raises(ReplicationError, match="degree"):
            ReplicaMap.heat_placement(topo, catalog, degree=0)
