"""Tests for environment (de)serialization."""

import json
import math

import pytest

from repro import (
    ChargingBasis,
    RequestBatch,
    Request,
    VideoCatalog,
    VideoFile,
    VideoScheduler,
    paper_catalog,
    paper_topology,
    units,
)
from repro.errors import ConfigError
from repro.io import (
    catalog_from_dict,
    catalog_to_dict,
    load_environment,
    requests_from_dict,
    requests_to_dict,
    save_environment,
    topology_from_dict,
    topology_to_dict,
)


@pytest.fixture
def topo():
    t = paper_topology(
        nrate=units.per_gb(500),
        srate=units.per_gb_hour(5),
        capacity=units.gb(5),
    )
    t.set_pair_rate("VW", "IS7", 1.5e-7)
    return t


class TestTopologyRoundTrip:
    def test_round_trip_preserves_everything(self, topo):
        restored = topology_from_dict(topology_to_dict(topo))
        assert restored.node_names == topo.node_names
        assert [e.key for e in restored.edges] == [e.key for e in topo.edges]
        assert [e.nrate for e in restored.edges] == [e.nrate for e in topo.edges]
        for s in topo.storages:
            r = restored.node(s.name)
            assert (r.srate, r.capacity) == (s.srate, s.capacity)
        assert restored.pair_rate("VW", "IS7") == 1.5e-7

    def test_infinite_capacity_encoded(self):
        from repro import Topology

        t = Topology()
        t.add_warehouse("VW")
        t.add_storage("IS1", srate=0.0)  # default inf capacity
        t.add_edge("VW", "IS1", nrate=1.0)  # default inf bandwidth
        doc = topology_to_dict(t)
        assert doc["nodes"][1]["capacity"] == "inf"
        restored = topology_from_dict(doc)
        assert math.isinf(restored.node("IS1").capacity)
        assert math.isinf(restored.edge("VW", "IS1").bandwidth)

    def test_charging_basis_round_trip(self, topo):
        topo.charging_basis = ChargingBasis.END_TO_END
        restored = topology_from_dict(topology_to_dict(topo))
        assert restored.charging_basis is ChargingBasis.END_TO_END

    def test_malformed_rejected(self):
        with pytest.raises(ConfigError, match="malformed topology"):
            topology_from_dict({"nodes": [{"name": "x"}], "edges": []})
        with pytest.raises(ConfigError, match="unknown node kind"):
            topology_from_dict(
                {"nodes": [{"name": "x", "kind": "teapot"}], "edges": []}
            )


class TestCatalogRoundTrip:
    def test_round_trip(self):
        cat = paper_catalog(20, seed=3)
        restored = catalog_from_dict(catalog_to_dict(cat))
        assert restored.ids == cat.ids
        for v in cat:
            r = restored[v.video_id]
            assert (r.size, r.playback, r.bandwidth) == (
                v.size,
                v.playback,
                v.bandwidth,
            )

    def test_explicit_bandwidth_preserved(self):
        cat = VideoCatalog(
            [VideoFile("v", size=2.5e9, playback=5400.0, bandwidth=750000.0)]
        )
        restored = catalog_from_dict(catalog_to_dict(cat))
        assert restored["v"].bandwidth == 750000.0

    def test_malformed_rejected(self):
        with pytest.raises(ConfigError, match="malformed catalog"):
            catalog_from_dict({"videos": [{"video_id": "v"}]})


class TestRequestsRoundTrip:
    def test_round_trip(self):
        batch = RequestBatch(
            [
                Request(10.0, "v1", "u1", "IS1"),
                Request(5.0, "v2", "u2", "IS2"),
            ]
        )
        restored = requests_from_dict(requests_to_dict(batch))
        assert list(restored) == list(batch)

    def test_malformed_rejected(self):
        with pytest.raises(ConfigError, match="malformed requests"):
            requests_from_dict({"requests": [{"user_id": "u"}]})


class TestEnvironmentFiles:
    def test_save_load_and_schedule(self, topo, tmp_path):
        catalog = paper_catalog(30, seed=4)
        from repro import WorkloadGenerator

        batch = WorkloadGenerator(topo, catalog, users_per_neighborhood=2).generate(4)
        path = tmp_path / "env.json"
        save_environment(path, topology=topo, catalog=catalog, batch=batch)

        t2, c2, b2 = load_environment(path)
        assert b2 is not None
        original = VideoScheduler(topo, catalog).solve(batch).total_cost
        restored = VideoScheduler(t2, c2).solve(b2).total_cost
        assert restored == pytest.approx(original)

    def test_environment_without_batch(self, topo, tmp_path):
        path = tmp_path / "env.json"
        save_environment(path, topology=topo, catalog=paper_catalog(5, seed=1))
        _, _, batch = load_environment(path)
        assert batch is None

    def test_version_check(self, topo, tmp_path):
        path = tmp_path / "env.json"
        path.write_text(json.dumps({"format_version": 99}))
        with pytest.raises(ConfigError, match="format version"):
            load_environment(path)

    @pytest.mark.parametrize(
        "section, index, key",
        [
            ("nodes", 1, "srate"),
            ("nodes", 1, "capacity"),
            ("edges", 0, "nrate"),
            ("pair_rates", 0, "nrate"),
        ],
    )
    def test_nan_rate_or_capacity_refused(self, topo, tmp_path, section, index, key):
        # Python's JSON reads NaN; a NaN price used to load and then fail
        # topology validation with a traceback.
        path = tmp_path / "env.json"
        save_environment(path, topology=topo, catalog=paper_catalog(3, seed=1))
        doc = json.loads(path.read_text())
        doc["topology"][section][index][key] = math.nan
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=f"{key} must be"):
            load_environment(path)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_environment(tmp_path / "missing.json")

    def test_json_is_human_editable(self, topo, tmp_path):
        """The on-disk format is plain JSON with explicit field names."""
        path = tmp_path / "env.json"
        save_environment(path, topology=topo, catalog=paper_catalog(3, seed=1))
        doc = json.loads(path.read_text())
        assert doc["topology"]["nodes"][0]["kind"] == "warehouse"
        assert "srate" in doc["topology"]["nodes"][1]
        assert "playback" in doc["catalog"]["videos"][0]
