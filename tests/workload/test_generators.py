"""Tests for the workload generator."""

import numpy as np
import pytest

from repro import (
    SlottedArrivals,
    WorkloadGenerator,
    paper_catalog,
    uniform_catalog,
    units,
)
from repro.errors import WorkloadError
from repro.topology import paper_topology
from tests.topology_shapes import star_topology


@pytest.fixture
def topo():
    return star_topology(4, nrate=1e-7, srate=1e-12, capacity=5e9)


@pytest.fixture
def catalog():
    return uniform_catalog(20, size=2e9, playback=5400.0)


class TestWorkloadGenerator:
    def test_request_count(self, topo, catalog):
        gen = WorkloadGenerator(topo, catalog, users_per_neighborhood=3)
        batch = gen.generate(seed=0)
        assert len(batch) == gen.n_requests == 4 * 3

    def test_local_storage_assignment(self, topo, catalog):
        batch = WorkloadGenerator(topo, catalog, users_per_neighborhood=2).generate(0)
        locs = {r.local_storage for r in batch}
        assert locs == {"IS1", "IS2", "IS3", "IS4"}
        for r in batch:
            assert r.user_id.startswith(r.local_storage + "/")

    def test_videos_come_from_catalog(self, topo, catalog):
        batch = WorkloadGenerator(topo, catalog).generate(0)
        assert all(r.video_id in catalog for r in batch)

    def test_deterministic(self, topo, catalog):
        gen = WorkloadGenerator(topo, catalog)
        b1, b2 = gen.generate(7), gen.generate(7)
        assert list(b1) == list(b2)

    def test_seed_changes_batch(self, topo, catalog):
        gen = WorkloadGenerator(topo, catalog)
        assert list(gen.generate(1)) != list(gen.generate(2))

    def test_zipf_skew_visible(self, topo):
        catalog = uniform_catalog(50, size=1e9, playback=3600.0)
        gen = WorkloadGenerator(
            topo, catalog, alpha=0.1, users_per_neighborhood=500
        )
        batch = gen.generate(0)
        counts = {}
        for r in batch:
            counts[r.video_id] = counts.get(r.video_id, 0) + 1
        top = counts.get("video0000", 0)
        assert top > len(batch) / 50  # far above the uniform share

    def test_arrival_process_respected(self, topo, catalog):
        gen = WorkloadGenerator(
            topo, catalog, arrivals=SlottedArrivals(units.DAY)
        )
        batch = gen.generate(0)
        assert all(r.start_time % (30 * units.MINUTE) == 0 for r in batch)

    def test_paper_scale(self):
        topo = paper_topology(nrate=1e-7, srate=1e-12, capacity=5e9)
        catalog = paper_catalog(seed=0)
        gen = WorkloadGenerator(topo, catalog, users_per_neighborhood=10)
        batch = gen.generate(seed=0)
        assert len(batch) == 190  # 19 neighborhoods x 10 users

    def test_invalid_args(self, topo, catalog):
        with pytest.raises(WorkloadError):
            WorkloadGenerator(topo, catalog, users_per_neighborhood=0)
        with pytest.raises(WorkloadError):
            WorkloadGenerator(topo, catalog, alpha=2.0)
