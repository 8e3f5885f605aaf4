"""Tests for VideoCatalog and its generators."""

import pytest

from repro import VideoCatalog, VideoFile, paper_catalog, uniform_catalog, units
from repro.errors import CatalogError


class TestVideoCatalog:
    def test_add_and_lookup(self):
        cat = VideoCatalog()
        v = VideoFile("a", size=1.0, playback=1.0)
        cat.add(v)
        assert cat["a"] is v
        assert "a" in cat and "b" not in cat
        assert len(cat) == 1

    def test_duplicate_id_rejected(self):
        cat = VideoCatalog([VideoFile("a", size=1.0, playback=1.0)])
        with pytest.raises(CatalogError, match="duplicate"):
            cat.add(VideoFile("a", size=2.0, playback=2.0))

    def test_unknown_id(self):
        with pytest.raises(CatalogError, match="unknown video"):
            VideoCatalog()["zzz"]

    def test_rank_order_is_insertion_order(self):
        cat = VideoCatalog(
            [VideoFile(f"v{i}", size=1.0, playback=1.0) for i in range(3)]
        )
        assert cat.by_rank(0).video_id == "v0"
        assert cat.by_rank(2).video_id == "v2"
        with pytest.raises(CatalogError):
            cat.by_rank(3)

    def test_aggregates(self):
        cat = VideoCatalog(
            [
                VideoFile("a", size=2.0, playback=1.0),
                VideoFile("b", size=4.0, playback=1.0),
            ]
        )
        assert cat.total_size == 6.0
        assert cat.mean_size == 3.0

    def test_mean_of_empty_raises(self):
        with pytest.raises(CatalogError, match="empty"):
            _ = VideoCatalog().mean_size

    def test_iteration_and_ids(self):
        cat = uniform_catalog(3, size=1.0, playback=1.0)
        assert [v.video_id for v in cat] == cat.ids


class TestUniformCatalog:
    def test_identical_entries(self):
        cat = uniform_catalog(5, size=2e9, playback=5400.0)
        assert len(cat) == 5
        assert all(v.size == 2e9 and v.playback == 5400.0 for v in cat)

    def test_requires_positive_count(self):
        with pytest.raises(CatalogError):
            uniform_catalog(0, size=1.0, playback=1.0)


class TestPaperCatalog:
    def test_table4_defaults(self):
        cat = paper_catalog(seed=0)
        assert len(cat) == 500
        assert cat.mean_size == pytest.approx(3.3 * units.GB, rel=0.05)

    def test_sizes_within_spread(self):
        cat = paper_catalog(100, mean_size=3.3e9, seed=1)
        assert all(3.3e9 * 0.75 <= v.size <= 3.3e9 * 1.25 for v in cat)

    def test_deterministic(self):
        c1 = paper_catalog(50, seed=9)
        c2 = paper_catalog(50, seed=9)
        assert [v.size for v in c1] == [v.size for v in c2]

    def test_seed_changes_output(self):
        c1 = paper_catalog(50, seed=1)
        c2 = paper_catalog(50, seed=2)
        assert [v.size for v in c1] != [v.size for v in c2]

    def test_bandwidth_is_playback_rate(self):
        cat = paper_catalog(10, seed=0)
        for v in cat:
            assert v.network_volume == pytest.approx(v.size)
