"""Tests for the popularity churn model."""

import numpy as np
import pytest

from repro import (
    RankChurn,
    WorkloadGenerator,
    uniform_catalog,
)
from repro.errors import WorkloadError
from tests.topology_shapes import star_topology


class TestRankChurn:
    def test_starts_as_identity(self):
        churn = RankChurn(10, churn=0.5, seed=0)
        assert churn.permutation.tolist() == list(range(10))
        assert churn.cycle == 0

    def test_advance_is_a_permutation(self):
        churn = RankChurn(50, churn=0.3, seed=1)
        for _ in range(5):
            perm = churn.advance()
            assert sorted(perm.tolist()) == list(range(50))

    def test_churn_fraction_respected(self):
        churn = RankChurn(100, churn=0.2, seed=2)
        before = churn.permutation
        after = churn.advance()
        moved = int((before != after).sum())
        assert moved <= 20  # at most the churned positions move

    def test_zero_churn_static(self):
        churn = RankChurn(20, churn=0.0, seed=3)
        assert churn.advance().tolist() == list(range(20))

    def test_full_churn_moves_many(self):
        churn = RankChurn(200, churn=1.0, seed=4)
        after = churn.advance()
        assert int((after != np.arange(200)).sum()) > 150

    def test_deterministic(self):
        a = RankChurn(30, churn=0.4, seed=9)
        b = RankChurn(30, churn=0.4, seed=9)
        for _ in range(3):
            assert a.advance().tolist() == b.advance().tolist()

    def test_validation(self):
        with pytest.raises(WorkloadError):
            RankChurn(0)
        with pytest.raises(WorkloadError):
            RankChurn(10, churn=1.5)


class TestGeneratorWithChurn:
    def test_permutation_changes_popular_title(self):
        topo = star_topology(3, nrate=1.0, srate=0.0, capacity=1e12)
        catalog = uniform_catalog(20, size=1e9, playback=3600.0)
        gen = WorkloadGenerator(
            topo, catalog, alpha=0.0, users_per_neighborhood=200
        )
        base = gen.generate(seed=0)
        # swap ranks 0 and 19: the former tail title becomes the hit
        perm = np.arange(20)
        perm[0], perm[19] = 19, 0
        churned = gen.generate(seed=0, rank_permutation=perm)

        def top_title(batch):
            counts = {}
            for r in batch:
                counts[r.video_id] = counts.get(r.video_id, 0) + 1
            return max(counts, key=counts.get)

        assert top_title(base) == "video0000"
        assert top_title(churned) == "video0019"

    def test_wrong_length_rejected(self):
        topo = star_topology(2, nrate=1.0, srate=0.0, capacity=1e12)
        catalog = uniform_catalog(5, size=1.0, playback=1.0)
        gen = WorkloadGenerator(topo, catalog)
        with pytest.raises(WorkloadError, match="rank_permutation"):
            gen.generate(seed=0, rank_permutation=np.arange(3))

    def test_identity_permutation_is_noop(self):
        topo = star_topology(2, nrate=1.0, srate=0.0, capacity=1e12)
        catalog = uniform_catalog(5, size=1.0, playback=1.0)
        gen = WorkloadGenerator(topo, catalog)
        a = gen.generate(seed=7)
        b = gen.generate(seed=7, rank_permutation=np.arange(5))
        assert list(a) == list(b)
