"""Zipf popularity model for video access patterns.

The paper (Sec. 5.4, following Dan & Sitaram) models the probability of
requesting the ``i``-th most popular of ``M`` titles as

    p_i  proportional to  1 / i^(1 - alpha),        i = 1..M

where the skew parameter ``alpha`` in ``[0, 1]`` *increases* toward a uniform
distribution: "Larger alpha implies a less biased distribution."  With
``alpha = 0`` this is the classic Zipf law; ``alpha = 1`` is uniform;
``alpha = 0.271`` approximates commercial video-rental behaviour.
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError


class ZipfPopularity:
    """Sampler and pmf for the paper's Zipf(alpha) access pattern."""

    def __init__(self, n_items: int, alpha: float):
        if n_items < 1:
            raise WorkloadError(f"need at least one item, got {n_items}")
        if not (0.0 <= alpha <= 1.0):
            raise WorkloadError(f"alpha must be in [0, 1], got {alpha}")
        self.n_items = n_items
        self.alpha = alpha
        ranks = np.arange(1, n_items + 1, dtype=np.float64)
        weights = ranks ** -(1.0 - alpha)
        self._pmf = weights / weights.sum()
        self._cdf = np.cumsum(self._pmf)
        # Guard against floating-point drift at the top of the cdf.
        self._cdf[-1] = 1.0

    @property
    def pmf(self) -> np.ndarray:
        """Probability of each rank (0-based index = rank-1). Read-only view."""
        out = self._pmf.view()
        out.flags.writeable = False
        return out

    def probability(self, rank: int) -> float:
        """Probability of the ``rank``-th most popular item (0-based)."""
        if not (0 <= rank < self.n_items):
            raise WorkloadError(f"rank {rank} out of range [0, {self.n_items})")
        return float(self._pmf[rank])

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` 0-based ranks i.i.d. from the popularity distribution."""
        if n < 0:
            raise WorkloadError(f"n must be >= 0, got {n}")
        u = rng.random(n)
        return np.searchsorted(self._cdf, u, side="left").astype(np.int64)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ZipfPopularity(n_items={self.n_items}, alpha={self.alpha})"
