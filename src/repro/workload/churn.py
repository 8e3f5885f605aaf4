"""Popularity churn across scheduling cycles.

Video popularity is not static: new releases enter near the top of the
chart and older titles decay (the video-rental pattern Dan & Sitaram fitted
is a *snapshot* of such a process).  For multi-cycle studies
(:mod:`repro.extensions.rolling`), :class:`RankChurn` evolves the mapping
from popularity rank to catalog title cycle by cycle:

* each cycle, a fraction ``churn`` of titles is redrawn to a uniformly
  random rank (modelling releases/decay as rank swaps);
* the remaining titles keep their rank ordering.

The Zipf *shape* over ranks is unchanged -- only which title occupies each
rank moves -- so single-cycle statistics stay comparable across cycles
while cache reuse across cycles degrades realistically.
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError


class RankChurn:
    """Evolving rank->title assignment over scheduling cycles.

    Args:
        n_items: Catalog size.
        churn: Fraction of titles re-ranked each cycle, in [0, 1].
        seed: RNG seed; the whole trajectory is deterministic.
    """

    def __init__(self, n_items: int, *, churn: float = 0.1, seed: int = 0):
        if n_items < 1:
            raise WorkloadError(f"need at least one item, got {n_items}")
        if not (0.0 <= churn <= 1.0):
            raise WorkloadError(f"churn must be in [0, 1], got {churn}")
        self.n_items = n_items
        self.churn = churn
        self._rng = np.random.default_rng(seed)
        #: permutation[rank] = catalog index currently holding that rank
        self._perm = np.arange(n_items, dtype=np.int64)
        self._cycle = 0

    @property
    def cycle(self) -> int:
        return self._cycle

    @property
    def permutation(self) -> np.ndarray:
        """Current rank->catalog-index mapping (read-only copy)."""
        return self._perm.copy()

    def advance(self) -> np.ndarray:
        """Move to the next cycle; returns the new permutation (copy).

        A ``churn`` fraction of positions is selected and their titles are
        re-dealt among those positions uniformly at random.
        """
        n_moved = int(round(self.churn * self.n_items))
        if n_moved >= 2:
            positions = self._rng.choice(self.n_items, size=n_moved, replace=False)
            shuffled = self._rng.permutation(positions)
            self._perm[positions] = self._perm[shuffled]
        self._cycle += 1
        return self.permutation
