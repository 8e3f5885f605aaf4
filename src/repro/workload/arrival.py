"""Arrival processes: how reservation start times fall within a cycle.

The paper does not specify its start-time distribution; we default to uniform
over a 24-hour cycle and additionally provide a peak-hour (prime-time) model
and a slotted model (showings on fixed boundaries, as a broadcast-like
service would use).  All processes draw from a caller-supplied
``numpy.random.Generator`` so workloads stay deterministic under a seed.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.errors import WorkloadError
from repro import units


class ArrivalProcess(abc.ABC):
    """Distribution of service start times over ``[0, cycle)``."""

    def __init__(self, cycle: float = units.DAY):
        if not cycle > 0:
            raise WorkloadError(f"cycle must be positive, got {cycle}")
        self.cycle = cycle

    @abc.abstractmethod
    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` start times in ``[0, cycle)``."""


class UniformArrivals(ArrivalProcess):
    """Start times uniform over the cycle (the library default)."""

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if n < 0:
            raise WorkloadError(f"n must be >= 0, got {n}")
        return rng.random(n) * self.cycle


class PeakHourArrivals(ArrivalProcess):
    """Prime-time-heavy start times.

    A fraction ``PEAK_WEIGHT`` of requests is drawn from a normal
    distribution centred on ``PEAK_CENTER`` with spread ``PEAK_WIDTH`` (both
    seconds into the cycle, wrapped modulo the cycle); the rest is uniform.
    Models the evening-viewing concentration of entertainment VOD.
    """

    PEAK_CENTER = 20.0 * units.HOUR
    PEAK_WIDTH = 1.5 * units.HOUR
    PEAK_WEIGHT = 0.7

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if n < 0:
            raise WorkloadError(f"n must be >= 0, got {n}")
        in_peak = rng.random(n) < self.PEAK_WEIGHT
        out = rng.random(n) * self.cycle
        n_peak = int(in_peak.sum())
        peaked = rng.normal(
            self.PEAK_CENTER % self.cycle, self.PEAK_WIDTH, size=n_peak
        )
        out[in_peak] = np.mod(peaked, self.cycle)
        return out


class SlottedArrivals(ArrivalProcess):
    """Start times snapped to fixed 30-minute slot boundaries.

    Reservation services commonly offer discrete showing times; snapping
    also maximises stream sharing, which makes this the friendliest case
    for intermediate caching.
    """

    SLOT = 30.0 * units.MINUTE

    def __init__(self, cycle: float = units.DAY):
        super().__init__(cycle)
        if cycle < self.SLOT:
            raise WorkloadError(f"cycle must hold one {self.SLOT:g} s slot, got {cycle}")

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if n < 0:
            raise WorkloadError(f"n must be >= 0, got {n}")
        n_slots = int(self.cycle // self.SLOT)
        idx = rng.integers(0, n_slots, size=n)
        return idx.astype(np.float64) * self.SLOT
