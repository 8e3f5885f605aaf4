"""Time-of-day network tariffs.

The paper's related work points at the network-pricing literature (Cocchi et
al.; Shenker et al.): real transfer pricing is not flat, and a VOR provider
with day-ahead knowledge should exploit cheap off-peak capacity.  This
extension provides a piecewise-constant diurnal tariff and a
:class:`DiurnalCostModel` that applies it to every network charge -- both
when *evaluating* Ψ and inside the greedy's candidate pricing, so the
scheduler optimizes under the tariff it is billed under.

A typical effect: under an expensive evening peak the scheduler caches more
aggressively, because a stream already paid for at 8 pm seeds caches whose
later *local* services dodge the peak network price entirely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.catalog.catalog import VideoCatalog
from repro.core.costmodel import CostModel
from repro.errors import ConfigError
from repro.topology.graph import Topology
from repro import units


@dataclass(frozen=True)
class TariffBand:
    """One daily band: ``[start, end)`` hours at a rate multiplier."""

    start_hour: float
    end_hour: float
    multiplier: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.start_hour < self.end_hour <= 24.0):
            raise ConfigError(
                f"band must satisfy 0 <= start < end <= 24, got "
                f"[{self.start_hour}, {self.end_hour})"
            )
        if not (self.multiplier > 0 and math.isfinite(self.multiplier)):
            raise ConfigError(
                f"multiplier must be positive and finite, got {self.multiplier}"
            )


class TimeOfDayTariff:
    """Piecewise-constant daily rate multiplier.

    Bands may not overlap; time outside every band is billed at the flat
    rate (multiplier 1.0).  Times are taken modulo 24 h, so the tariff
    applies uniformly to multi-day horizons.
    """

    def __init__(self, bands: list[TariffBand]):
        ordered = sorted(bands, key=lambda b: b.start_hour)
        for a, b in zip(ordered, ordered[1:]):
            if b.start_hour < a.end_hour:
                raise ConfigError(
                    f"tariff bands overlap: [{a.start_hour}, {a.end_hour}) and "
                    f"[{b.start_hour}, {b.end_hour})"
                )
        self._bands = ordered

    @classmethod
    def evening_peak(cls, *, peak_multiplier: float = 1.5) -> "TimeOfDayTariff":
        """A common shape: pricey prime time (18-23 h), cheap overnight
        (0-6 am, x0.6)."""
        return cls(
            [TariffBand(0.0, 6.0, 0.6), TariffBand(18.0, 23.0, peak_multiplier)]
        )

    def multiplier(self, t: float) -> float:
        """Rate multiplier at absolute time ``t`` (seconds)."""
        hour = (t % units.DAY) / units.HOUR
        for band in self._bands:
            if band.start_hour <= hour < band.end_hour:
                return band.multiplier
        return 1.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(
            f"[{b.start_hour:g}h-{b.end_hour:g}h)x{b.multiplier:g}"
            for b in self._bands
        )
        return f"TimeOfDayTariff({parts})"


class DiurnalCostModel(CostModel):
    """Ψ with a time-of-day network tariff (storage stays flat)."""

    def __init__(
        self,
        topology: Topology,
        catalog: VideoCatalog,
        tariff: TimeOfDayTariff,
    ):
        # the memoized route rate is tariff-free (the multiplier is applied
        # per delivery, outside the cache), so caching stays exact here too
        super().__init__(topology, catalog)
        self._tariff = tariff

    @property
    def tariff(self) -> TimeOfDayTariff:
        return self._tariff

    def network_multiplier(self, start_time: float) -> float:
        return self._tariff.multiplier(start_time)
