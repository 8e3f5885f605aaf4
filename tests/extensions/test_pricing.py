"""Tests for the time-of-day tariff extension."""

import pytest

from repro import (
    CostModel,
    DeliveryInfo,
    FileSchedule,
    Request,
    RequestBatch,
    Schedule,
    Topology,
    VideoCatalog,
    VideoFile,
    VideoScheduler,
    chain_topology,
    units,
)
from repro.errors import ConfigError
from repro.extensions import DiurnalCostModel, TariffBand, TimeOfDayTariff


@pytest.fixture
def tariff():
    return TimeOfDayTariff([TariffBand(0.0, 6.0, 0.5), TariffBand(18.0, 23.0, 2.0)])


class TestTariff:
    def test_band_lookup(self, tariff):
        assert tariff.multiplier(3 * units.HOUR) == 0.5  # night
        assert tariff.multiplier(12 * units.HOUR) == 1.0  # base day
        assert tariff.multiplier(20 * units.HOUR) == 2.0  # peak

    def test_wraps_daily(self, tariff):
        t = 3 * units.DAY + 20 * units.HOUR
        assert tariff.multiplier(t) == 2.0

    def test_band_boundaries_half_open(self, tariff):
        assert tariff.multiplier(6 * units.HOUR) == 1.0  # end excluded
        assert tariff.multiplier(18 * units.HOUR) == 2.0  # start included

    def test_overlapping_bands_rejected(self):
        with pytest.raises(ConfigError, match="overlap"):
            TimeOfDayTariff(
                [TariffBand(0, 10, 1.0), TariffBand(9, 12, 2.0)]
            )

    def test_invalid_band(self):
        with pytest.raises(ConfigError):
            TariffBand(10, 5, 1.0)
        with pytest.raises(ConfigError):
            TariffBand(0, 25, 1.0)
        with pytest.raises(ConfigError):
            TariffBand(0, 5, -1.0)


class TestDiurnalCostModel:
    @pytest.fixture
    def env(self, tariff):
        topo = chain_topology(1, nrate=1.0, srate=0.0, capacity=1e12)
        catalog = VideoCatalog([VideoFile("v", size=100.0, playback=10.0)])
        return topo, catalog, DiurnalCostModel(topo, catalog, tariff)

    def _delivery(self, t):
        return DeliveryInfo("v", ("VW", "IS1"), t, Request(t, "v", "u", "IS1"))

    def test_delivery_cost_scaled(self, env):
        topo, catalog, cm = env
        flat = CostModel(topo, catalog)
        d_peak = self._delivery(20 * units.HOUR)
        d_night = self._delivery(3 * units.HOUR)
        assert cm.delivery_cost(d_peak) == pytest.approx(
            2.0 * flat.delivery_cost(d_peak)
        )
        assert cm.delivery_cost(d_night) == pytest.approx(
            0.5 * flat.delivery_cost(d_night)
        )

    def test_storage_cost_unchanged(self, env):
        topo, catalog, cm = env
        flat = CostModel(topo, catalog)
        assert cm.residency_cost_for("v", "IS1", 0.0, 100.0) == pytest.approx(
            flat.residency_cost_for("v", "IS1", 0.0, 100.0)
        )

    def test_local_service_still_free(self, env):
        _, _, cm = env
        d = DeliveryInfo(
            "v", ("IS1",), 20 * units.HOUR, Request(20 * units.HOUR, "v", "u", "IS1")
        )
        assert cm.delivery_cost(d) == 0.0


class TestSchedulerUnderTariff:
    def test_peak_pricing_encourages_caching(self):
        """Flat pricing prefers repeat streams; peak pricing flips to cache."""
        # extension [19h, 20h] costs srate*100*(3600+1800) = $129.60: more
        # than a $100 flat-rate stream, less than a $300 peak-rate one
        topo = chain_topology(1, nrate=1.0, srate=2.4e-4, capacity=1e12)
        catalog = VideoCatalog(
            [VideoFile("v", size=100.0, playback=units.HOUR)]
        )
        # two requests in the evening peak, far enough apart that the cache
        # extension costs slightly more than a flat-rate second stream
        reqs = RequestBatch(
            [
                Request(19.0 * units.HOUR, "v", "u1", "IS1"),
                Request(20.0 * units.HOUR, "v", "u2", "IS1"),
            ]
        )
        flat = VideoScheduler(topo, catalog).solve(reqs)
        assert flat.schedule.residencies == []  # re-streaming is cheaper flat

        tariff = TimeOfDayTariff.evening_peak(peak_multiplier=3.0)
        cm = DiurnalCostModel(topo, catalog, tariff)
        peaky = VideoScheduler(topo, catalog, cost_model=cm).solve(reqs)
        assert peaky.schedule.residencies  # now the cache dodges peak pricing

    def test_evaluation_matches_decisions(self):
        """Ψ reported by the scheduler equals Ψ recomputed under the tariff."""
        topo = chain_topology(2, nrate=1.0, srate=1e-4, capacity=1e12)
        catalog = VideoCatalog([VideoFile("v", size=100.0, playback=3600.0)])
        tariff = TimeOfDayTariff.evening_peak()
        cm = DiurnalCostModel(topo, catalog, tariff)
        reqs = RequestBatch(
            [
                Request(3 * units.HOUR, "v", "u1", "IS2"),
                Request(20 * units.HOUR, "v", "u2", "IS2"),
            ]
        )
        result = VideoScheduler(topo, catalog, cost_model=cm).solve(reqs)
        assert result.total_cost == pytest.approx(cm.total(result.schedule))

    def test_night_discount_lowers_total(self):
        topo = chain_topology(1, nrate=1.0, srate=0.0, capacity=1e12)
        catalog = VideoCatalog([VideoFile("v", size=100.0, playback=3600.0)])
        req = RequestBatch([Request(3 * units.HOUR, "v", "u1", "IS1")])
        flat_cost = VideoScheduler(topo, catalog).solve(req).total_cost
        cm = DiurnalCostModel(
            topo, catalog, TimeOfDayTariff([TariffBand(0.0, 6.0, 0.5)])
        )
        night_cost = VideoScheduler(topo, catalog, cost_model=cm).solve(req).total_cost
        assert night_cost == pytest.approx(0.5 * flat_cost)
