"""Tests for arrival processes."""

import numpy as np
import pytest

from repro import PeakHourArrivals, SlottedArrivals, UniformArrivals, units
from repro.errors import WorkloadError


class TestUniformArrivals:
    def test_range(self):
        a = UniformArrivals(cycle=100.0)
        s = a.sample(1000, np.random.default_rng(0))
        assert (s >= 0).all() and (s < 100.0).all()

    def test_deterministic(self):
        a = UniformArrivals()
        s1 = a.sample(10, np.random.default_rng(3))
        s2 = a.sample(10, np.random.default_rng(3))
        assert np.array_equal(s1, s2)

    def test_roughly_uniform(self):
        a = UniformArrivals(cycle=1.0)
        s = a.sample(100_000, np.random.default_rng(1))
        hist, _ = np.histogram(s, bins=10, range=(0, 1))
        assert (np.abs(hist / 10_000 - 1.0) < 0.05).all()

    def test_invalid_cycle(self):
        with pytest.raises(WorkloadError):
            UniformArrivals(cycle=0.0)

    def test_negative_n(self):
        with pytest.raises(WorkloadError):
            UniformArrivals().sample(-1, np.random.default_rng(0))


class TestPeakHourArrivals:
    def test_range_with_wraparound(self):
        # a 21 h cycle ends 1 h after the 20:00 +/- 1.5 h peak, so about a
        # quarter of the peak draws wrap past its end to just after 0 h
        cycle = 21 * units.HOUR
        a = PeakHourArrivals(cycle=cycle)
        s = a.sample(5000, np.random.default_rng(0))
        assert (s >= 0).all() and (s < cycle).all()
        # the uniform 30 % alone puts 1/21 of itself (1.4 %) in the first
        # hour; the wrapped peak draws (those between 21 h and 22 h) add
        # about 11 %
        assert (s < units.HOUR).mean() > 0.08

    def test_concentration_around_peak(self):
        a = PeakHourArrivals(cycle=units.DAY)
        s = a.sample(20_000, np.random.default_rng(1))
        window = (s > 17 * units.HOUR) & (s < 23 * units.HOUR)
        # the +/- 2 sigma window holds 95 % of the 70 % peak plus 25 % of
        # the uniform 30 %
        assert window.mean() > 0.7


class TestSlottedArrivals:
    def test_snapped_to_slots(self):
        a = SlottedArrivals(cycle=units.DAY)
        s = a.sample(1000, np.random.default_rng(0))
        assert (np.mod(s, 30 * units.MINUTE) == 0).all()

    def test_range(self):
        a = SlottedArrivals(cycle=100.0 * units.MINUTE)
        s = a.sample(1000, np.random.default_rng(0))
        # the partial slot at 90 min is never drawn
        assert set(np.unique(s)) == {0.0, 1800.0, 3600.0}

    def test_invalid_slot(self):
        with pytest.raises(WorkloadError):
            SlottedArrivals(cycle=10.0)
