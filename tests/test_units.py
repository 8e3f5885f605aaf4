"""Unit conversion tests."""

import pytest

from repro import units


class TestSizeConversions:
    def test_gb(self):
        assert units.gb(2.5) == 2.5e9

    def test_constants_consistent(self):
        assert units.GB == 1000 * units.MB == 1_000_000 * units.KB


class TestTimeConversions:
    def test_minutes(self):
        assert units.minutes(90) == 5400.0

    def test_hours(self):
        assert units.hours(2) == 7200.0

    def test_day(self):
        assert units.DAY == 24 * units.HOUR


class TestBandwidth:
    def test_mbps(self):
        # 6 Mbps = 750 kB/s
        assert units.mbps(6) == 750_000.0

    def test_mbps_roundtrip_with_playback(self):
        # a 90-minute 6 Mbps stream moves 4.05 GB
        assert units.mbps(6) * units.minutes(90) == pytest.approx(4.05e9)


class TestRates:
    def test_per_gb(self):
        assert units.per_gb(500) == 500 / 1e9

    def test_per_gb_hour(self):
        assert units.per_gb_hour(3.6) == pytest.approx(1e-12)

    def test_per_mbps_second_is_bandwidth_independent(self):
        r1 = units.per_mbps_second(0.002, units.mbps(6))
        r2 = units.per_mbps_second(0.002, units.mbps(8))
        assert r1 == r2 == pytest.approx(0.002 / 125_000)

    def test_per_mbps_second_fig2_link(self):
        # 0.2 cents/(Mbps*s) at 6 Mbps for 90 min must charge $64.80
        rate = units.per_mbps_second(0.002, units.mbps(6))
        volume = units.mbps(6) * units.minutes(90)
        assert rate * volume == pytest.approx(64.8)


class TestFormatting:
    @pytest.mark.parametrize(
        "n,expected",
        [(2.5e9, "2.5 GB"), (3.3e6, "3.3 MB"), (1.5e3, "1.5 KB"), (12, "12 B")],
    )
    def test_fmt_bytes(self, n, expected):
        assert units.fmt_bytes(n) == expected

    @pytest.mark.parametrize(
        "s,expected",
        [(7200, "2 h"), (120, "2 min"), (5, "5 s")],
    )
    def test_fmt_duration(self, s, expected):
        assert units.fmt_duration(s) == expected
