"""Unit system for the VOR reproduction.

Internally the whole library works in SI-flavoured base units:

* data size     -- **bytes** (float)
* time          -- **seconds** (float, measured from the start of a
                   scheduling cycle)
* bandwidth     -- **bytes per second**
* storage rate  -- ``$ / (byte * second)`` (the paper's ``srate`` unit)
* network rate  -- ``$ / byte``            (the paper's ``nrate`` unit)

The paper quotes its experiment parameters in coarser, "arbitrary charging
system" units (per-GB, per-GB-hour, Mbps, minutes).  The helpers here are the
single place where those conversions live, so experiment configuration code
can stay in paper units while the core stays in base units.
"""

from __future__ import annotations

#: Bytes per kilobyte / megabyte / gigabyte (decimal, as the paper's "2.5 Giga
#: Bytes" for a 90-minute 6 Mbps stream implies: 6 Mbit/s * 5400 s / 8 =
#: 4.05e9 bits = ... the paper rounds; we use decimal SI multipliers).
KB = 1e3
MB = 1e6
GB = 1e9

#: Seconds per minute / hour / day.
MINUTE = 60.0
HOUR = 3600.0
DAY = 86400.0

#: Bytes/second per megabit/second.
MBPS = 1e6 / 8.0


def gb(value: float) -> float:
    """Convert gigabytes to bytes."""
    return value * GB


def minutes(value: float) -> float:
    """Convert minutes to seconds."""
    return value * MINUTE


def hours(value: float) -> float:
    """Convert hours to seconds."""
    return value * HOUR


def mbps(value: float) -> float:
    """Convert megabits/second to bytes/second."""
    return value * MBPS


def per_gb(rate: float) -> float:
    """Convert a network charging rate in ``$/GB`` to ``$/byte``."""
    return rate / GB


def per_gb_hour(rate: float) -> float:
    """Convert a storage charging rate in ``$/(GB*hour)`` to ``$/(byte*s)``."""
    return rate / (GB * HOUR)


def per_mbps_second(rate: float, bandwidth_bytes_per_s: float) -> float:
    """Convert the worked example's ``$/(Mbps*s)`` link rate to ``$/byte``.

    Figure 2 of the paper prices links in cents per (Mbps * second) of
    reserved bandwidth.  A stream of ``bandwidth`` bytes/s occupies
    ``bandwidth / MBPS`` Mbps, so transferring one byte (which takes
    ``1 / bandwidth`` seconds) costs ``rate * (bandwidth / MBPS) *
    (1 / bandwidth) = rate / MBPS`` dollars.  The conversion is therefore
    independent of the bandwidth; the parameter is kept to make call sites
    self-documenting.
    """
    del bandwidth_bytes_per_s  # see docstring: the rate is per-byte already
    return rate / MBPS


def fmt_bytes(n: float) -> str:
    """Human-readable size, used in reports and __repr__ methods."""
    for unit, label in ((GB, "GB"), (MB, "MB"), (KB, "KB")):
        if abs(n) >= unit:
            return f"{n / unit:.3g} {label}"
    return f"{n:.0f} B"


def fmt_duration(seconds: float) -> str:
    """Human-readable duration, used in reports and __repr__ methods."""
    if abs(seconds) >= HOUR:
        return f"{seconds / HOUR:.3g} h"
    if abs(seconds) >= MINUTE:
        return f"{seconds / MINUTE:.3g} min"
    return f"{seconds:.3g} s"
