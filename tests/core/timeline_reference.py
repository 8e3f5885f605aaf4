"""Reference usage sweeps: the two-pass timeline build and the link sweep.

:class:`repro.core.spacefunc.UsageTimeline` builds its grid, right-limits
and next-point values in one pass over the sorted events.
:func:`two_pass_arrays` is the earlier build that ran the same sweep twice,
once for the right-limits and once for the values approached just before
each next grid point; the running sums are the same floats, so the one-pass
build must reproduce its arrays bit for bit.

:func:`link_sweep_max` is the bandwidth tracker's earlier private sweep:
every booking clipped to the window contributes ``+bw`` at its start and
``-bw`` at its end, and the events are summed in ``(time, delta)`` order.
:meth:`repro.extensions.LinkBandwidthTracker.usage_max` now reads the same
peak off :func:`repro.core.spacefunc.flat_timeline`, which sums in a
different order, so the two agree up to rounding.

Test-only: ``test_timeline_reference.py`` compares both pairs.

:func:`integral_above` integrates a timeline's excess over a threshold
segment by segment; ``test_overflow.py`` checks the excess that overflow
detection reports against it, and ``test_spacefunc.py`` pins it on a
hand-computed profile.
"""

from __future__ import annotations

import numpy as np


def two_pass_arrays(profiles) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(ts, y_right, y_next)`` of the sum of ``profiles``, swept twice."""
    events: list[tuple[float, float, float]] = []  # (t, d_intercept, d_slope)
    for p in profiles:
        for s in p.segments:
            if s.end <= s.start:
                continue
            slope = s.slope
            intercept = s.y0 - slope * s.start
            events.append((s.start, intercept, slope))
            events.append((s.end, -intercept, -slope))
    if not events:
        return np.empty(0), np.empty(0), np.empty(0)
    events.sort(key=lambda e: e[0])
    ts: list[float] = []
    y_right: list[float] = []
    a = b = 0.0
    i = 0
    n = len(events)
    while i < n:
        t = events[i][0]
        while i < n and events[i][0] == t:
            a += events[i][1]
            b += events[i][2]
            i += 1
        ts.append(t)
        y_right.append(a + b * t)
    y_next = np.empty(len(ts))
    a = b = 0.0
    i = 0
    k = 0
    while i < n:
        t = events[i][0]
        while i < n and events[i][0] == t:
            a += events[i][1]
            b += events[i][2]
            i += 1
        t_next = events[i][0] if i < n else t
        y_next[k] = a + b * t_next
        k += 1
    return np.asarray(ts), np.asarray(y_right), y_next


def integral_above(timeline, threshold: float) -> float:
    """Space-time integral of ``max(usage - threshold, 0)`` of a
    :class:`repro.core.spacefunc.UsageTimeline`."""
    if timeline.is_empty:
        return 0.0
    ts, y_right, y_next = timeline._ts, timeline._y_right, timeline._y_next
    total = 0.0
    for i in range(ts.size - 1):
        t0, t1 = float(ts[i]), float(ts[i + 1])
        if t1 <= t0:
            continue
        y0 = float(y_right[i]) - threshold
        y1 = float(y_next[i]) - threshold
        if y0 <= 0 and y1 <= 0:
            continue
        if y0 >= 0 and y1 >= 0:
            total += 0.5 * (y0 + y1) * (t1 - t0)
            continue
        tc = t0 + (0.0 - y0) / (y1 - y0) * (t1 - t0)
        if y0 > 0:
            total += 0.5 * y0 * (tc - t0)
        else:
            total += 0.5 * y1 * (t1 - tc)
    return total


def link_sweep_max(
    bookings: list[tuple[float, float, float]], t0: float, t1: float
) -> float:
    """Peak of the ``(start, end, bw)`` bookings during ``[t0, t1)``."""
    events: list[tuple[float, float]] = []
    for s, e, bw in bookings:
        lo, hi = max(s, t0), min(e, t1)
        if hi <= lo:
            continue
        events.append((lo, bw))
        events.append((hi, -bw))
    events.sort()
    peak = cur = 0.0
    for _, delta in events:
        cur += delta
        peak = max(peak, cur)
    return peak
