"""Space-time profiles of cache residencies (paper Eqs. 5-7).

A residency ``c`` of video ``i`` at an intermediate storage occupies a
reserved space that the paper models (Eq. 6) as

    f_c(t) = gamma * size_i                         for t_s <= t < t_f
           = gamma * size_i * (1 - (t - t_f)/P_i)   for t_f <= t <= t_f + P_i
           = 0                                      elsewhere

where ``[t_s, t_f]`` is the caching interval (``t_f`` = start of the *last*
service from the cache), ``P_i`` the playback length, and ``gamma`` (Eq. 7)
adjusts the peak space to match the long/short residency cost models of
Eqs. 2-3:

    gamma = 1                   if t_f - t_s >= P_i   (long residency)
          = (t_f - t_s) / P_i   otherwise             (short residency)

The short-residency form follows from the fluid block model: consumption by
the last service chases the filling stream with lag ``t_f - t_s``, so at most
that fraction of the file is ever held.  Integrating ``f_c`` gives exactly the
Eq. 2/3 amortized space-time ``gamma * size * ((t_f - t_s) + P/2)``, which is
what :mod:`repro.core.costmodel` charges -- the cost model, overflow detector
and heat metrics all share this single space model.

:class:`UsageTimeline` aggregates many residency profiles at one storage via
an event sweep, yielding a piecewise-linear total-usage function that supports
point queries, maxima, integrals and threshold-crossing intervals (used for
overflow detection and the Eq. 5 improvement integral); :func:`fits_under`
checks a candidate profile against one under a capacity.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.errors import ScheduleError

#: Absolute slack (bytes / seconds scale-free) for floating-point comparisons.
EPS = 1e-9


def capacity_slack(capacity: float) -> float:
    """Highest usage that still counts as within ``capacity``.

    The one tolerance shared by placement (:func:`fits_under` and the
    SORP ledger's peak shortcut) and by overflow
    detection, so SORP never commits a placement that the next detection
    sweep reports as a new overflow.
    """
    return capacity + EPS + 1e-12 * max(capacity, 1.0)


def gamma_coefficient(t_start: float, t_last: float, playback: float) -> float:
    """The Eq. 7 peak-space coefficient ``gamma`` for a residency."""
    if playback <= 0:
        raise ScheduleError(f"playback must be positive, got {playback}")
    span = t_last - t_start
    if span < 0:
        raise ScheduleError(f"residency interval reversed: [{t_start}, {t_last}]")
    if span >= playback:
        return 1.0
    return span / playback


def charged_space_time(size: float, playback: float, span: float) -> float:
    """The Eq. 2/3 amortized space-time of a residency, in byte-seconds.

    ``gamma * size * (span + P/2)`` -- the integral of the Eq. 6 profile,
    which multiplied by ``srate`` gives Ψ_C.  The value is invariant under
    time translation: it depends on the residency only through
    ``span = t_f - t_s`` (plus the video's ``size`` and ``P``), which is what
    makes Ψ_C evaluations memoizable on ``(srate, size, span, P)`` tuples
    (see :class:`repro.core.costmodel.CostModel`).
    """
    g = gamma_coefficient(0.0, span, playback)
    return g * size * (span + 0.5 * playback)


@dataclass(frozen=True)
class LinearSegment:
    """One linear piece ``y(t) = y0 + slope * (t - start)`` on [start, end)."""

    start: float
    end: float
    y0: float
    y1: float

    @property
    def slope(self) -> float:
        if self.end == self.start:
            return 0.0
        return (self.y1 - self.y0) / (self.end - self.start)

    def value(self, t: float) -> float:
        if not (self.start <= t <= self.end):
            return 0.0
        return self.y0 + self.slope * (t - self.start)

    def integral(self, a: float, b: float) -> float:
        """Integral of the segment over ``[a, b]`` (clipped to the segment)."""
        lo = max(a, self.start)
        hi = min(b, self.end)
        if hi <= lo:
            return 0.0
        return 0.5 * (self.value(lo) + self.value(hi)) * (hi - lo)


@dataclass(frozen=True)
class SpaceProfile:
    """A residency's reserved-space function ``f_c(t)`` (Eq. 6).

    Composed of contiguous linear segments; zero outside their union.
    """

    segments: tuple[LinearSegment, ...]

    @property
    def support(self) -> tuple[float, float]:
        if not self.segments:
            return (0.0, 0.0)
        return (self.segments[0].start, self.segments[-1].end)

    @cached_property
    def peak(self) -> float:
        # memoized: the rejective greedy asks every candidate for its peak
        if not self.segments:
            return 0.0
        return max(max(s.y0, s.y1) for s in self.segments)

    def value(self, t: float) -> float:
        for s in self.segments:
            if s.start <= t <= s.end:
                return s.value(t)
        return 0.0

    def integral(self, a: float | None = None, b: float | None = None) -> float:
        """Integral of ``f_c`` over ``[a, b]`` (defaults to full support)."""
        lo, hi = self.support
        if a is None:
            a = lo
        if b is None:
            b = hi
        if b <= a:
            return 0.0
        return math.fsum(s.integral(a, b) for s in self.segments)

    def positive_in(self, a: float, b: float) -> bool:
        """True if ``f_c`` is strictly positive somewhere inside ``(a, b)``."""
        if b <= a:
            return False
        for s in self.segments:
            lo, hi = max(a, s.start), min(b, s.end)
            if hi <= lo:
                continue
            mid = 0.5 * (lo + hi)
            if s.value(lo) > EPS or s.value(hi) > EPS or s.value(mid) > EPS:
                return True
        return False


def residency_profile(
    size: float,
    playback: float,
    t_start: float,
    t_last: float,
) -> SpaceProfile:
    """Build the Eq. 6 profile for a residency of a ``size``-byte video.

    Args:
        size: Video size in bytes.
        playback: Playback length ``P_i`` in seconds.
        t_start: ``t_s`` -- when caching begins.
        t_last: ``t_f`` -- start time of the last service from the cache.
    """
    if size <= 0:
        raise ScheduleError(f"size must be positive, got {size}")
    g = gamma_coefficient(t_start, t_last, playback)
    peak = g * size
    if peak <= 0.0:
        return SpaceProfile(())
    segments = []
    if t_last > t_start:
        segments.append(LinearSegment(t_start, t_last, peak, peak))
    segments.append(LinearSegment(t_last, t_last + playback, peak, 0.0))
    return SpaceProfile(tuple(segments))


def delta_space(
    profile: SpaceProfile,
    overflow_start: float,
    overflow_end: float,
) -> float:
    """The Eq. 5 amortized time-space improvement ``ΔS``.

    The integral of the residency's space function over the part of the
    overflow interval it actually covers: removing the residency frees exactly
    this much space-time inside ``[overflow_start, overflow_end]``.
    """
    if overflow_end < overflow_start:
        raise ScheduleError(
            f"overflow interval reversed: [{overflow_start}, {overflow_end}]"
        )
    return profile.integral(overflow_start, overflow_end)


class UsageTimeline:
    """Piecewise-linear sum of residency profiles at one storage.

    Built once from an iterable of profiles via an event sweep:  every
    segment contributes ``(intercept, slope)`` on ``[start, end)``; the sweep
    accumulates these on the sorted union of endpoints, producing grid times
    ``ts`` and usage values ``ys`` with linear interpolation between
    consecutive grid points (usage may jump *at* grid points -- reservations
    begin abruptly -- so ``ys`` holds right-limits and a separate array holds
    the value reached just before the next grid point).
    """

    def __init__(self, profiles: Iterable[SpaceProfile] = ()):
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
            self._ts = np.empty(0)
            self._y_right = np.empty(0)
            self._y_next = np.empty(0)
            return
        events.sort(key=lambda e: e[0])
        ts: list[float] = []
        y_right: list[float] = []
        # value approached just before each next grid point: the running
        # line evaluated at the next event time (at ``t`` after the last)
        y_next: list[float] = []
        a = 0.0  # running intercept
        b = 0.0  # running slope
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
            y_next.append(a + b * (events[i][0] if i < n else t))
        self._ts = np.asarray(ts)
        self._y_right = np.asarray(y_right)
        self._y_next = np.asarray(y_next)

    @property
    def is_empty(self) -> bool:
        return self._ts.size == 0

    @property
    def grid(self) -> np.ndarray:
        out = self._ts.view()
        out.flags.writeable = False
        return out

    def value(self, t: float) -> float:
        """Total usage at time ``t`` (right-continuous)."""
        if self.is_empty:
            return 0.0
        idx = bisect_right(self._ts, t) - 1
        if idx < 0 or idx >= self._ts.size - 1 and t > self._ts[-1]:
            return 0.0
        if idx == self._ts.size - 1:
            return float(self._y_right[idx]) if t == self._ts[idx] else 0.0
        t0, t1 = self._ts[idx], self._ts[idx + 1]
        if t1 == t0:
            return float(self._y_right[idx])
        frac = (t - t0) / (t1 - t0)
        return float(self._y_right[idx] + frac * (self._y_next[idx] - self._y_right[idx]))

    def value_left(self, t: float) -> float:
        """Left-limit of the usage function at ``t``.

        Usage jumps up where reservations begin and down where drains end;
        capacity checks need both one-sided values at breakpoints.
        """
        if self.is_empty:
            return 0.0
        idx = bisect_left(self._ts, t) - 1  # last grid point strictly < t
        if idx < 0 or idx >= self._ts.size - 1:
            return 0.0
        t0, t1 = float(self._ts[idx]), float(self._ts[idx + 1])
        if t > t1:
            return 0.0
        if t1 == t0:
            return float(self._y_next[idx])
        frac = (t - t0) / (t1 - t0)
        return float(self._y_right[idx] + frac * (self._y_next[idx] - self._y_right[idx]))

    def max_over(self, a: float, b: float) -> float:
        """Maximum usage over ``[a, b]`` (0 outside the support)."""
        if self.is_empty or b < a:
            return 0.0
        best = max(self.value(a), self.value(b))
        n = self._ts.size
        i0 = bisect_left(self._ts, a)  # first grid index >= a
        i1 = bisect_right(self._ts, b) - 1  # last grid index <= b
        for i in range(max(i0, 0), min(i1 + 1, n)):
            best = max(best, float(self._y_right[i]))
        # Usage can jump *down* at a grid point where reservations end, so
        # also consider each cell's left-limit (y_next[i], approached just
        # before ts[i+1]) whenever that endpoint lies inside (a, b].
        for i in range(max(i0 - 1, 0), min(i1 + 1, n - 1)):
            if a < self._ts[i + 1] <= b:
                best = max(best, float(self._y_next[i]))
        return best

    @property
    def peak(self) -> float:
        if self.is_empty:
            return 0.0
        return float(max(self._y_right.max(), self._y_next.max()))

    def intervals_above(self, threshold: float) -> list[tuple[float, float]]:
        """Maximal intervals where usage exceeds ``threshold`` (strictly).

        Within each grid cell usage is linear, so the crossing point (if any)
        is found analytically.  Adjacent or touching intervals are merged.
        """
        if self.is_empty:
            return []
        raw: list[tuple[float, float]] = []
        thr = threshold + EPS
        n = self._ts.size
        for i in range(n - 1):
            t0, t1 = float(self._ts[i]), float(self._ts[i + 1])
            y0, y1 = float(self._y_right[i]), float(self._y_next[i])
            if y0 <= thr and y1 <= thr:
                continue
            if y0 > thr and y1 > thr:
                raw.append((t0, t1))
                continue
            # one crossing inside the cell
            tc = t0 + (thr - y0) / (y1 - y0) * (t1 - t0)
            if y0 > thr:
                raw.append((t0, tc))
            else:
                raw.append((tc, t1))
        # last grid point: an instantaneous spike cannot exceed on an interval
        if not raw:
            return []
        raw.sort()
        merged = [raw[0]]
        for s, e in raw[1:]:
            ls, le = merged[-1]
            if s <= le + EPS:
                merged[-1] = (ls, max(le, e))
            else:
                merged.append((s, e))
        return merged


def flat_timeline(runs: Iterable[tuple[float, float, float]]) -> UsageTimeline:
    """The sum of constant runs ``(start, end, height)``, each on ``[start, end)``.

    Link loads (stream bandwidth) and warehouse disk occupancy are such
    piecewise-constant sums; runs with ``end <= start`` contribute nothing.
    """
    return UsageTimeline(
        SpaceProfile((LinearSegment(s, e, h, h),)) for s, e, h in runs
    )


def fits_under(
    timeline: UsageTimeline,
    profile: SpaceProfile,
    capacity: float,
) -> bool:
    """True iff ``timeline + profile <= capacity`` everywhere.

    Both operands are piecewise linear, so their sum is too; its maximum is
    attained at a breakpoint of either operand (approached from the left or
    the right), which is the finite set of points we evaluate -- vectorized,
    as this is the scheduler's hottest inner check.
    """
    if not profile.segments:
        return True
    slack = capacity_slack(capacity)
    if timeline.is_empty:
        return profile.peak <= slack
    ts = timeline._ts
    y_right = timeline._y_right
    y_next = timeline._y_next
    for seg in profile.segments:
        # segment endpoints: both one-sided timeline values matter
        for p in (seg.start, seg.end):
            pv = seg.value(p)
            if pv + timeline.value(p) > slack:
                return False
            if pv + timeline.value_left(p) > slack:
                return False
        # timeline grid points strictly inside the segment: the profile is
        # linear there, so evaluate it on a *view* of the grid (no per-point
        # Python bisects -- this is the scheduler's hottest loop)
        i0 = int(np.searchsorted(ts, seg.start, side="right"))
        i1 = int(np.searchsorted(ts, seg.end, side="left"))
        if i1 <= i0:
            continue
        prof = seg.y0 + seg.slope * (ts[i0:i1] - seg.start)
        if ((y_right[i0:i1] + prof) > slack).any():
            return False
        # left-limits at grid point j live in y_next[j-1]
        j0 = i0
        if j0 == 0:
            prof = prof[1:]
            j0 = 1
        if prof.size and ((y_next[j0 - 1 : i1 - 1] + prof) > slack).any():
            return False
    return True
