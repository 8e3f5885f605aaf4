"""Heat metrics for victim selection (paper Sec. 4.3, Eqs. 8-11).

Rescheduling a file ``id_i`` out of an overflow ``OF_{Δt, IS_j}`` has a
*cost* -- the overhead ``Ψ(S_i^new) - Ψ(S_i)`` -- and a *benefit* -- how much
it improves the overflow.  *Heat* combines them; the file with the largest
heat is rescheduled first.  Four metrics are compared in the paper:

=======  ==========================  =================================
Method   Formula                     Interpretation
=======  ==========================  =================================
1        ``χ``            (Eq. 8)    length of the improved period
2        ``χ / overhead`` (Eq. 9)    improved time per dollar
3        ``ΔS``           (Eq. 10)   freed space-time (Eq. 5 integral)
4        ``ΔS / overhead``(Eq. 11)   freed space-time per dollar
=======  ==========================  =================================

with ``χ = min(t_f^OF, t_f^c + P_i) - max(t_s^OF, t_s^c)`` and ``ΔS`` the
integral of the residency's Eq. 6 profile over the overlapped overflow
window.  The paper reports methods 2 and 4 winning in 98 % of cases, with 4
best on average (Table 5).

A reschedule whose overhead is non-positive (the rejective greedy found a
*cheaper* schedule, possible because Phase 1 is heuristic) gets infinite
heat under the per-cost metrics: it is a free improvement.
"""

from __future__ import annotations

import enum
import math

from repro.catalog.video import VideoFile
from repro.core.overflow import OverflowSituation
from repro.core.schedule import ResidencyInfo
from repro.core.spacefunc import SpaceProfile, delta_space
from repro.errors import ScheduleError

#: Overheads below this (in $) count as "free" rescheduling.
_FREE_OVERHEAD = 1e-12


class HeatMetric(enum.Enum):
    """The four victim-selection criteria of Sec. 4.3."""

    TIME = 1  # Eq. 8
    TIME_PER_COST = 2  # Eq. 9
    SPACE_TIME = 3  # Eq. 10
    SPACE_TIME_PER_COST = 4  # Eq. 11


def improved_period(
    residency: ResidencyInfo,
    video: VideoFile,
    overflow: OverflowSituation,
) -> float:
    """``χ`` (Eq. 8): length of the overflow period a reschedule improves."""
    if residency.video_id != video.video_id:
        raise ScheduleError("residency/video mismatch in improved_period")
    t_s, t_f = overflow.interval
    lo = max(t_s, residency.t_start)
    hi = min(t_f, residency.t_last + video.playback)
    return max(hi - lo, 0.0)


def space_time_improvement(
    residency: ResidencyInfo,
    video: VideoFile,
    overflow: OverflowSituation,
    profile: SpaceProfile | None = None,
) -> float:
    """``ΔS`` (Eq. 5): freed amortized space-time inside the overflow."""
    if residency.video_id != video.video_id:
        raise ScheduleError("residency/video mismatch in space_time_improvement")
    profile = residency.profile(video) if profile is None else profile
    t_s, t_f = overflow.interval
    return delta_space(profile, t_s, t_f)


def compute_heat(
    metric: HeatMetric,
    residency: ResidencyInfo,
    video: VideoFile,
    overflow: OverflowSituation,
    overhead_cost: float,
    profile: SpaceProfile | None = None,
) -> float:
    """Heat of rescheduling ``residency``'s file w.r.t. ``overflow``.

    Args:
        metric: Which of the four criteria to apply.
        residency: The member residency ``c_i`` under consideration.
        video: Its video (for playback length / size).
        overflow: The overflow situation being resolved.
        overhead_cost: ``Ψ(S_i^new(Δt, IS_j)) - Ψ(S_i)``.
        profile: The residency's Eq. 6 profile, if the caller holds it.

    Returns:
        The heat value; larger is better.  ``+inf`` when a per-cost metric
        meets a non-positive overhead (free improvement).
    """
    if metric is HeatMetric.TIME:
        return improved_period(residency, video, overflow)
    if metric is HeatMetric.SPACE_TIME:
        return space_time_improvement(residency, video, overflow, profile)
    if metric is HeatMetric.TIME_PER_COST:
        benefit = improved_period(residency, video, overflow)
    elif metric is HeatMetric.SPACE_TIME_PER_COST:
        benefit = space_time_improvement(residency, video, overflow, profile)
    else:  # pragma: no cover - exhaustive enum
        raise ScheduleError(f"unknown heat metric {metric!r}")
    if overhead_cost <= _FREE_OVERHEAD:
        return math.inf
    return benefit / overhead_cost
