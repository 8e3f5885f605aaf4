"""The paper's primary contribution: cost model + two-phase video scheduler.

Layout:

* :mod:`repro.core.schedule`   -- schedule data model (``d_i``, ``c_i``, S)
* :mod:`repro.core.spacefunc`  -- space-time profiles ``f_c(t)`` (Eqs. 5-7)
* :mod:`repro.core.costmodel`  -- the mapping Ψ (Eqs. 1-4)
* :mod:`repro.core.individual` -- Phase 1: capacity-ignorant per-file greedy
* :mod:`repro.core.parallel`   -- Phase-1 engine: the per-video greedy over a batch
* :mod:`repro.core.overflow`   -- storage-overflow detection (Sec. 4.1)
* :mod:`repro.core.heat`       -- victim-selection heat metrics (Eqs. 8-11)
* :mod:`repro.core.rejective`  -- capacity-aware rescheduling (Sec. 4.4)
* :mod:`repro.core.sorp`       -- Phase 2: overflow-resolution loop (Table 3)
* :mod:`repro.core.scheduler`  -- the two-phase :class:`VideoScheduler` facade
"""

from repro.core.schedule import (
    DeliveryInfo,
    FileSchedule,
    ResidencyInfo,
    Schedule,
)
from repro.core.spacefunc import (
    UsageTimeline,
    charged_space_time,
    delta_space,
    gamma_coefficient,
    residency_profile,
)
from repro.core.costmodel import (
    CacheStats,
    CostBreakdown,
    CostModel,
    record_cache_metrics,
)
from repro.core.heat import HeatMetric, compute_heat
from repro.core.overflow import OverflowSituation, detect_overflows
from repro.core.individual import IndividualScheduler
from repro.core.parallel import ParallelIndividualScheduler, Phase1Result
from repro.core.rejective import RejectiveGreedyScheduler, ResidencyConstraints
from repro.core.sorp import ResolutionStats, resolve_overflows
from repro.core.scheduler import (
    ScheduleResult,
    VideoScheduler,
    record_schedule_metrics,
)

__all__ = [
    "DeliveryInfo",
    "FileSchedule",
    "ResidencyInfo",
    "Schedule",
    "UsageTimeline",
    "charged_space_time",
    "delta_space",
    "gamma_coefficient",
    "residency_profile",
    "CacheStats",
    "CostBreakdown",
    "CostModel",
    "record_cache_metrics",
    "record_schedule_metrics",
    "ParallelIndividualScheduler",
    "Phase1Result",
    "HeatMetric",
    "compute_heat",
    "OverflowSituation",
    "detect_overflows",
    "IndividualScheduler",
    "RejectiveGreedyScheduler",
    "ResidencyConstraints",
    "ResolutionStats",
    "resolve_overflows",
    "ScheduleResult",
    "VideoScheduler",
]
