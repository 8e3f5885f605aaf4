"""Analysis utilities: result series, shape checks, and terminal rendering.

The benchmark harness reproduces the paper's figures as *data series* and
checks their qualitative shape (monotonicity, ordering, crossovers, widening
gaps) rather than absolute values.  This subpackage provides:

* :class:`~repro.analysis.series.Series` -- a named (x, y) sequence with
  shape predicates,
* :mod:`~repro.analysis.tables` -- fixed-width text tables,
* :mod:`~repro.analysis.stats` -- summary statistics helpers,
* :mod:`~repro.analysis.ascii` -- dependency-free ASCII line charts so each
  "figure" can be eyeballed in a terminal or CI log,
* :mod:`~repro.analysis.breakdown` -- Ψ split by storage, link and title,
* :mod:`~repro.analysis.schedule_stats` -- summary counts of one schedule.

Why a request was served as it was is recorded by the run itself: the
``phase1-assigned`` journal event (:mod:`repro.obs.events`) names the
chosen copy and the cheapest home warehouse it was priced against.
"""

from repro.analysis.series import Series, gap_between, relative_gap
from repro.analysis.tables import format_table
from repro.analysis.stats import summarize
from repro.analysis.ascii import ascii_chart, ascii_timeline
from repro.analysis.breakdown import (
    breakdown_report,
    cost_by_link,
    cost_by_storage,
    cost_by_title,
)
from repro.analysis.schedule_stats import ScheduleStats, schedule_stats

__all__ = [
    "Series",
    "gap_between",
    "relative_gap",
    "format_table",
    "summarize",
    "ascii_chart",
    "ascii_timeline",
    "breakdown_report",
    "cost_by_link",
    "cost_by_storage",
    "cost_by_title",
    "ScheduleStats",
    "schedule_stats",
]
