"""Baseline schedulers for comparison with the paper's two-phase heuristic.

* :func:`~repro.baselines.network_only.network_only_schedule` -- the paper's
  "network only system" (Figs. 5, 7): no intermediate caching, every request
  streams directly from its video's cheapest home warehouse.
* :class:`~repro.baselines.optimal.OptimalScheduler` -- exhaustive search
  over source assignments for tiny instances, used to measure the heuristic's
  optimality gap (Sec. 5.5's "within 30 % of optimal" claim).
"""

from repro.baselines.network_only import network_only_cost, network_only_schedule
from repro.baselines.optimal import OptimalScheduler
from repro.baselines.batching import (
    BatchingStudy,
    batched_schedule,
    batching_study,
    snap_to_slots,
)

__all__ = [
    "network_only_cost",
    "network_only_schedule",
    "OptimalScheduler",
    "BatchingStudy",
    "batched_schedule",
    "batching_study",
    "snap_to_slots",
]
