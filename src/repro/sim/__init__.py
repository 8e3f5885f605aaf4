"""Replay and validation of service schedules.

The scheduler emits a *plan*; this subpackage replays it under the paper's
fluid-flow semantics (blocks travel at playback rate; a block at fraction
``x`` of the file arrives at route nodes at ``t_start + x*P`` and is dropped
once the chronologically-last service has consumed it) and judges it:

* :mod:`repro.sim.fluid`   -- physical (fluid) cache-occupancy profiles,
* :mod:`repro.sim.engine`  -- the replay: per-storage and per-link load
  timelines (fluid and link timelines built on first read), counts and
  makespan,
* :mod:`repro.sim.validate` -- the verdict: request coverage, causality,
  storage capacity, link bandwidth, replica homes, and (with a fault plan)
  degraded-mode damage, all from one replay.

A notable modelling fact surfaced here: for *short* residencies the paper's
Eq. 6 reserved-space function is slightly optimistic against fluid physics
during the drain phase (the fill is still in flight when the last service
begins).  The engine reports both curves; see
:func:`repro.sim.fluid.fluid_occupancy_profile`.
"""

from repro.sim.fluid import fluid_occupancy_profile
from repro.sim.engine import SimulationEngine, SimulationReport
from repro.sim.validate import (
    Violation,
    fault_violations,
    validate_schedule,
)

__all__ = [
    "fluid_occupancy_profile",
    "SimulationEngine",
    "SimulationReport",
    "Violation",
    "fault_violations",
    "validate_schedule",
]
