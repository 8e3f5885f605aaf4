"""Fault injection and contingency re-scheduling.

Seeded, declarative fault scenarios (:mod:`repro.faults.plan`), online
fault-report feeds (:mod:`repro.faults.feed`), their resource-level effects
and topology masking (:mod:`repro.faults.inject`), degraded-mode replay
analysis (:mod:`repro.faults.report`), and incremental recovery through the
existing two-phase machinery (:mod:`repro.faults.contingency`).
"""

from repro.faults.contingency import (
    MASKING_MODES,
    ContingencyScheduler,
    RecoveryResult,
    impacted_videos,
    windowed_impacted_videos,
)
from repro.faults.feed import FaultEvent, FaultFeed
from repro.faults.inject import (
    ResourceEffects,
    combined_effects,
    effects_of,
    masked_cost_model,
    masked_topology,
)
from repro.faults.plan import (
    LINK_KINDS,
    NODE_KINDS,
    FaultKind,
    FaultPlan,
    FaultSpec,
)
from repro.faults.report import (
    DegradedModeReport,
    LinkStress,
    ServiceImpact,
    StorageStress,
    StrandedResidency,
    build_degraded_report,
)

__all__ = [
    "FaultKind",
    "FaultSpec",
    "FaultPlan",
    "NODE_KINDS",
    "LINK_KINDS",
    "ResourceEffects",
    "effects_of",
    "combined_effects",
    "masked_cost_model",
    "masked_topology",
    "ServiceImpact",
    "StrandedResidency",
    "LinkStress",
    "StorageStress",
    "DegradedModeReport",
    "build_degraded_report",
    "ContingencyScheduler",
    "MASKING_MODES",
    "RecoveryResult",
    "impacted_videos",
    "windowed_impacted_videos",
    "FaultEvent",
    "FaultFeed",
]
