"""Reproduction of Won & Srivastava (HPDC 1997).

*Distributed Service Paradigm for Remote Video Retrieval Request*:
a cost model and two-phase scheduling algorithm for Video-On-Reservation
delivery over a video warehouse + intermediate-storage infrastructure.

Quickstart::

    from repro import (
        VideoScheduler, WorkloadGenerator, paper_catalog, paper_topology,
    )
    from repro import units

    topo = paper_topology(
        nrate=units.per_gb(500),
        srate=units.per_gb_hour(5),
        capacity=units.gb(5),
    )
    catalog = paper_catalog(seed=7)
    batch = WorkloadGenerator(topo, catalog, alpha=0.271).generate(seed=7)
    result = VideoScheduler(topo, catalog).solve(batch)
    print(f"total cost ${result.total_cost:,.2f}")
"""

from repro import io, obs, units
from repro.billing import BillingStatement, Invoice, allocate_costs
from repro.catalog import VideoCatalog, VideoFile, paper_catalog, uniform_catalog
from repro.core import (
    CacheStats,
    CostBreakdown,
    CostModel,
    DeliveryInfo,
    FileSchedule,
    HeatMetric,
    IndividualScheduler,
    OverflowSituation,
    ParallelIndividualScheduler,
    Phase1Result,
    ResidencyInfo,
    ResolutionStats,
    Schedule,
    ScheduleResult,
    UsageTimeline,
    VideoScheduler,
    detect_overflows,
    resolve_overflows,
)
from repro.faults import (
    ContingencyScheduler,
    DegradedModeReport,
    FaultEvent,
    FaultFeed,
    FaultKind,
    FaultPlan,
    FaultSpec,
    RecoveryResult,
    build_degraded_report,
    masked_topology,
)
from repro.gateway import (
    AdmissionPolicy,
    GatewayConfig,
    GatewayRunReport,
    RequestEvent,
    RequestFeed,
    ReservationGateway,
    build_policy,
)
from repro.online import (
    CircuitBreaker,
    OnlineAmendmentLoop,
    OnlineLoopConfig,
    OnlineRunReport,
    TransientFailureInjector,
    TransientResolveError,
)
from repro.horizon import (
    CarryoverLedger,
    HorizonConfig,
    HorizonOrchestrator,
    HorizonReport,
    MigrationConfig,
    MigrationPlan,
    MigrationPlanner,
    build_resume_ledger,
    generate_drifting_cycles,
)
from repro.obs import NULL_OBS, Observability, RunTelemetry, configure_logging
from repro.replication import ReplicaMap
from repro.topology import (
    ChargingBasis,
    Router,
    Topology,
    chain_topology,
    paper_topology,
    validate_topology,
    worked_example_topology,
)
from repro.service import CycleReport, VORService
from repro.warehouse import StagingPlanner, StagingReport, WarehouseSpec
from repro.workload import (
    PeakHourArrivals,
    RankChurn,
    Request,
    RequestBatch,
    SlottedArrivals,
    UniformArrivals,
    WorkloadGenerator,
    ZipfPopularity,
)

__version__ = "1.0.0"

__all__ = [
    "io",
    "obs",
    "units",
    "NULL_OBS",
    "Observability",
    "RunTelemetry",
    "configure_logging",
    "BillingStatement",
    "Invoice",
    "allocate_costs",
    "VideoCatalog",
    "VideoFile",
    "paper_catalog",
    "uniform_catalog",
    "CacheStats",
    "CostBreakdown",
    "CostModel",
    "DeliveryInfo",
    "FileSchedule",
    "HeatMetric",
    "IndividualScheduler",
    "OverflowSituation",
    "ParallelIndividualScheduler",
    "Phase1Result",
    "ResidencyInfo",
    "ResolutionStats",
    "Schedule",
    "ScheduleResult",
    "UsageTimeline",
    "VideoScheduler",
    "detect_overflows",
    "resolve_overflows",
    "ContingencyScheduler",
    "DegradedModeReport",
    "FaultEvent",
    "FaultFeed",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "RecoveryResult",
    "build_degraded_report",
    "masked_topology",
    "AdmissionPolicy",
    "GatewayConfig",
    "GatewayRunReport",
    "RequestEvent",
    "RequestFeed",
    "ReservationGateway",
    "build_policy",
    "CircuitBreaker",
    "OnlineAmendmentLoop",
    "OnlineLoopConfig",
    "OnlineRunReport",
    "TransientFailureInjector",
    "TransientResolveError",
    "ReplicaMap",
    "CarryoverLedger",
    "HorizonConfig",
    "HorizonOrchestrator",
    "HorizonReport",
    "MigrationConfig",
    "MigrationPlan",
    "MigrationPlanner",
    "build_resume_ledger",
    "generate_drifting_cycles",
    "ChargingBasis",
    "Router",
    "Topology",
    "chain_topology",
    "paper_topology",
    "validate_topology",
    "worked_example_topology",
    "CycleReport",
    "VORService",
    "StagingPlanner",
    "StagingReport",
    "WarehouseSpec",
    "PeakHourArrivals",
    "RankChurn",
    "Request",
    "RequestBatch",
    "SlottedArrivals",
    "UniformArrivals",
    "WorkloadGenerator",
    "ZipfPopularity",
    "__version__",
]
