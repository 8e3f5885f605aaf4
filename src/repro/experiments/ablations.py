"""Ablation studies over the reproduction's design choices.

DESIGN.md calls out three choices worth quantifying:

* **route-wide vs destination-only cache deposits** -- our greedy lets a
  stream open candidates at *every* storage it traverses; the weaker variant
  (destination only) is what a naive reading of the paper might implement;
* **heat metrics** -- head-to-head final costs of the four Eq. 8-11 metrics
  at a contended grid point (complementing Table 5's win rates);
* **bandwidth extension** -- admission/diversion behaviour as links tighten
  (the paper's future work; no baseline to compare against, so we sweep
  capacity and report rejection/diversion/cost).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.analysis.tables import format_table
from repro.core.costmodel import CostModel
from repro.core.heat import HeatMetric
from repro.core.individual import IndividualScheduler
from repro.core.sorp import resolve_overflows
from repro.experiments.runner import ExperimentRunner
from repro.extensions.bandwidth import BandwidthAwareScheduler
from repro.topology.generators import paper_topology
from repro.topology.graph import Topology
from repro import units


@dataclass
class AblationRow:
    variant: str
    total_cost: float
    extra: dict = field(default_factory=dict)


@dataclass
class AblationResult:
    name: str
    rows: list[AblationRow] = field(default_factory=list)

    def as_table(self) -> str:
        extras = sorted({k for r in self.rows for k in r.extra})
        headers = ["variant", "total cost ($)"] + extras
        body = [
            [r.variant, r.total_cost] + [r.extra.get(k, "") for k in extras]
            for r in self.rows
        ]
        return format_table(headers, body, title=f"ablation: {self.name}")


def ablation_deposit_scope(runner: ExperimentRunner) -> AblationResult:
    """Route-wide vs destination-only cache candidate deposits (Phase 1)."""
    cfg = runner.config
    topo = runner.topology()
    batch = runner.batch()
    cm = CostModel(topo, runner.catalog)
    out = AblationResult("cache-deposit scope (phase-1 cost)")
    for scope in ("route", "destination"):
        greedy = IndividualScheduler(cm, deposit_scope=scope)
        schedule = greedy.solve(batch)
        _, stats = resolve_overflows(
            schedule, batch, cm, metric=cfg.heat_metric
        )
        out.rows.append(
            AblationRow(
                scope,
                stats.resolved_cost,
                extra={
                    "phase1 ($)": round(stats.phase1_cost, 2),
                    "overflow iters": stats.iterations,
                },
            )
        )
    return out


def ablation_heat_metrics(runner: ExperimentRunner) -> AblationResult:
    """Final cost per heat metric at a deliberately contended grid point."""
    out = AblationResult("heat metric (final cost at tight capacity)")
    for metric in HeatMetric:
        rec = runner.run(capacity_gb=5.0, srate_per_gb_hour=3.0, heat_metric=metric)
        out.rows.append(
            AblationRow(
                f"method {metric.value} ({metric.name.lower()})",
                rec.total_cost,
                extra={
                    "resolution iters": rec.resolution_iterations,
                    "increase %": round(100 * rec.cost_increase_ratio, 3),
                },
            )
        )
    return out


def ablation_bandwidth(
    runner: ExperimentRunner,
    *,
    link_capacities_mbps: Sequence[float] = (6, 12, 24, 48, 96),
) -> AblationResult:
    """Admission behaviour of the bandwidth extension as links tighten."""
    cfg = runner.config
    batch = runner.batch()
    out = AblationResult("bandwidth extension (per-link capacity sweep)")
    for cap_mbps in link_capacities_mbps:
        topo = paper_topology(
            nrate=cfg.nrate,
            srate=cfg.srate,
            capacity=cfg.capacity,
        )
        limited = Topology()
        limited.add_warehouse(topo.warehouse.name)
        for s in topo.storages:
            limited.add_storage(s.name, srate=s.srate, capacity=s.capacity)
        for e in topo.edges:
            limited.add_edge(
                e.a, e.b, nrate=e.nrate, bandwidth=units.mbps(cap_mbps)
            )
        result = BandwidthAwareScheduler(limited, runner.catalog).solve(batch)
        out.rows.append(
            AblationRow(
                f"{cap_mbps:g} Mbps/link",
                result.total_cost,
                extra={
                    "admitted": result.admitted,
                    "rejected": len(result.rejected),
                    "diverted": result.diverted_streams,
                },
            )
        )
    return out
