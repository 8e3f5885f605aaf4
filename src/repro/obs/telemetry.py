"""The observability handle threaded through the pipeline.

:class:`Observability` bundles a metrics registry with a tracer and is
what every instrumented component accepts (``obs=``).  The module-level
:data:`NULL_OBS` -- a null registry plus a null tracer -- is the default
everywhere, so uninstrumented callers pay near-zero cost and produce
bit-identical schedules.

Enable it explicitly::

    obs = Observability.on()
    result = VideoScheduler(topo, catalog, obs=obs).solve(batch)
    telemetry = obs.telemetry()          # RunTelemetry snapshot
    print(telemetry.phase_totals()["sorp"]["total_seconds"])

:class:`RunTelemetry` is the export-ready snapshot: the metrics dump,
the span list, and per-phase wall-time totals.  Cycle closes attach one
to :class:`repro.service.CycleReport`, simulation runs to
:class:`repro.sim.engine.SimulationReport`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.obs.events import NullJournal, RequestJournal, NULL_JOURNAL
from repro.obs.metrics import MetricsRegistry, NullRegistry, NULL_REGISTRY
from repro.obs.trace import NullTracer, SpanRecord, Tracer, NULL_TRACER


@dataclass(frozen=True)
class RunTelemetry:
    """Point-in-time bundle of everything the observability layer saw."""

    metrics: dict
    spans: tuple[SpanRecord, ...] = ()

    def phase_totals(self) -> dict[str, dict[str, float]]:
        """Wall-time aggregation per span name.

        Returns ``{name: {"count": n, "total_seconds": s,
        "max_seconds": m}}`` -- the per-phase wall-time view the JSON
        snapshot exposes (ivsp, sorp, overflow, simulate, ...).
        """
        out: dict[str, dict[str, float]] = {}
        for r in self.spans:
            agg = out.setdefault(
                r.name, {"count": 0, "total_seconds": 0.0, "max_seconds": 0.0}
            )
            agg["count"] += 1
            agg["total_seconds"] += r.duration
            agg["max_seconds"] = max(agg["max_seconds"], r.duration)
        return dict(sorted(out.items()))

    def to_json_dict(self) -> dict[str, Any]:
        """The ``--metrics-out`` JSON snapshot layout."""
        return {
            "metrics": self.metrics,
            "phases": self.phase_totals(),
            "spans": [r.to_dict() for r in self.spans],
        }


class Observability:
    """One registry + one tracer + one journal, passed down the stack.

    The request journal (:class:`repro.obs.events.RequestJournal`) is
    opt-in even on a live handle -- ``Observability.on(journal=True)`` --
    because journaling allocates one record per scheduling decision,
    which metrics-only callers should not pay for.
    """

    __slots__ = ("metrics", "tracer", "journal")

    def __init__(
        self,
        metrics: MetricsRegistry | NullRegistry,
        tracer: Tracer | NullTracer,
        journal: RequestJournal | NullJournal | None = None,
    ):
        self.metrics = metrics
        self.tracer = tracer
        self.journal = journal if journal is not None else NULL_JOURNAL

    @classmethod
    def on(
        cls,
        *,
        clock: Callable[[], float] | None = None,
        journal: bool = False,
    ) -> "Observability":
        """A live observability handle (fresh registry + tracer).

        ``journal=True`` additionally attaches a fresh
        :class:`~repro.obs.events.RequestJournal` recording the
        request-lifecycle wide events.
        """
        return cls(
            MetricsRegistry(),
            Tracer(clock),
            RequestJournal() if journal else NULL_JOURNAL,
        )

    @classmethod
    def off(cls) -> "Observability":
        """The inert handle (shared null instruments)."""
        return NULL_OBS

    @property
    def enabled(self) -> bool:
        return self.metrics.enabled

    def telemetry(self) -> RunTelemetry:
        """Snapshot the current metrics + spans as a :class:`RunTelemetry`."""
        return RunTelemetry(
            metrics=self.metrics.snapshot(),
            spans=self.tracer.records,
        )


#: The default, inert handle.  Shared: never mutated, never records.
NULL_OBS = Observability(NULL_REGISTRY, NULL_TRACER, NULL_JOURNAL)
