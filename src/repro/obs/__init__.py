"""End-to-end observability for the VOR scheduling pipeline.

Layout:

* :mod:`repro.obs.metrics`   -- counters, gauges, fixed-bucket histograms;
  determinism flags; :class:`NullRegistry` no-op default
* :mod:`repro.obs.trace`     -- span-based tracing (``ivsp``, ``sorp``,
  ``overflow``, ``simulate``, ...) with stitched span ids;
  :class:`NullTracer` no-op default
* :mod:`repro.obs.events`    -- the deterministic request-lifecycle
  :class:`RequestJournal` of wide events + ``explain(request_id)``
* :mod:`repro.obs.slo`       -- declarative SLOs with error-budget /
  burn-rate accounting (``vor-repro slo-check``)
* :mod:`repro.obs.critpath`  -- critical-path reducer over stitched traces
* :mod:`repro.obs.telemetry` -- the :class:`Observability` handle threaded
  through the pipeline and the :class:`RunTelemetry` snapshot bundle
* :mod:`repro.obs.export`    -- Prometheus text, JSON snapshot, JSONL trace
* :mod:`repro.obs.logs`      -- stdlib-logging conventions + CLI configuration

The metric catalog, event taxonomy, SLO schema, and span taxonomy are
documented in ``docs/OBSERVABILITY.md``.
"""

from repro.obs.critpath import (
    CriticalPath,
    critical_paths,
    format_critical_path,
    format_critical_paths,
)
from repro.obs.events import (
    EVENT_KINDS,
    JournalError,
    JournalEvent,
    NullJournal,
    NULL_JOURNAL,
    RequestJournal,
    load_journal_jsonl,
    request_key,
    write_journal_jsonl,
)
from repro.obs.export import (
    json_snapshot,
    prometheus_text,
    write_metrics,
    write_trace_jsonl,
)
from repro.obs.logs import configure_logging, parse_level
from repro.obs.slo import (
    GATEWAY_INDICATORS,
    SLOError,
    SLOPolicy,
    SLOReport,
    SLOResult,
    SLOSpec,
    gateway_indicators,
    online_indicators,
)
from repro.obs.metrics import (
    BYTES_BUCKETS,
    COUNT_BUCKETS,
    DOLLAR_BUCKETS,
    SECONDS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
    MetricsTape,
    NullRegistry,
    NULL_REGISTRY,
)
from repro.obs.telemetry import NULL_OBS, Observability, RunTelemetry
from repro.obs.trace import NullTracer, SpanRecord, Tracer, NULL_TRACER

__all__ = [
    "BYTES_BUCKETS",
    "COUNT_BUCKETS",
    "DOLLAR_BUCKETS",
    "SECONDS_BUCKETS",
    "Counter",
    "CriticalPath",
    "EVENT_KINDS",
    "GATEWAY_INDICATORS",
    "Gauge",
    "Histogram",
    "JournalError",
    "JournalEvent",
    "MetricsError",
    "MetricsRegistry",
    "MetricsTape",
    "NullJournal",
    "NULL_JOURNAL",
    "NullRegistry",
    "NULL_REGISTRY",
    "NullTracer",
    "RequestJournal",
    "SLOError",
    "SLOPolicy",
    "SLOReport",
    "SLOResult",
    "SLOSpec",
    "SpanRecord",
    "Tracer",
    "NULL_TRACER",
    "NULL_OBS",
    "Observability",
    "RunTelemetry",
    "configure_logging",
    "critical_paths",
    "format_critical_path",
    "format_critical_paths",
    "gateway_indicators",
    "json_snapshot",
    "load_journal_jsonl",
    "online_indicators",
    "parse_level",
    "prometheus_text",
    "request_key",
    "write_journal_jsonl",
    "write_metrics",
    "write_trace_jsonl",
]
