"""Exporters: Prometheus text exposition, JSON snapshot, JSONL trace log.

Three formats, one registry:

* :func:`prometheus_text` -- the Prometheus text exposition format
  (``# HELP`` / ``# TYPE`` headers, cumulative ``le`` histogram
  buckets, ``_sum``/``_count`` series), ready for a scrape endpoint or
  a textfile collector.
* :func:`json_snapshot` / :func:`write_metrics` -- the structured JSON
  dump of a :class:`~repro.obs.telemetry.RunTelemetry` bundle: metric
  families, per-phase wall-time totals, and the raw span list.
  ``write_metrics`` picks the format from the file suffix (``.prom`` /
  ``.txt`` → Prometheus text, everything else → JSON).
* :func:`write_trace_jsonl` -- one JSON object per span, append-friendly
  and greppable (the structured event log).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

from repro.obs.metrics import Histogram, MetricsRegistry, NullRegistry
from repro.obs.telemetry import Observability, RunTelemetry
from repro.obs.trace import SpanRecord


def _escape_label(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r'\"').replace("\n", r"\n")


def _fmt_labels(labels: dict[str, str], extra: dict[str, str] | None = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    body = ",".join(
        f'{k}="{_escape_label(str(v))}"' for k, v in sorted(merged.items())
    )
    return "{" + body + "}"


def prometheus_text(registry: MetricsRegistry | NullRegistry) -> str:
    """Render the registry in the Prometheus text exposition format."""
    lines: list[str] = []
    for fam in registry.families():
        if fam.help:
            lines.append(f"# HELP {fam.name} {fam.help}")
        lines.append(f"# TYPE {fam.name} {fam.kind}")
        for key in sorted(fam.children):
            child = fam.children[key]
            labels = dict(key)
            if isinstance(child, Histogram):
                for le, cumulative in child.cumulative_counts():
                    lines.append(
                        f"{fam.name}_bucket"
                        f"{_fmt_labels(labels, {'le': le})} {cumulative}"
                    )
                lines.append(f"{fam.name}_sum{_fmt_labels(labels)} {child.sum:g}")
                lines.append(f"{fam.name}_count{_fmt_labels(labels)} {child.count}")
            else:
                lines.append(f"{fam.name}{_fmt_labels(labels)} {child.value:g}")
    return "\n".join(lines) + ("\n" if lines else "")


def json_snapshot(telemetry: RunTelemetry) -> str:
    """Serialize a telemetry bundle as a JSON document."""
    return json.dumps(telemetry.to_json_dict(), indent=2, sort_keys=False)


def write_metrics(path: str | Path, obs: Observability | RunTelemetry) -> Path:
    """Write a metrics snapshot; format chosen from the suffix.

    ``.prom``/``.txt`` files get the Prometheus exposition (metrics
    only); everything else gets the full JSON snapshot (metrics +
    phases + spans).
    """
    path = Path(path)
    telemetry = obs.telemetry() if isinstance(obs, Observability) else obs
    if path.suffix in (".prom", ".txt"):
        if isinstance(obs, Observability):
            path.write_text(prometheus_text(obs.metrics))
        else:  # re-render from the snapshot is lossy; require the handle
            raise ValueError(
                "Prometheus export needs the live Observability handle"
            )
    else:
        path.write_text(json_snapshot(telemetry) + "\n")
    return path


def write_trace_jsonl(path: str | Path, spans: Iterable[SpanRecord]) -> Path:
    """Write spans as JSON Lines (one span object per line)."""
    path = Path(path)
    with path.open("w") as fh:
        for record in spans:
            fh.write(json.dumps(record.to_dict(), sort_keys=False))
            fh.write("\n")
    return path
