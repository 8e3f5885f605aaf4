"""Critical-path analysis over stitched span trees.

:class:`~repro.obs.trace.SpanRecord` carries ``span_id``/``parent_id``
ids, so the finished records of a run form one (or several, one per root) consistent trees.  This
module reduces those trees to the question profilers ask: *which chain
of spans dominated the wall time?*

The reducer walks each root, always descending into the child with the
largest duration (ties broken by start time, then name, then span id --
so the report is deterministic for a fixed trace), and reports the
chain with per-span *self time* (duration minus direct children,
clamped at zero) so the dominating frame inside the chain is visible::

    paths = critical_paths(obs.tracer.records)
    print(format_critical_path(paths[0]))

Durations are wall time, so the numbers vary run to run -- the *shape*
(which spans exist, who parents whom) is deterministic for a seeded
batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.obs.trace import SpanRecord


@dataclass(frozen=True)
class PathStep:
    """One span on a critical path."""

    name: str
    duration: float
    self_time: float
    span_id: int
    depth: int
    share: float  # fraction of the path root's duration

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "duration": self.duration,
            "self_time": self.self_time,
            "span_id": self.span_id,
            "depth": self.depth,
            "share": self.share,
        }


@dataclass(frozen=True)
class CriticalPath:
    """The dominating span chain under one root span."""

    steps: tuple[PathStep, ...]

    @property
    def root(self) -> PathStep:
        return self.steps[0]

    @property
    def total_seconds(self) -> float:
        return self.steps[0].duration if self.steps else 0.0

    @property
    def dominant(self) -> PathStep:
        """The step with the largest self time (the actual hot frame)."""
        return max(self.steps, key=lambda s: (s.self_time, -s.depth))

    def to_dict(self) -> dict:
        return {
            "total_seconds": self.total_seconds,
            "dominant": self.dominant.name,
            "steps": [s.to_dict() for s in self.steps],
        }


def _children_index(
    records: tuple[SpanRecord, ...],
) -> dict[int, list[SpanRecord]]:
    ids = {r.span_id for r in records if r.span_id}
    children: dict[int, list[SpanRecord]] = {}
    for r in records:
        parent = r.parent_id if r.parent_id in ids else 0
        children.setdefault(parent, []).append(r)
    for kids in children.values():
        # Deterministic descent order: biggest first, ties by start/name/id.
        kids.sort(key=lambda r: (-r.duration, r.start, r.name, r.span_id))
    return children


def _self_time(record: SpanRecord, children: dict[int, list[SpanRecord]]) -> float:
    kids = children.get(record.span_id, ()) if record.span_id else ()
    return max(0.0, record.duration - sum(k.duration for k in kids))


def critical_paths(records: Iterable[SpanRecord]) -> tuple[CriticalPath, ...]:
    """One :class:`CriticalPath` per root span, longest root first.

    Records without ids (legacy traces) are treated as roots of their
    own single-step paths.
    """
    records = tuple(records)
    if not records:
        return ()
    children = _children_index(records)
    paths = []
    for root in children.get(0, ()):
        total = root.duration or 1e-12
        steps: list[PathStep] = []
        node, depth = root, 0
        while node is not None:
            steps.append(
                PathStep(
                    name=node.name,
                    duration=node.duration,
                    self_time=_self_time(node, children),
                    span_id=node.span_id,
                    depth=depth,
                    share=node.duration / total,
                )
            )
            kids = children.get(node.span_id, []) if node.span_id else []
            node = kids[0] if kids else None
            depth += 1
        paths.append(CriticalPath(steps=tuple(steps)))
    paths.sort(key=lambda p: (-p.total_seconds, p.root.name, p.root.span_id))
    return tuple(paths)


def format_critical_path(path: CriticalPath) -> str:
    """Terminal rendering: one indented line per step, hot frame marked."""
    hot = path.dominant
    lines = [f"critical path ({path.total_seconds * 1e3:.2f} ms total):"]
    for step in path.steps:
        marker = " *" if step is hot else ""
        lines.append(
            f"  {'  ' * step.depth}{step.name}  "
            f"{step.duration * 1e3:.2f} ms "
            f"({step.share:5.1%} of root, self {step.self_time * 1e3:.2f} ms)"
            f"{marker}"
        )
    return "\n".join(lines)


def format_critical_paths(
    records: Iterable[SpanRecord], *, limit: int = 3
) -> str:
    """Render the top ``limit`` critical paths of a trace."""
    paths = critical_paths(records)
    if not paths:
        return "no spans recorded"
    return "\n\n".join(format_critical_path(p) for p in paths[:limit])


__all__ = [
    "CriticalPath",
    "PathStep",
    "critical_paths",
    "format_critical_path",
    "format_critical_paths",
]
