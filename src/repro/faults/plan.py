"""Declarative, seeded fault scenarios.

A :class:`FaultPlan` is an ordered set of :class:`FaultSpec` records, each
describing one resource failure over a half-open time window ``[t_start,
t_end)``.  Plans are plain data: they serialize to JSON, reload to an equal
object, and replay bit-identically -- the simulator and the contingency
scheduler both consume the same spec, so a scenario exercised in CI is
exactly the scenario a recovery was computed for.

Severity follows a *remaining-fraction* convention: ``severity`` is the
fraction of the resource that keeps working during the fault.  ``0.0`` means
the resource is fully down; ``0.4`` on a link means 40 % of its bandwidth
survives; ``0.4`` on a storage means capacity shrinks to 40 %.  Kinds whose
resource is binary (:attr:`FaultKind.IS_OUTAGE`, :attr:`FaultKind.LINK_DOWN`)
ignore severity and are always total.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import random
from dataclasses import dataclass

from repro.errors import FaultError
from repro.io import FORMAT_VERSION, check_version, field, read_json, write_json
from repro.topology.graph import Topology, edge_key


class FaultKind(enum.Enum):
    """What kind of resource degradation a fault inflicts."""

    IS_OUTAGE = "is_outage"  # an intermediate storage is fully down
    LINK_DOWN = "link_down"  # a link is unusable (partition)
    LINK_DEGRADED = "link_degraded"  # a link keeps only severity * bandwidth
    WAREHOUSE_BROWNOUT = "warehouse_brownout"  # warehouse egress degraded
    CAPACITY_SHRINK = "capacity_shrink"  # a storage keeps severity * capacity
    WAREHOUSE_LOSS = "warehouse_loss"  # a warehouse is fully down (site loss)


#: Kinds whose target is a node name.
NODE_KINDS = frozenset(
    {
        FaultKind.IS_OUTAGE,
        FaultKind.WAREHOUSE_BROWNOUT,
        FaultKind.CAPACITY_SHRINK,
        FaultKind.WAREHOUSE_LOSS,
    }
)
#: Kinds whose target is an undirected link ``(a, b)``.
LINK_KINDS = frozenset({FaultKind.LINK_DOWN, FaultKind.LINK_DEGRADED})
#: :meth:`FaultPlan.generate` draws fault durations uniform in this range,
#: as fractions of the horizon span.
DURATION_RANGE = (0.05, 0.25)
#: :meth:`FaultPlan.generate` draws partial severities uniform in this range.
SEVERITY_RANGE = (0.2, 0.8)


@dataclass(frozen=True)
class FaultSpec:
    """One fault: a kind, a target resource, a window, and a severity.

    Attributes:
        kind: What fails.
        target: Node name for node kinds, ``(a, b)`` edge pair for link
            kinds (normalized to the canonical sorted order).
        t_start: When the fault begins (inclusive).
        t_end: When the resource recovers (exclusive).
        severity: Remaining fraction of the resource during the fault (see
            module docstring).  Ignored (treated as 0) by binary kinds.
        label: Optional human-readable scenario annotation.
    """

    kind: FaultKind
    target: str | tuple[str, str]
    t_start: float
    t_end: float
    severity: float = 0.0
    label: str = ""

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t_start) and math.isfinite(self.t_end)):
            raise FaultError("fault window must be finite")
        if self.t_end <= self.t_start:
            raise FaultError(
                f"fault window reversed or empty: [{self.t_start}, {self.t_end})"
            )
        if not 0.0 <= self.severity <= 1.0:
            raise FaultError(
                f"severity must be a remaining fraction in [0, 1], "
                f"got {self.severity}"
            )
        if self.kind in LINK_KINDS:
            if not (
                isinstance(self.target, (tuple, list))
                and len(self.target) == 2
                and all(isinstance(n, str) and n for n in self.target)
            ):
                raise FaultError(
                    f"{self.kind.value} target must be an (a, b) edge pair, "
                    f"got {self.target!r}"
                )
            object.__setattr__(self, "target", edge_key(*self.target))
        elif not isinstance(self.target, str) or not self.target:
            raise FaultError(
                f"{self.kind.value} target must be a node name, "
                f"got {self.target!r}"
            )
        if self.kind is FaultKind.CAPACITY_SHRINK and self.severity <= 0.0:
            raise FaultError(
                "capacity_shrink needs severity > 0 (use is_outage for a "
                "total storage loss)"
            )

    @property
    def window(self) -> tuple[float, float]:
        return (self.t_start, self.t_end)

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    @property
    def key(self) -> str:
        """Stable identifier used in traces, reports and metrics labels."""
        target = (
            "-".join(self.target)
            if isinstance(self.target, tuple)
            else self.target
        )
        return f"{self.kind.value}:{target}@{self.t_start:g}"

    def active_at(self, t: float) -> bool:
        """Whether the fault is in effect at instant ``t`` (half-open)."""
        return self.t_start <= t < self.t_end

    def overlaps(self, t0: float, t1: float) -> bool:
        """Whether the fault window intersects the half-open ``[t0, t1)``."""
        return t0 < self.t_end and self.t_start < t1

    def _sort_key(self) -> tuple:
        target = (
            "-".join(self.target)
            if isinstance(self.target, tuple)
            else self.target
        )
        return (self.t_start, self.t_end, self.kind.value, target, self.severity)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "target": list(self.target)
            if isinstance(self.target, tuple)
            else self.target,
            "t_start": self.t_start,
            "t_end": self.t_end,
            "severity": self.severity,
            "label": self.label,
        }

    @classmethod
    def from_dict(
        cls, data: dict, what: str = "malformed fault record"
    ) -> "FaultSpec":
        target = field(data, "target", (str, list), FaultError, what)
        return cls(
            kind=field(data, "kind", FaultKind, FaultError, what),
            target=tuple(target) if isinstance(target, list) else target,
            t_start=field(data, "t_start", float, FaultError, what),
            t_end=field(data, "t_end", float, FaultError, what),
            severity=field(data, "severity", float, FaultError, what, 0.0),
            label=field(data, "label", str, FaultError, what, ""),
        )


def _merge_overlapping(faults) -> tuple[FaultSpec, ...]:
    """Canonicalize a fault set: merge same-resource overlapping windows.

    Two specs of the same kind, target, and severity whose windows overlap
    (or touch -- the windows are half-open, so ``[0, 5)`` + ``[5, 9)`` is one
    continuous fault) collapse into a single spec spanning their union.  The
    merged spec keeps the earliest contributor's label.  Equal-resource specs
    with *different* severities are kept apart: they legitimately express
    piecewise degradation, and ``combined_effects`` resolves the overlap by
    taking the minimum remaining fraction.
    """
    groups: dict[tuple, list[FaultSpec]] = {}
    for f in sorted(faults, key=FaultSpec._sort_key):
        groups.setdefault((f.kind, f.target, f.severity), []).append(f)
    merged: list[FaultSpec] = []
    for group in groups.values():
        current = group[0]
        for f in group[1:]:
            if f.t_start <= current.t_end:
                if f.t_end > current.t_end:
                    current = dataclasses.replace(current, t_end=f.t_end)
            else:
                merged.append(current)
                current = f
        merged.append(current)
    return tuple(sorted(merged, key=FaultSpec._sort_key))


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, replayable fault scenario.

    Faults are kept in a canonical deterministic order (by window, kind,
    target), so two plans with the same faults compare equal and replay
    identically regardless of construction order.  Overlapping windows of
    the same kind/target/severity are merged into one spec (see
    :func:`_merge_overlapping`), so duplicated or amended feeds never
    double-count a fault and dedup keys stay stable.
    """

    faults: tuple[FaultSpec, ...] = ()
    name: str = ""
    seed: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", _merge_overlapping(self.faults))

    def __iter__(self):
        return iter(self.faults)

    def __len__(self) -> int:
        return len(self.faults)

    def __bool__(self) -> bool:
        return bool(self.faults)

    @property
    def horizon(self) -> tuple[float, float]:
        """(earliest fault start, latest fault end); raises when empty."""
        if not self.faults:
            raise FaultError("empty fault plan has no horizon")
        return (
            min(f.t_start for f in self.faults),
            max(f.t_end for f in self.faults),
        )

    def active_at(self, t: float) -> tuple[FaultSpec, ...]:
        return tuple(f for f in self.faults if f.active_at(t))

    def overlapping(self, t0: float, t1: float) -> "FaultPlan":
        """The sub-plan of faults intersecting the half-open ``[t0, t1)``."""
        return FaultPlan(
            faults=tuple(f for f in self.faults if f.overlaps(t0, t1)),
            name=self.name,
            seed=self.seed,
        )

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        doc = {
            "format_version": FORMAT_VERSION,
            "name": self.name,
            "faults": [f.to_dict() for f in self.faults],
        }
        if self.seed is not None:
            doc["seed"] = self.seed
        return doc

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        what = "malformed fault plan"
        check_version(data, FaultError, "fault plan", required=False)
        faults = field(data, "faults", list, FaultError, what)
        return cls(
            faults=tuple(
                FaultSpec.from_dict(f, f"{what} faults[{i}]")
                for i, f in enumerate(faults)
            ),
            name=field(data, "name", str, FaultError, what, ""),
            seed=field(data, "seed", int, FaultError, what, None),
        )

    def save(self, path) -> None:
        """Write the plan as pretty-printed JSON."""
        write_json(path, self.to_dict())

    @classmethod
    def load(cls, path) -> "FaultPlan":
        """Read a plan written by :meth:`save` (raises on malformed input)."""
        return cls.from_dict(read_json(path, FaultError, "fault plan"))

    # -- seeded generation -------------------------------------------------

    @classmethod
    def generate(
        cls,
        topology: Topology,
        *,
        seed: int,
        horizon: tuple[float, float],
        n_faults: int = 3,
        kinds: tuple[FaultKind, ...] | None = None,
    ) -> "FaultPlan":
        """Draw a deterministic scenario for ``topology`` from ``seed``.

        Targets are drawn from the topology's storages/links/warehouses in
        sorted-name order, windows from ``horizon`` with durations uniform in
        :data:`DURATION_RANGE` (as fractions of the horizon span), partial
        severities uniform in :data:`SEVERITY_RANGE`.  The same arguments
        always yield an equal plan.
        """
        if n_faults < 1:
            raise FaultError(f"n_faults must be >= 1, got {n_faults}")
        t0, t1 = horizon
        if not (math.isfinite(t0) and math.isfinite(t1)) or t1 <= t0:
            raise FaultError(f"invalid horizon ({t0}, {t1})")
        rng = random.Random(seed)
        storages = sorted(s.name for s in topology.storages)
        warehouses = sorted(w.name for w in topology.warehouses)
        edges = sorted(e.key for e in topology.edges)
        if kinds is None:
            # WAREHOUSE_LOSS is opt-in (pass kinds= explicitly): adding it
            # here would reshuffle every seeded plan generated so far.
            kinds = (
                FaultKind.IS_OUTAGE,
                FaultKind.LINK_DOWN,
                FaultKind.LINK_DEGRADED,
                FaultKind.WAREHOUSE_BROWNOUT,
                FaultKind.CAPACITY_SHRINK,
            )
        pools: dict[FaultKind, list] = {
            FaultKind.IS_OUTAGE: storages,
            FaultKind.CAPACITY_SHRINK: storages,
            FaultKind.WAREHOUSE_BROWNOUT: warehouses,
            FaultKind.WAREHOUSE_LOSS: warehouses,
            FaultKind.LINK_DOWN: edges,
            FaultKind.LINK_DEGRADED: edges,
        }
        usable = [k for k in kinds if pools[k]]
        if not usable:
            raise FaultError("topology offers no target for any requested kind")
        span = t1 - t0
        faults: list[FaultSpec] = []
        attempts = 0
        # Redraw candidates that would canonical-merge with an already-drawn
        # fault (same kind/target/severity, overlapping or touching window),
        # so the plan always holds exactly ``n_faults`` distinct specs.  The
        # rng sequence is only consumed further when a collision occurs, so
        # collision-free seeds generate bit-identical plans as before.
        while len(faults) < n_faults:
            attempts += 1
            if attempts > 100 * n_faults:
                raise FaultError(
                    f"cannot place {n_faults} non-overlapping fault(s) in "
                    f"horizon ({t0}, {t1}) for the requested kinds"
                )
            kind = rng.choice(usable)
            target = rng.choice(pools[kind])
            duration = span * rng.uniform(*DURATION_RANGE)
            start = t0 + rng.uniform(0.0, max(span - duration, 0.0))
            if kind in (
                FaultKind.IS_OUTAGE,
                FaultKind.LINK_DOWN,
                FaultKind.WAREHOUSE_LOSS,
            ):
                severity = 0.0
            else:
                severity = rng.uniform(*SEVERITY_RANGE)
            if any(
                f.kind is kind
                and f.target == target
                and f.severity == severity
                and start <= f.t_end
                and f.t_start <= start + duration
                for f in faults
            ):
                continue
            faults.append(
                FaultSpec(
                    kind=kind,
                    target=target,
                    t_start=start,
                    t_end=start + duration,
                    severity=severity,
                    label=f"gen-{len(faults)}",
                )
            )
        return cls(faults=tuple(faults), name=f"generated-seed{seed}", seed=seed)


__all__ = ["FaultKind", "FaultSpec", "FaultPlan", "NODE_KINDS", "LINK_KINDS"]
