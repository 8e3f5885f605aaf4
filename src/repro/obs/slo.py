"""Declarative service-level objectives with error-budget accounting.

An :class:`SLOSpec` names one *indicator* (a ratio or latency computed
from a run), an *objective*, and a comparison direction::

    {"name": "deadline-hit-rate", "indicator": "deadline_hit_rate",
     "objective": 0.90, "op": ">="}

A :class:`SLOPolicy` (a list of specs, loadable from JSON via
:meth:`SLOPolicy.load`) evaluates a dict of measured indicators into an
:class:`SLOReport` carrying per-SLO burn rates and remaining error
budget:

* ``op=">="`` -- the objective is a floor on a *good* ratio.  The error
  budget is ``1 - objective`` and the burn rate is
  ``(1 - value) / (1 - objective)``: burn 1.0 means the budget is
  exactly spent, above 1.0 the SLO is breached.
* ``op="<="`` -- the objective is a ceiling on a *bad* ratio or a
  latency.  The budget is the objective itself and the burn rate is
  ``value / objective``.

Indicators missing from the measurement dict evaluate to *no-data*,
which counts as met (an SLO over a phase that never ran cannot burn
budget).  :meth:`SLOReport.record` publishes
``vor_slo_burn_rate{slo=...}`` and
``vor_slo_error_budget_remaining_ratio{slo=...}`` gauges, and
``vor-repro slo-check`` exits non-zero when :attr:`SLOReport.ok` is
false.

:func:`online_indicators` derives the standard indicator dict from an
:class:`~repro.online.loop.OnlineRunReport`; ratio indicators are
replay-deterministic, the latency indicators are wall time (excluded
from bench's deterministic gate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from repro.errors import ReproError
from repro.io import field, read_json


class SLOError(ReproError):
    """Malformed SLO policy or evaluation input."""


_OPS = ("<=", ">=")

#: Indicators replayable bit-identically for a fixed (feed, seed) -- the
#: slice of an SLO evaluation that bench's ``--compare`` gate may diff.
DETERMINISTIC_INDICATORS = (
    "deadline_hit_rate",
    "amendment_failure_rate",
    "shed_rate",
    "gateway_admission_ratio",
    "gateway_quote_error",
    "gateway_shed_rate",
)

#: The admission gateway's own indicator names (a subset of the
#: deterministic indicators: gateway decisions replay bit-identically).
GATEWAY_INDICATORS = (
    "gateway_admission_ratio",
    "gateway_quote_error",
    "gateway_shed_rate",
)


@dataclass(frozen=True)
class SLOSpec:
    """One objective over one indicator."""

    name: str
    indicator: str
    objective: float
    op: str = ">="
    description: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise SLOError(f"SLO name must be a non-empty string, got {self.name!r}")
        if self.op not in _OPS:
            raise SLOError(f"SLO {self.name!r}: op must be one of {_OPS}, got {self.op!r}")
        if not math.isfinite(self.objective):
            raise SLOError(f"SLO {self.name!r}: objective must be finite")

    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "name": self.name,
            "indicator": self.indicator,
            "objective": self.objective,
            "op": self.op,
        }
        if self.description:
            doc["description"] = self.description
        return doc


@dataclass(frozen=True)
class SLOResult:
    """One evaluated SLO."""

    spec: SLOSpec
    value: float | None  # None = indicator absent from the measurement
    met: bool
    burn_rate: float
    budget_remaining: float  # max(0, 1 - burn_rate)

    @property
    def status(self) -> str:
        if self.value is None:
            return "no-data"
        return "ok" if self.met else "breach"

    def to_dict(self) -> dict[str, Any]:
        return {
            **self.spec.to_dict(),
            "value": self.value,
            "status": self.status,
            "burn_rate": self.burn_rate,
            "budget_remaining": self.budget_remaining,
        }


@dataclass(frozen=True)
class SLOReport:
    """Every SLO of a policy evaluated against one run."""

    results: tuple[SLOResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.met for r in self.results)

    @property
    def breaches(self) -> tuple[SLOResult, ...]:
        return tuple(r for r in self.results if not r.met)

    def to_dict(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "breaches": len(self.breaches),
            "slos": [r.to_dict() for r in self.results],
        }

    def record(self, registry: Any) -> None:
        """Publish burn/budget gauges onto a metrics registry.

        Burn rates over latency indicators are wall time, so both
        gauges are registered non-deterministic.
        """
        if not getattr(registry, "enabled", False):
            return
        for r in self.results:
            registry.gauge(
                "vor_slo_burn_rate",
                help="Error-budget burn rate per SLO (1.0 = budget spent)",
                deterministic=False,
                slo=r.spec.name,
            ).set(r.burn_rate)
            registry.gauge(
                "vor_slo_error_budget_remaining_ratio",
                help="Remaining error budget per SLO (0 = exhausted)",
                deterministic=False,
                slo=r.spec.name,
            ).set(r.budget_remaining)

    def format_report(self) -> str:
        """Terminal rendering, one line per SLO."""
        if not self.results:
            return "slo: empty policy"
        width = max(len(r.spec.name) for r in self.results)
        lines = []
        for r in self.results:
            value = "n/a" if r.value is None else f"{r.value:g}"
            lines.append(
                f"  {'PASS' if r.met else 'FAIL'}  {r.spec.name:<{width}}  "
                f"value={value} objective{r.spec.op}{r.spec.objective:g}  "
                f"burn={r.burn_rate:.2f} budget-left={r.budget_remaining:.0%}"
            )
        verdict = "OK" if self.ok else f"BREACHED ({len(self.breaches)})"
        return "\n".join([f"slo: {verdict}"] + lines)


def _evaluate_one(spec: SLOSpec, value: float | None) -> SLOResult:
    if value is None:
        return SLOResult(spec, None, met=True, burn_rate=0.0, budget_remaining=1.0)
    if spec.op == ">=":
        met = value >= spec.objective
        bad, budget = 1.0 - value, 1.0 - spec.objective
    else:
        met = value <= spec.objective
        bad, budget = value, spec.objective
    if budget <= 0.0:
        burn = 0.0 if bad <= 0.0 else math.inf
    else:
        burn = max(0.0, bad / budget)
    return SLOResult(
        spec, value, met=met, burn_rate=burn,
        budget_remaining=max(0.0, 1.0 - burn),
    )


@dataclass(frozen=True)
class SLOPolicy:
    """An ordered set of :class:`SLOSpec` evaluated together."""

    specs: tuple[SLOSpec, ...]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for s in self.specs:
            if s.name in seen:
                raise SLOError(f"duplicate SLO name {s.name!r}")
            seen.add(s.name)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.specs)

    def evaluate(self, indicators: Mapping[str, float]) -> SLOReport:
        return SLOReport(
            results=tuple(
                _evaluate_one(s, indicators.get(s.indicator)) for s in self.specs
            )
        )

    def to_dict(self) -> dict[str, Any]:
        return {"slos": [s.to_dict() for s in self.specs]}

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "SLOPolicy":
        entries = field(doc, "slos", list, SLOError, "malformed SLO policy")
        specs = []
        for i, entry in enumerate(entries):
            what = f"malformed SLO policy slos[{i}]"
            specs.append(
                SLOSpec(
                    name=field(entry, "name", str, SLOError, what),
                    indicator=field(entry, "indicator", str, SLOError, what),
                    objective=field(entry, "objective", float, SLOError, what),
                    op=field(entry, "op", str, SLOError, what, ">="),
                    description=field(entry, "description", str, SLOError, what, ""),
                )
            )
        return cls(specs=tuple(specs))

    @classmethod
    def load(cls, path: str | Path) -> "SLOPolicy":
        return cls.from_dict(read_json(path, SLOError, "SLO policy"))

    @classmethod
    def default(cls) -> "SLOPolicy":
        """The built-in policy ``run-online`` gates with when ``--slo`` is
        not given.

        ``slo-check`` does not apply it: it re-gates a report against the
        policy the report embeds (or ``--slo``).
        """
        return cls(
            specs=(
                SLOSpec(
                    "deadline-hit-rate", "deadline_hit_rate", 0.5, ">=",
                    "Fraction of admitted reservations neither lost nor shed.",
                ),
                SLOSpec(
                    "amendment-failure-rate", "amendment_failure_rate", 0.5, "<=",
                    "Fraction of online batches that failed to amend.",
                ),
                SLOSpec(
                    "shed-rate", "shed_rate", 0.25, "<=",
                    "Fraction of admitted reservations shed under degradation.",
                ),
                SLOSpec(
                    "amendment-latency", "amendment_latency_seconds", 30.0, "<=",
                    "Slowest settled amendment batch (wall seconds).",
                ),
            )
        )

    @classmethod
    def gateway_default(cls) -> "SLOPolicy":
        """The built-in policy for admission-gateway runs.

        Kept separate from :meth:`default` (whose specs are embedded in
        committed reports): gateway indicators measure the front door,
        not the amendment loop.
        """
        return cls(
            specs=(
                SLOSpec(
                    "gateway-admission-ratio", "gateway_admission_ratio",
                    0.5, ">=",
                    "Fraction of offered bookings admitted into a cycle.",
                ),
                SLOSpec(
                    "gateway-quote-error", "gateway_quote_error", 0.5, "<=",
                    "Worst per-cycle relative quote-vs-realized Ψ error.",
                ),
                SLOSpec(
                    "gateway-shed-rate", "gateway_shed_rate", 0.25, "<=",
                    "Fraction of offered bookings shed under backpressure.",
                ),
            )
        )


def gateway_indicators(run: Any) -> dict[str, float]:
    """Standard indicator dict from a gateway run.

    Args:
        run: A :class:`~repro.gateway.gateway.GatewayRunReport`.

    All three indicators are replay-deterministic: admission ratio
    (admitted / offered), shed rate (shed / offered), and the worst
    per-cycle relative quote-vs-realized Ψ error.
    """
    indicators = {
        "gateway_admission_ratio": run.admission_ratio,
        "gateway_shed_rate": run.shed_rate,
    }
    if math.isfinite(run.quote_error):
        indicators["gateway_quote_error"] = run.quote_error
    return indicators


def online_indicators(
    report: Any,
    *,
    reservations: int,
) -> dict[str, float]:
    """Standard indicator dict from an online run.

    Args:
        report: An :class:`~repro.online.loop.OnlineRunReport`.
        reservations: Admitted reservations going into the cycle.

    Ratio indicators are deterministic for a fixed (feed, seed); the
    latency indicators come from wall-clock batch durations.
    """
    indicators: dict[str, float] = {}
    lost = sum(r.lost for r in report.records)
    if reservations:
        indicators["deadline_hit_rate"] = max(
            0.0, 1.0 - (lost + report.shed_total) / reservations
        )
        indicators["shed_rate"] = report.shed_total / reservations
    if report.batches_total:
        failed = sum(
            1 for r in report.records if r.outcome.endswith("failed")
        )
        indicators["amendment_failure_rate"] = failed / report.batches_total
    durations = [r.duration_s for r in report.records if r.duration_s > 0.0]
    if durations:
        indicators["amendment_latency_seconds"] = max(durations)
    return indicators


def deterministic_slice(indicators: Mapping[str, float]) -> dict[str, float]:
    """The replay-invariant indicators (bench's compared surface)."""
    return {
        k: indicators[k] for k in DETERMINISTIC_INDICATORS if k in indicators
    }


__all__ = [
    "DETERMINISTIC_INDICATORS",
    "GATEWAY_INDICATORS",
    "SLOError",
    "SLOPolicy",
    "SLOReport",
    "SLOResult",
    "SLOSpec",
    "deterministic_slice",
    "gateway_indicators",
    "online_indicators",
]
