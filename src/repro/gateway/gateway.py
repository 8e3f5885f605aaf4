"""The reservation admission gateway: the service's front door.

:class:`ReservationGateway` sits between a live booking stream
(:class:`~repro.gateway.feed.RequestFeed`) and :class:`~repro.service.VORService`.
For every arriving booking it

1. **pre-screens validity** -- the service's own
   :meth:`~repro.service.VORService.refusal` at the booking instant
   (unknown title, unknown neighborhood storage, lead time) -- so the
   sealed batch never makes the service raise;
2. **quotes** an incremental price through
   :class:`~repro.gateway.quote.QuoteEngine` (cheapest-copy Ψ_D vs.
   residency-extension Ψ_C against the partially-built cycle); a booking
   no home warehouse reaches gets no quote and is rejected as
   unreachable;
3. runs the priced reservation through a pluggable
   :class:`~repro.gateway.policies.AdmissionPolicy`;
4. applies **backpressure**: admitted reservations join the solver-bound
   batch until it reaches ``max_batch``, then a bounded pending queue,
   then priority-aware shedding (latest showing first -- the same urgency
   order as :meth:`~repro.service.VORService.shed_pending`).

At each cycle boundary :meth:`seal` books the batch into the service,
closes the cycle, reconciles quoted vs. realized Ψ per delivered request
(the per-request shares of the cycle's billing statement), and
journals the whole intake lifecycle (``quoted``, ``gate-admitted``,
``gate-rejected``, ``gate-queued``, ``gate-shed``, ``cycle-sealed``)
with ``vor_gateway_*`` metric families.  Queued reservations carry over
and are promoted (earliest showing first) into the next cycle's batch.

Everything runs on the feed's virtual clock: replaying a feed yields a
byte-identical journal and report.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

from repro.errors import GatewayError
from repro.gateway.feed import RequestEvent, RequestFeed
from repro.gateway.policies import AcceptAllPolicy, AdmissionPolicy
from repro.gateway.quote import Quote, QuoteEngine
from repro.obs.events import request_key
from repro.obs.metrics import DOLLAR_BUCKETS
from repro.service import CycleReport, VORService
from repro.workload.requests import Request

_log = logging.getLogger(__name__)

#: Reasons the gateway itself rejects or sheds (policies add their own).
GATE_REASONS = (
    "unknown-title",
    "unknown-storage",
    "lead-time",
    "unreachable",
    "queue-overflow",
    "expired",     # queued past its showing window: a later cycle can't book it
    "final-seal",
)


@dataclass(frozen=True)
class GatewayConfig:
    """Backpressure envelope of the gateway.

    Attributes:
        max_batch: Solver-bound batch depth per cycle; ``0`` = unbounded
            (no backpressure, every admission goes straight to the batch).
        queue_depth: Bounded pending queue that absorbs admissions once
            the batch is full; ``0`` disables queueing (overflow sheds).
    """

    max_batch: int = 0
    queue_depth: int = 0

    def __post_init__(self) -> None:
        if self.max_batch < 0:
            raise GatewayError(f"max_batch must be >= 0, got {self.max_batch}")
        if self.queue_depth < 0:
            raise GatewayError(
                f"queue_depth must be >= 0, got {self.queue_depth}"
            )


@dataclass(frozen=True)
class _Intake:
    """A priced booking moving through the gate."""

    event: RequestEvent
    quote: Quote
    promoted_from: int | None = None  # cycle index it was queued in

    def shed_key(self) -> tuple:
        # Same urgency order as VORService.shed_pending: latest showing is
        # lowest priority (most time to rebook); ties on video then user.
        r = self.event.request
        return (r.start_time, r.video_id, r.user_id)


@dataclass(frozen=True)
class Reconciliation:
    """Quote-vs-realized Ψ of one delivered request (by its display id)."""

    request_id: str
    quoted: float
    realized: float

    @property
    def error(self) -> float:
        """Relative quote error against realized Ψ (0 when both are 0)."""
        if self.realized > 0.0:
            return abs(self.quoted - self.realized) / self.realized
        return 0.0 if self.quoted == 0.0 else math.inf

    def to_json_dict(self) -> dict:
        return {
            "request_id": self.request_id,
            "quoted": self.quoted,
            "realized": self.realized,
        }


@dataclass
class GatewayCycleReport:
    """One sealed cycle: intake counters, reconciliation, solver outcome."""

    index: int
    cycle_end: float
    offered: int
    admitted: int
    promoted: int
    rejected: dict[str, int]
    queued: int
    shed: int
    quote_total: float
    realized_total: float
    #: The solver-side report of the sealed cycle.
    report: CycleReport
    reconciliation: tuple[Reconciliation, ...] = ()

    @property
    def rejected_total(self) -> int:
        return sum(self.rejected.values())

    @property
    def admission_ratio(self) -> float:
        """Admitted (incl. promoted) / offered; 1.0 on an idle cycle."""
        if not self.offered and not self.promoted:
            return 1.0
        return self.admitted / max(1, self.offered + self.promoted)

    @property
    def shed_rate(self) -> float:
        if not self.offered:
            return 0.0
        return self.shed / self.offered

    @property
    def quote_error(self) -> float:
        """Relative error of the summed quotes against realized Ψ."""
        if self.realized_total > 0.0:
            return abs(self.quote_total - self.realized_total) / self.realized_total
        return 0.0 if self.quote_total == 0.0 else math.inf

    @property
    def feasible(self) -> bool:
        return self.report.feasible

    def to_json_dict(self) -> dict:
        return {
            "index": self.index,
            "cycle_end": self.cycle_end,
            "offered": self.offered,
            "admitted": self.admitted,
            "promoted": self.promoted,
            "rejected": dict(sorted(self.rejected.items())),
            "queued": self.queued,
            "shed": self.shed,
            "quote_total": self.quote_total,
            "realized_total": self.realized_total,
            "quote_error": self.quote_error,
            "admission_ratio": self.admission_ratio,
            "shed_rate": self.shed_rate,
            "feasible": self.feasible,
            "reconciliation": [
                r.to_json_dict()
                for r in sorted(self.reconciliation, key=lambda r: r.request_id)
            ],
        }


@dataclass
class GatewayRunReport:
    """A whole gateway run: one report per sealed cycle plus totals."""

    feed_name: str
    cycles: list[GatewayCycleReport] = field(default_factory=list)
    unconsumed: int = 0

    @property
    def offered(self) -> int:
        return sum(c.offered for c in self.cycles)

    @property
    def admitted(self) -> int:
        return sum(c.admitted for c in self.cycles)

    @property
    def shed(self) -> int:
        return sum(c.shed for c in self.cycles)

    @property
    def rejected(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for c in self.cycles:
            for reason, n in c.rejected.items():
                out[reason] = out.get(reason, 0) + n
        return dict(sorted(out.items()))

    @property
    def admission_ratio(self) -> float:
        if not self.offered:
            return 1.0
        return self.admitted / self.offered

    @property
    def shed_rate(self) -> float:
        if not self.offered:
            return 0.0
        return self.shed / self.offered

    @property
    def quote_error(self) -> float:
        """Worst per-cycle relative quote error (the SLO indicator)."""
        errors = [c.quote_error for c in self.cycles if math.isfinite(c.quote_error)]
        return max(errors, default=0.0)

    @property
    def feasible(self) -> bool:
        return all(c.feasible for c in self.cycles)

    def to_json_dict(self) -> dict:
        return {
            "feed": self.feed_name,
            "feasible": self.feasible,
            "deterministic": {
                "cycles": [c.to_json_dict() for c in self.cycles],
                "offered": self.offered,
                "admitted": self.admitted,
                "rejected": self.rejected,
                "shed": self.shed,
                "admission_ratio": self.admission_ratio,
                "shed_rate": self.shed_rate,
                "quote_error": self.quote_error,
                "unconsumed": self.unconsumed,
            },
        }

    def summary(self) -> str:
        lines = [
            f"gateway run over {self.feed_name or 'feed'}: "
            f"{self.offered} offered, {self.admitted} admitted "
            f"({100 * self.admission_ratio:.1f} %), "
            f"{self.rejected and sum(self.rejected.values()) or 0} rejected, "
            f"{self.shed} shed",
            f"  worst cycle quote error: {100 * self.quote_error:.1f} %",
            f"  feasible: {self.feasible}",
        ]
        for reason, n in self.rejected.items():
            lines.append(f"    rejected[{reason}]: {n}")
        if self.unconsumed:
            lines.append(
                f"  {self.unconsumed} booking(s) arrived after the last seal"
            )
        return "\n".join(lines)


class ReservationGateway:
    """Live intake in front of a :class:`~repro.service.VORService`.

    Args:
        service: The service whose cycles this gateway feeds.  The
            gateway shares its observability handle (journal + metrics)
            and its cost model (through the quote engine), so intake
            pricing and solver billing share one route table.
        policy: Admission policy (default accept-all).
        config: Backpressure envelope (default: unbounded batch).
    """

    def __init__(
        self,
        service: VORService,
        *,
        policy: AdmissionPolicy | None = None,
        config: GatewayConfig | None = None,
    ):
        self.service = service
        self.policy = policy if policy is not None else AcceptAllPolicy()
        self.config = config if config is not None else GatewayConfig()
        self.obs = service.obs
        self.quotes = QuoteEngine(service.cost_model)
        self._batch: list[_Intake] = []
        self._queue: list[_Intake] = []
        self._cycle_index = 0
        self._counters = self._fresh_counters()

    @staticmethod
    def _fresh_counters() -> dict:
        return {
            "offered": 0,
            "admitted": 0,
            "promoted": 0,
            "rejected": {},
            "queued": 0,
            "shed": 0,
        }

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    # -- intake --------------------------------------------------------------

    def intake(self, event: RequestEvent) -> str:
        """Gate one booking; returns its disposition.

        Dispositions: ``"admitted"``, ``"queued"``, ``"rejected"``,
        ``"shed"`` (the newcomer displaced nothing and was itself shed).
        """
        self._counters["offered"] += 1
        request = event.request
        reason = self.service.refusal(request, event.at)
        if reason is None:
            quote = self.quotes.quote(request)
            if quote is None:
                reason = "unreachable"
        if reason is not None:
            self._reject(event, reason)
            return "rejected"
        self.obs.journal.emit(
            "quoted",
            request=request,
            at=event.at,
            basis=quote.basis,
            price=quote.price,
            psi_d_fresh=quote.psi_d_fresh,
        )
        metrics = self.obs.metrics
        if metrics.enabled:
            metrics.counter(
                "vor_gateway_quotes_total",
                help="Reservations priced by the admission gateway",
                basis=quote.basis,
            ).inc()
            metrics.histogram(
                "vor_gateway_quote_dollars",
                boundaries=DOLLAR_BUCKETS,
                help="Quoted marginal price per reservation",
            ).observe(quote.price)
        admit, reason = self.policy.decide(request, quote, event.at)
        if not admit:
            self._reject(event, reason, price=quote.price)
            return "rejected"
        intake = _Intake(event=event, quote=quote)
        if self.config.max_batch == 0 or len(self._batch) < self.config.max_batch:
            self._admit(intake)
            return "admitted"
        if len(self._queue) < self.config.queue_depth:
            self._enqueue(intake)
            return "queued"
        return self._overflow(intake)

    def _reject(self, event: RequestEvent, reason: str, **attrs) -> None:
        rejected = self._counters["rejected"]
        rejected[reason] = rejected.get(reason, 0) + 1
        self.obs.journal.emit(
            "gate-rejected",
            request=event.request,
            at=event.at,
            reason=reason,
            **attrs,
        )
        self._count_disposition("rejected")

    def _admit(self, intake: _Intake, *, promoted: bool = False) -> None:
        self._batch.append(intake)
        self.quotes.admit(intake.event.request)
        self.policy.admitted(intake.event.request, intake.quote, intake.event.at)
        self._counters["admitted"] += 1
        if promoted:
            self._counters["promoted"] += 1
        self.obs.journal.emit(
            "gate-admitted",
            request=intake.event.request,
            at=intake.event.at,
            price=intake.quote.price,
            promoted=promoted,
        )
        self._count_disposition("admitted")

    def _enqueue(self, intake: _Intake) -> None:
        self._queue.append(intake)
        self._counters["queued"] += 1
        self.obs.journal.emit(
            "gate-queued",
            request=intake.event.request,
            at=intake.event.at,
            depth=len(self._queue),
        )
        self._count_disposition("queued")

    def _overflow(self, intake: _Intake) -> str:
        """Batch and queue both full: shed the lowest-priority booking."""
        victim = intake
        victim_at = -1  # newcomer by default
        for i, queued in enumerate(self._queue):
            if queued.shed_key() > victim.shed_key():
                victim = queued
                victim_at = i
        self._shed(victim, "queue-overflow")
        if victim_at < 0:
            return "shed"
        del self._queue[victim_at]
        self._enqueue(intake)
        return "queued"

    def _shed(self, intake: _Intake, reason: str) -> None:
        self._counters["shed"] += 1
        self.obs.journal.emit(
            "gate-shed",
            request=intake.event.request,
            at=intake.event.at,
            reason=reason,
        )
        self._count_disposition("shed")

    def _count_disposition(self, disposition: str) -> None:
        metrics = self.obs.metrics
        if metrics.enabled:
            metrics.counter(
                "vor_gateway_requests_total",
                help="Bookings processed by the admission gateway",
                disposition=disposition,
            ).inc()

    def _promote(self) -> None:
        """Move carryover queue into the (fresh) batch, most urgent first."""
        if not self._queue:
            return
        self._queue.sort(key=_Intake.shed_key)
        while self._queue and (
            self.config.max_batch == 0
            or len(self._batch) < self.config.max_batch
        ):
            self._admit(self._queue.pop(0), promoted=True)

    # -- sealing -------------------------------------------------------------

    def seal(self, *, cycle_end: float, final: bool = False) -> GatewayCycleReport:
        """Book the admitted batch, close the cycle, reconcile quotes.

        Queued reservations stay queued for promotion into the next
        cycle, unless ``final`` -- the last seal of a run -- sheds them
        (reason ``"final-seal"``): there is no next cycle to rebook into.
        """
        quoted: dict[Request, float] = {}
        for intake in self._batch:
            request = intake.event.request
            self.service.reserve(
                request.user_id,
                request.video_id,
                request.start_time,
                local_storage=request.local_storage,
                now=intake.event.at,
            )
            quoted[request] = quoted.get(request, 0.0) + intake.quote.price
        report = self.service.close_cycle(cycle_end=cycle_end)
        realized = report.billing.requests
        reconciliation = tuple(
            Reconciliation(
                request_id=request_key(request),
                quoted=quoted.get(request, 0.0),
                realized=psi,
            )
            for request, psi in sorted(realized.items())
        )
        quote_total = math.fsum(q for r, q in quoted.items() if r in realized)
        realized_total = math.fsum(realized.values())
        if final:
            self._shed_queue("final-seal")
        else:
            self._expire_queue(cycle_end)
        return self._sealed_report(
            cycle_end,
            quote_total=quote_total,
            realized_total=realized_total,
            reconciliation=reconciliation,
            report=report,
        )

    def run(self, feed: RequestFeed, boundaries: list[float]) -> GatewayRunReport:
        """Gate a whole feed through the service, sealing at each boundary."""
        run = GatewayRunReport(feed_name=feed.name)
        events = list(feed)
        cursor = 0
        for i, end in enumerate(_checked_boundaries(boundaries)):
            self._promote()
            while cursor < len(events) and events[cursor].at <= end:
                self.intake(events[cursor])
                cursor += 1
            run.cycles.append(
                self.seal(cycle_end=end, final=(i == len(boundaries) - 1))
            )
        run.unconsumed = len(events) - cursor
        if run.unconsumed:
            _log.warning(
                "%d booking(s) arrived after the last cycle boundary",
                run.unconsumed,
            )
        return run

    # -- internals -----------------------------------------------------------

    def _shed_queue(self, reason: str) -> None:
        for intake in sorted(self._queue, key=_Intake.shed_key):
            self._shed(intake, reason)
        self._queue.clear()

    def _expire_queue(self, cycle_end: float) -> None:
        """Shed queued bookings the sealed cycle just closed over.

        The rolling scheduler requires cycle batches to move forward in
        time, so a queued showing at or before this boundary can never be
        promoted into a later cycle -- it expires here instead of
        poisoning the next seal.
        """
        keep: list[_Intake] = []
        for intake in sorted(self._queue, key=_Intake.shed_key):
            if intake.event.request.start_time < cycle_end:
                self._shed(intake, "expired")
            else:
                keep.append(intake)
        self._queue = keep

    def _sealed_report(
        self,
        cycle_end: float,
        *,
        quote_total: float,
        realized_total: float,
        reconciliation: tuple[Reconciliation, ...],
        report: CycleReport,
    ) -> GatewayCycleReport:
        c = self._counters
        cycle = GatewayCycleReport(
            index=self._cycle_index,
            cycle_end=cycle_end,
            offered=c["offered"],
            admitted=c["admitted"],
            promoted=c["promoted"],
            rejected=dict(sorted(c["rejected"].items())),
            queued=len(self._queue),
            shed=c["shed"],
            quote_total=quote_total,
            realized_total=realized_total,
            reconciliation=reconciliation,
            report=report,
        )
        self.obs.journal.emit(
            "cycle-sealed",
            cycle=self._cycle_index,
            cycle_end=cycle_end,
            offered=cycle.offered,
            admitted=cycle.admitted,
            promoted=cycle.promoted,
            rejected=cycle.rejected_total,
            queued=cycle.queued,
            shed=cycle.shed,
            quote_total=quote_total,
            realized_total=realized_total,
        )
        metrics = self.obs.metrics
        if metrics.enabled:
            metrics.counter(
                "vor_gateway_sealed_cycles_total",
                help="Cycles sealed by the admission gateway",
            ).inc()
            metrics.gauge(
                "vor_gateway_queue_depth",
                help="Pending-queue depth at cycle seal",
                mode="max",
            ).set(len(self._queue))
            metrics.gauge(
                "vor_gateway_admission_ratio",
                help="Admitted / offered at the last sealed cycle",
            ).set(cycle.admission_ratio)
            if math.isfinite(cycle.quote_error):
                metrics.gauge(
                    "vor_gateway_quote_error_ratio",
                    help="Relative quote-vs-realized Ψ error, worst cycle",
                    mode="max",
                ).set(cycle.quote_error)
        self._batch.clear()
        self.quotes.reset()
        self.policy.reset()
        self._counters = self._fresh_counters()
        self._cycle_index += 1
        return cycle


def _checked_boundaries(boundaries: list[float]) -> list[float]:
    if not boundaries:
        raise GatewayError("at least one cycle boundary is required")
    out = [float(b) for b in boundaries]
    if out != sorted(out):
        raise GatewayError(f"cycle boundaries must be ascending: {out}")
    return out


__all__ = [
    "GATE_REASONS",
    "GatewayConfig",
    "GatewayCycleReport",
    "GatewayRunReport",
    "Reconciliation",
    "ReservationGateway",
]
