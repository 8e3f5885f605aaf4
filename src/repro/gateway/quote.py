"""Incremental price quoting against the partially-built cycle.

The gateway must price a reservation *before* the Phase-1/SORP solver has
seen the batch, so the quote is a marginal-cost estimate built from the
same :class:`~repro.core.costmodel.CostModel` the solver will bill
against:

* **Fresh delivery** (always available): the Ψ_D of an independent
  stream from the cheapest home warehouse to the request's neighborhood,
  as :meth:`~repro.core.costmodel.CostModel.cheapest_home` prices it --
  the network-only baseline price of this one request, and bit-equal to
  the ``warehouse_psi_d`` the Phase-1 greedy journals for it.
* **Residency extension** (when the building batch already admitted the
  same video at the same neighborhood storage): the Ψ_C delta of
  stretching that storage's residency interval to cover the new showing.
  A showing inside the already-quoted span is marginal-free.

The quote is the *cheaper* of the two -- the solver will never do worse
than either single-copy strategy for this request, so the quote is a
deterministic upper-bound estimate the gateway can reconcile against the
realized (billed) Ψ after cycle seal.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.costmodel import CostModel
from repro.errors import RoutingError
from repro.workload.requests import Request

#: Quote bases, in the order the engine prefers them on a price tie.
QUOTE_BASES = ("residency-extension", "delivery")


@dataclass(frozen=True)
class Quote:
    """A priced reservation: the marginal Ψ estimate and its provenance.

    Attributes:
        price: Quoted marginal cost in $ (the min of the bases below).
        basis: ``"delivery"`` (fresh cheapest-copy stream) or
            ``"residency-extension"`` (stretch an already-admitted copy).
        psi_d_fresh: The fresh-delivery Ψ_D estimate.
        psi_c_extension: The residency-extension Ψ_C delta, or ``None``
            when the batch holds no copy of this video at this storage yet.
    """

    price: float
    basis: str
    psi_d_fresh: float
    psi_c_extension: float | None = None

    def to_json_dict(self) -> dict:
        return {
            "price": self.price,
            "basis": self.basis,
            "psi_d_fresh": self.psi_d_fresh,
            "psi_c_extension": self.psi_c_extension,
        }


class QuoteEngine:
    """Prices reservations incrementally against the building batch.

    The engine tracks, per ``(video_id, local_storage)``, the showing-time
    span of the requests *admitted so far* this cycle; :meth:`quote` prices
    a candidate against that state and :meth:`admit` folds an accepted
    request into it.  Quoting never mutates state, so reject/shed paths
    need no compensation.  All arithmetic goes through the shared cost
    model (its Eq. 2/3 :func:`~repro.core.costmodel.storage_cost` and its
    :meth:`~repro.core.costmodel.CostModel.cheapest_home`), so equal intake
    orders produce bit-equal quotes.
    """

    def __init__(self, cost_model: CostModel):
        self._cost_model = cost_model
        #: (video_id, local_storage) -> (min showing start, max showing start)
        self._spans: dict[tuple[str, str], tuple[float, float]] = {}

    @property
    def cost_model(self) -> CostModel:
        return self._cost_model

    def reset(self) -> None:
        """Forget the building batch (called at cycle seal)."""
        self._spans.clear()

    def quote(self, request: Request) -> Quote | None:
        """Price one reservation against the current batch state, or
        ``None`` when no home warehouse can reach its neighborhood (the
        gateway rejects it as unreachable).

        The cheapest home is priced once per call, and the gateway quotes
        each booking once.
        """
        cm = self._cost_model
        try:
            routes = cm.router.routes_to(request.local_storage)
        except RoutingError:
            return None  # an unknown neighborhood
        home = cm.cheapest_home(request.video_id, request.start_time, routes)
        if home is None:
            return None
        psi_d_fresh = home[0]

        key = (request.video_id, request.local_storage)
        span = self._spans.get(key)
        if span is None:
            return Quote(price=psi_d_fresh, basis="delivery", psi_d_fresh=psi_d_fresh)
        lo, hi = span
        t = request.start_time
        base = cm.residency_cost_for(request.video_id, request.local_storage, lo, hi)
        grown = cm.residency_cost_for(
            request.video_id, request.local_storage, min(lo, t), max(hi, t)
        )
        psi_c_extension = max(0.0, grown - base)
        if psi_c_extension <= psi_d_fresh:
            return Quote(
                price=psi_c_extension,
                basis="residency-extension",
                psi_d_fresh=psi_d_fresh,
                psi_c_extension=psi_c_extension,
            )
        return Quote(
            price=psi_d_fresh,
            basis="delivery",
            psi_d_fresh=psi_d_fresh,
            psi_c_extension=psi_c_extension,
        )

    def admit(self, request: Request) -> None:
        """Fold an admitted reservation into the building-batch state."""
        key = (request.video_id, request.local_storage)
        t = request.start_time
        span = self._spans.get(key)
        if span is None:
            self._spans[key] = (t, t)
        else:
            self._spans[key] = (min(span[0], t), max(span[1], t))


__all__ = ["QUOTE_BASES", "Quote", "QuoteEngine"]
