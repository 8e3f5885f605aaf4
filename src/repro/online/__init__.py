"""Online robustness: feed-driven cycle amendment with graceful degradation.

Layout:

* :mod:`repro.online.breaker` -- three-state circuit breaker on virtual
  feed time (closed / open / half-open)
* :mod:`repro.online.loop`    -- the :class:`OnlineAmendmentLoop` driving
  :meth:`repro.service.VORService.amend_cycle` from a
  :class:`~repro.faults.feed.FaultFeed`, its one policy object
  :class:`OnlineLoopConfig` (debounce, deadline, seeded backoff, breaker,
  shedding) and the deterministic :class:`TransientFailureInjector`

See ``docs/ONLINE.md`` for the state machine and tuning guidance.
"""

from repro.errors import OnlineError, TransientResolveError
from repro.online.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerTransition,
    CircuitBreaker,
)
from repro.online.loop import (
    OUTCOMES,
    AmendmentRecord,
    OnlineAmendmentLoop,
    OnlineLoopConfig,
    OnlineRunReport,
    TransientFailureInjector,
)

__all__ = [
    "AmendmentRecord",
    "BreakerTransition",
    "CircuitBreaker",
    "CLOSED",
    "HALF_OPEN",
    "OPEN",
    "OnlineAmendmentLoop",
    "OnlineError",
    "OnlineLoopConfig",
    "OnlineRunReport",
    "OUTCOMES",
    "TransientFailureInjector",
    "TransientResolveError",
]
