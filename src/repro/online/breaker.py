"""Circuit breaker guarding the online amendment loop.

Classic three-state breaker, driven entirely by the caller's clock (the
loop passes the *virtual* feed time, so replays are deterministic):

* ``closed`` -- amendments run normally; consecutive failed batches
  count toward ``failure_threshold``.
* ``open``   -- re-solves keep failing; the loop degrades (one attempt per
  batch, shed low-priority pending work) until ``cooldown`` virtual
  seconds pass.
* ``half_open`` -- after the cooldown one normal amendment probes the
  system: success closes the breaker, failure re-opens it and restarts
  the cooldown.

Every transition is recorded with its instant, so telemetry and CI drills
can assert the exact trajectory (e.g. closed → open → half_open → closed).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from repro.errors import OnlineError

_log = logging.getLogger(__name__)

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


@dataclass(frozen=True)
class BreakerTransition:
    """One state change: when (virtual time) and into what."""

    at: float
    to: str

    def to_dict(self) -> dict:
        return {"at": self.at, "to": self.to}


class CircuitBreaker:
    """Failure-counting breaker with virtual-time cooldown."""

    def __init__(
        self, *, failure_threshold: int = 3, cooldown: float = 0.0
    ) -> None:
        if failure_threshold < 1:
            raise OnlineError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if cooldown < 0.0:
            raise OnlineError(f"cooldown must be >= 0, got {cooldown}")
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self._state = CLOSED
        self._failures = 0
        self._opened_at = float("-inf")
        self.transitions: list[BreakerTransition] = []

    @property
    def state(self) -> str:
        return self._state

    def state_at(self, now: float) -> str:
        """The effective state at instant ``now`` (may trip half-open).

        An ``open`` breaker whose cooldown has elapsed transitions to
        ``half_open`` as a side effect -- call once per batch, before
        deciding how to amend.
        """
        if self._state == OPEN and now >= self._opened_at + self.cooldown:
            self._move(HALF_OPEN, now)
        return self._state

    def record_success(self, now: float) -> None:
        """A batch amended cleanly: reset failures, close if probing."""
        self._failures = 0
        if self._state != CLOSED:
            self._move(CLOSED, now)

    def record_failure(self, now: float) -> None:
        """A batch failed (retries exhausted, or a deterministic failure)."""
        self._failures += 1
        if self._state == HALF_OPEN:
            # The probe failed: back to open, restart the cooldown.
            self._move(OPEN, now)
            self._opened_at = now
        elif self._state == CLOSED and self._failures >= self.failure_threshold:
            self._move(OPEN, now)
            self._opened_at = now

    def _move(self, to: str, now: float) -> None:
        _log.warning("circuit breaker %s -> %s at t=%g", self._state, to, now)
        self._state = to
        self.transitions.append(BreakerTransition(at=now, to=to))


__all__ = [
    "BreakerTransition",
    "CircuitBreaker",
    "CLOSED",
    "HALF_OPEN",
    "OPEN",
]
