"""Exception hierarchy for the VOR reproduction library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch library failures without catching programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class TopologyError(ReproError):
    """Malformed topology: unknown node, duplicate edge, negative rate, ..."""


class RoutingError(ReproError):
    """No route exists between two nodes, or a route references unknown nodes."""


class CatalogError(ReproError):
    """Malformed video catalog or unknown video id."""


class WorkloadError(ReproError):
    """Invalid workload specification (bad Zipf parameter, empty cycle, ...)."""


class ScheduleError(ReproError):
    """Structurally invalid schedule (negative interval, unknown node, ...)."""


class OverflowResolutionError(ReproError):
    """SORP could not resolve a storage overflow within its iteration budget."""


class ConfigError(ReproError):
    """Invalid experiment configuration."""


class SimulationError(ReproError):
    """Warehouse staging's plan failed its own self-check (its only raiser)."""


class FaultError(ReproError):
    """Malformed fault scenario, or a fault leaves the system unrecoverable."""


class ReplicationError(ReproError):
    """Malformed replica map: unknown video, non-warehouse home, no coverage."""


class GatewayError(ReproError):
    """Malformed request feed, admission-policy spec, or gateway state."""


class OnlineError(ReproError):
    """Invalid online-loop configuration or feed consumption."""


class TransientResolveError(OnlineError):
    """An amendment attempt failed for a transient reason.

    Raised by the online loop's failure injector; the loop retries these
    under its backoff before counting a batch as failed.
    """
