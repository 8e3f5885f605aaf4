"""The cost model Ψ (paper Sec. 2.2, Eqs. 1-4).

``Ψ(S) = Σ Ψ_C(c_i) + Σ Ψ_D(d_i)`` maps a service schedule to money:

* **Storage** (Eqs. 2-3, unified via the Eq. 7 coefficient):

      Ψ_C(c) = srate(loc) * size * gamma * ((t_f - t_s) + P/2)

  with ``gamma = 1`` for long residencies (``t_f - t_s >= P``) and
  ``gamma = (t_f - t_s)/P`` for short ones.  This is exactly the integral of
  the Eq. 6 space profile, so storage cost == charged space-time.

* **Network** (Eq. 4): the amortized bandwidth volume of a delivery is
  ``P_i * B_i`` bytes; on a per-hop basis the transfer costs
  ``P*B * Σ_hop nrate(hop)``, on an end-to-end basis ``P*B * nrate(src,dst)``.

Charging rates are *inherent to each resource entity* (each storage node,
each link), which is why the model reads them from the topology rather than
taking global constants.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

from repro.catalog.catalog import VideoCatalog
from repro.core.schedule import DeliveryInfo, FileSchedule, ResidencyInfo, Schedule
from repro.errors import ScheduleError
from repro.topology.graph import ChargingBasis, Topology
from repro.topology.routing import Router


def storage_cost(srate: float, size: float, playback: float, span: float) -> float:
    """Ψ_C of a residency ``span`` seconds long (Eqs. 2-3, Eq. 7 ``gamma``).

    The one copy of the formula: :class:`CostModel` memoizes it and the
    greedy prices cache extensions with it directly.  The product keeps the
    historical operand order, so both get bit-identical floats;
    :func:`~repro.core.spacefunc.charged_space_time` is the same quantity
    modulo association and is what the invariant tests check against.
    """
    g = 1.0 if span >= playback else span / playback
    return srate * size * g * (span + 0.5 * playback)


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss counters of the memoized cost-evaluation cache.

    Instances are immutable snapshots; subtract two snapshots to get the
    activity between them, add several to aggregate across models.
    """

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache (0.0 when idle)."""
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups

    def __add__(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(self.hits + other.hits, self.misses + other.misses)

    def __sub__(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(self.hits - other.hits, self.misses - other.misses)


@dataclass(frozen=True)
class CacheStatsDetail:
    """Per-cache breakdown of the memoization counters.

    ``psi_c`` covers the Eq. 2/3 storage-cost cache, ``psi_d`` the
    per-route network-rate cache.  Lookup *totals* per cache are
    deterministic for a seeded batch (they count Ψ evaluations); the
    hit/miss split depends on cache temperature.
    """

    psi_c: CacheStats = CacheStats()
    psi_d: CacheStats = CacheStats()

    @property
    def combined(self) -> CacheStats:
        return self.psi_c + self.psi_d

    def __add__(self, other: "CacheStatsDetail") -> "CacheStatsDetail":
        return CacheStatsDetail(self.psi_c + other.psi_c, self.psi_d + other.psi_d)

    def __sub__(self, other: "CacheStatsDetail") -> "CacheStatsDetail":
        return CacheStatsDetail(self.psi_c - other.psi_c, self.psi_d - other.psi_d)


def record_cache_metrics(metrics, detail: CacheStatsDetail, *, phase: str) -> None:
    """Fold cache counters into a metrics registry under a phase label.

    Ψ *evaluation* totals (``hits + misses`` per cache) are deterministic
    for a seeded batch -- the greedy performs the same pricing sequence on
    every run -- so they register as comparable counters; the hit/miss
    split depends on cache temperature and is flagged
    ``deterministic=False``.
    """
    if not metrics.enabled:
        return
    for cache, stats in (("psi_c", detail.psi_c), ("psi_d", detail.psi_d)):
        metrics.counter(
            "vor_psi_evaluations_total",
            help="Ψ cost-term evaluations (memoization-cache lookups)",
            cache=cache,
            phase=phase,
        ).inc(stats.lookups)
        metrics.counter(
            "vor_cost_cache_hits_total",
            help="Cost-evaluation cache hits",
            deterministic=False,
            cache=cache,
            phase=phase,
        ).inc(stats.hits)
        metrics.counter(
            "vor_cost_cache_misses_total",
            help="Cost-evaluation cache misses",
            deterministic=False,
            cache=cache,
            phase=phase,
        ).inc(stats.misses)


@dataclass(frozen=True)
class CostBreakdown:
    """Total schedule cost split by resource type (all in $)."""

    storage: float
    network: float

    @property
    def total(self) -> float:
        return self.storage + self.network

    def __add__(self, other: "CostBreakdown") -> "CostBreakdown":
        return CostBreakdown(self.storage + other.storage, self.network + other.network)


class CostModel:
    """Evaluates Ψ over schedules against a fixed topology + catalog.

    Args:
        topology: Priced delivery infrastructure.
        catalog: Schedulable videos.
        cache: Enable the memoized cost-evaluation cache (on by default).
            Ψ_C values are keyed on ``(srate, size, span, P)`` -- the full
            set of inputs Eq. 2/3 depends on -- and per-route Ψ_D rates on
            the route's node tuple, so cached evaluation is exactly equal to
            uncached evaluation.  Costing, billing, quotes and the optimal
            baseline reprice the same residency intervals and routes many
            times; the cache turns those into dict lookups.  The greedy
            prices cache extensions with :func:`storage_cost` directly.
        cache_limit: Entry count at which a cache is wiped and restarted
            (bounds memory; correctness is unaffected).
        replicas: Optional :class:`~repro.replication.ReplicaMap` naming the
            home warehouses of each video.  Pricing is unaffected -- the map
            rides on the model so every scheduler built over it (Phase-1
            greedy, SORP's rejective greedy, contingency re-solves,
            migration trial solves) restricts warehouse candidates to the
            same homes.  ``None`` means every warehouse holds every video
            (the single-warehouse paper model).

    The cache is transparent to subclasses: :meth:`network_multiplier` is
    applied *outside* the cached route rate, so time-of-day tariffs stay
    exact.
    """

    def __init__(
        self,
        topology: Topology,
        catalog: VideoCatalog,
        *,
        cache: bool = True,
        cache_limit: int = 1 << 18,
        replicas=None,
    ):
        if cache_limit < 1:
            raise ScheduleError(f"cache_limit must be >= 1, got {cache_limit}")
        self._topo = topology
        self._catalog = catalog
        self._replicas = replicas
        self._router = Router(topology)
        self._cache_enabled = bool(cache)
        self._cache_limit = cache_limit
        #: (srate, size, playback, span) -> Ψ_C
        self._psi_c_cache: dict[tuple[float, float, float, float], float] = {}
        #: route node tuple -> effective $/byte rate (before tariff)
        self._psi_d_cache: dict[tuple[str, ...], float] = {}
        # Plain ints, one pair per cache: the Ψ_C path runs millions of
        # times per solve, so the observability layer reads these as a
        # view instead of putting registry calls on the hot path.
        self._c_hits = 0
        self._c_misses = 0
        self._d_hits = 0
        self._d_misses = 0

    @property
    def topology(self) -> Topology:
        return self._topo

    @property
    def catalog(self) -> VideoCatalog:
        return self._catalog

    @property
    def router(self) -> Router:
        return self._router

    @property
    def replicas(self):
        """The :class:`~repro.replication.ReplicaMap`, or ``None``."""
        return self._replicas

    def with_replicas(self, replicas) -> "CostModel":
        """A clone of this model carrying a different replica map.

        Pricing is placement-independent (the map only restricts which
        warehouses are *candidates*), so the memoized Ψ_C/Ψ_D caches stay
        shared with the original; counters start fresh.  Subclasses (e.g.
        diurnal tariffs) are preserved by the shallow copy.  This is how
        the horizon layer swaps replica maps between cycles without
        rebuilding the model.
        """
        clone = copy.copy(self)
        clone._replicas = replicas
        clone._c_hits = 0
        clone._c_misses = 0
        clone._d_hits = 0
        clone._d_misses = 0
        return clone

    def with_topology(self, topology: Topology) -> "CostModel":
        """A clone of this model over ``topology``, a fault mask of its own.

        ``topology`` keeps a subset of this model's nodes and links at their
        rates (only bandwidths and capacities may shrink), so every memoized
        Ψ_C/Ψ_D value stays exact and the caches stay shared.  The clone is
        made by :meth:`with_replicas` -- same class, fresh counters -- with
        the replica map restricted to the nodes ``topology`` keeps, and gets
        its own router.  Fault recovery re-solves on such clones.
        """
        replicas = self._replicas
        clone = self.with_replicas(
            replicas.restricted_to(topology.node_names)
            if replicas is not None
            else None
        )
        clone._topo = topology
        clone._router = Router(topology)
        return clone

    # -- cache bookkeeping ---------------------------------------------------

    @property
    def cache_enabled(self) -> bool:
        return self._cache_enabled

    @property
    def cache_stats(self) -> CacheStats:
        """Combined hit/miss counters since the last reset (both caches)."""
        return CacheStats(
            self._c_hits + self._d_hits, self._c_misses + self._d_misses
        )

    @property
    def cache_stats_detail(self) -> CacheStatsDetail:
        """Per-cache (Ψ_C vs Ψ_D) hit/miss snapshot since the last reset."""
        return CacheStatsDetail(
            psi_c=CacheStats(self._c_hits, self._c_misses),
            psi_d=CacheStats(self._d_hits, self._d_misses),
        )

    def reset_cache_stats(self) -> None:
        """Zero the hit/miss counters (cached values are kept)."""
        self._c_hits = 0
        self._c_misses = 0
        self._d_hits = 0
        self._d_misses = 0

    def clear_cache(self) -> None:
        """Drop every memoized value (counters are kept)."""
        self._psi_c_cache.clear()
        self._psi_d_cache.clear()

    def _psi_c(self, srate: float, size: float, playback: float, span: float) -> float:
        if not self._cache_enabled:
            return storage_cost(srate, size, playback, span)
        key = (srate, size, playback, span)
        value = self._psi_c_cache.get(key)
        if value is not None:
            self._c_hits += 1
            return value
        self._c_misses += 1
        value = storage_cost(srate, size, playback, span)
        if len(self._psi_c_cache) >= self._cache_limit:
            self._psi_c_cache.clear()
        self._psi_c_cache[key] = value
        return value

    def _route_rate(self, route: tuple[str, ...]) -> float:
        """Effective $/byte rate of a concrete route (tariff applied later)."""
        if self._cache_enabled:
            value = self._psi_d_cache.get(route)
            if value is not None:
                self._d_hits += 1
                return value
            self._d_misses += 1
        if (
            self._topo.charging_basis is ChargingBasis.END_TO_END
            and (explicit := self._topo.pair_rate(route[0], route[-1])) is not None
        ):
            value = explicit
        else:
            value = math.fsum(
                self._topo.edge(a, b).nrate for a, b in zip(route, route[1:])
            )
        if self._cache_enabled:
            if len(self._psi_d_cache) >= self._cache_limit:
                self._psi_d_cache.clear()
            self._psi_d_cache[route] = value
        return value

    # -- storage: Ψ_C -------------------------------------------------------

    def residency_cost(self, c: ResidencyInfo) -> float:
        """Ψ_C(c) per Eqs. 2-3 (unified with the Eq. 7 gamma)."""
        video = self._catalog[c.video_id]
        srate = self._topo.srate(c.location)
        return self._psi_c(srate, video.size, video.playback, c.span)

    # -- network: Ψ_D -------------------------------------------------------

    def network_multiplier(self, start_time: float) -> float:
        """Time-of-day factor applied to network charges.

        The base model charges flat rates (multiplier 1.0).  Subclasses --
        e.g. :class:`repro.extensions.pricing.DiurnalCostModel` -- override
        this to make transfers cheaper off-peak; both Ψ_D evaluation *and*
        the greedy's candidate pricing consult it, so schedules are optimized
        under the same tariff they are billed under.
        """
        del start_time
        return 1.0

    def delivery_cost(self, d: DeliveryInfo) -> float:
        """Ψ_D(d) per Eq. 4 on the delivery's concrete route."""
        video = self._catalog[d.video_id]
        volume = video.network_volume
        if len(d.route) == 1:
            return 0.0  # served from the user's own local storage
        multiplier = self.network_multiplier(d.start_time)
        return volume * self._route_rate(d.route) * multiplier

    # -- aggregates ----------------------------------------------------------

    def file_cost(self, fs: FileSchedule) -> CostBreakdown:
        """Ψ(S_i): cost of one video's schedule, split by resource."""
        storage = math.fsum(self.residency_cost(c) for c in fs.residencies)
        network = math.fsum(self.delivery_cost(d) for d in fs.deliveries)
        return CostBreakdown(storage, network)

    def schedule_cost(self, schedule: Schedule) -> CostBreakdown:
        """Ψ(S) = Σ_i Ψ(S_i) (Eq. 1)."""
        total = CostBreakdown(0.0, 0.0)
        for fs in schedule:
            total = total + self.file_cost(fs)
        return total

    def total(self, schedule: Schedule) -> float:
        """Scalar Ψ(S)."""
        return self.schedule_cost(schedule).total

    # -- convenience for the schedulers --------------------------------------

    def transfer_rate(self, src: str, dst: str) -> float:
        """Cheapest effective $/byte rate between two nodes."""
        return self._router.rate(src, dst)

    def residency_cost_for(
        self, video_id: str, location: str, t_start: float, t_last: float
    ) -> float:
        """Ψ_C of a hypothetical residency, used for incremental pricing."""
        if t_last < t_start:
            raise ScheduleError(
                f"residency interval reversed: [{t_start}, {t_last}]"
            )
        video = self._catalog[video_id]
        srate = self._topo.srate(location)
        return self._psi_c(srate, video.size, video.playback, t_last - t_start)
