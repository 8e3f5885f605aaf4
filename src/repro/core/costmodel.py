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

# Names kept: vorbench/layers.py reads CostModel.cache_stats_detail.combined
# (lookups, hits) for its costmodel.* counts, so cache_stats_detail and
# CacheStats.combined stay as one-line aliases of the route-table counters.

from __future__ import annotations

import copy
import math
from collections.abc import Mapping
from dataclasses import dataclass

from repro.catalog.catalog import VideoCatalog
from repro.core.schedule import DeliveryInfo, FileSchedule, ResidencyInfo, Schedule
from repro.errors import ScheduleError
from repro.topology.graph import ChargingBasis, Topology
from repro.topology.routing import Route, Router


def storage_cost(srate: float, size: float, playback: float, span: float) -> float:
    """Ψ_C of a residency ``span`` seconds long (Eqs. 2-3, Eq. 7 ``gamma``).

    The one copy of the formula: :class:`CostModel` prices every residency
    with it and the greedy prices cache extensions with it directly.  The
    product keeps the historical operand order, so both get bit-identical
    floats;
    :func:`~repro.core.spacefunc.charged_space_time` is the same quantity
    modulo association and is what the invariant tests check against.
    """
    g = 1.0 if span >= playback else span / playback
    return srate * size * g * (span + 0.5 * playback)


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss counters of the cost model's route-rate table.

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
        """Fraction of lookups answered from the table (0.0 when idle)."""
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups

    @property
    def combined(self) -> "CacheStats":
        """These counters (kept for vorbench; see the module comment)."""
        return self

    def __add__(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(self.hits + other.hits, self.misses + other.misses)

    def __sub__(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(self.hits - other.hits, self.misses - other.misses)


def record_cache_metrics(metrics, stats: CacheStats, *, phase: str) -> None:
    """Fold route-table counters into a metrics registry under a phase label.

    Lookup totals are deterministic for a seeded batch -- a pass prices
    the same deliveries in the same order on every run -- so they register
    as comparable counters; the hit/miss split depends on table
    temperature and is flagged ``deterministic=False``.
    """
    if not metrics.enabled:
        return
    metrics.counter(
        "vor_psi_evaluations_total",
        help="Ψ_D route-rate evaluations (route-table lookups)",
        phase=phase,
    ).inc(stats.lookups)
    metrics.counter(
        "vor_cost_cache_hits_total",
        help="Route-table hits",
        deterministic=False,
        phase=phase,
    ).inc(stats.hits)
    metrics.counter(
        "vor_cost_cache_misses_total",
        help="Route-table misses",
        deterministic=False,
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
        cache: Keep the route-rate table (on by default): the effective
            Ψ_D rate of each route, keyed on its node tuple, so cached
            evaluation is exactly equal to uncached evaluation.  Costing,
            billing, quotes and the optimal baseline reprice the same routes
            many times; the table turns the per-hop sums into dict lookups.
            It holds one entry per distinct route the model prices, so it
            needs no size limit.  Ψ_C is computed by :func:`storage_cost`
            on every call.
        replicas: Optional :class:`~repro.replication.ReplicaMap` naming the
            home warehouses of each video.  Pricing is unaffected -- the map
            rides on the model so every scheduler built over it (Phase-1
            greedy, SORP's rejective greedy, contingency re-solves,
            migration trial solves, the baselines and the gateway quote)
            reads the same homes through :meth:`homes` and prices them
            through :meth:`cheapest_home`.  ``None`` means every warehouse
            holds every video (the single-warehouse paper model).

    The table is transparent to subclasses: :meth:`network_multiplier` is
    applied *outside* the cached route rate, so time-of-day tariffs stay
    exact.
    """

    def __init__(
        self,
        topology: Topology,
        catalog: VideoCatalog,
        *,
        cache: bool = True,
        replicas=None,
    ):
        self._topo = topology
        self._catalog = catalog
        self._replicas = replicas
        self._warehouses = tuple(w.name for w in topology.warehouses)
        #: ``{video_id: (homes, network volume)}``, filled on demand.
        self._videos: dict[str, tuple[tuple[str, ...], float]] = {}
        self._router = Router(topology)
        self._cache_enabled = bool(cache)
        #: route node tuple -> effective $/byte rate (before tariff)
        self._route_rates: dict[tuple[str, ...], float] = {}
        # Plain ints: the observability layer reads them as a view instead
        # of putting registry calls on the pricing path.
        self._hits = 0
        self._misses = 0

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
        warehouses are *candidates*), so the route table stays shared with
        the original; counters and the per-video homes memo start fresh.
        Subclasses (e.g. diurnal tariffs) are preserved by the shallow
        copy.  This is how the horizon layer swaps replica maps between
        cycles without rebuilding the model.
        """
        clone = copy.copy(self)
        clone._replicas = replicas
        clone._videos = {}
        clone._hits = 0
        clone._misses = 0
        return clone

    def prices_like(self, other: "CostModel") -> bool:
        """Whether ``other`` prices every stream and residency as this
        model does: one is this model or a :meth:`with_replicas` clone of
        the same original (their replica maps may differ)."""
        return type(other) is type(self) and other._route_rates is self._route_rates

    # -- route table ---------------------------------------------------------

    @property
    def cache_stats(self) -> CacheStats:
        """Route-table hit/miss counters since construction or cloning."""
        return CacheStats(self._hits, self._misses)

    @property
    def cache_stats_detail(self) -> CacheStats:
        """:attr:`cache_stats` (kept for vorbench; see the module comment)."""
        return self.cache_stats

    def _route_rate(self, route: tuple[str, ...]) -> float:
        """Effective $/byte rate of a concrete route (tariff applied later)."""
        if self._cache_enabled:
            value = self._route_rates.get(route)
            if value is not None:
                self._hits += 1
                return value
            self._misses += 1
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
            self._route_rates[route] = value
        return value

    # -- storage: Ψ_C -------------------------------------------------------

    def residency_cost(self, c: ResidencyInfo) -> float:
        """Ψ_C(c) per Eqs. 2-3 (unified with the Eq. 7 gamma)."""
        video = self._catalog[c.video_id]
        return storage_cost(
            self._topo.srate(c.location), video.size, video.playback, c.span
        )

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

    def _video(self, video_id: str) -> tuple[tuple[str, ...], float]:
        entry = self._videos.get(video_id)
        if entry is None:
            homes = self._warehouses
            if self._replicas is not None:
                homes = tuple(
                    h for h in self._replicas.homes(video_id) if h in homes
                )
            entry = self._videos[video_id] = (
                homes, self._catalog[video_id].network_volume
            )
        return entry

    def homes(self, video_id: str) -> tuple[str, ...]:
        """The video's home warehouses: its replica-map homes that are
        warehouses of the topology, in the map's order, or every warehouse
        without a map.  Raises :class:`~repro.errors.ReplicationError` for
        a video the map does not cover."""
        return self._video(video_id)[0]

    def cheapest_home(
        self, video_id: str, start_time: float, routes: Mapping[str, Route]
    ) -> tuple[float, Route] | None:
        """``(Ψ_D, route)`` of the cheapest stream from a home of the video,
        the least ``(Ψ_D, hops, name)`` over the homes ``routes`` holds, or
        ``None`` when it holds none.

        ``routes`` is the caller's ``{source: route}`` table into the
        request's storage (a source it leaves out is not routable).  Ψ_D is
        ``network_volume x network_multiplier(start_time) x rate``, in the
        operand order the greedy prices its cache copies in, so the greedy,
        the baselines and the gateway quote get bit-equal prices.
        """
        homes, volume = self._video(video_id)
        volume *= self.network_multiplier(start_time)
        best = None
        for w in homes:
            route = routes.get(w)
            if route is None:
                continue
            key = (volume * route.rate, route.hops, w)
            if best is None or key < best[0]:
                best = (key, route)
        return None if best is None else (best[0][0], best[1])

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

    def residency_cost_for(
        self, video_id: str, location: str, t_start: float, t_last: float
    ) -> float:
        """Ψ_C of a hypothetical residency, used for incremental pricing."""
        if t_last < t_start:
            raise ScheduleError(
                f"residency interval reversed: [{t_start}, {t_last}]"
            )
        video = self._catalog[video_id]
        return storage_cost(
            self._topo.srate(location), video.size, video.playback,
            t_last - t_start,
        )
