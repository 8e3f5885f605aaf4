"""Replica placement: which warehouses hold a permanent copy of each video.

The paper's VOR model keeps every title at one video warehouse; scaling and
survivability both call for *replicated* warehouses (cf. Viennot et al.,
*Scalable Distributed Video-on-Demand*).  A :class:`ReplicaMap` assigns each
video its set of **home warehouses** -- the nodes the Phase-1 greedy may
serve it from for the flat Eq. 4 transfer price.  Schedulers treat a missing
map (``replicas=None``) as "every warehouse holds everything", which on a
single-warehouse topology is exactly the paper's model.

Two placement policies ship with the map:

* :meth:`ReplicaMap.full_copy` -- every video homed at every warehouse, the
  simplest survivable configuration;
* :meth:`ReplicaMap.heat_placement` -- heat-driven placement: hot titles
  (by request count) are replicated widely, cold ones live at the
  ``degree`` warehouses cheapest to reach from their requesters.  Seeded
  and deterministic, so placements replay bit-identically.

Maps are plain data: they serialize to JSON (format-versioned like
:class:`~repro.faults.plan.FaultPlan`) and reload to an equal object.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterable, Mapping

from repro.catalog.catalog import VideoCatalog
from repro.errors import ReplicationError
from repro.io import FORMAT_VERSION, check_version, field, read_json, write_json
from repro.topology.graph import Topology
from repro.topology.routing import Router
from repro.workload.requests import RequestBatch

#: Share of the catalog, hottest first, that heat placement homes at every
#: warehouse.
HOT_FRACTION = 0.25


class ReplicaMap:
    """Immutable assignment of each video to its home-warehouse set.

    Args:
        homes: Mapping of video id to a list, tuple or set of warehouse
            names.  Home sets are deduplicated and kept in sorted order, so
            two maps with the same assignments compare equal regardless of
            construction order.  Empty home sets are allowed but rejected
            by :meth:`validate`.
        name: Optional human-readable label carried through serialization.
        seed: The integer seed a generating policy drew from, if any.
    """

    def __init__(
        self,
        homes: Mapping[str, Iterable[str]],
        *,
        name: str = "",
        seed: int | None = None,
    ):
        if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
            raise ReplicationError(f"replica map seed must be an integer, got {seed!r}")
        table: dict[str, tuple[str, ...]] = {}
        for video_id, names in homes.items():
            if not isinstance(video_id, str) or not video_id:
                raise ReplicationError(f"invalid video id {video_id!r}")
            if not isinstance(names, (list, tuple, set, frozenset)):
                raise ReplicationError(
                    f"home set of video {video_id!r} must be a list of "
                    f"warehouse names, got {names!r}"
                )
            if any(not isinstance(h, str) or not h for h in names):
                raise ReplicationError(
                    f"invalid home set {names!r} for video {video_id!r}"
                )
            table[video_id] = tuple(sorted(set(names)))
        self._homes = table
        self.name = name
        self.seed = seed

    # -- mapping access ------------------------------------------------------

    def homes(self, video_id: str) -> tuple[str, ...]:
        """Home warehouses of ``video_id`` (sorted; may be empty).  Raises
        on videos the map does not cover."""
        try:
            return self._homes[video_id]
        except KeyError:
            raise ReplicationError(
                f"no replica assignment for video {video_id!r}"
            ) from None

    def degree(self, video_id: str) -> int:
        return len(self.homes(video_id))

    @property
    def video_ids(self) -> list[str]:
        return sorted(self._homes)

    @property
    def warehouses(self) -> frozenset[str]:
        """Every warehouse referenced by some home set."""
        return frozenset(h for hs in self._homes.values() for h in hs)

    def __contains__(self, video_id: str) -> bool:
        return video_id in self._homes

    def __len__(self) -> int:
        return len(self._homes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ReplicaMap):
            return NotImplemented
        return self._homes == other._homes

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._homes.items())))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        degrees = sorted(len(h) for h in self._homes.values())
        span = f"{degrees[0]}-{degrees[-1]}" if degrees else "0"
        return f"ReplicaMap({len(self)} videos, degree {span})"

    # -- validation ----------------------------------------------------------

    def validate(self, topology: Topology, catalog: VideoCatalog | None = None) -> None:
        """Raise :class:`~repro.errors.ReplicationError` on a bad placement.

        Checks that every home names a warehouse of ``topology`` and every
        video keeps at least one home; with ``catalog`` the map must cover
        exactly the catalog's videos.
        """
        warehouse_names = {w.name for w in topology.warehouses}
        for video_id, hs in sorted(self._homes.items()):
            if not hs:
                raise ReplicationError(
                    f"video {video_id!r} has no home warehouse"
                )
            for h in hs:
                if h not in topology:
                    raise ReplicationError(
                        f"video {video_id!r} homed at unknown node {h!r}"
                    )
                if h not in warehouse_names:
                    raise ReplicationError(
                        f"video {video_id!r} homed at {h!r}, which is not a "
                        "warehouse"
                    )
        if catalog is not None:
            missing = sorted(set(catalog.ids) - set(self._homes))
            if missing:
                raise ReplicationError(
                    f"replica map misses catalog video(s): {missing[:5]}"
                )
            extra = sorted(set(self._homes) - set(catalog.ids))
            if extra:
                raise ReplicationError(
                    f"replica map names unknown video(s): {extra[:5]}"
                )

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        doc = {
            "format_version": FORMAT_VERSION,
            "name": self.name,
            "homes": {v: list(hs) for v, hs in sorted(self._homes.items())},
        }
        if self.seed is not None:
            doc["seed"] = self.seed
        return doc

    @classmethod
    def from_dict(cls, data: dict) -> "ReplicaMap":
        what = "malformed replica map"
        check_version(data, ReplicationError, "replica map", required=False)
        return cls(
            field(data, "homes", dict, ReplicationError, what),
            name=field(data, "name", str, ReplicationError, what, ""),
            seed=field(data, "seed", int, ReplicationError, what, None),
        )

    def save(self, path) -> None:
        """Write the map as pretty-printed JSON."""
        write_json(path, self.to_dict())

    @classmethod
    def load(cls, path) -> "ReplicaMap":
        """Read a map written by :meth:`save` (raises on malformed input)."""
        return cls.from_dict(read_json(path, ReplicationError, "replica map"))

    # -- placement policies --------------------------------------------------

    @classmethod
    def full_copy(cls, topology: Topology, catalog: VideoCatalog) -> "ReplicaMap":
        """Every video homed at every warehouse (maximal survivability)."""
        warehouses = tuple(sorted(w.name for w in topology.warehouses))
        if not warehouses:
            raise ReplicationError("topology has no warehouse to replicate to")
        return cls(
            {video.video_id: warehouses for video in catalog},
            name="full-copy",
        )

    @classmethod
    def heat_placement(
        cls,
        topology: Topology,
        catalog: VideoCatalog,
        batch: RequestBatch | None = None,
        *,
        degree: int = 1,
        seed: int = 0,
    ) -> "ReplicaMap":
        """Heat-driven placement: replicate hot titles widely, cold narrowly.

        Videos are ranked by request count in ``batch`` (sorted-id
        tie-break); the top ``HOT_FRACTION`` are homed at every warehouse,
        the rest at ``degree``.  A requested
        video's homes are the warehouses with the cheapest mean route rate
        to its requesters' local storages; unrequested videos are assigned
        round-robin from a seeded offset, so the same arguments always
        yield an equal map.
        """
        warehouses = sorted(w.name for w in topology.warehouses)
        if not warehouses:
            raise ReplicationError("topology has no warehouse to replicate to")
        if degree < 1:
            raise ReplicationError(f"degree must be >= 1, got {degree}")
        degree = min(degree, len(warehouses))

        by_video: dict[str, list] = batch.by_video() if batch is not None else {}
        ids = sorted(v.video_id for v in catalog)
        ranked = sorted(ids, key=lambda v: (-len(by_video.get(v, ())), v))
        n_hot = math.ceil(HOT_FRACTION * len(ranked)) if ranked else 0
        hot = set(ranked[:n_hot])

        router = Router(topology)
        rng = random.Random(seed)
        homes: dict[str, tuple[str, ...]] = {}
        for video_id in ids:
            k = len(warehouses) if video_id in hot else degree
            requesters = by_video.get(video_id)
            if requesters:
                destinations = sorted({r.local_storage for r in requesters})
                ordered = sorted(
                    warehouses,
                    key=lambda w: (
                        math.fsum(
                            router.route(w, dst).rate for dst in destinations
                        )
                        / len(destinations),
                        w,
                    ),
                )
            else:
                offset = rng.randrange(len(warehouses))
                ordered = (
                    warehouses[offset:] + warehouses[:offset]
                )
            homes[video_id] = tuple(ordered[:k])
        return cls(homes, name=f"heat-degree{degree}", seed=seed)


__all__ = ["ReplicaMap"]
