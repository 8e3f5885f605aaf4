"""JSON (de)serialization for environments and workloads.

Lets users define infrastructures and reservation books outside Python and
exchange them between runs:

* :func:`topology_to_dict` / :func:`topology_from_dict`
* :func:`catalog_to_dict` / :func:`catalog_from_dict`
* :func:`requests_to_dict` / :func:`requests_from_dict`
* :func:`save_environment` / :func:`load_environment` — one JSON file with
  all three sections.

The format is plain JSON with explicit units (bytes, seconds, $/byte,
$/(byte·s)) so files are self-describing; ``inf`` capacities/bandwidths are
encoded as the string ``"inf"``.
"""

from __future__ import annotations

import json
import math
import pathlib

from repro.catalog.catalog import VideoCatalog
from repro.catalog.video import VideoFile
from repro.errors import ConfigError
from repro.topology.graph import ChargingBasis, Topology
from repro.workload.requests import Request, RequestBatch

_FORMAT_VERSION = 1


def _num_out(x: float) -> float | str:
    return "inf" if math.isinf(x) else x


def _num_in(x) -> float:
    if x == "inf":
        return math.inf
    if not isinstance(x, (int, float)):
        raise ConfigError(f"expected a number or 'inf', got {x!r}")
    return float(x)


# -- topology -----------------------------------------------------------------


def topology_to_dict(topology: Topology) -> dict:
    return {
        "charging_basis": topology.charging_basis.value,
        "nodes": [
            {
                "name": n.name,
                "kind": n.kind.value,
                "srate": n.srate,
                "capacity": _num_out(n.capacity),
            }
            for n in topology.nodes
        ],
        "edges": [
            {
                "a": e.a,
                "b": e.b,
                "nrate": e.nrate,
                "bandwidth": _num_out(e.bandwidth),
            }
            for e in topology.edges
        ],
        "pair_rates": [
            {"a": a, "b": b, "nrate": rate}
            for (a, b), rate in sorted(topology._pair_rates.items())
        ],
    }


def topology_from_dict(data: dict) -> Topology:
    try:
        basis = ChargingBasis(data.get("charging_basis", "per_hop"))
        topo = Topology(charging_basis=basis)
        for n in data["nodes"]:
            if n["kind"] == "warehouse":
                topo.add_warehouse(n["name"])
            elif n["kind"] == "storage":
                topo.add_storage(
                    n["name"],
                    srate=float(n["srate"]),
                    capacity=_num_in(n["capacity"]),
                )
            else:
                raise ConfigError(f"unknown node kind {n['kind']!r}")
        for e in data["edges"]:
            topo.add_edge(
                e["a"],
                e["b"],
                nrate=float(e["nrate"]),
                bandwidth=_num_in(e.get("bandwidth", "inf")),
            )
        for p in data.get("pair_rates", []):
            topo.set_pair_rate(p["a"], p["b"], float(p["nrate"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed topology document: {exc}") from exc
    return topo


# -- catalog ------------------------------------------------------------------


def catalog_to_dict(catalog: VideoCatalog) -> dict:
    return {
        "videos": [
            {
                "video_id": v.video_id,
                "size": v.size,
                "playback": v.playback,
                "bandwidth": v.bandwidth,
            }
            for v in catalog
        ]
    }


def catalog_from_dict(data: dict) -> VideoCatalog:
    try:
        return VideoCatalog(
            VideoFile(
                v["video_id"],
                size=float(v["size"]),
                playback=float(v["playback"]),
                bandwidth=float(v.get("bandwidth", 0.0)),
            )
            for v in data["videos"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed catalog document: {exc}") from exc


# -- requests -----------------------------------------------------------------


def requests_to_dict(batch: RequestBatch) -> dict:
    return {
        "requests": [
            {
                "user_id": r.user_id,
                "video_id": r.video_id,
                "start_time": r.start_time,
                "local_storage": r.local_storage,
            }
            for r in batch
        ]
    }


def requests_from_dict(data: dict) -> RequestBatch:
    try:
        return RequestBatch(
            Request(
                float(r["start_time"]),
                r["video_id"],
                r["user_id"],
                r["local_storage"],
            )
            for r in data["requests"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed requests document: {exc}") from exc


# -- whole environments ---------------------------------------------------------


def save_environment(
    path,
    *,
    topology: Topology,
    catalog: VideoCatalog,
    batch: RequestBatch | None = None,
) -> None:
    """Write one JSON file with the topology, catalog and (optional) batch."""
    doc = {
        "format_version": _FORMAT_VERSION,
        "topology": topology_to_dict(topology),
        "catalog": catalog_to_dict(catalog),
    }
    if batch is not None:
        doc["requests"] = requests_to_dict(batch)
    pathlib.Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_environment(path) -> tuple[Topology, VideoCatalog, RequestBatch | None]:
    """Read an environment file written by :func:`save_environment`."""
    try:
        doc = json.loads(pathlib.Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read environment file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(
            f"environment file {path} must hold a JSON object, "
            f"not {type(doc).__name__}"
        )
    version = doc.get("format_version")
    if version != _FORMAT_VERSION:
        raise ConfigError(
            f"unsupported environment format version {version!r} "
            f"(expected {_FORMAT_VERSION})"
        )
    missing = [key for key in ("topology", "catalog") if key not in doc]
    if missing:
        raise ConfigError(
            f"environment file {path} has no {' or '.join(missing)} section"
        )
    topology = topology_from_dict(doc["topology"])
    catalog = catalog_from_dict(doc["catalog"])
    batch = (
        requests_from_dict(doc["requests"]) if "requests" in doc else None
    )
    return topology, catalog, batch
