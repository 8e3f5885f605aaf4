"""JSON (de)serialization: the codec every file reader shares, and the
environment format.

Every loader reads through :func:`read_json` or :func:`read_jsonl`, checks
:data:`FORMAT_VERSION` with :func:`check_version` and takes each value
with :func:`field`, so a bad file is refused with the loader's own
:class:`~repro.errors.ReproError` subclass (``SystemExit`` for the
artifacts the CLI reads) and a one-line message that says where.  :func:`write_json`/:func:`write_jsonl` sort keys, so equal
objects save to identical bytes.

The environment format (:func:`save_environment` / :func:`load_environment`,
with ``*_to_dict`` / ``*_from_dict`` for the topology, catalog and request
sections) is plain JSON with explicit units (bytes, seconds, $/byte,
$/(byte·s)); ``inf`` capacities/bandwidths are the string ``"inf"``.
"""

from __future__ import annotations

import enum
import json
import math
import pathlib
import reprlib
from typing import Any, Iterable, Iterator

from repro.catalog.catalog import VideoCatalog
from repro.catalog.video import VideoFile
from repro.errors import (
    CatalogError,
    ConfigError,
    TopologyError,
    WorkloadError,
)
from repro.topology.graph import ChargingBasis, Topology
from repro.workload.requests import Request, RequestBatch

#: The version every versioned document (environment, fault plan, replica
#: map, feed) is written with; loaders refuse any other.
FORMAT_VERSION = 1

_REQUIRED = object()
_KINDS = {
    float: "a number",
    int: "an integer",
    str: "a string",
    list: "a list",
    dict: "an object",
}


def _object(doc: Any, error: type[BaseException], where: str) -> dict:
    if not isinstance(doc, dict):
        raise error(f"{where}: expected a JSON object, got {type(doc).__name__}")
    return doc


def read_json(path, error: type[BaseException], what: str) -> dict:
    """The JSON object in file ``path``; a file that cannot be read, is not
    JSON or holds no object raises ``error``."""
    try:
        doc = json.loads(pathlib.Path(path).read_text())
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:
        raise error(f"cannot read {what} {path}: not JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(
            f"invalid {what} {path}: must hold a JSON object, "
            f"not {type(doc).__name__}"
        )
    return doc


def read_jsonl(
    path, error: type[BaseException], what: str
) -> Iterator[tuple[int, dict]]:
    """``(lineno, object)`` per non-blank line of the JSONL file ``path``;
    a line that is not a JSON object raises ``error`` at ``path:lineno``."""
    try:
        lines = pathlib.Path(path).read_text().splitlines()
    except (OSError, ValueError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        if line.strip():
            try:
                doc = json.loads(line)
            except ValueError as exc:
                raise error(f"{path}:{lineno}: not JSON: {exc}") from exc
            yield lineno, _object(doc, error, f"{path}:{lineno}")


def check_version(
    doc: dict, error: type[BaseException], what: str, *, required: bool
) -> None:
    """Refuse ``doc`` unless its ``format_version`` is the integer
    :data:`FORMAT_VERSION` (a missing one passes unless ``required``)."""
    default = None if required else FORMAT_VERSION
    version = _object(doc, error, f"malformed {what}").get("format_version", default)
    if type(version) is not int or version != FORMAT_VERSION:
        raise error(
            f"unsupported {what} format version {version!r} "
            f"(expected {FORMAT_VERSION})"
        )


def _typed(value: Any, kind) -> Any:
    """``value`` as a JSON value of ``kind`` (see :func:`field`), else None."""
    if isinstance(kind, tuple):
        return next((t for k in kind if (t := _typed(value, k)) is not None), None)
    if isinstance(kind, list):
        if not isinstance(value, list):
            return None
        items = [_typed(v, kind[0]) for v in value]
        return None if None in items else items
    if isinstance(kind, type) and issubclass(kind, enum.Enum):
        return next((m for m in kind if m.value == value), None)
    if isinstance(value, bool):
        return None
    if kind is float and isinstance(value, (int, float)):
        return float(value)
    return value if isinstance(value, kind) else None


def _kind_name(kind) -> str:
    if isinstance(kind, tuple):
        return " or ".join(map(_kind_name, kind))
    if isinstance(kind, list):
        return f"a list of which each item is {_kind_name(kind[0])}"
    if issubclass(kind, enum.Enum):
        return f"one of {sorted(m.value for m in kind)}"
    return _KINDS[kind]


def field(
    doc: Any, key: str, kind, error: type[BaseException], what: str, default=_REQUIRED
) -> Any:
    """``doc[key]`` as a JSON value of ``kind``, never coerced, else raise
    ``error("{what}: ...")``.

    ``kind`` is ``float`` (any number but a boolean, as a float), ``int``,
    ``str``, ``list``, ``dict``, an :class:`enum.Enum` of strings (its
    member), ``[kind]`` (a list of those) or a tuple of kinds (the first
    that fits).  A missing key -- or a null, where ``default`` is ``None``
    -- gives ``default``; without one it is refused.
    """
    if key not in _object(doc, error, what) or (doc[key] is None and default is None):
        if default is _REQUIRED:
            raise error(f"{what}: no {key}")
        return default
    typed = _typed(doc[key], kind)
    if typed is None:
        got = reprlib.repr(doc[key])
        raise error(f"{what}: {key} must be {_kind_name(kind)}, got {got}")
    return typed


def write_json(path, doc: dict) -> None:
    """Write ``doc`` to ``path`` as sorted, indented JSON."""
    pathlib.Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write_jsonl(path, docs: Iterable[dict]) -> None:
    """Write ``docs`` to ``path`` as JSON Lines with sorted keys."""
    lines = (json.dumps(doc, sort_keys=True) + "\n" for doc in docs)
    pathlib.Path(path).write_text("".join(lines))


def _num_out(x: float) -> float | str:
    return "inf" if math.isinf(x) else x


def _num_in(doc: dict, key: str, what: str, default: Any = _REQUIRED) -> float:
    """A capacity or bandwidth: a number, or the string ``"inf"``."""
    value = field(doc, key, (float, str), ConfigError, what, default)
    if value == "inf":
        return math.inf
    if isinstance(value, str) or math.isnan(value):
        raise ConfigError(f"{what}: {key} must be a number or 'inf', got {value!r}")
    return value


def _rate(doc: dict, key: str, what: str) -> float:
    """A price rate: a finite number (Python's JSON reads ``NaN``)."""
    value = field(doc, key, float, ConfigError, what)
    if not math.isfinite(value):
        raise ConfigError(f"{what}: {key} must be finite, got {value!r}")
    return value


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
    what = "malformed topology"
    topo = Topology(
        charging_basis=field(
            data, "charging_basis", ChargingBasis, ConfigError, what,
            ChargingBasis.PER_HOP,
        )
    )
    for i, n in enumerate(field(data, "nodes", list, ConfigError, what)):
        at = f"{what} nodes[{i}]"
        name = field(n, "name", str, ConfigError, at)
        kind = field(n, "kind", str, ConfigError, at)
        if kind == "warehouse":
            topo.add_warehouse(name)
        elif kind == "storage":
            topo.add_storage(
                name,
                srate=_rate(n, "srate", at),
                capacity=_num_in(n, "capacity", at),
            )
        else:
            raise ConfigError(f"{at}: unknown node kind {kind!r}")
    for i, e in enumerate(field(data, "edges", list, ConfigError, what)):
        at = f"{what} edges[{i}]"
        topo.add_edge(
            field(e, "a", str, ConfigError, at),
            field(e, "b", str, ConfigError, at),
            nrate=_rate(e, "nrate", at),
            bandwidth=_num_in(e, "bandwidth", at, "inf"),
        )
    pairs = field(data, "pair_rates", list, ConfigError, what, [])
    for i, p in enumerate(pairs):
        at = f"{what} pair_rates[{i}]"
        topo.set_pair_rate(
            field(p, "a", str, ConfigError, at),
            field(p, "b", str, ConfigError, at),
            _rate(p, "nrate", at),
        )
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
    videos = field(data, "videos", list, ConfigError, "malformed catalog")
    catalog = []
    for i, v in enumerate(videos):
        at = f"malformed catalog videos[{i}]"
        catalog.append(
            VideoFile(
                field(v, "video_id", str, ConfigError, at),
                size=field(v, "size", float, ConfigError, at),
                playback=field(v, "playback", float, ConfigError, at),
                bandwidth=field(v, "bandwidth", float, ConfigError, at, 0.0),
            )
        )
    return VideoCatalog(catalog)


# -- requests -----------------------------------------------------------------


def request_to_dict(r: Request) -> dict:
    return {
        "user_id": r.user_id,
        "video_id": r.video_id,
        "start_time": r.start_time,
        "local_storage": r.local_storage,
    }


def request_from_dict(data: dict, error: type[BaseException], what: str) -> Request:
    """One request; a malformed one raises ``error`` (never
    :class:`~repro.errors.WorkloadError`)."""
    try:
        return Request(
            field(data, "start_time", float, error, what),
            field(data, "video_id", str, error, what),
            field(data, "user_id", str, error, what),
            field(data, "local_storage", str, error, what),
        )
    except WorkloadError as exc:
        raise error(f"{what}: {exc}") from exc


def requests_to_dict(batch: RequestBatch) -> dict:
    return {"requests": [request_to_dict(r) for r in batch]}


def requests_from_dict(data: dict) -> RequestBatch:
    requests = field(data, "requests", list, ConfigError, "malformed requests")
    return RequestBatch(
        request_from_dict(r, ConfigError, f"malformed requests[{i}]")
        for i, r in enumerate(requests)
    )


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
        "format_version": FORMAT_VERSION,
        "topology": topology_to_dict(topology),
        "catalog": catalog_to_dict(catalog),
    }
    if batch is not None:
        doc["requests"] = requests_to_dict(batch)
    pathlib.Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_environment(path) -> tuple[Topology, VideoCatalog, RequestBatch | None]:
    """Read an environment file written by :func:`save_environment`.

    Every malformed file raises :class:`~repro.errors.ConfigError`, also
    where a section's values break the topology, catalog or request rules.
    """
    doc = read_json(path, ConfigError, "environment file")
    check_version(doc, ConfigError, "environment", required=True)
    missing = [key for key in ("topology", "catalog") if key not in doc]
    if missing:
        raise ConfigError(
            f"environment file {path} has no {' or '.join(missing)} section"
        )
    what = f"malformed environment file {path}"
    try:
        topology = topology_from_dict(
            field(doc, "topology", dict, ConfigError, what)
        )
        catalog = catalog_from_dict(field(doc, "catalog", dict, ConfigError, what))
        batch = (
            requests_from_dict(field(doc, "requests", dict, ConfigError, what))
            if "requests" in doc
            else None
        )
    except (TopologyError, CatalogError) as exc:
        raise ConfigError(f"invalid environment file {path}: {exc}") from exc
    return topology, catalog, batch
