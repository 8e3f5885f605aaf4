"""Every file format the program reads, fuzzed through its loader.

The seven formats -- environment, fault plan, replica map, SLO policy,
fault feed, request feed and request journal -- all read through the
codec in :mod:`repro.io`.  Two contracts hold for each:

* a valid document loads to an equal object and saves back to identical
  bytes (checked here for environments and the committed scenario files,
  and beside each format's own save/load test for the others);
* a mutated document -- one key dropped at any depth, one value set to
  null, ``"x"``, ``[]``, ``{}``, -1, 1.5 or true, or the whole document
  (one JSONL line) replaced by a non-object -- either loads or raises the
  loader's own :class:`~repro.errors.ReproError` subclass, never anything
  else.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    RequestBatch,
    WorkloadGenerator,
    paper_catalog,
    paper_topology,
    units,
)
from repro.errors import ConfigError, FaultError, GatewayError, ReplicationError
from repro.faults.feed import FaultFeed
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.gateway.feed import RequestFeed
from repro.io import (
    catalog_to_dict,
    load_environment,
    requests_to_dict,
    save_environment,
    topology_to_dict,
)
from repro.obs.events import (
    JournalError,
    RequestJournal,
    load_journal_jsonl,
)
from repro.obs.slo import SLOError, SLOPolicy
from repro.replication import ReplicaMap

SCENARIOS = Path(__file__).resolve().parents[1] / "benchmarks" / "scenarios"

#: What a mutation writes in place of a value; ``DROP`` deletes it.
DROP = "<drop>"
VALUES = (None, "x", [], {}, -1, 1.5, True)
#: What replaces a whole document or JSONL line.
NON_OBJECTS = ([1], [], "x", 1, None, True)


def _topology():
    topo = paper_topology(
        nrate=units.per_gb(500),
        srate=units.per_gb_hour(5),
        capacity=units.gb(5),
    )
    topo.set_pair_rate("VW", "IS7", 1.5e-7)
    return topo


TOPOLOGY = _topology()
CATALOG = paper_catalog(3, seed=3)
BATCH = RequestBatch(
    list(WorkloadGenerator(TOPOLOGY, CATALOG, users_per_neighborhood=1).generate(3))[:3]
)

PLAN = FaultPlan(
    faults=(
        FaultSpec(FaultKind.IS_OUTAGE, "IS1", 1.0, 5.0, 0.0, "a"),
        FaultSpec(FaultKind.LINK_DEGRADED, ("VW", "IS1"), 2.0, 6.0, 0.5, "b"),
    ),
    name="plan",
    seed=4,
)
REPLICAS = ReplicaMap(
    {"video0000": ["VW"], "video0001": ["VW", "VW2"]}, name="map", seed=2
)
FAULT_FEED = FaultFeed(
    events=FaultFeed.generate(
        TOPOLOGY, seed=3, horizon=(0.0, 1000.0), n_events=2
    ).events,
    name="faults",
    seed=3,
)
REQUEST_FEED = RequestFeed(
    events=RequestFeed.generate(
        TOPOLOGY, CATALOG, seed=3, users_per_neighborhood=1
    ).events[:2],
    name="bookings",
    seed=3,
)


def _journal() -> RequestJournal:
    journal = RequestJournal()
    journal.emit(
        "admitted", request_id="r1", video_id="v1", start=1.5,
        route=("VW", "IS1"),
    )
    journal.emit("cycle-closed", cycle=0)
    return journal


def _feed_lines(feed) -> list[dict]:
    header = {"format_version": 1, "name": feed.name, "seed": feed.seed}
    return [header, *(e.to_dict() for e in feed.events)]


@dataclass(frozen=True)
class Format:
    """One file format: its loader, the loader's error, and one valid
    document (a list of JSONL lines, or one whole-file object)."""

    load: Callable
    error: type
    docs: list
    jsonl: bool = False

    def text(self, docs: list) -> str:
        if self.jsonl:
            return "".join(json.dumps(d) + "\n" for d in docs)
        return json.dumps(docs[0])


FORMATS = {
    "environment": Format(
        load_environment,
        ConfigError,
        [
            {
                "format_version": 1,
                "topology": topology_to_dict(TOPOLOGY),
                "catalog": catalog_to_dict(CATALOG),
                "requests": requests_to_dict(BATCH),
            }
        ],
    ),
    "fault plan": Format(FaultPlan.load, FaultError, [PLAN.to_dict()]),
    "replica map": Format(ReplicaMap.load, ReplicationError, [REPLICAS.to_dict()]),
    "SLO policy": Format(SLOPolicy.load, SLOError, [SLOPolicy.default().to_dict()]),
    "fault feed": Format(
        FaultFeed.load, FaultError, _feed_lines(FAULT_FEED), jsonl=True
    ),
    "request feed": Format(
        RequestFeed.load, GatewayError, _feed_lines(REQUEST_FEED), jsonl=True
    ),
    "journal": Format(
        load_journal_jsonl,
        JournalError,
        [e.to_dict() for e in _journal().events],
        jsonl=True,
    ),
}


def _paths(node, prefix=()):
    """Every key path into a JSON value, depth first."""
    items = (
        node.items() if isinstance(node, dict)
        else enumerate(node) if isinstance(node, list)
        else ()
    )
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _mutate(doc, path: tuple, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(value, str) and value == DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@st.composite
def mutations(draw):
    """``(format, line, key path, new value)``; an empty path replaces
    the whole line."""
    name = draw(st.sampled_from(sorted(FORMATS)))
    docs = FORMATS[name].docs
    line = draw(st.integers(0, len(docs) - 1))
    path = draw(st.sampled_from([(), *_paths(docs[line])]))
    value = draw(st.sampled_from(NON_OBJECTS if not path else (DROP, *VALUES)))
    return name, line, path, value


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutants")


def _mutant(fuzz_dir, case):
    """Write the mutated document ``case`` names; ``(format, path)``."""
    name, line, path, value = case
    fmt = FORMATS[name]
    docs = list(fmt.docs)
    docs[line] = _mutate(docs[line], path, value)
    mutant = fuzz_dir / "mutant"
    mutant.write_text(fmt.text(docs))
    return fmt, mutant


# Mutations that once escaped as raw AttributeError, TypeError or
# ValueError instead of the loader's error.
_ESCAPED = [
    *[("environment", 0, ("topology",), v) for v in (None, "x", [], -1, 1.5, True)],
    *[("fault plan", 0, (), v) for v in ([1], [], "x", None)],
    *[("replica map", 0, (), v) for v in ([1], [], "x", None)],
    *[("fault feed", 0, ("seed",), v) for v in ("x", [], {})],
    *[("request feed", 0, ("seed",), v) for v in ("x", [], {})],
    *[("journal", line, ("event",), v) for line in (0, 1) for v in ([], {})],
]


@pytest.mark.parametrize("case", _ESCAPED, ids=[repr(c) for c in _ESCAPED])
def test_once_escaped_mutation_raises_the_loaders_error(fuzz_dir, case):
    fmt, mutant = _mutant(fuzz_dir, case)
    with pytest.raises(fmt.error) as exc:
        fmt.load(mutant)
    assert "\n" not in str(exc.value)


@settings(max_examples=400, deadline=None)
@given(case=mutations())
def test_mutation_raises_only_the_loaders_error(fuzz_dir, case):
    fmt, mutant = _mutant(fuzz_dir, case)
    try:
        fmt.load(mutant)
    except fmt.error as exc:
        assert "\n" not in str(exc)


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_unmutated_document_loads(tmp_path, name):
    fmt = FORMATS[name]
    path = tmp_path / "valid"
    path.write_text(fmt.text(fmt.docs))
    fmt.load(path)


def test_environment_round_trip(tmp_path):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_environment(first, topology=TOPOLOGY, catalog=CATALOG, batch=BATCH)
    topology, catalog, batch = load_environment(first)
    assert topology_to_dict(topology) == topology_to_dict(TOPOLOGY)
    assert catalog_to_dict(catalog) == catalog_to_dict(CATALOG)
    assert list(batch) == list(BATCH)
    save_environment(second, topology=topology, catalog=catalog, batch=batch)
    assert first.read_bytes() == second.read_bytes()


class TestCommittedScenarios:
    """The files under ``benchmarks/scenarios/`` load and re-save to the
    bytes on disk."""

    @pytest.mark.parametrize(
        "name, cls",
        [
            ("online_drill.jsonl", FaultFeed),
            ("rush_hour_brownout.jsonl", FaultFeed),
            ("flash_crowd.jsonl", RequestFeed),
        ],
    )
    def test_feed(self, tmp_path, name, cls):
        feed = cls.load(SCENARIOS / name)
        feed.save(tmp_path / name)
        assert (tmp_path / name).read_bytes() == (SCENARIOS / name).read_bytes()
        assert cls.load(tmp_path / name) == feed

    def test_slo_policy(self):
        path = SCENARIOS / "online_slo.json"
        policy = SLOPolicy.load(path)
        assert json.dumps(policy.to_dict(), indent=2) + "\n" == path.read_text()
        assert SLOPolicy.from_dict(policy.to_dict()) == policy
