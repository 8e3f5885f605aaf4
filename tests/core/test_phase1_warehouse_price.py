"""Every ``phase1-assigned`` event names the warehouse price it beat.

The Phase-1 greedy (:mod:`repro.core.individual`) serves each request from
the cheapest copy: a warehouse, or a cache whose residency it extends.  The
``phase1-assigned`` journal event records the cheapest routable home
warehouse next to the pick (``warehouse``, ``warehouse_psi_d``; both null
when no home is routable).  These tests hold that record to a pricing done
here from scratch: the minimum ``(Ψ_D, hops, name)`` over the video's homes
under its replica map, routed on the topology the stream's fault window
leaves standing, compared by ``float.hex``.  Every event, and every
event of an online and a two-warehouse horizon CLI journal, also passes
``tools/check_warehouse_price.py``, the check CI runs on the drill
journals: a pick never costs more than that warehouse, and a warehouse
pick is that warehouse.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    CostModel,
    FaultKind,
    FaultPlan,
    FaultSpec,
    IndividualScheduler,
    ReplicaMap,
    Request,
    RequestBatch,
    VideoCatalog,
    VideoFile,
)
from repro.cli import main
from repro.errors import RoutingError, ScheduleError
from repro.faults.contingency import _MaskViews
from repro.faults.inject import masked_graph
from repro.obs import Observability
from repro.obs.events import request_key
from repro.topology import Router, Topology

from ..cli_env import horizon_env, paper_env

_TOOL = (
    Path(__file__).resolve().parents[2] / "tools" / "check_warehouse_price.py"
)
_spec = importlib.util.spec_from_file_location("check_warehouse_price", _TOOL)
price_check = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(price_check)

PLAYBACK = 10.0


@st.composite
def environments(draw):
    """A small topology, a catalog, bookings, an optional replica map and
    an optional fault plan."""
    topo = Topology()
    warehouses = [f"VW{i}" for i in range(draw(st.integers(1, 3)))]
    storages = [f"IS{i}" for i in range(draw(st.integers(2, 4)))]
    for w in warehouses:
        topo.add_warehouse(w)
    for s in storages:
        topo.add_storage(s, srate=draw(st.sampled_from((0.0, 0.01, 0.5))),
                         capacity=1e12)
    names = warehouses + storages
    rates = st.sampled_from((1.0, 1.0, 2.0, 3.0))
    linked = set()
    # every node but the first links to an earlier one: the healthy
    # topology is connected, and equal rates make ties common
    for i in range(1, len(names)):
        a, b = names[draw(st.integers(0, i - 1))], names[i]
        topo.add_edge(a, b, nrate=draw(rates))
        linked.add((a, b))
    pairs = [
        (a, b) for i, a in enumerate(names) for b in names[i + 1:]
        if (a, b) not in linked
    ]
    extra = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    for a, b in extra:
        topo.add_edge(a, b, nrate=draw(rates))
    videos = [
        VideoFile(f"v{i}", size=100.0, playback=PLAYBACK, bandwidth=10.0)
        for i in range(draw(st.integers(1, 3)))
    ]
    catalog = VideoCatalog(videos)
    replicas = None
    if draw(st.booleans()):
        replicas = ReplicaMap({
            v.video_id: draw(
                st.lists(st.sampled_from(warehouses), min_size=1, unique=True)
            )
            for v in videos
        })
    bookings = draw(st.lists(
        st.tuples(
            st.sampled_from([v.video_id for v in videos]),
            st.sampled_from(storages),
            st.integers(0, 16),
        ),
        min_size=1,
        max_size=14,
    ))
    batch = RequestBatch([
        Request(2.5 * slot, video_id, f"u{i}", storage)
        for i, (video_id, storage, slot) in enumerate(bookings)
    ])
    faults = []
    if draw(st.booleans()):
        targets = [(FaultKind.IS_OUTAGE, s) for s in storages]
        targets += [(FaultKind.WAREHOUSE_LOSS, w) for w in warehouses]
        targets += [(FaultKind.LINK_DOWN, e.key) for e in topo.edges]
        for kind, target in draw(
            st.lists(st.sampled_from(targets), min_size=1, max_size=3)
        ):
            t_start = 2.5 * draw(st.integers(0, 16))
            length = draw(st.sampled_from((2.5, 10.0, 25.0)))
            faults.append(FaultSpec(kind, target, t_start, t_start + length))
    return topo, catalog, batch, replicas, FaultPlan(tuple(faults))


def journaled_solve(cm, batch, plan):
    """Serve every booking through the greedy with the journal on; a
    booking no copy can reach is skipped.  The fault plan, if any, is the
    route policy."""
    obs = Observability.on(journal=True)
    greedy = IndividualScheduler(
        cm, route_policy=_MaskViews(cm, plan) if plan else None, obs=obs
    )
    for video_id, requests in batch.by_video().items():
        session = greedy.session(cm.catalog[video_id])
        for req in sorted(requests):
            try:
                session.serve(req)
            except ScheduleError:
                pass  # no home and no cache reaches it under the faults
    return [dict(e.attrs) | {"request_id": e.request_id}
            for e in obs.journal if e.kind == "phase1-assigned"]


def cheapest_home(cm, plan, req):
    """``(Ψ_D, hops, name)`` of the cheapest home of ``req``'s video that
    routes to its storage on what its stream's fault window leaves
    standing, or None."""
    topo = cm.topology
    video = cm.catalog[req.video_id]
    t0 = req.start_time
    masked = masked_graph(topo, plan.overlapping(t0, t0 + video.playback))
    if req.local_storage not in masked:
        return None
    router = Router(masked)
    if cm.replicas is None:
        homes = [w.name for w in topo.warehouses]
    else:
        homes = cm.replicas.homes(req.video_id)
    volume = video.network_volume * cm.network_multiplier(t0)
    keys = []
    for w in homes:
        if w not in masked:
            continue
        try:
            route = router.route(w, req.local_storage)
        except RoutingError:
            continue
        keys.append((volume * route.rate, route.hops, w))
    return min(keys, default=None)


class TestJournaledWarehousePrice:
    @given(env=environments())
    @settings(max_examples=150, deadline=None)
    def test_equals_the_cheapest_routable_home(self, env):
        topo, catalog, batch, replicas, plan = env
        cm = CostModel(topo, catalog, replicas=replicas)
        by_id = {request_key(r): r for r in batch}
        for attrs in journaled_solve(cm, batch, plan):
            expected = cheapest_home(cm, plan, by_id[attrs["request_id"]])
            if expected is None:
                assert attrs["warehouse"] is None, attrs
            else:
                psi_d, _, name = expected
                assert attrs["warehouse"] == name, attrs
                assert float.hex(attrs["warehouse_psi_d"]) == float.hex(psi_d)
            assert price_check.violations(attrs) == [], attrs

    def test_the_cheapest_warehouse_of_the_topology_is_not_a_home(self):
        # VW_near is the topology's cheapest warehouse for IS1, but the
        # video lives only at VW_far: the journal prices against VW_far
        topo = Topology()
        topo.add_warehouse("VW_near")
        topo.add_warehouse("VW_far")
        topo.add_storage("IS1", srate=0.0, capacity=1e12)
        topo.add_storage("IS2", srate=0.0, capacity=1e12)
        topo.add_edge("VW_near", "IS1", nrate=1.0)
        topo.add_edge("VW_far", "IS1", nrate=5.0)
        topo.add_edge("IS1", "IS2", nrate=1.0)
        video = VideoFile("v", size=100.0, playback=PLAYBACK, bandwidth=10.0)
        cm = CostModel(
            topo, VideoCatalog([video]), replicas=ReplicaMap({"v": ["VW_far"]})
        )
        batch = RequestBatch([
            Request(0.0, "v", "u1", "IS1"),
            Request(5.0, "v", "u2", "IS2"),
        ])
        first, second = journaled_solve(cm, batch, FaultPlan(()))
        volume = video.network_volume
        assert (first["source"], first["warehouse"]) == ("VW_far", "VW_far")
        assert first["warehouse_psi_d"] == first["psi_d"] == 5.0 * volume
        # the stream's deposit at IS1 serves u2 for one hop, priced
        # against VW_far's two
        assert (second["source"], second["source_kind"]) == ("IS1", "cache")
        assert second["warehouse"] == "VW_far"
        assert second["warehouse_psi_d"] == 6.0 * volume
        assert second["psi_d"] == volume
        for attrs in (first, second):
            assert price_check.violations(attrs) == [], attrs

    def test_no_routable_home_journals_null(self):
        # the only home is lost while u2 streams; u2 is served from a
        # cache u1's stream deposited, with no warehouse to beat
        topo = Topology()
        topo.add_warehouse("VW")
        topo.add_storage("IS1", srate=0.0, capacity=1e12)
        topo.add_storage("IS2", srate=0.0, capacity=1e12)
        topo.add_edge("VW", "IS1", nrate=1.0)
        topo.add_edge("IS1", "IS2", nrate=1.0)
        video = VideoFile("v", size=100.0, playback=PLAYBACK, bandwidth=10.0)
        cm = CostModel(topo, VideoCatalog([video]))
        plan = FaultPlan((FaultSpec(FaultKind.WAREHOUSE_LOSS, "VW", 12.0, 30.0),))
        batch = RequestBatch([
            Request(0.0, "v", "u1", "IS2"),
            Request(15.0, "v", "u2", "IS2"),
        ])
        first, second = journaled_solve(cm, batch, plan)
        assert first["warehouse"] == first["source"] == "VW"
        assert second["source_kind"] == "cache"
        assert second["warehouse"] is None
        assert second["warehouse_psi_d"] is None
        assert price_check.violations(second) == []


class TestCliJournals:
    def test_online_drill_journal(self, tmp_path, capsys):
        journal = tmp_path / "online.jsonl"
        assert main([
            "run-online", str(paper_env(tmp_path)),
            "--seed", "5",
            "--inject-failures", "0:1", "--max-retries", "0",
            "--breaker-threshold", "1", "--breaker-cooldown", "1e12",
            "--cycle-fraction", "0.8",
            "--journal-out", str(journal),
        ]) == 0
        summary, bad = price_check.check(journal)
        assert bad == []
        assert summary["events"] > summary["cache_picks"] > 0
        assert summary["warehouses"] == ["VW"]

    def test_two_warehouse_horizon_journal(self, tmp_path, capsys):
        journal = tmp_path / "horizon.jsonl"
        assert main([
            "run-horizon", str(horizon_env(tmp_path)),
            "--cycles", "2", "--users", "2", "--seed", "2",
            "--journal-out", str(journal),
        ]) == 0
        summary, bad = price_check.check(journal)
        assert bad == []
        assert summary["events"] > summary["cache_picks"] > 0
        assert summary["warehouses"] == ["VW", "VW2"]

    def test_tool_exits_one_on_a_violation(self, tmp_path, capsys):
        journal = tmp_path / "bad.jsonl"
        attrs = {
            "source": "IS1", "source_kind": "cache", "psi_d": 5.0,
            "psi_c": 1.0, "warehouse": "VW", "warehouse_psi_d": 5.5,
        }
        journal.write_text(
            json.dumps({"event": "phase1-assigned", "attrs": attrs}) + "\n"
        )
        assert price_check.main([str(journal)]) == 1
        assert "costs more than the warehouse" in capsys.readouterr().out
