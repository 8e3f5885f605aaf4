"""Tests for fault-to-resource-effect resolution and topology masking."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FaultKind, FaultPlan, FaultSpec, Topology, masked_topology
from repro.errors import FaultError
from repro.faults import combined_effects, effects_of
from repro.core.spacefunc import UsageTimeline
from repro.faults.inject import fault_background, fault_effects, fault_hits


def _topo() -> Topology:
    topo = Topology()
    topo.add_warehouse("VW")
    topo.add_storage("IS1", srate=0.01, capacity=100.0)
    topo.add_storage("IS2", srate=0.01, capacity=100.0)
    topo.add_edge("VW", "IS1", nrate=0.001, bandwidth=50.0)
    topo.add_edge("VW", "IS2", nrate=0.001, bandwidth=50.0)
    topo.add_edge("IS1", "IS2", nrate=0.001, bandwidth=50.0)
    return topo


def _fault(kind, target, severity=0.0) -> FaultSpec:
    return FaultSpec(kind=kind, target=target, t_start=0.0, t_end=1.0,
                     severity=severity)


class TestEffectsOf:
    def test_is_outage_downs_the_node(self):
        eff = effects_of(_topo(), _fault(FaultKind.IS_OUTAGE, "IS1"))
        assert eff.down_nodes == {"IS1"}
        assert not eff.down_edges and not eff.bandwidth_factors

    def test_is_outage_rejects_warehouse_target(self):
        with pytest.raises(FaultError, match="not an intermediate storage"):
            effects_of(_topo(), _fault(FaultKind.IS_OUTAGE, "VW"))

    def test_unknown_node_rejected(self):
        with pytest.raises(FaultError, match="unknown node"):
            effects_of(_topo(), _fault(FaultKind.IS_OUTAGE, "IS9"))

    def test_link_down(self):
        eff = effects_of(_topo(), _fault(FaultKind.LINK_DOWN, ("IS1", "VW")))
        assert eff.down_edges == {("IS1", "VW")}

    def test_unknown_link_rejected(self):
        topo = _topo()
        with pytest.raises(FaultError, match="unknown link"):
            effects_of(topo, _fault(FaultKind.LINK_DOWN, ("IS1", "IS9")))

    def test_link_degraded_scales_bandwidth(self):
        eff = effects_of(
            _topo(), _fault(FaultKind.LINK_DEGRADED, ("IS1", "VW"), 0.4)
        )
        assert eff.bandwidth_factor_map == {("IS1", "VW"): 0.4}
        assert not eff.down_edges

    def test_link_degraded_to_zero_is_down(self):
        eff = effects_of(
            _topo(), _fault(FaultKind.LINK_DEGRADED, ("IS1", "VW"), 0.0)
        )
        assert eff.down_edges == {("IS1", "VW")}
        assert not eff.bandwidth_factors

    def test_warehouse_brownout_scales_every_incident_link(self):
        eff = effects_of(
            _topo(), _fault(FaultKind.WAREHOUSE_BROWNOUT, "VW", 0.5)
        )
        assert eff.bandwidth_factor_map == {
            ("IS1", "VW"): 0.5,
            ("IS2", "VW"): 0.5,
        }
        # the IS1--IS2 leg is untouched
        assert ("IS1", "IS2") not in eff.bandwidth_factor_map

    def test_brownout_rejects_storage_target(self):
        with pytest.raises(FaultError, match="not a warehouse"):
            effects_of(_topo(), _fault(FaultKind.WAREHOUSE_BROWNOUT, "IS1"))

    def test_warehouse_loss_downs_the_node(self):
        eff = effects_of(_topo(), _fault(FaultKind.WAREHOUSE_LOSS, "VW"))
        assert eff.down_nodes == {"VW"}
        assert not eff.down_edges and not eff.bandwidth_factors

    def test_warehouse_loss_rejects_storage_target(self):
        with pytest.raises(FaultError, match="not a warehouse"):
            effects_of(_topo(), _fault(FaultKind.WAREHOUSE_LOSS, "IS1"))

    def test_capacity_shrink(self):
        eff = effects_of(
            _topo(), _fault(FaultKind.CAPACITY_SHRINK, "IS2", 0.25)
        )
        assert eff.capacity_factor_map == {"IS2": 0.25}
        assert eff.down_nodes == frozenset()

    def test_empty_property(self):
        assert combined_effects(_topo(), FaultPlan()).empty
        assert not effects_of(
            _topo(), _fault(FaultKind.IS_OUTAGE, "IS1")
        ).empty


class TestCombinedEffects:
    def test_factors_take_the_minimum(self):
        plan = FaultPlan(
            (
                FaultSpec(FaultKind.LINK_DEGRADED, ("IS1", "VW"), 0.0, 1.0,
                          severity=0.6),
                FaultSpec(FaultKind.LINK_DEGRADED, ("IS1", "VW"), 2.0, 3.0,
                          severity=0.3),
            )
        )
        eff = combined_effects(_topo(), plan)
        assert eff.bandwidth_factor_map == {("IS1", "VW"): 0.3}

    def test_down_edge_swallows_degradation(self):
        plan = FaultPlan(
            (
                FaultSpec(FaultKind.LINK_DEGRADED, ("IS1", "VW"), 0.0, 1.0,
                          severity=0.6),
                FaultSpec(FaultKind.LINK_DOWN, ("IS1", "VW"), 2.0, 3.0),
            )
        )
        eff = combined_effects(_topo(), plan)
        assert eff.down_edges == {("IS1", "VW")}
        assert not eff.bandwidth_factors

    def test_accepts_a_bare_spec(self):
        eff = combined_effects(_topo(), _fault(FaultKind.IS_OUTAGE, "IS1"))
        assert eff.down_nodes == {"IS1"}


class TestFaultHits:
    """Which faults break a route or a storage, and when."""

    PLAN = FaultPlan((
        FaultSpec(FaultKind.LINK_DOWN, ("IS1", "IS2"), 10.0, 20.0),
        FaultSpec(FaultKind.IS_OUTAGE, "IS2", 15.0, 30.0),
        FaultSpec(FaultKind.CAPACITY_SHRINK, "IS1", 0.0, 40.0, severity=0.5),
    ))

    def _hits(self, t0, t1, **kw):
        per_fault = fault_effects(_topo(), self.PLAN)
        return [
            (f.kind, resource)
            for f, resource in fault_hits(per_fault, t0, t1, **kw)
        ]

    def test_route_hits_name_the_broken_resource_in_plan_order(self):
        route = ("VW", "IS1", "IS2")
        assert self._hits(0.0, 50.0, route=route) == [
            (FaultKind.LINK_DOWN, "IS1-IS2"),
            (FaultKind.IS_OUTAGE, "IS2"),
        ]

    def test_only_faults_in_effect_over_the_interval_hit(self):
        route = ("VW", "IS1", "IS2")
        assert self._hits(0.0, 10.0, route=route) == []
        assert self._hits(20.0, 25.0, route=route) == [
            (FaultKind.IS_OUTAGE, "IS2"),
        ]

    def test_shrunk_storage_hits_only_when_asked(self):
        assert self._hits(0.0, 5.0, storage="IS1") == []
        assert self._hits(0.0, 5.0, storage="IS1", shrink=True) == [
            (FaultKind.CAPACITY_SHRINK, "IS1"),
        ]
        assert self._hits(16.0, 17.0, storage="IS2") == [
            (FaultKind.IS_OUTAGE, "IS2"),
        ]


class TestMaskedTopology:
    def test_outage_removes_node_and_incident_links(self):
        masked = masked_topology(_topo(), _fault(FaultKind.IS_OUTAGE, "IS1"))
        assert "IS1" not in masked
        assert not masked.has_edge("VW", "IS1")
        assert not masked.has_edge("IS1", "IS2")
        assert masked.has_edge("VW", "IS2")

    def test_link_down_removes_only_the_link(self):
        masked = masked_topology(
            _topo(), _fault(FaultKind.LINK_DOWN, ("VW", "IS1"))
        )
        assert "IS1" in masked and "IS2" in masked
        assert not masked.has_edge("VW", "IS1")
        assert masked.has_edge("IS1", "IS2")

    def test_degraded_link_keeps_scaled_bandwidth(self):
        masked = masked_topology(
            _topo(), _fault(FaultKind.LINK_DEGRADED, ("VW", "IS1"), 0.4)
        )
        assert masked.edge("VW", "IS1").bandwidth == pytest.approx(20.0)
        assert masked.edge("VW", "IS2").bandwidth == pytest.approx(50.0)

    def test_shrunk_storage_keeps_scaled_capacity(self):
        masked = masked_topology(
            _topo(), _fault(FaultKind.CAPACITY_SHRINK, "IS2", 0.25)
        )
        assert masked.node("IS2").capacity == pytest.approx(25.0)
        assert masked.node("IS1").capacity == pytest.approx(100.0)

    def test_rates_and_charging_basis_survive(self):
        topo = _topo()
        masked = masked_topology(topo, _fault(FaultKind.IS_OUTAGE, "IS1"))
        assert masked.charging_basis == topo.charging_basis
        assert masked.node("IS2").srate == pytest.approx(0.01)
        assert masked.edge("VW", "IS2").nrate == pytest.approx(0.001)

    def test_warehouse_loss_removes_node_with_second_standing(self):
        topo = _topo()
        topo.add_warehouse("VW2")
        topo.add_edge("IS2", "VW2", nrate=0.001, bandwidth=50.0)
        masked = masked_topology(
            topo, _fault(FaultKind.WAREHOUSE_LOSS, "VW")
        )
        assert "VW" not in masked
        assert not masked.has_edge("VW", "IS1")
        assert "VW2" in masked and masked.has_edge("IS2", "VW2")
        assert len(masked.warehouses) == 1

    def test_losing_the_only_warehouse_is_an_error(self):
        """Total archive loss cannot be masked into a servable topology;
        graceful handling lives in ContingencyScheduler, not here."""
        with pytest.raises(FaultError, match="no warehouse standing"):
            masked_topology(_topo(), _fault(FaultKind.WAREHOUSE_LOSS, "VW"))

    def test_no_warehouse_left_is_an_error(self):
        topo = Topology()
        topo.add_storage("IS1", srate=0.01, capacity=100.0)
        topo.add_storage("IS2", srate=0.01, capacity=100.0)
        topo.add_edge("IS1", "IS2", nrate=0.001)
        with pytest.raises(FaultError, match="no warehouse standing"):
            masked_topology(
                topo, _fault(FaultKind.CAPACITY_SHRINK, "IS1", 0.5)
            )


class TestFaultBackground:
    """Outages and shrinks take their storage's space over their window."""

    def test_outage_takes_all_shrink_takes_the_lost_fraction(self):
        topo = _topo()
        topo.add_storage("IS3", srate=0.01)  # unbounded
        plan = FaultPlan(
            (
                FaultSpec(FaultKind.IS_OUTAGE, "IS1", 10.0, 20.0),
                FaultSpec(FaultKind.CAPACITY_SHRINK, "IS1", 30.0, 40.0, 0.25),
                FaultSpec(FaultKind.CAPACITY_SHRINK, "IS3", 30.0, 40.0, 0.5),
                FaultSpec(FaultKind.LINK_DOWN, ("VW", "IS2"), 0.0, 50.0),
                FaultSpec(FaultKind.WAREHOUSE_LOSS, "VW", 60.0, 70.0),
            )
        )
        background = fault_background(topo, plan)
        assert set(background) == {"IS1"}
        outage, shrink = background["IS1"]
        assert [(s.start, s.end, s.y0, s.y1) for s in outage.segments] == [
            (10.0, 20.0, 100.0, 100.0)
        ]
        assert [(s.start, s.end, s.y0, s.y1) for s in shrink.segments] == [
            (30.0, 40.0, 75.0, 75.0)
        ]

    def test_empty_plan_takes_nothing(self):
        assert fault_background(_topo(), FaultPlan()) == {}

    def test_outage_overlapping_a_shrink_takes_the_capacity_once(self):
        plan = FaultPlan(
            (
                FaultSpec(FaultKind.IS_OUTAGE, "IS1", 10.0, 20.0),
                FaultSpec(FaultKind.CAPACITY_SHRINK, "IS1", 15.0, 30.0, 0.25),
            )
        )
        background = fault_background(_topo(), plan)["IS1"]
        assert _pieces(background) == [(10.0, 20.0, 100.0), (20.0, 30.0, 75.0)]
        assert UsageTimeline(background).peak == 100.0

    def test_overlapping_shrinks_take_the_tightest_share(self):
        plan = FaultPlan(
            (
                FaultSpec(FaultKind.CAPACITY_SHRINK, "IS1", 0.0, 20.0, 0.5),
                FaultSpec(FaultKind.CAPACITY_SHRINK, "IS1", 10.0, 30.0, 0.75),
                FaultSpec(FaultKind.CAPACITY_SHRINK, "IS1", 10.0, 20.0, 0.9),
                FaultSpec(FaultKind.CAPACITY_SHRINK, "IS1", 30.0, 40.0, 0.4),
            )
        )
        background = fault_background(_topo(), plan)["IS1"]
        # [10, 20) keeps the first shrink's share: one run, not three
        assert _pieces(background) == [
            (0.0, 20.0, 50.0), (20.0, 30.0, 25.0), (30.0, 40.0, 60.0)
        ]
        timeline = UsageTimeline(background)
        # at a boundary the fault that starts there binds, never the sum
        assert timeline.value(20.0) == 25.0 and timeline.value_left(20.0) == 50.0
        assert timeline.value(30.0) == 60.0 and timeline.value_left(30.0) == 25.0
        assert timeline.value(40.0) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 20),
                st.integers(1, 10),
                st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.9, 1.0]),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_background_is_the_largest_active_share(self, faults):
        plan = FaultPlan(
            tuple(
                FaultSpec(FaultKind.IS_OUTAGE, "IS1", t0, t0 + span)
                if remaining == 0.0
                else FaultSpec(
                    FaultKind.CAPACITY_SHRINK, "IS1", t0, t0 + span, remaining
                )
                for t0, span, remaining in faults
            )
        )
        timeline = UsageTimeline(fault_background(_topo(), plan).get("IS1", ()))
        for t in (x / 2 for x in range(0, 62)):
            share = max(
                (
                    (1.0 - r) * 100.0
                    for t0, span, r in faults
                    if t0 <= t < t0 + span
                ),
                default=0.0,
            )
            assert timeline.value(t) == pytest.approx(share, abs=1e-9), t
            assert timeline.value(t) <= 100.0


def _pieces(profiles):
    return [(s.start, s.end, s.y0) for p in profiles for s in p.segments]
