"""Focused tests for corners not covered by the module suites."""

import math

import pytest

from repro import (
    CostModel,
    Request,
    RequestBatch,
    Topology,
    VideoCatalog,
    VideoFile,
    units,
)
from repro.experiments import ExperimentRunner, quick_config


class TestRunnerTopologyOverrides:
    def test_parameter_overrides_applied(self):
        runner = ExperimentRunner(quick_config())
        topo = runner.topology(
            nrate_per_gb=777, srate_per_gb_hour=9, capacity_gb=13
        )
        edge = topo.edges[0]
        assert edge.nrate == pytest.approx(units.per_gb(777))
        s = topo.storages[0]
        assert s.srate == pytest.approx(units.per_gb_hour(9))
        assert s.capacity == pytest.approx(units.gb(13))

    def test_defaults_from_config(self):
        cfg = quick_config(nrate_per_gb=444)
        topo = ExperimentRunner(cfg).topology()
        assert topo.edges[0].nrate == pytest.approx(units.per_gb(444))


class TestLinkLoad:
    def test_saturated_intervals(self):
        from repro.core.schedule import DeliveryInfo, FileSchedule, Schedule
        from repro.sim import SimulationEngine

        topo = Topology()
        topo.add_warehouse("VW")
        topo.add_storage("IS1", srate=0.0, capacity=1e12)
        topo.add_edge("VW", "IS1", nrate=1.0, bandwidth=15.0)
        catalog = VideoCatalog([VideoFile("v", size=100.0, playback=10.0)])
        cm = CostModel(topo, catalog)
        fs = FileSchedule("v")
        for i, t in enumerate((0.0, 2.0)):
            fs.add_delivery(
                DeliveryInfo(
                    "v", ("VW", "IS1"), t, Request(t, "v", f"u{i}", "IS1")
                )
            )
        report = SimulationEngine(cm).run(Schedule([fs]))
        load = report.links[("IS1", "VW")]
        assert load.peak == pytest.approx(20.0)
        assert load.saturated
        ivs = load.timeline.intervals_above(load.capacity)
        assert len(ivs) == 1
        a, b = ivs[0]
        assert a == pytest.approx(2.0)
        assert b == pytest.approx(10.0)

    def test_infinite_capacity_never_saturated(self):
        from repro.core.schedule import DeliveryInfo, FileSchedule, Schedule
        from repro.sim import SimulationEngine

        topo = Topology()
        topo.add_warehouse("VW")
        topo.add_storage("IS1", srate=0.0, capacity=1e12)
        topo.add_edge("VW", "IS1", nrate=1.0)
        catalog = VideoCatalog([VideoFile("v", size=100.0, playback=10.0)])
        cm = CostModel(topo, catalog)
        fs = FileSchedule("v")
        fs.add_delivery(
            DeliveryInfo("v", ("VW", "IS1"), 0.0, Request(0.0, "v", "u", "IS1"))
        )
        report = SimulationEngine(cm).run(Schedule([fs]))
        assert not report.links[("IS1", "VW")].saturated


class TestStagingTask:
    def test_lateness_properties(self):
        from repro.warehouse import StagingTask

        on_time = StagingTask("v", 0, start=0.0, finish=9.0, deadline=10.0)
        late = StagingTask("v", 0, start=0.0, finish=12.0, deadline=10.0)
        assert not on_time.late and on_time.lateness == 0.0
        assert late.late and late.lateness == pytest.approx(2.0)


class TestBillingEdge:
    def test_top_payers_more_than_available(self):
        from repro.billing import BillingStatement, Invoice

        st = BillingStatement()
        st.invoices["a"] = Invoice("a", network=5.0)
        assert len(st.top_payers(10)) == 1

    def test_grand_total_with_overhead_only(self):
        from repro.billing import BillingStatement

        st = BillingStatement(overhead=7.5)
        assert st.billed_total == 0.0
        assert st.grand_total == 7.5


class TestCostModelDefaults:
    def test_flat_multiplier_is_one(self):
        topo = Topology()
        topo.add_warehouse("VW")
        topo.add_storage("IS1", srate=0.0, capacity=1e9)
        topo.add_edge("VW", "IS1", nrate=1.0)
        cm = CostModel(topo, VideoCatalog([VideoFile("v", size=1.0, playback=1.0)]))
        for t in (0.0, 3 * units.HOUR, 20 * units.HOUR, 5 * units.DAY):
            assert cm.network_multiplier(t) == 1.0

