"""Tests for declarative fault plans: spec validation, canonical ordering,
JSON round-trips, and seeded generation."""

import json

import pytest

from repro import FaultKind, FaultPlan, FaultSpec, worked_example_topology
from repro.errors import FaultError


def _spec(**overrides) -> FaultSpec:
    kwargs = dict(
        kind=FaultKind.IS_OUTAGE, target="IS1", t_start=1.0, t_end=2.0
    )
    kwargs.update(overrides)
    return FaultSpec(**kwargs)


class TestFaultSpec:
    def test_reversed_window_rejected(self):
        with pytest.raises(FaultError, match="reversed or empty"):
            _spec(t_start=2.0, t_end=2.0)

    def test_nonfinite_window_rejected(self):
        with pytest.raises(FaultError, match="finite"):
            _spec(t_end=float("inf"))

    def test_severity_out_of_range_rejected(self):
        with pytest.raises(FaultError, match="remaining fraction"):
            _spec(severity=1.5)
        with pytest.raises(FaultError, match="remaining fraction"):
            _spec(severity=-0.1)

    def test_link_target_must_be_pair(self):
        with pytest.raises(FaultError, match="edge pair"):
            _spec(kind=FaultKind.LINK_DOWN, target="IS1")

    def test_node_target_must_be_name(self):
        with pytest.raises(FaultError, match="node name"):
            _spec(target=("VW", "IS1"))
        with pytest.raises(FaultError, match="node name"):
            _spec(target="")

    def test_link_target_normalized_to_canonical_order(self):
        f = _spec(kind=FaultKind.LINK_DOWN, target=("VW", "IS1"))
        assert f.target == ("IS1", "VW")
        assert f.key == "link_down:IS1-VW@1"

    def test_capacity_shrink_needs_positive_severity(self):
        with pytest.raises(FaultError, match="severity > 0"):
            _spec(kind=FaultKind.CAPACITY_SHRINK, severity=0.0)

    def test_window_is_half_open(self):
        f = _spec(t_start=1.0, t_end=2.0)
        assert f.active_at(1.0)
        assert f.active_at(1.999)
        assert not f.active_at(2.0)
        assert not f.active_at(0.999)

    def test_overlaps_half_open(self):
        f = _spec(t_start=1.0, t_end=2.0)
        assert f.overlaps(0.0, 1.5)
        assert f.overlaps(1.5, 9.0)
        assert not f.overlaps(2.0, 3.0)  # fault already over
        assert not f.overlaps(0.0, 1.0)  # fault not yet begun


class TestFaultPlan:
    def test_construction_order_is_canonicalized(self):
        a = _spec(t_start=5.0, t_end=6.0)
        b = _spec(target="IS2", t_start=1.0, t_end=2.0)
        assert FaultPlan((a, b)) == FaultPlan((b, a))
        assert FaultPlan((a, b)).faults == (b, a)

    def test_overlapping_same_resource_windows_merge(self):
        plan = FaultPlan(
            (
                _spec(t_start=1.0, t_end=5.0, label="first"),
                _spec(t_start=4.0, t_end=9.0, label="second"),
            )
        )
        assert plan.faults == (_spec(t_start=1.0, t_end=9.0, label="first"),)

    def test_touching_half_open_windows_merge(self):
        plan = FaultPlan(
            (_spec(t_start=0.0, t_end=5.0), _spec(t_start=5.0, t_end=9.0))
        )
        assert len(plan) == 1
        assert plan.faults[0].window == (0.0, 9.0)

    def test_contained_window_absorbed(self):
        plan = FaultPlan(
            (_spec(t_start=1.0, t_end=9.0), _spec(t_start=3.0, t_end=4.0))
        )
        assert plan.faults == (_spec(t_start=1.0, t_end=9.0),)

    def test_duplicate_faults_dedup(self):
        plan = FaultPlan((_spec(), _spec()))
        assert plan.faults == (_spec(),)

    def test_disjoint_windows_kept_apart(self):
        a, b = _spec(t_start=1.0, t_end=2.0), _spec(t_start=3.0, t_end=4.0)
        assert FaultPlan((a, b)).faults == (a, b)

    def test_different_resources_never_merge(self):
        a = _spec(t_start=1.0, t_end=5.0)
        b = _spec(t_start=4.0, t_end=9.0, target="IS2")
        assert len(FaultPlan((a, b))) == 2

    def test_different_severities_kept_apart(self):
        a = _spec(
            kind=FaultKind.CAPACITY_SHRINK,
            severity=0.5,
            t_start=1.0,
            t_end=5.0,
        )
        b = _spec(
            kind=FaultKind.CAPACITY_SHRINK,
            severity=0.25,
            t_start=4.0,
            t_end=9.0,
        )
        assert len(FaultPlan((a, b))) == 2

    def test_merged_plans_have_stable_keys(self):
        # Amending a feed with a re-reported (extended) fault keeps the
        # merged spec's dedup key anchored at the earliest start.
        first = FaultPlan((_spec(t_start=1.0, t_end=5.0),))
        amended = FaultPlan(
            (_spec(t_start=1.0, t_end=5.0), _spec(t_start=2.0, t_end=7.0))
        )
        assert [f.key for f in first] == [f.key for f in amended]

    def test_iteration_len_bool(self):
        plan = FaultPlan((_spec(),))
        assert len(plan) == 1 and bool(plan)
        assert list(plan) == [_spec()]
        assert not FaultPlan()

    def test_horizon(self):
        plan = FaultPlan((_spec(t_start=3.0, t_end=9.0), _spec(target="IS2")))
        assert plan.horizon == (1.0, 9.0)
        with pytest.raises(FaultError, match="horizon"):
            FaultPlan().horizon

    def test_save_load_roundtrip(self, tmp_path):
        plan = FaultPlan(
            (
                _spec(label="outage"),
                _spec(
                    kind=FaultKind.LINK_DEGRADED,
                    target=("VW", "IS1"),
                    t_start=4.0,
                    t_end=7.5,
                    severity=0.4,
                ),
            ),
            name="drill",
            seed=7,
        )
        path = tmp_path / "plan.json"
        plan.save(path)
        assert FaultPlan.load(path) == plan
        FaultPlan.load(path).save(tmp_path / "resaved.json")
        assert (tmp_path / "resaved.json").read_bytes() == path.read_bytes()
        doc = json.loads(path.read_text())
        assert doc["format_version"] == 1
        assert doc["seed"] == 7

    def test_unsupported_version_rejected(self):
        with pytest.raises(FaultError, match="format version"):
            FaultPlan.from_dict({"format_version": 99, "faults": []})

    def test_malformed_document_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(FaultError, match="cannot read"):
            FaultPlan.load(path)
        with pytest.raises(FaultError, match="malformed"):
            FaultPlan.from_dict({"faults": [{"kind": "is_outage"}]})

    @pytest.mark.parametrize("seed", ["x", [], 1.5, True])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(FaultError, match="seed must be an integer"):
            FaultPlan.from_dict({"faults": [], "seed": seed})


class TestGenerate:
    def test_same_seed_same_plan(self):
        topo = worked_example_topology()
        kwargs = dict(seed=11, horizon=(0.0, 100.0), n_faults=5)
        assert FaultPlan.generate(topo, **kwargs) == FaultPlan.generate(
            topo, **kwargs
        )

    def test_different_seeds_differ(self):
        topo = worked_example_topology()
        plans = {
            FaultPlan.generate(topo, seed=s, horizon=(0.0, 100.0), n_faults=4)
            for s in range(5)
        }
        assert len(plans) > 1

    def test_faults_within_horizon_and_valid(self):
        topo = worked_example_topology()
        plan = FaultPlan.generate(topo, seed=3, horizon=(10.0, 50.0), n_faults=8)
        assert len(plan) == 8
        assert plan.seed == 3
        for f in plan:
            assert 10.0 <= f.t_start < f.t_end <= 50.0
            if f.kind in (FaultKind.IS_OUTAGE, FaultKind.LINK_DOWN):
                assert f.severity == 0.0
            else:
                assert 0.2 <= f.severity <= 0.8

    def test_bad_arguments_rejected(self):
        topo = worked_example_topology()
        with pytest.raises(FaultError, match="n_faults"):
            FaultPlan.generate(topo, seed=1, horizon=(0.0, 1.0), n_faults=0)
        with pytest.raises(FaultError, match="horizon"):
            FaultPlan.generate(topo, seed=1, horizon=(5.0, 5.0))

    def test_kind_restriction_respected(self):
        topo = worked_example_topology()
        plan = FaultPlan.generate(
            topo,
            seed=2,
            horizon=(0.0, 10.0),
            n_faults=6,
            kinds=(FaultKind.LINK_DEGRADED,),
        )
        assert {f.kind for f in plan} == {FaultKind.LINK_DEGRADED}

    def test_warehouse_loss_is_opt_in(self):
        """Default generation never downs a warehouse -- seeded plans from
        before the replication work must replay unchanged."""
        topo = worked_example_topology()
        for seed in range(6):
            plan = FaultPlan.generate(
                topo, seed=seed, horizon=(0.0, 100.0), n_faults=8
            )
            assert FaultKind.WAREHOUSE_LOSS not in {f.kind for f in plan}

    def test_warehouse_loss_generation_targets_warehouses(self):
        topo = worked_example_topology()
        plan = FaultPlan.generate(
            topo,
            seed=4,
            horizon=(0.0, 10.0),
            n_faults=4,
            kinds=(FaultKind.WAREHOUSE_LOSS,),
        )
        warehouses = {w.name for w in topo.warehouses}
        assert len(plan) == 4
        for f in plan:
            assert f.kind is FaultKind.WAREHOUSE_LOSS
            assert f.target in warehouses
            assert f.severity == 0.0
