"""Tests for the schedule data model."""

import copy
import dataclasses
import pickle

import pytest

from repro import (
    DeliveryInfo,
    FileSchedule,
    Request,
    ResidencyInfo,
    Schedule,
    VideoFile,
)
from repro.errors import ScheduleError


def _req(t=0.0, video="v", user="u", loc="IS1"):
    return Request(t, video, user, loc)


def _delivery(route=("VW", "IS1"), t=0.0, video="v", user="u"):
    return DeliveryInfo(video, tuple(route), t, _req(t, video, user, route[-1]))


class TestDeliveryInfo:
    def test_fields(self):
        d = _delivery()
        assert d.source == "VW" and d.destination == "IS1" and d.hops == 1

    def test_single_node_route(self):
        d = _delivery(route=("IS1",))
        assert d.hops == 0
        assert d.source == d.destination == "IS1"

    def test_empty_route_rejected(self):
        with pytest.raises(ScheduleError):
            DeliveryInfo("v", (), 0.0, _req())

    def test_video_mismatch_rejected(self):
        with pytest.raises(ScheduleError, match="does not match request"):
            DeliveryInfo("other", ("VW", "IS1"), 0.0, _req(video="v"))

    def test_route_must_end_at_local_storage(self):
        with pytest.raises(ScheduleError, match="local"):
            DeliveryInfo("v", ("VW", "IS2"), 0.0, _req(loc="IS1"))

    def test_nonfinite_start_rejected(self):
        with pytest.raises(ScheduleError):
            DeliveryInfo("v", ("VW", "IS1"), float("inf"), _req())


class TestResidencyInfo:
    def test_span(self):
        c = ResidencyInfo("v", "IS1", "VW", 10.0, 40.0)
        assert c.span == 30.0

    def test_profile_consistency(self):
        video = VideoFile("v", size=100.0, playback=20.0)
        c = ResidencyInfo("v", "IS1", "VW", 0.0, 30.0)
        p = c.profile(video)
        assert p.peak == 100.0
        assert p.support == (0.0, 50.0)

    def test_profile_video_mismatch(self):
        video = VideoFile("other", size=100.0, playback=20.0)
        c = ResidencyInfo("v", "IS1", "VW", 0.0, 30.0)
        with pytest.raises(ScheduleError):
            c.profile(video)

    def test_extended(self):
        c = ResidencyInfo("v", "IS1", "VW", 0.0, 10.0, ("u1",))
        c2 = c.extended(25.0, "u2")
        assert c2.t_last == 25.0
        assert c2.service_list == ("u1", "u2")
        assert c.t_last == 10.0  # original untouched

    def test_extended_cannot_shrink(self):
        c = ResidencyInfo("v", "IS1", "VW", 0.0, 10.0)
        with pytest.raises(ScheduleError):
            c.extended(5.0, "u")

    def test_reversed_interval_rejected(self):
        with pytest.raises(ScheduleError):
            ResidencyInfo("v", "IS1", "VW", 10.0, 5.0)

    def test_self_source_rejected(self):
        with pytest.raises(ScheduleError):
            ResidencyInfo("v", "IS1", "IS1", 0.0, 10.0)

    def test_nonfinite_interval_rejected(self):
        for t_start, t_last in ((0.0, float("inf")), (float("-inf"), 0.0)):
            with pytest.raises(ScheduleError, match="finite"):
                ResidencyInfo("v", "IS1", "VW", t_start, t_last)


class TestRecordRoundTrips:
    """The slotted frozen records copy, pickle, replace, hash and compare
    like plain frozen dataclasses."""

    @pytest.fixture(params=["delivery", "residency", "relay"])
    def record(self, request):
        return {
            "delivery": _delivery(route=("VW", "IS2", "IS1"), t=3.5),
            "residency": ResidencyInfo("v", "IS1", "VW", 1.0, 4.0, ("u1", "u2")),
            "relay": ResidencyInfo("v", "IS1", "IS2", 5.0, 5.0),
        }[request.param]

    def test_slotted_without_instance_dict(self, record):
        assert "__slots__" in type(record).__dict__
        assert not hasattr(record, "__dict__")

    def test_copy_and_pickle_round_trip(self, record):
        for clone in (
            copy.copy(record),
            copy.deepcopy(record),
            pickle.loads(pickle.dumps(record)),
        ):
            assert clone == record
            assert hash(clone) == hash(record)
            assert repr(clone) == repr(record)

    def test_replace_rechecks(self, record):
        field = "start_time" if isinstance(record, DeliveryInfo) else "t_last"
        moved = dataclasses.replace(record, **{field: getattr(record, field) + 1.0})
        assert moved != record
        assert dataclasses.replace(moved, **{field: getattr(record, field)}) == record
        with pytest.raises(ScheduleError):
            dataclasses.replace(record, **{field: float("inf")})

    def test_frozen(self, record):
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.video_id = "w"

    def test_equal_records_hash_equal(self):
        a = ResidencyInfo("v", "IS1", "VW", 1.0, 4.0, ("u1",))
        b = ResidencyInfo("v", "IS1", "VW", 1.0, 4.0, ("u1",))
        assert a == b and hash(a) == hash(b)
        assert len({a, b, _delivery(), _delivery()}) == 2


class TestFileSchedule:
    def test_add_and_query(self):
        fs = FileSchedule("v")
        fs.add_delivery(_delivery())
        fs.add_residency(ResidencyInfo("v", "IS1", "VW", 0.0, 10.0))
        assert [d.request.user_id for d in fs.deliveries] == ["u"]
        assert len(fs.residencies_at("IS1")) == 1
        assert fs.residencies_at("IS2") == []

    def test_video_mismatch_rejected(self):
        fs = FileSchedule("other")
        with pytest.raises(ScheduleError):
            fs.add_delivery(_delivery())
        with pytest.raises(ScheduleError):
            fs.add_residency(ResidencyInfo("v", "IS1", "VW", 0.0, 10.0))

    def test_pruned_drops_zero_extent(self):
        fs = FileSchedule("v")
        fs.add_residency(ResidencyInfo("v", "IS1", "VW", 5.0, 5.0))
        fs.add_residency(ResidencyInfo("v", "IS2", "VW", 5.0, 6.0))
        pruned = fs.pruned()
        assert len(pruned.residencies) == 1
        assert pruned.residencies[0].location == "IS2"
        assert len(fs.residencies) == 2  # original untouched


class TestSchedule:
    def test_set_and_get_file(self):
        s = Schedule()
        fs = FileSchedule("v")
        s.set_file(fs)
        assert s.file("v") is fs
        assert "v" in s and "w" not in s
        assert len(s) == 1

    def test_missing_file(self):
        with pytest.raises(ScheduleError):
            Schedule().file("v")

    def test_aggregates(self):
        s = Schedule()
        fs1 = FileSchedule("a")
        fs1.add_delivery(_delivery(video="a"))
        fs1.add_residency(ResidencyInfo("a", "IS1", "VW", 0.0, 10.0))
        fs2 = FileSchedule("b")
        fs2.add_residency(ResidencyInfo("b", "IS1", "VW", 0.0, 5.0))
        s.set_file(fs1)
        s.set_file(fs2)
        assert len(s.deliveries) == 1
        assert len(s.residencies) == 2
        assert len(s.residencies_at("IS1")) == 2

    def test_copy_is_deep_enough(self):
        s = Schedule([FileSchedule("a")])
        s2 = s.copy()
        s2.file("a").add_residency(ResidencyInfo("a", "IS1", "VW", 0.0, 1.0))
        assert s.file("a").residencies == []

    def test_set_file_replaces(self):
        s = Schedule([FileSchedule("a")])
        fs_new = FileSchedule("a")
        fs_new.add_residency(ResidencyInfo("a", "IS1", "VW", 0.0, 1.0))
        s.set_file(fs_new)
        assert len(s.file("a").residencies) == 1
        assert len(s) == 1

    def test_pruned(self):
        fs = FileSchedule("a")
        fs.add_residency(ResidencyInfo("a", "IS1", "VW", 0.0, 0.0))
        s = Schedule([fs]).pruned()
        assert s.residencies == []
