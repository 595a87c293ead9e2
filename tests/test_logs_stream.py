"""Tests for streaming aggregation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logs import (
    DeviceType,
    Direction,
    LogRecord,
    RequestKind,
    RunningStats,
    VolumeTally,
    devices_by_user,
    group_by_user,
    tally_by_hour,
    tally_by_user,
)


def chunk(user=1, direction=Direction.STORE, volume=100, ts=0.0,
          device=DeviceType.ANDROID, device_id="d1"):
    return LogRecord(
        timestamp=ts,
        device_type=device,
        device_id=device_id,
        user_id=user,
        kind=RequestKind.CHUNK,
        direction=direction,
        volume=volume,
    )


def file_op(user=1, direction=Direction.STORE, ts=0.0):
    return LogRecord(
        timestamp=ts,
        device_type=DeviceType.ANDROID,
        device_id="d1",
        user_id=user,
        kind=RequestKind.FILE_OP,
        direction=direction,
    )


class TestVolumeTally:
    def test_counts_by_direction_and_kind(self):
        tally = VolumeTally()
        tally.add(chunk(direction=Direction.STORE, volume=10))
        tally.add(chunk(direction=Direction.RETRIEVE, volume=30))
        tally.add(file_op(direction=Direction.STORE))
        assert tally.stored_bytes == 10
        assert tally.retrieved_bytes == 30
        assert tally.store_file_ops == 1
        assert tally.retrieve_file_ops == 0
        assert tally.total_bytes == 40
        assert tally.total_file_ops == 1

    def test_merge(self):
        a, b = VolumeTally(), VolumeTally()
        a.add(chunk(volume=5))
        b.add(chunk(direction=Direction.RETRIEVE, volume=7))
        a.merge(b)
        assert a.stored_bytes == 5
        assert a.retrieved_bytes == 7

    def test_ratio_with_epsilon(self):
        tally = VolumeTally()
        tally.add(chunk(volume=1000))
        assert tally.store_retrieve_ratio() == pytest.approx(1001.0)


def test_tally_by_user_groups_correctly():
    records = [chunk(user=1, volume=10), chunk(user=2, volume=20),
               chunk(user=1, volume=5)]
    tallies = tally_by_user(records)
    assert tallies[1].stored_bytes == 15
    assert tallies[2].stored_bytes == 20


def test_tally_by_hour_bins():
    records = [chunk(ts=10.0, volume=1), chunk(ts=3600.0, volume=2),
               chunk(ts=7300.0, volume=4)]
    tallies = tally_by_hour(records)
    assert tallies[0].stored_bytes == 1
    assert tallies[1].stored_bytes == 2
    assert tallies[2].stored_bytes == 4


def test_tally_by_hour_rejects_bad_bin():
    with pytest.raises(ValueError):
        tally_by_hour([], bin_seconds=0)


def test_devices_by_user_partitions_platforms():
    records = [
        chunk(user=1, device=DeviceType.ANDROID, device_id="m1"),
        chunk(user=1, device=DeviceType.PC, device_id="p1"),
        chunk(user=1, device=DeviceType.IOS, device_id="m2"),
    ]
    devices = devices_by_user(records)[1]
    assert devices.uses_pc
    assert devices.uses_mobile
    assert devices.mobile_device_count == 2


def test_group_by_user_sorts_within_group():
    records = [chunk(user=1, ts=5.0), chunk(user=1, ts=1.0), chunk(user=2, ts=3.0)]
    groups = group_by_user(records)
    assert [r.timestamp for r in groups[1]] == [1.0, 5.0]
    assert len(groups[2]) == 1


class TestRunningStats:
    def test_empty_mean_raises(self):
        with pytest.raises(ValueError):
            RunningStats().mean

    def test_single_value(self):
        stats = RunningStats()
        stats.add(3.0)
        assert stats.mean == 3.0
        assert stats.variance == 0.0
        assert stats.minimum == stats.maximum == 3.0

    @given(
        values=st.lists(
            st.floats(-1e6, 1e6, allow_nan=False), min_size=2, max_size=100
        )
    )
    @settings(max_examples=100)
    def test_matches_numpy(self, values):
        stats = RunningStats()
        for v in values:
            stats.add(v)
        assert stats.mean == pytest.approx(np.mean(values), rel=1e-9, abs=1e-6)
        assert stats.variance == pytest.approx(
            np.var(values, ddof=1), rel=1e-6, abs=1e-4
        )
        assert stats.minimum == min(values)
        assert stats.maximum == max(values)
