"""Tests for the log record schema."""

import pytest

from repro.logs import (
    CHUNK_SIZE,
    DeviceType,
    Direction,
    LogRecord,
    RequestKind,
    iter_chunks,
    iter_file_ops,
)
from tests.helpers import sort_by_time


def make_record(**overrides):
    defaults = dict(
        timestamp=1.0,
        device_type=DeviceType.ANDROID,
        device_id="dev-1",
        user_id=7,
        kind=RequestKind.CHUNK,
        direction=Direction.STORE,
        volume=1024,
        processing_time=0.5,
        server_time=0.1,
        rtt=0.09,
    )
    defaults.update(overrides)
    return LogRecord(**defaults)


def test_chunk_size_is_512_kib():
    assert CHUNK_SIZE == 524288


def test_mobile_device_types():
    assert DeviceType.ANDROID.is_mobile
    assert DeviceType.IOS.is_mobile
    assert not DeviceType.PC.is_mobile


def test_record_properties():
    record = make_record()
    assert record.is_chunk
    assert not record.is_file_op
    assert record.is_mobile


def test_transfer_time_subtracts_server_time():
    record = make_record(processing_time=0.5, server_time=0.1)
    assert record.transfer_time == pytest.approx(0.4)


def test_transfer_time_never_negative():
    record = make_record(processing_time=0.1, server_time=0.5)
    assert record.transfer_time == 0.0


def test_negative_volume_rejected():
    with pytest.raises(ValueError):
        make_record(volume=-1)


def test_negative_processing_time_rejected():
    with pytest.raises(ValueError):
        make_record(processing_time=-0.1)


def test_negative_rtt_rejected():
    with pytest.raises(ValueError):
        make_record(rtt=-0.1)


def test_file_op_with_payload_rejected():
    with pytest.raises(ValueError):
        make_record(kind=RequestKind.FILE_OP, volume=10)


def test_file_op_zero_volume_ok():
    record = make_record(kind=RequestKind.FILE_OP, volume=0)
    assert record.is_file_op


def test_with_timestamp_copies():
    record = make_record(timestamp=1.0)
    shifted = record.with_timestamp(99.0)
    assert shifted.timestamp == 99.0
    assert record.timestamp == 1.0
    assert shifted.volume == record.volume


def test_sort_by_time_orders_by_timestamp_then_user():
    records = [
        make_record(timestamp=2.0, user_id=1),
        make_record(timestamp=1.0, user_id=9),
        make_record(timestamp=1.0, user_id=2),
    ]
    ordered = sort_by_time(records)
    assert [r.timestamp for r in ordered] == [1.0, 1.0, 2.0]
    assert [r.user_id for r in ordered] == [2, 9, 1]


def test_iter_file_ops_and_chunks_partition():
    records = [
        make_record(kind=RequestKind.FILE_OP, volume=0),
        make_record(kind=RequestKind.CHUNK),
        make_record(kind=RequestKind.FILE_OP, volume=0),
    ]
    assert len(list(iter_file_ops(records))) == 2
    assert len(list(iter_chunks(records))) == 1


def test_session_id_excluded_from_equality():
    a = make_record(session_id=1)
    b = make_record(session_id=2)
    assert a == b
