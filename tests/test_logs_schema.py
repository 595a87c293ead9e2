"""Tests for the log record schema."""

import copy
import dataclasses
import inspect
import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logs import (
    CHUNK_SIZE,
    DeviceType,
    Direction,
    LogRecord,
    RequestKind,
    ResultCode,
)
from repro.logs.columnar import ColumnarTrace
from repro.logs.io import write_tsv
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


#: A non-member for each enum field: its value string, and another enum's
#: member with the same value.
NON_MEMBERS = [
    ("device_type", "android"),
    ("device_type", Direction.STORE),
    ("kind", "chunk"),
    ("kind", ResultCode.OK),
    ("direction", "store"),
    ("direction", RequestKind.CHUNK),
    ("result", "ok"),
    ("result", None),
]


@pytest.mark.parametrize(("field", "value"), NON_MEMBERS)
@pytest.mark.parametrize("sink", ["constructor", "from_records", "write_tsv"])
def test_enum_fields_reject_non_members(tmp_path, field, value, sink):
    message = f"^{field} must be a .*, got {re.escape(repr(value))}$"
    lazy = (make_record(**{field: value}) for _ in range(1))
    with pytest.raises(ValueError, match=message):
        if sink == "constructor":
            next(lazy)
        elif sink == "from_records":
            ColumnarTrace.from_records(lazy)
        else:
            write_tsv(lazy, tmp_path / "t.tsv")


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


def test_session_id_excluded_from_equality():
    a = make_record(session_id=1)
    b = make_record(session_id=2)
    assert a == b


# ----------------------------------------------------------------------
# The hand-written constructor against the dataclass-generated one
# ----------------------------------------------------------------------

#: The frozen ``__init__`` ``@dataclass`` generates for LogRecord's fields
#: (with its ``__post_init__`` hook): the constructor LogRecord's own
#: ``__init__`` must behave exactly like.
_GENERATED_INIT = dataclasses.make_dataclass(
    "GeneratedLogRecord",
    [
        (f.name, f.type, dataclasses.field(default=f.default, compare=f.compare))
        for f in dataclasses.fields(LogRecord)
    ],
    frozen=True,
    namespace={"__post_init__": LogRecord.__post_init__},
).__init__

_FIELD_NAMES = [f.name for f in dataclasses.fields(LogRecord)]
_OPTIONAL = [
    f.name
    for f in dataclasses.fields(LogRecord)
    if f.default is not dataclasses.MISSING
]


def generated_record(*args, **kwargs):
    """A LogRecord built by the generated frozen ``__init__``."""
    record = object.__new__(LogRecord)
    _GENERATED_INIT(record, *args, **kwargs)
    return record


def test_constructor_signature_matches_generated_init():
    # Parameters only: under postponed annotations the written ``-> None``
    # is the string "None", where the generated one holds None itself.
    assert (
        inspect.signature(LogRecord.__init__).parameters
        == inspect.signature(_GENERATED_INIT).parameters
    )


_times = st.floats(allow_nan=True) | st.sampled_from([0.0, -0.0, -1e-9])
_field_values = st.fixed_dictionaries(
    {
        "timestamp": st.floats(allow_nan=True),
        "device_type": st.sampled_from(DeviceType),
        "device_id": st.text(max_size=4),
        "user_id": st.integers(),
        "kind": st.sampled_from(RequestKind),
        "direction": st.sampled_from(Direction),
        "volume": st.integers(-3, 3) | st.integers(),
        "processing_time": _times,
        "server_time": _times,
        "rtt": _times,
        "proxied": st.booleans(),
        "result": st.sampled_from(ResultCode),
        "session_id": st.integers(),
    }
)


@settings(max_examples=400, deadline=None)
@given(
    values=_field_values,
    omitted=st.sets(st.sampled_from(_OPTIONAL)),
    positional=st.booleans(),
)
def test_constructor_matches_generated_init(values, omitted, positional):
    if positional:
        # Positionally, only a trailing run of defaults can be left out.
        n_args = len(_FIELD_NAMES) - len(omitted)
        args, kwargs = [values[name] for name in _FIELD_NAMES[:n_args]], {}
    else:
        args = []
        kwargs = {name: v for name, v in values.items() if name not in omitted}
    try:
        expected = generated_record(*args, **kwargs)
    except ValueError as error:
        with pytest.raises(ValueError) as raised:
            LogRecord(*args, **kwargs)
        assert str(raised.value) == str(error)
        return
    record = LogRecord(*args, **kwargs)
    # Each slot holds the very object passed (or the same default).
    for name in _FIELD_NAMES:
        assert getattr(record, name) is getattr(expected, name)
    assert record == expected
    assert record.session_id == expected.session_id
    # One set element: equal hashes (a set never compares across buckets).
    assert len({record, expected}) == 1
    assert repr(record) == repr(expected)


def test_record_is_frozen_and_round_trips():
    record = make_record(session_id=5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.volume = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        del record.rtt
    changed = dataclasses.replace(record, volume=7)
    assert changed.volume == 7 and changed.session_id == 5
    assert dataclasses.replace(record) == record
    with pytest.raises(ValueError, match="volume must be >= 0"):
        dataclasses.replace(record, volume=-1)
    copies = [copy.copy(record), copy.deepcopy(record)] + [
        pickle.loads(pickle.dumps(record, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    for other in copies:
        assert type(other) is LogRecord
        assert other == record and other.session_id == record.session_id
        assert len({other, record}) == 1
