"""The analysis path's per-row rewrites against the definitions they replaced.

* the streaming device fold's triple dedup
  (:func:`repro.logs.stream.unique_rows`) against the row-wise
  ``np.unique(axis=0)`` fold (:class:`tests.helpers.OracleDeviceFold`),
  and :func:`devices_by_user_columnar`'s overflow fallback against the
  record path;
* the generator's column-run emission against the per-file row
  emission (:class:`tests.helpers.PerFileEmissionGenerator`), column for
  column and bit for bit;
* :meth:`TransferModel.rate`, which the generator prices chunks with,
  against :meth:`TransferModel.transfer_time`;
* the one-loop :func:`summarize` against the per-record fold
  (:func:`tests.helpers.summarize_per_record`), every field.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.streaming import _DeviceFold
from repro.logs.columnar import ColumnarTrace
from repro.logs.schema import (
    DeviceType,
    Direction,
    LogRecord,
    RequestKind,
    ResultCode,
)
from repro.logs.stream import devices_by_user, devices_by_user_columnar, unique_rows
from repro.logs.summary import TraceSummary, summarize
from repro.service.frontend import TransferModel
from repro.workload import GeneratorOptions, TraceGenerator
from tests.helpers import (
    OracleDeviceFold,
    PerFileEmissionGenerator,
    summarize_per_record,
)
from tests.test_generator_rows import assert_same_columns
from tests.test_logs_columnar import valid_record

# ----------------------------------------------------------------------
# Triple dedup and the streaming device fold
# ----------------------------------------------------------------------

int64s = st.integers(-(2**63), 2**63 - 1)


@given(
    rows=st.lists(
        st.tuples(st.sampled_from([-(2**63), -1, 0, 1, 2**63 - 1]) | int64s,
                  st.integers(-3, 3), st.integers(0, 1)),
        max_size=60,
    )
)
@settings(max_examples=200, deadline=None)
def test_unique_rows_matches_numpy_unique_axis0(rows):
    columns = [np.asarray(c, dtype=np.int64) for c in zip(*rows)] or [
        np.empty(0, dtype=np.int64)
    ] * 3
    want = np.unique(np.stack(columns, axis=1), axis=0)
    got = unique_rows(*columns)
    assert got.dtype == np.int64
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def test_unique_rows_takes_bool_and_narrow_columns():
    users = np.array([3, 1, 3, 1], dtype=np.int64)
    codes = np.array([0, 2, 0, 2], dtype=np.int32)
    mobile = np.array([True, False, True, True])
    assert unique_rows(users, codes, mobile).tolist() == [
        [1, 2, 0],
        [1, 2, 1],
        [3, 0, 1],
    ]


#: Per-user platform sets: all mobile, all PC, or both.
PLATFORMS = (
    (DeviceType.ANDROID,),
    (DeviceType.IOS, DeviceType.ANDROID),
    (DeviceType.PC,),
    (DeviceType.ANDROID, DeviceType.PC),
    (DeviceType.IOS, DeviceType.ANDROID, DeviceType.PC),
)


@st.composite
def user_sorted_stream(draw):
    """A user-sorted trace cut into blocks, some re-pooled, some empty.

    Cuts fall anywhere, so a user spans block boundaries; a cut repeated
    gives an empty block.  A re-pooled block carries its own device pool
    (a reversed copy with the codes remapped), the case the fold re-codes.
    """
    records = []
    for user in sorted(draw(st.sets(st.integers(0, 2**40), min_size=1, max_size=6))):
        platforms = draw(st.sampled_from(PLATFORMS))
        for _ in range(draw(st.integers(1, 8))):
            records.append(
                LogRecord(
                    timestamp=float(len(records)),
                    device_type=draw(st.sampled_from(platforms)),
                    device_id=f"d{draw(st.integers(0, 4))}",
                    user_id=user,
                    kind=RequestKind.CHUNK,
                    direction=Direction.STORE,
                )
            )
    trace = ColumnarTrace.from_records(records)
    cuts = sorted(draw(st.lists(st.integers(0, len(trace)), max_size=6)))
    bounds = [0, *cuts, len(trace)]
    blocks = []
    for lo, hi in zip(bounds, bounds[1:]):
        block = trace.select(np.arange(lo, hi))
        if draw(st.booleans()) and len(block.device_pool) > 1:
            pool = block.device_pool[::-1]
            remap = np.arange(len(pool))[::-1]
            block = ColumnarTrace(
                device_pool=pool,
                **{**block.columns(), "device_code": remap[block.device_code]},
            )
        blocks.append(block)
    return trace, blocks


def fold_both(blocks):
    fold, oracle = _DeviceFold(), OracleDeviceFold()
    for block in blocks:
        fold.feed(block)
        oracle.feed(block)
    return fold, oracle


@given(stream=user_sorted_stream())
@settings(max_examples=150, deadline=None)
def test_device_fold_matches_unique_axis0_fold(stream):
    trace, blocks = stream
    fold, oracle = fold_both(blocks)
    assert len(fold._triples) == len(oracle.triples)
    for got, want in zip(fold._triples, oracle.triples):
        assert np.array_equal(got, want)
    users = np.unique(trace.user_id)
    got, want = fold.finalize(users), oracle.finalize(users)
    assert set(got) == set(want)
    for name in want:
        assert got[name].dtype == want[name].dtype, name
        assert np.array_equal(got[name], want[name]), name


def test_device_fold_of_empty_blocks_only():
    empty = ColumnarTrace.empty()
    fold, oracle = fold_both([empty, empty])
    users = np.empty(0, dtype=np.int64)
    got, want = fold.finalize(users), oracle.finalize(users)
    for name in want:
        assert np.array_equal(got[name], want[name])


def _records(rows):
    return [
        LogRecord(
            timestamp=float(i),
            device_type=device_type,
            device_id=device_id,
            user_id=user,
            kind=RequestKind.FILE_OP,
            direction=Direction.STORE,
        )
        for i, (user, device_id, device_type) in enumerate(rows)
    ]


@pytest.mark.parametrize("big", [2**62, 2**63 - 1, -1, -(2**63)])
def test_devices_by_user_columnar_overflow_fallback(big):
    """User ids a packed key cannot hold take the triple-dedup fallback."""
    rows = [
        (big, "a", DeviceType.ANDROID),
        (5, "b", DeviceType.PC),
        (big, "c", DeviceType.PC),
        (big, "a", DeviceType.ANDROID),
        (5, "a", DeviceType.IOS),
        (big, "d", DeviceType.IOS),
        (5, "b", DeviceType.PC),
    ]
    records = _records(rows)
    got = devices_by_user_columnar(ColumnarTrace.from_records(records))
    assert got == devices_by_user(records)
    assert list(got) == sorted(got)


# ----------------------------------------------------------------------
# Generator emission
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", [1, 7, 20161114])
@pytest.mark.parametrize(
    "options",
    [
        GeneratorOptions(max_chunks_per_file=1),
        GeneratorOptions(max_chunks_per_file=4),
        GeneratorOptions(max_chunks_per_file=8),
        GeneratorOptions(max_chunks_per_file=64),
        GeneratorOptions(emit_chunks=False),
    ],
    ids=["chunks1", "chunks4", "chunks8", "chunks64", "ops-only"],
)
def test_one_loop_emission_matches_per_file_emission(seed, options):
    kwargs = dict(n_pc_only_users=8, options=options, seed=seed)
    generator = TraceGenerator(40, **kwargs)
    oracle = PerFileEmissionGenerator(40, **kwargs)
    users = generator.population
    assert any(not user.mobile_devices for user in users)
    assert any(user.dedup_only for user in users)
    for user in users:
        # Byte images tell -0.0 from 0.0 and compare every float to the bit.
        (got,) = generator.column_batches([user], 1)
        assert_same_columns(
            got, ColumnarTrace.from_rows(oracle.generate_user_rows(user))
        )


# ----------------------------------------------------------------------
# TransferModel.rate
# ----------------------------------------------------------------------

BAD_LINKS = [(0.0, 1e6), (-0.1, 1e6), (0.1, 0.0), (0.1, -5.0), (0.0, 0.0)]


@pytest.mark.parametrize(("rtt", "bandwidth"), BAD_LINKS)
@pytest.mark.parametrize("direction", list(Direction))
def test_rate_raises_where_transfer_time_raises(rtt, bandwidth, direction):
    model = TransferModel()
    with pytest.raises(ValueError) as rate_error:
        model.rate(rtt, bandwidth, direction)
    for size in (0, 1, 10**6):
        with pytest.raises(ValueError) as time_error:
            model.transfer_time(size, rtt, bandwidth, direction)
        assert str(time_error.value) == str(rate_error.value)


def test_transfer_time_checks_size_before_the_link():
    with pytest.raises(ValueError, match="size must be >= 0"):
        TransferModel().transfer_time(-1, 0.0, 0.0, Direction.STORE)


@given(
    size=st.integers(0, 2**40),
    rtt=st.floats(1e-6, 10.0),
    bandwidth=st.floats(1.0, 1e10),
    direction=st.sampled_from(list(Direction)),
    restarted=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_transfer_time_is_size_over_rate(size, rtt, bandwidth, direction, restarted):
    model = TransferModel()
    window = model.server_rwnd if direction is Direction.STORE else model.client_rwnd
    rate = model.rate(rtt, bandwidth, direction)
    assert rate == min(window / rtt, bandwidth)
    want = 0.0
    if size:
        want = size / rate
        if restarted:
            want += model.restart_penalty_rtts * rtt
    got = model.transfer_time(size, rtt, bandwidth, direction, restarted)
    assert got.hex() == want.hex()


# ----------------------------------------------------------------------
# Summary fold
# ----------------------------------------------------------------------


def assert_same_summary(got: TraceSummary, want: TraceSummary) -> None:
    for f in dataclasses.fields(TraceSummary):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, float):
            assert a.hex() == b.hex(), f.name
        elif isinstance(b, (set, dict)):
            assert a == b, f.name
            assert list(a) == list(b), f.name
        else:
            assert a == b, f.name
    assert got.render() == want.render()


@st.composite
def summary_records(draw):
    record = draw(valid_record())
    if draw(st.integers(0, 9)) == 0:
        record = dataclasses.replace(record, timestamp=math.nan)
    return record


@given(records=st.lists(summary_records(), max_size=40))
@settings(max_examples=200, deadline=None)
def test_summarize_matches_per_record_fold(records):
    assert_same_summary(summarize(records), summarize_per_record(records))


def _failed(user: int, device_type: DeviceType, proxied: bool) -> LogRecord:
    return LogRecord(
        timestamp=float(user),
        device_type=device_type,
        device_id=f"dev{user}",
        user_id=user,
        kind=RequestKind.CHUNK,
        direction=Direction.RETRIEVE,
        result=ResultCode.TIMEOUT,
        proxied=proxied,
    )


@pytest.mark.parametrize(
    "records",
    [
        [],
        [_failed(1, DeviceType.IOS, False)],
        [_failed(u, t, u % 2 == 0) for u in range(4) for t in DeviceType],
        [_failed(u, DeviceType.PC, True) for u in range(3)],
        [dataclasses.replace(_failed(0, DeviceType.IOS, False), timestamp=t)
         for t in (0.0, -0.0)],
        [dataclasses.replace(_failed(0, DeviceType.IOS, False), timestamp=t)
         for t in (-0.0, 0.0)],
    ],
    ids=["empty", "single", "all-failed-zero-volume", "all-proxied-pc",
         "signed-zero", "signed-zero-first"],
)
def test_summarize_edge_cases_match_per_record_fold(records):
    assert_same_summary(summarize(records), summarize_per_record(records))


def test_summarize_consumes_an_iterator_once():
    records = [_failed(u, DeviceType.ANDROID, False) for u in range(5)]
    assert_same_summary(summarize(iter(records)), summarize_per_record(records))
