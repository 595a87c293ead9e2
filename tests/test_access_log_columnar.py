"""The columnar live-path access log against its record-path oracles.

Front-ends append each attempt to typed column buffers, the cluster
merges them with one stable lexsort, telemetry folds the merged columns,
and the digests stream TSV lines straight from the columns.  Each piece
is pinned here against the record-at-a-time implementation it replaced
(kept in :mod:`tests.helpers`):

* the merge against :func:`~tests.helpers.sort_by_time` over the
  front-end logs concatenated in front-end order, on the three
  ``replay`` benchmark passes, the 4x2 quorum golden replay and
  constructed ties (identical keys on two front-ends, and across
  repeated merges);
* the telemetry fold against :func:`~tests.helpers.observe_record` on
  Hypothesis logs with timestamps on window boundaries, empty logs and
  all-shed windows;
* the TSV line writer against :func:`~repro.logs.io.record_to_tsv`.
"""

import hashlib
import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultConfig, RetryPolicy
from repro.logs import columnar
from repro.logs import io as logs_io
from repro.logs.columnar import (
    DEVICE_CODE,
    DIRECTION_CODE,
    ColumnarTrace,
    ColumnBuffer,
)
from repro.logs.io import iter_tsv_blocks, record_to_tsv, tsv_digest
from repro.logs.schema import (
    DeviceType,
    Direction,
    LogRecord,
    RequestKind,
    ResultCode,
)
from repro.service.client import ClientNetwork
from repro.service.cluster import ServiceCluster
from repro.service.placement import frontend_for
from repro.service.replay import replay_trace, synthetic_replay_trace
from repro.service.telemetry import TelemetryCollector
from tests.helpers import (
    BENCH_REPLAY_PASSES,
    bench_replay_pass,
    capture_frontend_logs,
    observe_record,
    oracle_access_log,
)
from tests.test_golden_replay_metatier import FIXTURE, metatier_cluster


def rows(records) -> list[tuple[LogRecord, int]]:
    """Records with their ``session_id`` (which ``LogRecord.__eq__`` skips)."""
    return [(record, record.session_id) for record in records]


def joined_tsv_md5(records) -> str:
    """The record-path digest: MD5 of the joined ``record_to_tsv`` lines."""
    return hashlib.md5(
        "\n".join(record_to_tsv(r) for r in records).encode()
    ).hexdigest()


def assert_merge_matches_oracle(log: ColumnarTrace, taken: list) -> None:
    oracle = oracle_access_log(taken)
    assert rows(log.iter_records()) == rows(oracle)
    assert tsv_digest(log) == joined_tsv_md5(oracle)


# ----------------------------------------------------------------------
# Cluster merge
# ----------------------------------------------------------------------


@pytest.mark.parametrize("label", sorted(BENCH_REPLAY_PASSES))
def test_benchmark_pass_merge_matches_oracle(label):
    result, _cluster, taken = bench_replay_pass(label)
    assert len(taken) == 2  # one merge, one part per front-end
    assert_merge_matches_oracle(result.log, taken)
    assert result.log_digest() == joined_tsv_md5(result.records)


def test_golden_quorum_replay_merge_matches_oracle():
    fixture = json.loads(pathlib.Path(FIXTURE).read_text())
    cluster = metatier_cluster(fixture)
    taken = capture_frontend_logs(cluster)
    trace = synthetic_replay_trace(
        fixture["trace"]["n_users"], fixture["trace"]["seed"]
    )
    result = replay_trace(
        trace,
        cluster,
        speedup=fixture["replay"]["speedup"],
        seed=fixture["replay"]["seed"],
    )
    assert_merge_matches_oracle(result.log, taken)


def test_zero_backoff_failover_ties_keep_frontend_order():
    """Two clients of one user and device: the first fails over from a
    crashed front-end 0 to front-end 1 with no backoff, and the second
    reaches front-end 0 at that same instant.  The two rows share
    ``(timestamp, user, device)``; front-end 0's row was emitted second
    but sorts first, as the old stable sort of the front-end logs
    concatenated in front-end order put it."""
    rtt = 0.08
    cluster = ServiceCluster(
        n_frontends=2,
        faults=FaultConfig(
            crash_rate=1.0, crash_mean_downtime=600.0, horizon=24 * 3600.0
        ),
        fault_seed=5,
        retry_policy=RetryPolicy(
            max_attempts=3, base_delay=0.0, max_delay=0.0, jitter=0.0
        ),
    )
    taken = capture_frontend_logs(cluster)
    user = next(u for u in range(1, 100) if frontend_for(u, 2) == 0)
    window = next(
        w for w in cluster.fault_plan.effective_crash_windows(0)
        if w.duration > 10.0
    )
    t0 = window.start + 1.0
    clients = []
    for session in (1, 2):
        client = cluster.new_client(
            user,
            "m1",
            DeviceType.ANDROID,
            network=ClientNetwork(rtt=rtt, bandwidth=4_000_000.0),
        )
        client.session_id = session
        clients.append(client)
    clients[0].clock = t0
    clients[0].store_file("a.bin", b"a", 1000)
    clients[1].clock = t0 + rtt
    clients[1].store_file("b.bin", b"b", 1000)

    log = cluster.access_log()
    assert_merge_matches_oracle(log, taken)
    tie_time = t0 + rtt + rtt
    tied = [
        (record.session_id, record.result)
        for record in log.iter_records()
        if record.timestamp == tie_time
    ]
    assert [session for session, _ in tied] == [2, 1]
    assert tied[0][1] is ResultCode.UNAVAILABLE


def _file_op(cluster, fid: int, t: float, session: int, user: int = 1):
    cluster.frontends[fid].handle_file_op(
        timestamp=t,
        user_id=user,
        device_id="d",
        device_type_code=DEVICE_CODE[DeviceType.IOS],
        direction_code=DIRECTION_CODE[Direction.STORE],
        rtt=0.1,
        session_id=session,
        rng=np.random.default_rng(session),
    )


def test_repeated_merges_match_one_merge_of_everything():
    cluster = ServiceCluster(n_frontends=2)
    taken = capture_frontend_logs(cluster)
    _file_op(cluster, 1, 5.0, 1)
    _file_op(cluster, 0, 5.0, 2)
    _file_op(cluster, 1, 5.0, 3)
    first = cluster.access_log()
    assert [r.session_id for r in first] == [2, 1, 3]
    assert all(len(f.take_log()) == 0 for f in cluster.frontends)
    assert cluster.access_log() is first
    _file_op(cluster, 0, 5.0, 4)
    _file_op(cluster, 1, 4.0, 5)
    _file_op(cluster, 1, 5.0, 6, user=0)
    second = cluster.access_log()
    assert [r.session_id for r in second] == [5, 6, 2, 4, 1, 3]
    assert_merge_matches_oracle(second, taken)


def test_device_ids_merge_in_string_order():
    """The device key is the id string, not its pool code: ``"b"`` pooled
    first still sorts after ``"a"``, and ``"B"`` before both."""
    cluster = ServiceCluster(n_frontends=2)
    taken = capture_frontend_logs(cluster)
    for fid, device in ((0, "b"), (1, "a"), (0, "B"), (1, "b")):
        cluster.frontends[fid].handle_file_op(
            timestamp=1.0, user_id=1, device_id=device,
            device_type_code=0, direction_code=0, rtt=0.1,
            rng=np.random.default_rng(0),
        )
    log = cluster.access_log()
    assert [r.device_id for r in log] == ["B", "a", "b", "b"]
    assert_merge_matches_oracle(log, taken)


def test_empty_cluster_log():
    log = ServiceCluster(n_frontends=3).access_log()
    assert len(log) == 0
    assert tsv_digest(log) == joined_tsv_md5([])


# ----------------------------------------------------------------------
# Column buffers
# ----------------------------------------------------------------------


def test_column_buffer_take_hands_over_and_restarts():
    buffer = ColumnBuffer()
    buffer.append(1.0, 0, "x", 7, 1, 0, 10, 0.5, 0.25, 0.1, True, 0, 3)
    buffer.append(2.0, 1, "y", 7, 0, 1, 0, 0.5, 0.0, 0.1, False, 4, -1)
    log = buffer.take()
    assert len(log) == 2 and len(buffer.take()) == 0
    records = log.to_records()
    assert rows(records) == rows(ColumnarTrace.from_records(records))
    assert records[0].proxied is True and records[1].proxied is False
    assert records[1].result is ResultCode.SHED
    assert log.device_pool == ("x", "y")


def test_column_buffer_rejects_invalid_rows():
    buffer = ColumnBuffer()
    buffer.append(1.0, 0, "x", 7, 0, 0, 5, 0.5, 0.25, 0.1, False, 0, 3)
    with pytest.raises(ValueError, match="row 0: file operations carry no payload") as rejected:
        buffer.take()
    # The rejected row is kept, and the buffer can still grow while the
    # caller holds the error (``rejected``).
    buffer.append(2.0, 0, "x", 7, 0, 0, 0, 0.5, 0.25, 0.1, False, 0, 3)
    with pytest.raises(ValueError, match="row 0: file operations carry no payload"):
        buffer.take()


def _fail_check_once(monkeypatch, on_call: int) -> None:
    """Make the ``on_call``-th buffer check report row 0 invalid."""
    real = columnar.first_invalid_row
    calls = iter(range(1, 1_000))

    def check(columns):
        if next(calls) == on_call:
            return 0, "volume", "injected"
        return real(columns)

    monkeypatch.setattr(columnar, "first_invalid_row", check)


def test_failed_take_keeps_every_row(monkeypatch):
    _fail_check_once(monkeypatch, on_call=1)
    buffer = ColumnBuffer()
    buffer.append(1.0, 0, "x", 7, 1, 0, 10, 0.5, 0.25, 0.1, True, 0, 3)
    buffer.append(2.0, 1, "y", 7, 0, 1, 0, 0.5, 0.0, 0.1, False, 4, -1)
    with pytest.raises(ValueError, match="row 0: injected"):
        buffer.take()
    buffer.append(3.0, 1, "x", 8, 0, 0, 0, 0.5, 0.0, 0.1, False, 0, 5)
    log = buffer.take()
    assert [r.timestamp for r in log] == [1.0, 2.0, 3.0]
    assert log.device_pool == ("x", "y")


def test_failed_merge_names_frontend_and_loses_no_row(monkeypatch):
    cluster = ServiceCluster(n_frontends=2)
    taken = capture_frontend_logs(cluster)
    _file_op(cluster, 0, 5.0, 1)
    _file_op(cluster, 1, 4.0, 2)
    _fail_check_once(monkeypatch, on_call=2)  # front-end 1's buffer
    with pytest.raises(ValueError, match="^front-end 1: row 0: injected$"):
        cluster.access_log()
    assert [r.session_id for r in cluster.access_log()] == [2, 1]
    assert_merge_matches_oracle(cluster.access_log(), taken)


# ----------------------------------------------------------------------
# Telemetry fold
# ----------------------------------------------------------------------

WINDOWS = (60.0, 7.5, 1.0, 0.1)


@st.composite
def log_records(draw, window: float) -> list[LogRecord]:
    on_edge = st.integers(0, 40).map(lambda k: k * window)
    near_edge = st.tuples(on_edge, st.sampled_from((-math.inf, math.inf))).map(
        lambda pair: max(0.0, math.nextafter(*pair))
    )
    timestamp = st.one_of(
        on_edge, near_edge, st.floats(0.0, 41 * window, allow_nan=False)
    )
    n = draw(st.integers(0, 60))
    all_shed = draw(st.booleans())
    records = []
    for _ in range(n):
        result = (
            ResultCode.SHED if all_shed else draw(st.sampled_from(ResultCode))
        )
        kind = draw(st.sampled_from(RequestKind))
        carries = result is ResultCode.OK and kind is RequestKind.CHUNK
        records.append(
            LogRecord(
                timestamp=draw(timestamp),
                device_type=DeviceType.ANDROID,
                device_id="m",
                user_id=draw(st.integers(1, 5)),
                kind=kind,
                direction=Direction.STORE,
                volume=draw(st.integers(1, 1 << 40)) if carries else 0,
                result=result,
            )
        )
    return records


@settings(max_examples=150, deadline=None)
@given(data=st.data(), window=st.sampled_from(WINDOWS), cut=st.integers(0, 60))
def test_columnar_fold_matches_per_record_oracle(data, window, cut):
    records = data.draw(log_records(window))
    oracle = TelemetryCollector(window_seconds=window)
    for record in records:
        observe_record(oracle, record)
    folded = TelemetryCollector(window_seconds=window)
    # Two calls: the fold accumulates like the per-record one.
    folded.observe_log(ColumnarTrace.from_records(records[:cut]))
    folded.observe_log(records[cut:])
    assert folded.snapshot().to_json() == oracle.snapshot().to_json()


def test_fold_of_empty_log_changes_nothing():
    collector = TelemetryCollector()
    before = collector.snapshot().to_json()
    collector.observe_log(ColumnarTrace.empty())
    collector.observe_log([])
    assert collector.snapshot().to_json() == before


def test_fold_buckets_window_edges_like_python_floor_division():
    window = 0.1
    stamps = [k * window for k in range(200)] + [
        math.nextafter(k * window, -math.inf) for k in range(1, 200)
    ]
    folded = TelemetryCollector(window_seconds=window)
    folded.observe_log(
        LogRecord(
            timestamp=t, device_type=DeviceType.IOS, device_id="d",
            user_id=1, kind=RequestKind.FILE_OP, direction=Direction.STORE,
            volume=0,
        )
        for t in stamps
    )
    expected: dict[int, int] = {}
    for t in stamps:
        expected[int(t // window)] = expected.get(int(t // window), 0) + 1
    assert {
        round(w["start"] / window): w["requests"]
        for w in folded.snapshot().windows
    } == expected


# ----------------------------------------------------------------------
# TSV line writer
# ----------------------------------------------------------------------

any_float = st.floats(allow_nan=True, allow_infinity=True)
non_negative = st.one_of(
    st.floats(0.0, allow_infinity=True), st.just(-0.0), st.just(math.nan)
)


@st.composite
def any_records(draw) -> list[LogRecord]:
    records = []
    for _ in range(draw(st.integers(0, 30))):
        result = draw(st.sampled_from(ResultCode))
        kind = draw(st.sampled_from(RequestKind))
        carries = result is ResultCode.OK and kind is RequestKind.CHUNK
        records.append(
            LogRecord(
                timestamp=draw(any_float),
                device_type=draw(st.sampled_from(DeviceType)),
                device_id=draw(st.text(max_size=6)),
                user_id=draw(st.integers(-(2**63), 2**63 - 1)),
                kind=kind,
                direction=draw(st.sampled_from(Direction)),
                volume=draw(st.integers(0, 2**62)) if carries else 0,
                processing_time=draw(non_negative),
                server_time=draw(any_float),
                rtt=draw(non_negative),
                proxied=draw(st.booleans()),
                result=result,
                session_id=draw(st.integers(-(2**63), 2**63 - 1)),
            )
        )
    return records


@settings(max_examples=150, deadline=None)
@given(records=any_records(), block_rows=st.integers(1, 8))
def test_tsv_blocks_match_record_to_tsv(records, block_rows):
    trace = ColumnarTrace.from_records(records)
    lines = [record_to_tsv(r) for r in records]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(logs_io, "TSV_BLOCK_ROWS", block_rows)
        blocks = list(iter_tsv_blocks(trace))
        assert tsv_digest(trace) == joined_tsv_md5(records)
    assert len(blocks) == -(-len(records) // block_rows)
    assert "\n".join(blocks) == "\n".join(lines)
