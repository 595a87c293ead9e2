"""Columnar fast paths vs. record-path implementations: exact equivalence.

The vectorized sessionization, tallies, intervals and profiles must
recover *identical* results to the per-record reference implementations —
these tests compare them element for element on a generated trace with
mobile, PC and multi-device users.  Ordering differs by construction (the
record path walks users in first-appearance order, the columnar path in
ascending ``user_id``), so list comparisons sort both sides on a total
key first.
"""

import numpy as np
import pytest

from repro.core.report import analyze_trace
from repro.core.sessions import (
    classify_sessions,
    file_operation_intervals,
    file_operation_intervals_columnar,
    sessionize,
    sessionize_columnar,
)
from repro.core.usage import profile_users, profile_users_columnar
from repro.logs.columnar import as_columnar
from repro.logs.stream import (
    devices_by_user,
    devices_by_user_columnar,
    tally_by_user,
    tally_by_user_columnar,
)
from repro.workload.generator import GeneratorOptions, generate_trace
from repro.workload.parallel import generate_columnar_parallel


@pytest.fixture(scope="module")
def records():
    return generate_trace(
        90,
        n_pc_only_users=20,
        options=GeneratorOptions(max_chunks_per_file=4),
        seed=7,
    )


@pytest.fixture(scope="module")
def trace(records):
    return as_columnar(records)


def _session_key(session):
    return (session.user_id, session.records[0].timestamp)


def test_interval_multiset_identical(records, trace):
    record_intervals = file_operation_intervals(records)
    columnar_intervals = file_operation_intervals_columnar(trace)
    assert record_intervals.shape == columnar_intervals.shape
    # Same multiset (user iteration order differs); exact, not approx.
    assert (
        np.sort(record_intervals) == np.sort(columnar_intervals)
    ).all()


def test_sessionize_equivalent(records, trace):
    record_sessions = sorted(sessionize(records), key=_session_key)
    columnar = sessionize_columnar(trace)
    columnar_sessions = columnar.to_sessions()
    assert len(columnar_sessions) == len(record_sessions)
    # Record-for-record equality covers boundaries, membership and order.
    for ours, reference in zip(columnar_sessions, record_sessions):
        assert ours.user_id == reference.user_id
        assert ours.records == reference.records
        assert ours.session_type == reference.session_type


def test_session_aggregates_match_materialized(records, trace):
    columnar = sessionize_columnar(trace)
    sessions = columnar.to_sessions()
    for i, session in enumerate(sessions):
        assert columnar.user_id[i] == session.user_id
        assert columnar.start[i] == session.start
        assert columnar.end[i] == session.end
        assert columnar.n_store_ops[i] == session.n_store_ops
        assert columnar.n_retrieve_ops[i] == session.n_retrieve_ops
        assert columnar.store_volume[i] == session.store_volume
        assert columnar.retrieve_volume[i] == session.retrieve_volume
    assert columnar.session_types() == [s.session_type for s in sessions]


def test_classify_equivalent(records, trace):
    assert sessionize_columnar(trace).classify() == classify_sessions(
        sessionize(records)
    )


def test_tallies_equivalent(records, trace):
    assert tally_by_user_columnar(trace) == tally_by_user(records)


def test_devices_equivalent(records, trace):
    assert devices_by_user_columnar(trace) == devices_by_user(records)


def test_profiles_equivalent(records, trace):
    reference = sorted(profile_users(records), key=lambda p: p.user_id)
    assert profile_users_columnar(trace) == reference


def test_analyze_trace_engines_agree(records, trace):
    record_report = analyze_trace(records, fit_size_model=False)
    columnar_report = analyze_trace(
        trace, fit_size_model=False, engine="columnar"
    )
    assert (
        columnar_report.interval_model.tau == record_report.interval_model.tau
    )
    assert columnar_report.session_shares == record_report.session_shares
    assert (
        columnar_report.burstiness_fraction
        == record_report.burstiness_fraction
    )
    assert columnar_report.upload_only_share == pytest.approx(
        record_report.upload_only_share
    )
    assert columnar_report.never_retrieve_fraction == pytest.approx(
        record_report.never_retrieve_fraction
    )
    assert np.isnan(columnar_report.storage_slope_mb) == np.isnan(
        record_report.storage_slope_mb
    )
    if not np.isnan(record_report.storage_slope_mb):
        assert columnar_report.storage_slope_mb == pytest.approx(
            record_report.storage_slope_mb
        )


def test_analyze_trace_accepts_columnar_for_record_engine(trace, records):
    report = analyze_trace(trace, fit_size_model=False, engine="records")
    reference = analyze_trace(records, fit_size_model=False)
    assert report.session_shares == reference.session_shares


def test_analyze_trace_rejects_unknown_engine(records):
    with pytest.raises(ValueError, match="unknown analysis engine"):
        analyze_trace(records, engine="quantum")


def test_generate_columnar_parallel_matches_serial(records):
    columnar = generate_columnar_parallel(
        90,
        n_pc_only_users=20,
        options=GeneratorOptions(max_chunks_per_file=4),
        seed=7,
        n_shards=3,
        n_workers=2,
    )
    assert columnar.to_records() == records


def test_generate_columnar_parallel_single_worker(records):
    columnar = generate_columnar_parallel(
        90,
        n_pc_only_users=20,
        options=GeneratorOptions(max_chunks_per_file=4),
        seed=7,
        n_shards=4,
        n_workers=1,
    )
    assert columnar.to_records() == records


def test_sessionize_columnar_empty_and_bad_tau(trace):
    from repro.logs.columnar import ColumnarTrace

    empty = sessionize_columnar(ColumnarTrace.empty())
    assert empty.n_sessions == 0
    assert empty.to_sessions() == []
    with pytest.raises(ValueError):
        sessionize_columnar(trace, tau=0.0)
    with pytest.raises(ValueError):
        empty.classify()
