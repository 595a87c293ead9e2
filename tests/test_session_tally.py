"""``Session``'s construction-time tally against the per-access definitions.

:class:`~repro.core.sessions.Session` walks its records once when built
and stores its counts, volumes and times.  The functions below are the
definitions those scalars replaced, recomputed from ``records`` on every
call; they serve as the reference oracle.
"""

from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sessions import Session, SessionType, sessionize, sessionize_user
from repro.logs import DeviceType, Direction, LogRecord, RequestKind, ResultCode
from repro.logs.io import read_tsv
from repro.workload import GeneratorOptions, generate_trace

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_trace.tsv"


def oracle_file_ops(s):
    return [r for r in s.records if r.is_file_op]


def oracle_chunks(s):
    return [r for r in s.records if r.is_chunk]


def oracle_end(s):
    return max(r.timestamp + r.processing_time for r in s.records)


def oracle_operating_time(s):
    ops = oracle_file_ops(s)
    if not ops:
        return 0.0
    return ops[-1].timestamp - ops[0].timestamp


def oracle_n_store_ops(s):
    return sum(1 for r in oracle_file_ops(s) if r.direction is Direction.STORE)


def oracle_n_retrieve_ops(s):
    return sum(1 for r in oracle_file_ops(s) if r.direction is Direction.RETRIEVE)


def oracle_store_volume(s):
    return sum(r.volume for r in oracle_chunks(s) if r.direction is Direction.STORE)


def oracle_retrieve_volume(s):
    return sum(
        r.volume for r in oracle_chunks(s) if r.direction is Direction.RETRIEVE
    )


def oracle_session_type(s):
    has_store = oracle_n_store_ops(s) > 0
    has_retrieve = oracle_n_retrieve_ops(s) > 0
    if has_store and has_retrieve:
        return SessionType.MIXED
    if has_store:
        return SessionType.STORE_ONLY
    return SessionType.RETRIEVE_ONLY


def assert_matches_oracle(session: Session) -> None:
    end = oracle_end(session)
    n_store = oracle_n_store_ops(session)
    n_retrieve = oracle_n_retrieve_ops(session)
    store_volume = oracle_store_volume(session)
    retrieve_volume = oracle_retrieve_volume(session)
    assert session.end.hex() == end.hex()
    assert session.length.hex() == (end - session.start).hex()
    assert session.operating_time.hex() == oracle_operating_time(session).hex()
    assert session.n_store_ops == n_store
    assert session.n_retrieve_ops == n_retrieve
    assert session.n_ops == n_store + n_retrieve
    assert session.store_volume == store_volume
    assert session.retrieve_volume == retrieve_volume
    assert session.volume == store_volume + retrieve_volume
    assert session.session_type is oracle_session_type(session)
    assert session.file_ops == oracle_file_ops(session)
    assert session.chunks == oracle_chunks(session)


def test_golden_trace_sessions_match_oracle():
    sessions = sessionize(read_tsv(GOLDEN_PATH))
    assert len(sessions) > 20
    for session in sessions:
        assert_matches_oracle(session)


def test_generated_trace_sessions_match_oracle():
    trace = generate_trace(
        120,
        n_pc_only_users=15,
        options=GeneratorOptions(max_chunks_per_file=3),
        seed=5,
    )
    sessions = sessionize(trace)
    assert {s.session_type for s in sessions} == set(SessionType)
    for session in sessions:
        assert_matches_oracle(session)


@st.composite
def records(draw):
    """One request of user 1: op or chunk, any direction, device, outcome."""
    kind = draw(st.sampled_from(RequestKind))
    result = draw(st.sampled_from(ResultCode))
    chunk_ok = kind is RequestKind.CHUNK and result is ResultCode.OK
    return LogRecord(
        timestamp=draw(st.floats(0.0, 7 * 86_400.0)),
        device_type=draw(st.sampled_from(DeviceType)),
        device_id="d",
        user_id=1,
        kind=kind,
        direction=draw(st.sampled_from(Direction)),
        volume=draw(st.integers(0, 1 << 20)) if chunk_ok else 0,
        processing_time=draw(st.floats(0.0, 600.0)),
        result=result,
    )


def chunk_only(records_list):
    return [r for r in records_list if r.is_chunk]


record_lists = st.one_of(
    st.lists(records(), min_size=1, max_size=40),
    # Leading chunk-only records before the first file operation.
    st.tuples(
        st.lists(records(), min_size=1, max_size=10).map(chunk_only),
        st.lists(records(), min_size=1, max_size=30),
    ).map(lambda pair: pair[0] + pair[1]).filter(bool),
)


@given(record_lists)
@settings(max_examples=300)
def test_tally_matches_oracle_on_any_record_list(record_list):
    assert_matches_oracle(Session(user_id=1, records=record_list))


@given(records())
def test_tally_matches_oracle_on_a_single_record(record):
    assert_matches_oracle(Session(user_id=1, records=[record]))


@given(record_lists)
@settings(max_examples=200)
def test_sessionize_user_drops_exactly_the_op_free_sessions(record_list):
    ordered = sorted(record_list, key=lambda r: r.timestamp)
    sessions = list(sessionize_user(ordered, tau=3600.0))
    assert all(oracle_file_ops(s) for s in sessions)
    kept = [r for s in sessions for r in s.records]
    first_op = next((i for i, r in enumerate(ordered) if r.is_file_op), None)
    # Leading chunks join the first session, so the only op-free session
    # is a record list without any file operation, and then nothing stays.
    assert len(kept) == (0 if first_op is None else len(ordered))
    for session in sessions:
        assert_matches_oracle(session)
