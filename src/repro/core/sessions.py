"""Session identification and classification (Section 3.1.1).

The pipeline mirrors the paper exactly:

1. Collect the **file operation intervals** of every user — the time
   between consecutive file operation requests of the same user.
2. Fit a two-component Gaussian mixture to the log10 intervals (Fig 3);
   one component captures within-session gaps (~10 s), the other
   between-session gaps (~1 day).
3. Derive the session threshold **tau** from the valley between the
   components (the paper lands on one hour) and cut each user's request
   stream wherever consecutive file operations are more than tau apart.
4. Classify sessions as store-only, retrieve-only or mixed.

Chunk requests never split sessions — only file operations do — but they
belong to the session that contains them and extend its length, exactly as
in the paper's Fig 2.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from ..logs.columnar import (
    FILE_OP_CODE,
    STORE_CODE,
    ColumnarTrace,
)
from ..logs.schema import Direction, DeviceType, LogRecord, RequestKind
from ..logs.stream import group_by_user
from ..stats.gmm import GaussianMixture, fit_gmm

DEFAULT_TAU = 3600.0


class SessionType(enum.Enum):
    """Session classes of Section 3.1.1."""

    STORE_ONLY = "store_only"
    RETRIEVE_ONLY = "retrieve_only"
    MIXED = "mixed"


def _tally_field():
    return field(init=False, repr=False, compare=False)


@dataclass(slots=True)
class Session:
    """One recovered session: a user's requests between long op gaps.

    Construction walks ``records`` once and keeps the tally below;
    ``records`` must not change afterwards.  The tally holds references
    into ``records`` where it can instead of new floats, so sessions cost
    no more memory than the per-access properties did.
    """

    user_id: int
    records: list[LogRecord]
    n_store_ops: int = _tally_field()
    n_retrieve_ops: int = _tally_field()
    #: Chunk volume moved in each direction.
    store_volume: int = _tally_field()
    retrieve_volume: int = _tally_field()
    _first_op: LogRecord | None = _tally_field()
    _last_op: LogRecord | None = _tally_field()
    #: The first record attaining the largest ``timestamp + processing_time``.
    _last_to_finish: LogRecord = _tally_field()

    def __post_init__(self) -> None:
        if not self.records:
            raise ValueError("a session needs at least one record")
        file_op, store = RequestKind.FILE_OP, Direction.STORE
        n_store = n_retrieve = store_volume = retrieve_volume = 0
        first_op = last_op = None
        last_to_finish = self.records[0]
        end = last_to_finish.timestamp + last_to_finish.processing_time
        for r in self.records:
            if r.kind is file_op:
                if first_op is None:
                    first_op = r
                last_op = r
                if r.direction is store:
                    n_store += 1
                else:
                    n_retrieve += 1
            elif r.direction is store:
                store_volume += r.volume
            else:
                retrieve_volume += r.volume
            finish = r.timestamp + r.processing_time
            if finish > end:
                end = finish
                last_to_finish = r
        self.n_store_ops = n_store
        self.n_retrieve_ops = n_retrieve
        self.store_volume = store_volume
        self.retrieve_volume = retrieve_volume
        self._first_op = first_op
        self._last_op = last_op
        self._last_to_finish = last_to_finish

    @property
    def file_ops(self) -> list[LogRecord]:
        return [r for r in self.records if r.is_file_op]

    @property
    def chunks(self) -> list[LogRecord]:
        return [r for r in self.records if r.is_chunk]

    @property
    def start(self) -> float:
        return self.records[0].timestamp

    @property
    def end(self) -> float:
        """End of the session: last request plus its processing time."""
        last = self._last_to_finish
        return last.timestamp + last.processing_time

    @property
    def length(self) -> float:
        """Session length per Fig 2 (first op begin to last transfer end)."""
        return self.end - self.start

    @property
    def operating_time(self) -> float:
        """Time between the first and last file operation (Fig 4)."""
        if self._first_op is None:
            return 0.0
        return self._last_op.timestamp - self._first_op.timestamp

    @property
    def n_ops(self) -> int:
        return self.n_store_ops + self.n_retrieve_ops

    @property
    def volume(self) -> int:
        return self.store_volume + self.retrieve_volume

    @property
    def session_type(self) -> SessionType:
        has_store = self.n_store_ops > 0
        has_retrieve = self.n_retrieve_ops > 0
        if has_store and has_retrieve:
            return SessionType.MIXED
        if has_store:
            return SessionType.STORE_ONLY
        return SessionType.RETRIEVE_ONLY

    @property
    def device_types(self) -> set[DeviceType]:
        return {r.device_type for r in self.records}

    def average_file_size(self) -> float:
        """Session volume over the number of file operations (Fig 6)."""
        if not self.n_ops:
            raise ValueError("session has no file operations")
        return self.volume / self.n_ops


def file_operation_intervals(records: Iterable[LogRecord]) -> np.ndarray:
    """All per-user gaps between consecutive file operations (seconds).

    This is the raw data behind the paper's Fig 3 histogram.  Zero gaps
    (same-timestamp operations) are clamped to one millisecond so the
    log-scale model stays defined.
    """
    intervals: list[float] = []
    file_op = RequestKind.FILE_OP
    for user_records in group_by_user(records).values():
        previous: float | None = None
        for record in user_records:
            if record.kind is not file_op:
                continue
            if previous is not None:
                intervals.append(max(1e-3, record.timestamp - previous))
            previous = record.timestamp
    return np.asarray(intervals, dtype=float)


def file_operation_intervals_columnar(trace: ColumnarTrace) -> np.ndarray:
    """Vectorized :func:`file_operation_intervals` over a columnar trace.

    One :func:`np.lexsort` groups file operations by user in time order,
    one :func:`np.diff` yields all gaps, and a same-user mask keeps only
    intra-user ones; zero gaps are clamped to one millisecond exactly like
    the record path.  The output contains the identical interval multiset
    (users appear in ascending ``user_id`` order rather than trace
    first-appearance order, which no downstream fit cares about) and feeds
    :func:`fit_interval_model` / :mod:`repro.stats.gmm` directly.
    """
    ops = trace.kind == FILE_OP_CODE
    ts = trace.timestamp[ops]
    uid = trace.user_id[ops]
    if len(ts) < 2:
        return np.empty(0, dtype=float)
    order = np.lexsort((ts, uid))
    ts = ts[order]
    uid = uid[order]
    gaps = np.diff(ts)
    same_user = uid[1:] == uid[:-1]
    return np.maximum(gaps[same_user], 1e-3)


@dataclass(frozen=True)
class IntervalModel:
    """The fitted Fig 3 model plus the derived session threshold."""

    mixture: GaussianMixture
    tau: float
    n_intervals: int

    @property
    def within_session_mean_seconds(self) -> float:
        """Mean of the within-session component, in seconds."""
        return float(10.0 ** self.mixture.components[0].mean)

    @property
    def between_session_mean_seconds(self) -> float:
        """Mean of the between-session component, in seconds."""
        return float(10.0 ** self.mixture.components[-1].mean)


def fit_interval_model(
    intervals: np.ndarray,
    *,
    round_tau_to_hour: bool = True,
    min_interval: float = 1.0,
) -> IntervalModel:
    """Fit the two-component GMM and derive tau from its valley.

    With ``round_tau_to_hour`` (the default, following the paper) tau snaps
    to one hour whenever the fitted valley lies within the same order of
    magnitude; otherwise the raw valley is used.

    ``min_interval`` drops sub-second gaps before fitting: those are the
    app's batch issuance, not user pacing, and the paper's Fig 3 histogram
    support likewise starts at one second.
    """
    data = np.asarray(intervals, dtype=float)
    data = data[data >= min_interval]
    if data.size < 10:
        raise ValueError("need at least 10 intervals to fit the model")
    mixture = fit_gmm(np.log10(data), n_components=2)
    valley_seconds = float(10.0 ** mixture.valley())
    tau = valley_seconds
    if round_tau_to_hour and 360.0 <= valley_seconds <= 36_000.0:
        tau = DEFAULT_TAU
    return IntervalModel(mixture=mixture, tau=tau, n_intervals=int(data.size))


def sessionize_user(
    user_records: list[LogRecord], tau: float = DEFAULT_TAU
) -> Iterator[Session]:
    """Split one user's time-ordered records into sessions.

    A file operation more than ``tau`` after the previous file operation
    starts a new session; every record (chunk or op) joins the most recent
    session.  Leading chunk records before any file operation are attached
    to the first session.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    # Each session is the run of records between two cuts; a slice gives it
    # an exact-size record list.
    cuts = [0]
    last_op: float | None = None
    file_op = RequestKind.FILE_OP
    for index, record in enumerate(user_records):
        if record.kind is file_op:
            if last_op is not None and record.timestamp - last_op > tau:
                cuts.append(index)
            last_op = record.timestamp
    cuts.append(len(user_records))
    sessions = [
        Session(user_id=user_records[lo].user_id, records=user_records[lo:hi])
        for lo, hi in zip(cuts, cuts[1:])
        if hi > lo
    ]
    # Sessions whose records are all chunks (no ops at all) are dropped, as
    # the paper's definition anchors sessions on file operations.
    return (s for s in sessions if s.n_ops)


def sessionize(
    records: Iterable[LogRecord], tau: float = DEFAULT_TAU
) -> list[Session]:
    """Sessionize a whole trace (all users)."""
    sessions: list[Session] = []
    for user_records in group_by_user(records).values():
        sessions.extend(sessionize_user(user_records, tau))
    return sessions


@dataclass(frozen=True)
class ColumnarSessions:
    """Vectorized sessionization result over a :class:`ColumnarTrace`.

    Mirrors :func:`sessionize` exactly — same cut rule (a file operation
    more than tau after the user's previous file operation starts a new
    session), same attachment of chunks and leading records, same dropping
    of op-free sessions — but holds the result as arrays: a per-record
    session assignment plus per-session aggregate columns.  Sessions are
    numbered ``0..n_sessions-1`` ordered by ``(user_id, start time)``;
    the record path orders users by first trace appearance instead, so
    comparisons should sort both sides (the *set* of sessions is
    identical, as the equivalence tests assert).

    ``order`` is the stable ``(user_id, timestamp)`` permutation of the
    trace; ``session_of`` assigns each *sorted position* its session
    number, ``-1`` for records of dropped op-free sessions.
    """

    trace: ColumnarTrace
    order: np.ndarray
    session_of: np.ndarray
    user_id: np.ndarray
    start: np.ndarray
    end: np.ndarray
    first_op: np.ndarray
    last_op: np.ndarray
    n_store_ops: np.ndarray
    n_retrieve_ops: np.ndarray
    store_volume: np.ndarray
    retrieve_volume: np.ndarray

    @property
    def n_sessions(self) -> int:
        return len(self.user_id)

    @property
    def n_ops(self) -> np.ndarray:
        return self.n_store_ops + self.n_retrieve_ops

    @property
    def volume(self) -> np.ndarray:
        return self.store_volume + self.retrieve_volume

    @property
    def lengths(self) -> np.ndarray:
        """Per-session Fig 2 length (first record to last transfer end)."""
        return self.end - self.start

    @property
    def operating_times(self) -> np.ndarray:
        """Per-session time between first and last file operation (Fig 4)."""
        return self.last_op - self.first_op

    def session_types(self) -> list[SessionType]:
        """Per-session class, matching :attr:`Session.session_type`."""
        has_store = self.n_store_ops > 0
        has_retrieve = self.n_retrieve_ops > 0
        out = []
        for store, retrieve in zip(has_store.tolist(), has_retrieve.tolist()):
            if store and retrieve:
                out.append(SessionType.MIXED)
            elif store:
                out.append(SessionType.STORE_ONLY)
            else:
                out.append(SessionType.RETRIEVE_ONLY)
        return out

    def classify(self) -> SessionClassShares:
        """Vectorized :func:`classify_sessions` over the session table."""
        if not self.n_sessions:
            raise ValueError("no sessions to classify")
        has_store = self.n_store_ops > 0
        has_retrieve = self.n_retrieve_ops > 0
        mixed = int(np.count_nonzero(has_store & has_retrieve))
        store_only = int(np.count_nonzero(has_store & ~has_retrieve))
        retrieve_only = int(np.count_nonzero(~has_store & has_retrieve))
        total = self.n_sessions
        return SessionClassShares(
            store_only=store_only / total,
            retrieve_only=retrieve_only / total,
            mixed=mixed / total,
            n_sessions=total,
        )

    def to_sessions(self) -> list[Session]:
        """Materialize :class:`Session` objects (ascending session number).

        This is the compatibility bridge for record-path consumers; the
        vectorized aggregates above cover the common analyses without it.
        """
        if not self.n_sessions:
            return []
        buckets: list[list[LogRecord]] = [[] for _ in range(self.n_sessions)]
        sorted_trace = self.trace.select(self.order)
        assignment = self.session_of.tolist()
        for position, record in enumerate(sorted_trace.iter_records()):
            number = assignment[position]
            if number >= 0:
                buckets[number].append(record)
        return [
            Session(user_id=int(self.user_id[number]), records=bucket)
            for number, bucket in enumerate(buckets)
        ]


def sessionize_columnar(
    trace: ColumnarTrace, tau: float = DEFAULT_TAU
) -> ColumnarSessions:
    """Vectorized :func:`sessionize`: boolean-mask cuts, cumsum numbering.

    One stable lexsort groups the trace by user in time order; a session
    starts at every user's first record and at every file operation whose
    gap from the user's previous file operation exceeds ``tau``
    (``cumsum`` over the boolean start mask numbers the sessions); op-free
    sessions are dropped and the rest renumbered densely.  Per-session
    aggregates come from ``np.bincount`` / ``np.add.at`` /
    ``np.maximum.at`` over the assignment — no per-record Python.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    n = len(trace)
    if not n:
        return ColumnarSessions(
            trace=trace,
            order=np.empty(0, dtype=np.int64),
            session_of=np.empty(0, dtype=np.int64),
            user_id=np.empty(0, dtype=np.int64),
            start=np.empty(0, dtype=float),
            end=np.empty(0, dtype=float),
            first_op=np.empty(0, dtype=float),
            last_op=np.empty(0, dtype=float),
            n_store_ops=np.empty(0, dtype=np.int64),
            n_retrieve_ops=np.empty(0, dtype=np.int64),
            store_volume=np.empty(0, dtype=np.int64),
            retrieve_volume=np.empty(0, dtype=np.int64),
        )
    order = np.lexsort((trace.timestamp, trace.user_id))
    uid = trace.user_id[order]
    ts = trace.timestamp[order]
    is_op = (trace.kind == FILE_OP_CODE)[order]
    is_store = (trace.direction == STORE_CODE)[order]
    volume = trace.volume[order]
    processing = trace.processing_time[order]

    new_user = np.empty(n, dtype=bool)
    new_user[0] = True
    new_user[1:] = uid[1:] != uid[:-1]

    # Gap between consecutive file operations of the same user.
    op_positions = np.flatnonzero(is_op)
    starts = new_user.copy()
    if len(op_positions):
        op_uid = uid[op_positions]
        op_ts = ts[op_positions]
        first_op_of_user = np.empty(len(op_positions), dtype=bool)
        first_op_of_user[0] = True
        first_op_of_user[1:] = op_uid[1:] != op_uid[:-1]
        gaps = np.empty(len(op_positions), dtype=float)
        gaps[0] = 0.0
        gaps[1:] = op_ts[1:] - op_ts[:-1]
        cuts = ~first_op_of_user & (gaps > tau)
        starts[op_positions[cuts]] = True

    raw_session = np.cumsum(starts) - 1
    n_raw = int(raw_session[-1]) + 1

    # Drop sessions without a single file operation (the record path's
    # trailing filter); only a user's leading chunk-only run can form one.
    ops_per_session = np.bincount(raw_session[is_op], minlength=n_raw)
    keep = ops_per_session > 0
    dense = np.cumsum(keep) - 1  # raw number -> dense number (where kept)
    session_of = np.where(keep[raw_session], dense[raw_session], -1)

    kept = np.flatnonzero(keep)
    n_sessions = len(kept)
    assigned = session_of >= 0
    group = session_of[assigned]

    session_user = uid[starts][keep]
    # First record of each kept session in sorted order = session start.
    start_ts = np.full(n_sessions, np.inf)
    np.minimum.at(start_ts, group, ts[assigned])
    end_ts = np.full(n_sessions, -np.inf)
    np.maximum.at(end_ts, group, (ts + processing)[assigned])

    op_assigned = assigned & is_op
    op_group = session_of[op_assigned]
    first_op = np.full(n_sessions, np.inf)
    np.minimum.at(first_op, op_group, ts[op_assigned])
    last_op = np.full(n_sessions, -np.inf)
    np.maximum.at(last_op, op_group, ts[op_assigned])

    n_store_ops = np.bincount(
        session_of[op_assigned & is_store], minlength=n_sessions
    )
    n_retrieve_ops = np.bincount(
        session_of[op_assigned & ~is_store], minlength=n_sessions
    )

    chunk_assigned = assigned & ~is_op
    store_volume = np.zeros(n_sessions, dtype=np.int64)
    mask = chunk_assigned & is_store
    np.add.at(store_volume, session_of[mask], volume[mask])
    retrieve_volume = np.zeros(n_sessions, dtype=np.int64)
    mask = chunk_assigned & ~is_store
    np.add.at(retrieve_volume, session_of[mask], volume[mask])

    return ColumnarSessions(
        trace=trace,
        order=order,
        session_of=session_of,
        user_id=session_user,
        start=start_ts,
        end=end_ts,
        first_op=first_op,
        last_op=last_op,
        n_store_ops=n_store_ops.astype(np.int64),
        n_retrieve_ops=n_retrieve_ops.astype(np.int64),
        store_volume=store_volume,
        retrieve_volume=retrieve_volume,
    )


@dataclass(frozen=True)
class SessionClassShares:
    """The Section 3.1.1 headline: shares of the three session classes."""

    store_only: float
    retrieve_only: float
    mixed: float
    n_sessions: int

    def dominant(self) -> SessionType:
        shares = {
            SessionType.STORE_ONLY: self.store_only,
            SessionType.RETRIEVE_ONLY: self.retrieve_only,
            SessionType.MIXED: self.mixed,
        }
        return max(shares, key=shares.get)


def classify_sessions(sessions: Iterable[Session]) -> SessionClassShares:
    """Compute the store-only / retrieve-only / mixed shares."""
    counts = {t: 0 for t in SessionType}
    total = 0
    for session in sessions:
        counts[session.session_type] += 1
        total += 1
    if not total:
        raise ValueError("no sessions to classify")
    return SessionClassShares(
        store_only=counts[SessionType.STORE_ONLY] / total,
        retrieve_only=counts[SessionType.RETRIEVE_ONLY] / total,
        mixed=counts[SessionType.MIXED] / total,
        n_sessions=total,
    )
