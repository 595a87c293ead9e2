"""Streaming (block-at-a-time) analysis over a merged columnar stream.

The columnar fast paths in :mod:`repro.core.sessions`,
:mod:`repro.core.usage` and :mod:`repro.logs.stream` are vectorized but
whole-trace: they want every row in memory at once, which caps them far
below the paper's 349 M records.  This module re-expresses the hot
analyses as **folds** over a stream of :class:`ColumnarTrace` blocks in
``(user_id, timestamp)`` order — exactly what
:func:`repro.logs.columnar.merge_columnar_sorted` yields over
memory-mapped shard parts — so peak RSS is bounded by the block size plus
the *output* size (sessions, per-user rows), never the record count.

Folded analyses and their whole-trace references:

* :class:`StreamingSessionizer` ⇔ :func:`~repro.core.sessions.sessionize_columnar`
  (same cut rule, same aggregates, same session order); open sessions are
  carried across block boundaries and finalized when their user ends.
* Per-user volume tallies and device inventories ⇔
  :func:`~repro.logs.stream.tally_by_user_columnar` /
  :func:`~repro.logs.stream.devices_by_user_columnar`, exploiting that a
  user-sorted stream keeps each user contiguous (only the boundary user
  needs merging between blocks).
* User classification ⇔ :func:`~repro.core.usage.classify_user` /
  :func:`~repro.core.usage.device_group_of`, vectorized over the final
  per-user arrays.
* File-operation intervals ⇔
  :func:`~repro.core.sessions.file_operation_intervals_columnar`, folded
  into a fixed-bin log10 histogram (bounded RAM however many intervals).

:func:`analyze_stream` runs all folds in one pass and returns a
:class:`StreamingReport`; :func:`report_from_columnar` computes the same
report through the in-memory engine, and both sides hash to the same
:meth:`StreamingReport.digest` — the equivalence the paper-scale CI gate
asserts.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from ..logs.columnar import FILE_OP_CODE, STORE_CODE, ColumnarTrace
from ..logs.stream import (
    devices_by_user_columnar,
    tally_by_user_columnar,
    unique_rows,
)
from ..workload.config import DeviceGroup, UserType
from .sessions import (
    DEFAULT_TAU,
    SessionClassShares,
    file_operation_intervals_columnar,
    sessionize_columnar,
)
from .usage import (
    OCCASIONAL_VOLUME,
    RATIO_THRESHOLD,
    UserProfile,
    classify_user,
    device_group_of,
)

#: Code tables for the vectorized classification columns.  Order is part
#: of the report digest; append-only like the columnar enum tables.
USER_TYPES: tuple[UserType, ...] = (
    UserType.OCCASIONAL,
    UserType.UPLOAD_ONLY,
    UserType.DOWNLOAD_ONLY,
    UserType.MIXED,
)
DEVICE_GROUPS: tuple[DeviceGroup, ...] = (
    DeviceGroup.ONE_MOBILE,
    DeviceGroup.MULTI_MOBILE,
    DeviceGroup.MOBILE_AND_PC,
    DeviceGroup.PC_ONLY,
)
_USER_TYPE_CODE = {member: code for code, member in enumerate(USER_TYPES)}
_DEVICE_GROUP_CODE = {member: code for code, member in enumerate(DEVICE_GROUPS)}

#: Default log10-seconds histogram edges for the interval fold: 0.05-dex
#: bins from the 1 ms clamp up to ~3 years, covering any realistic gap.
DEFAULT_INTERVAL_EDGES = np.linspace(-3.0, 8.0, 221)

_SESSION_FIELDS = (
    "user_id",
    "start",
    "end",
    "first_op",
    "last_op",
    "n_store_ops",
    "n_retrieve_ops",
    "store_volume",
    "retrieve_volume",
)


# ----------------------------------------------------------------------
# Session fold
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SessionTable:
    """Per-session aggregate columns (the streaming sessionizer output).

    Holds exactly the aggregate arrays of
    :class:`~repro.core.sessions.ColumnarSessions`, in the same session
    order — ``(user_id, start position)`` — without the per-record
    assignment (a stream has no stable global row numbering to index).
    """

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
        return self.end - self.start

    @property
    def operating_times(self) -> np.ndarray:
        return self.last_op - self.first_op

    def classify(self) -> SessionClassShares:
        """Store-only / retrieve-only / mixed shares (Section 3.1.1)."""
        if not self.n_sessions:
            raise ValueError("no sessions to classify")
        has_store = self.n_store_ops > 0
        has_retrieve = self.n_retrieve_ops > 0
        mixed = int(np.count_nonzero(has_store & has_retrieve))
        store_only = int(np.count_nonzero(has_store & ~has_retrieve))
        retrieve_only = int(np.count_nonzero(~has_store & has_retrieve))
        return SessionClassShares(
            store_only=store_only / self.n_sessions,
            retrieve_only=retrieve_only / self.n_sessions,
            mixed=mixed / self.n_sessions,
            n_sessions=self.n_sessions,
        )


class StreamingSessionizer:
    """Fold ``(user_id, timestamp)``-ordered blocks into a session table.

    Mirrors :func:`~repro.core.sessions.sessionize_columnar` exactly: a
    session starts at a user's first record and at every file operation
    more than ``tau`` after the user's previous file operation; chunks
    join the current session; sessions without any file operation are
    dropped.  The open session at each block boundary (plus the user's
    last-op timestamp, which the cut rule needs) is carried to the next
    block, so sessions spanning any number of blocks come out identical
    to the whole-trace result.
    """

    def __init__(self, tau: float = DEFAULT_TAU) -> None:
        if tau <= 0:
            raise ValueError("tau must be positive")
        self._tau = tau
        #: Open session of the stream's current (last-seen) user.
        self._carry: dict | None = None
        #: Finalized sessions, as per-block column chunks.
        self._chunks: list[dict[str, np.ndarray]] = []
        self._finalized = False

    def feed(self, block: ColumnarTrace) -> None:
        n = len(block)
        if self._finalized:
            raise ValueError("sessionizer already finalized")
        if not n:
            return
        uid = block.user_id
        ts = block.timestamp
        carry = self._carry
        if carry is not None and uid[0] < carry["user"]:
            raise ValueError("stream not sorted by user_id")
        if np.any(uid[1:] < uid[:-1]) or np.any(
            (uid[1:] == uid[:-1]) & (ts[1:] < ts[:-1])
        ):
            raise ValueError("block not sorted by (user_id, timestamp)")
        is_op = block.kind == FILE_OP_CODE
        is_store = block.direction == STORE_CODE
        volume = block.volume
        end_ts = ts + block.processing_time

        starts = np.empty(n, dtype=bool)
        starts[0] = carry is None or int(uid[0]) != carry["user"]
        starts[1:] = uid[1:] != uid[:-1]

        op_positions = np.flatnonzero(is_op)
        if len(op_positions):
            op_uid = uid[op_positions]
            op_ts = ts[op_positions]
            first_op_of_user = np.empty(len(op_positions), dtype=bool)
            first_op_of_user[0] = True
            first_op_of_user[1:] = op_uid[1:] != op_uid[:-1]
            gaps = np.empty(len(op_positions), dtype=float)
            gaps[0] = 0.0
            gaps[1:] = op_ts[1:] - op_ts[:-1]
            if (
                carry is not None
                and int(op_uid[0]) == carry["user"]
                and carry["last_op_ts"] is not None
            ):
                # The block's first op continues the carried user's op
                # sequence — the cross-block gap can cut a session too.
                first_op_of_user[0] = False
                gaps[0] = float(op_ts[0]) - carry["last_op_ts"]
            cuts = ~first_op_of_user & (gaps > self._tau)
            starts[op_positions[cuts]] = True

        # Number rows into segments; bin 0 is the continuation of the
        # carried session (rows before the block's first start).
        shifted = np.cumsum(starts)
        n_new = int(shifted[-1])
        nbins = n_new + 1

        start_agg = np.full(nbins, np.inf)
        np.minimum.at(start_agg, shifted, ts)
        end_agg = np.full(nbins, -np.inf)
        np.maximum.at(end_agg, shifted, end_ts)
        op_shifted = shifted[is_op]
        first_op_agg = np.full(nbins, np.inf)
        np.minimum.at(first_op_agg, op_shifted, ts[is_op])
        last_op_agg = np.full(nbins, -np.inf)
        np.maximum.at(last_op_agg, op_shifted, ts[is_op])
        n_store_agg = np.bincount(
            shifted[is_op & is_store], minlength=nbins
        ).astype(np.int64)
        n_retrieve_agg = np.bincount(
            shifted[is_op & ~is_store], minlength=nbins
        ).astype(np.int64)
        store_vol_agg = np.zeros(nbins, dtype=np.int64)
        mask = ~is_op & is_store
        np.add.at(store_vol_agg, shifted[mask], volume[mask])
        retrieve_vol_agg = np.zeros(nbins, dtype=np.int64)
        mask = ~is_op & ~is_store
        np.add.at(retrieve_vol_agg, shifted[mask], volume[mask])

        if not starts[0]:
            # Fold the continuation rows into the carried session.
            carry["end"] = max(carry["end"], float(end_agg[0]))
            carry["first_op"] = min(carry["first_op"], float(first_op_agg[0]))
            carry["last_op"] = max(carry["last_op"], float(last_op_agg[0]))
            carry["n_store_ops"] += int(n_store_agg[0])
            carry["n_retrieve_ops"] += int(n_retrieve_agg[0])
            carry["store_volume"] += int(store_vol_agg[0])
            carry["retrieve_volume"] += int(retrieve_vol_agg[0])

        if n_new:
            seg_user = uid[starts].astype(np.int64)
            if carry is not None:
                self._finalize(carry)
            if n_new > 1:
                done = slice(1, n_new)  # bins of segments fully in-block
                keep = (n_store_agg[done] + n_retrieve_agg[done]) > 0
                if np.any(keep):
                    self._chunks.append(
                        {
                            "user_id": seg_user[: n_new - 1][keep],
                            "start": start_agg[done][keep],
                            "end": end_agg[done][keep],
                            "first_op": first_op_agg[done][keep],
                            "last_op": last_op_agg[done][keep],
                            "n_store_ops": n_store_agg[done][keep],
                            "n_retrieve_ops": n_retrieve_agg[done][keep],
                            "store_volume": store_vol_agg[done][keep],
                            "retrieve_volume": retrieve_vol_agg[done][keep],
                        }
                    )
            carry = {
                "user": int(seg_user[-1]),
                "start": float(start_agg[n_new]),
                "end": float(end_agg[n_new]),
                "first_op": float(first_op_agg[n_new]),
                "last_op": float(last_op_agg[n_new]),
                "n_store_ops": int(n_store_agg[n_new]),
                "n_retrieve_ops": int(n_retrieve_agg[n_new]),
                "store_volume": int(store_vol_agg[n_new]),
                "retrieve_volume": int(retrieve_vol_agg[n_new]),
                "last_op_ts": None,
            }

        # Track the carried user's most recent file-operation timestamp.
        # Every op of the block's final user necessarily belongs to the
        # final segment's user (users are contiguous), so checking the
        # block's last op suffices.
        if len(op_positions) and int(op_uid[-1]) == carry["user"]:
            carry["last_op_ts"] = float(op_ts[-1])
        self._carry = carry

    def _finalize(self, carry: dict) -> None:
        if carry["n_store_ops"] + carry["n_retrieve_ops"] == 0:
            return  # op-free sessions are dropped, as in the record path
        self._chunks.append(
            {
                "user_id": np.asarray([carry["user"]], dtype=np.int64),
                "start": np.asarray([carry["start"]], dtype=np.float64),
                "end": np.asarray([carry["end"]], dtype=np.float64),
                "first_op": np.asarray([carry["first_op"]], dtype=np.float64),
                "last_op": np.asarray([carry["last_op"]], dtype=np.float64),
                "n_store_ops": np.asarray(
                    [carry["n_store_ops"]], dtype=np.int64
                ),
                "n_retrieve_ops": np.asarray(
                    [carry["n_retrieve_ops"]], dtype=np.int64
                ),
                "store_volume": np.asarray(
                    [carry["store_volume"]], dtype=np.int64
                ),
                "retrieve_volume": np.asarray(
                    [carry["retrieve_volume"]], dtype=np.int64
                ),
            }
        )

    def finalize(self) -> SessionTable:
        """Close the open session and assemble the full table."""
        if not self._finalized:
            if self._carry is not None:
                self._finalize(self._carry)
                self._carry = None
            self._finalized = True
        empty = {
            "user_id": np.empty(0, dtype=np.int64),
            "start": np.empty(0, dtype=np.float64),
            "end": np.empty(0, dtype=np.float64),
            "first_op": np.empty(0, dtype=np.float64),
            "last_op": np.empty(0, dtype=np.float64),
            "n_store_ops": np.empty(0, dtype=np.int64),
            "n_retrieve_ops": np.empty(0, dtype=np.int64),
            "store_volume": np.empty(0, dtype=np.int64),
            "retrieve_volume": np.empty(0, dtype=np.int64),
        }
        if self._chunks:
            columns = {
                name: np.concatenate([c[name] for c in self._chunks])
                for name in _SESSION_FIELDS
            }
        else:
            columns = empty
        return SessionTable(**columns)


# ----------------------------------------------------------------------
# Per-user folds: tallies, devices, classification
# ----------------------------------------------------------------------

_TALLY_FIELDS = (
    "stored_bytes",
    "retrieved_bytes",
    "store_file_ops",
    "retrieve_file_ops",
    "store_chunks",
    "retrieve_chunks",
)


def _tally_block(
    block: ColumnarTrace, group: np.ndarray, n_groups: int
) -> dict[str, np.ndarray]:
    """Array-valued per-group tally (cf. ``logs.stream._tally_columns``)."""
    is_store = block.direction == STORE_CODE
    is_op = block.kind == FILE_OP_CODE
    store_chunk = is_store & ~is_op
    retrieve_chunk = ~is_store & ~is_op
    stored = np.zeros(n_groups, dtype=np.int64)
    np.add.at(stored, group[store_chunk], block.volume[store_chunk])
    retrieved = np.zeros(n_groups, dtype=np.int64)
    np.add.at(retrieved, group[retrieve_chunk], block.volume[retrieve_chunk])
    return {
        "stored_bytes": stored,
        "retrieved_bytes": retrieved,
        "store_file_ops": np.bincount(
            group[is_store & is_op], minlength=n_groups
        ).astype(np.int64),
        "retrieve_file_ops": np.bincount(
            group[~is_store & is_op], minlength=n_groups
        ).astype(np.int64),
        "store_chunks": np.bincount(
            group[store_chunk], minlength=n_groups
        ).astype(np.int64),
        "retrieve_chunks": np.bincount(
            group[retrieve_chunk], minlength=n_groups
        ).astype(np.int64),
    }


class _UserTallyFold:
    """Per-user tallies over a user-contiguous stream.

    Each block contributes one array chunk keyed by its unique users;
    because the stream is user-sorted, only the boundary user (last of
    the previous chunk == first of the next) ever needs merging.
    """

    def __init__(self) -> None:
        self._users: list[np.ndarray] = []
        self._fields: dict[str, list[np.ndarray]] = {
            name: [] for name in _TALLY_FIELDS
        }

    def feed(self, block: ColumnarTrace) -> None:
        if not len(block):
            return
        users, group = np.unique(block.user_id, return_inverse=True)
        users = users.astype(np.int64)
        tallies = _tally_block(block, group, len(users))
        if self._users and len(self._users[-1]):
            last = int(self._users[-1][-1])
            if int(users[0]) < last:
                raise ValueError("stream not sorted by user_id")
            if int(users[0]) == last:
                for name in _TALLY_FIELDS:
                    self._fields[name][-1][-1] += tallies[name][0]
                    tallies[name] = tallies[name][1:]
                users = users[1:]
                if not len(users):
                    return
        self._users.append(users)
        for name in _TALLY_FIELDS:
            self._fields[name].append(tallies[name])

    def finalize(self) -> dict[str, np.ndarray]:
        users = (
            np.concatenate(self._users)
            if self._users
            else np.empty(0, dtype=np.int64)
        )
        out = {"users": users}
        for name in _TALLY_FIELDS:
            out[name] = (
                np.concatenate(self._fields[name])
                if self._fields[name]
                else np.empty(0, dtype=np.int64)
            )
        return out


class _DeviceFold:
    """Distinct ``(user, device, mobile)`` triples over the stream.

    Deduplicates per block (a few triples per user survive), then once
    more at finalize, both with :func:`~repro.logs.stream.unique_rows`: an
    integer lexsort and a neighbour mask, not a row-wise ``np.unique``.
    Blocks normally share one device-pool tuple (the merge emits a single
    part-wide pool), so the common case does no string work at all; a
    block with a different pool is re-coded into the fold's own pool.
    """

    def __init__(self) -> None:
        self._pool_tuple: tuple[str, ...] | None = None
        self._pool_index: dict[str, int] = {}
        self._triples: list[np.ndarray] = []

    def feed(self, block: ColumnarTrace) -> None:
        if not len(block):
            return
        codes = block.device_code
        if self._pool_tuple is None or block.device_pool is not self._pool_tuple:
            if self._pool_tuple is None:
                self._pool_tuple = block.device_pool
            lookup = np.asarray(
                [
                    self._pool_index.setdefault(d, len(self._pool_index))
                    for d in block.device_pool
                ],
                dtype=np.int64,
            )
            if len(lookup) and not np.array_equal(
                lookup, np.arange(len(lookup))
            ):
                codes = lookup[codes]
        self._triples.append(
            unique_rows(block.user_id, codes, block.mobile_mask)
        )

    def finalize(self, users: np.ndarray) -> dict[str, np.ndarray]:
        """Per-user device summary aligned with the ascending ``users``."""
        n = len(users)
        uses_mobile = np.zeros(n, dtype=bool)
        uses_pc = np.zeros(n, dtype=bool)
        mobile_count = np.zeros(n, dtype=np.int64)
        if self._triples:
            triples = unique_rows(*np.concatenate(self._triples).T)
            mobile = triples[:, 2] == 1
            mob_users, mob_counts = np.unique(
                triples[mobile, 0], return_counts=True
            )
            pc_users = np.unique(triples[~mobile, 0])
            idx = np.searchsorted(users, mob_users)
            uses_mobile[idx] = True
            mobile_count[idx] = mob_counts
            uses_pc[np.searchsorted(users, pc_users)] = True
        group_code = np.where(
            uses_mobile & uses_pc,
            _DEVICE_GROUP_CODE[DeviceGroup.MOBILE_AND_PC],
            np.where(
                uses_mobile,
                np.where(
                    mobile_count == 1,
                    _DEVICE_GROUP_CODE[DeviceGroup.ONE_MOBILE],
                    _DEVICE_GROUP_CODE[DeviceGroup.MULTI_MOBILE],
                ),
                _DEVICE_GROUP_CODE[DeviceGroup.PC_ONLY],
            ),
        ).astype(np.uint8)
        return {"device_group_code": group_code, "mobile_count": mobile_count}


def _classify_codes(
    stored: np.ndarray, retrieved: np.ndarray
) -> np.ndarray:
    """Vectorized :func:`~repro.core.usage.classify_user` (paper rules)."""
    total = stored + retrieved
    codes = np.full(
        len(stored), _USER_TYPE_CODE[UserType.MIXED], dtype=np.uint8
    )
    occasional = total < OCCASIONAL_VOLUME
    upload = ~occasional & (retrieved == 0)
    download = ~occasional & ~upload & (stored == 0)
    both = ~occasional & (retrieved > 0) & (stored > 0)
    ratio = np.zeros(len(stored), dtype=np.float64)
    ratio[both] = stored[both] / retrieved[both]
    upload |= both & (ratio > RATIO_THRESHOLD)
    download |= both & (ratio < 1.0 / RATIO_THRESHOLD)
    codes[download] = _USER_TYPE_CODE[UserType.DOWNLOAD_ONLY]
    codes[upload] = _USER_TYPE_CODE[UserType.UPLOAD_ONLY]
    codes[occasional] = _USER_TYPE_CODE[UserType.OCCASIONAL]
    return codes


@dataclass(frozen=True)
class UserTable:
    """Per-user tallies plus classification, users ascending."""

    users: np.ndarray
    stored_bytes: np.ndarray
    retrieved_bytes: np.ndarray
    store_file_ops: np.ndarray
    retrieve_file_ops: np.ndarray
    store_chunks: np.ndarray
    retrieve_chunks: np.ndarray
    mobile_count: np.ndarray
    device_group_code: np.ndarray
    user_type_code: np.ndarray

    @property
    def n_users(self) -> int:
        return len(self.users)

    def to_profiles(self) -> list[UserProfile]:
        """Materialize :class:`~repro.core.usage.UserProfile` objects."""
        return [
            UserProfile(
                user_id=int(self.users[i]),
                user_type=USER_TYPES[self.user_type_code[i]],
                group=DEVICE_GROUPS[self.device_group_code[i]],
                stored_bytes=int(self.stored_bytes[i]),
                retrieved_bytes=int(self.retrieved_bytes[i]),
            )
            for i in range(self.n_users)
        ]


# ----------------------------------------------------------------------
# Interval fold
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class IntervalHistogram:
    """Fixed-bin log10 histogram of file-operation intervals (Fig 3)."""

    edges: np.ndarray
    counts: np.ndarray
    n_intervals: int
    #: Exact interval values in stream order, only when the fold was
    #: built with ``keep_values=True`` (tests); ``None`` at scale.
    values: np.ndarray | None = None


class _IntervalFold:
    """Fold per-user file-operation gaps into a bounded histogram."""

    def __init__(
        self, edges: np.ndarray | None = None, keep_values: bool = False
    ) -> None:
        self._edges = (
            np.asarray(edges, dtype=np.float64)
            if edges is not None
            else DEFAULT_INTERVAL_EDGES
        )
        self._counts = np.zeros(len(self._edges) - 1, dtype=np.int64)
        self._n = 0
        self._carry: tuple[int, float] | None = None
        self._values: list[np.ndarray] | None = [] if keep_values else None

    def feed(self, block: ColumnarTrace) -> None:
        is_op = block.kind == FILE_OP_CODE
        op_uid = block.user_id[is_op]
        if not len(op_uid):
            return
        op_ts = block.timestamp[is_op]
        gaps = np.diff(op_ts)
        same_user = op_uid[1:] == op_uid[:-1]
        values = np.maximum(gaps[same_user], 1e-3)
        if self._carry is not None and int(op_uid[0]) == self._carry[0]:
            boundary = max(1e-3, float(op_ts[0]) - self._carry[1])
            values = np.concatenate(([boundary], values))
        if len(values):
            self._counts += np.histogram(np.log10(values), bins=self._edges)[0]
            self._n += len(values)
            if self._values is not None:
                self._values.append(values)
        self._carry = (int(op_uid[-1]), float(op_ts[-1]))

    def finalize(self) -> IntervalHistogram:
        values = None
        if self._values is not None:
            values = (
                np.concatenate(self._values)
                if self._values
                else np.empty(0, dtype=np.float64)
            )
        return IntervalHistogram(
            edges=self._edges,
            counts=self._counts,
            n_intervals=self._n,
            values=values,
        )


# ----------------------------------------------------------------------
# Full-report orchestration
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class StreamingReport:
    """Everything the paper-scale pipeline distills from one pass.

    ``sessions`` and ``intervals`` cover mobile-device records only (the
    Section 3.1 view); ``users`` tallies and classifies every user over
    all their records (Section 3.2).
    """

    n_records: int
    sessions: SessionTable
    users: UserTable
    intervals: IntervalHistogram

    def digest(self) -> str:
        """Order-sensitive hash of every reported array and count.

        Identical for the streaming and in-memory engines on the same
        trace — the equality the CI gate checks with one string compare.
        """
        h = hashlib.blake2b(digest_size=16)
        h.update(str(self.n_records).encode())
        for name in _SESSION_FIELDS:
            h.update(name.encode())
            h.update(np.ascontiguousarray(getattr(self.sessions, name)).tobytes())
        for name in (
            "users",
            "stored_bytes",
            "retrieved_bytes",
            "store_file_ops",
            "retrieve_file_ops",
            "store_chunks",
            "retrieve_chunks",
            "mobile_count",
            "device_group_code",
            "user_type_code",
        ):
            h.update(name.encode())
            h.update(np.ascontiguousarray(getattr(self.users, name)).tobytes())
        h.update(b"intervals")
        h.update(str(self.intervals.n_intervals).encode())
        h.update(np.ascontiguousarray(self.intervals.counts).tobytes())
        return h.hexdigest()


class StreamingAnalyzer:
    """One-pass fold of a ``(user_id, timestamp)``-ordered block stream."""

    def __init__(
        self,
        tau: float = DEFAULT_TAU,
        interval_edges: np.ndarray | None = None,
        keep_intervals: bool = False,
    ) -> None:
        self._sessionizer = StreamingSessionizer(tau)
        self._tallies = _UserTallyFold()
        self._devices = _DeviceFold()
        self._intervals = _IntervalFold(interval_edges, keep_intervals)
        self._n_records = 0

    def feed(self, block: ColumnarTrace) -> None:
        self._n_records += len(block)
        self._tallies.feed(block)
        self._devices.feed(block)
        mobile = block.select(block.mobile_mask)
        if len(mobile):
            self._sessionizer.feed(mobile)
            self._intervals.feed(mobile)

    def finalize(self) -> StreamingReport:
        tallies = self._tallies.finalize()
        users = tallies.pop("users")
        devices = self._devices.finalize(users)
        user_table = UserTable(
            users=users,
            mobile_count=devices["mobile_count"],
            device_group_code=devices["device_group_code"],
            user_type_code=_classify_codes(
                tallies["stored_bytes"], tallies["retrieved_bytes"]
            ),
            **tallies,
        )
        return StreamingReport(
            n_records=self._n_records,
            sessions=self._sessionizer.finalize(),
            users=user_table,
            intervals=self._intervals.finalize(),
        )


def analyze_stream(
    blocks: Iterable[ColumnarTrace] | Iterator[ColumnarTrace],
    *,
    tau: float = DEFAULT_TAU,
    interval_edges: np.ndarray | None = None,
    keep_intervals: bool = False,
) -> StreamingReport:
    """Fold a block stream into a :class:`StreamingReport` in one pass."""
    analyzer = StreamingAnalyzer(
        tau=tau, interval_edges=interval_edges, keep_intervals=keep_intervals
    )
    for block in blocks:
        analyzer.feed(block)
    return analyzer.finalize()


def report_from_columnar(
    trace: ColumnarTrace,
    *,
    tau: float = DEFAULT_TAU,
    interval_edges: np.ndarray | None = None,
    keep_intervals: bool = False,
) -> StreamingReport:
    """The same report via the whole-trace in-memory engine.

    Goes through :func:`sessionize_columnar`,
    :func:`tally_by_user_columnar`, :func:`devices_by_user_columnar`,
    :func:`classify_user` and :func:`file_operation_intervals_columnar` —
    an independent implementation whose :meth:`StreamingReport.digest`
    must equal the streaming one on any trace.  Materializes everything;
    use only at scales that fit in RAM (tests, the CI gate).
    """
    mobile = trace.select(trace.mobile_mask)
    columnar_sessions = sessionize_columnar(mobile, tau)
    sessions = SessionTable(
        user_id=np.asarray(columnar_sessions.user_id, dtype=np.int64),
        start=np.asarray(columnar_sessions.start, dtype=np.float64),
        end=np.asarray(columnar_sessions.end, dtype=np.float64),
        first_op=np.asarray(columnar_sessions.first_op, dtype=np.float64),
        last_op=np.asarray(columnar_sessions.last_op, dtype=np.float64),
        n_store_ops=np.asarray(columnar_sessions.n_store_ops, dtype=np.int64),
        n_retrieve_ops=np.asarray(
            columnar_sessions.n_retrieve_ops, dtype=np.int64
        ),
        store_volume=np.asarray(columnar_sessions.store_volume, dtype=np.int64),
        retrieve_volume=np.asarray(
            columnar_sessions.retrieve_volume, dtype=np.int64
        ),
    )
    tallies = tally_by_user_columnar(trace)
    devices = devices_by_user_columnar(trace)
    users = np.asarray(list(tallies), dtype=np.int64)
    user_table = UserTable(
        users=users,
        stored_bytes=np.asarray(
            [t.stored_bytes for t in tallies.values()], dtype=np.int64
        ),
        retrieved_bytes=np.asarray(
            [t.retrieved_bytes for t in tallies.values()], dtype=np.int64
        ),
        store_file_ops=np.asarray(
            [t.store_file_ops for t in tallies.values()], dtype=np.int64
        ),
        retrieve_file_ops=np.asarray(
            [t.retrieve_file_ops for t in tallies.values()], dtype=np.int64
        ),
        store_chunks=np.asarray(
            [t.store_chunks for t in tallies.values()], dtype=np.int64
        ),
        retrieve_chunks=np.asarray(
            [t.retrieve_chunks for t in tallies.values()], dtype=np.int64
        ),
        mobile_count=np.asarray(
            [devices[int(u)].mobile_device_count for u in users],
            dtype=np.int64,
        ),
        device_group_code=np.asarray(
            [
                _DEVICE_GROUP_CODE[device_group_of(devices[int(u)])]
                for u in users
            ],
            dtype=np.uint8,
        ),
        user_type_code=np.asarray(
            [_USER_TYPE_CODE[classify_user(t)] for t in tallies.values()],
            dtype=np.uint8,
        ),
    )
    edges = (
        np.asarray(interval_edges, dtype=np.float64)
        if interval_edges is not None
        else DEFAULT_INTERVAL_EDGES
    )
    intervals = file_operation_intervals_columnar(mobile)
    histogram = IntervalHistogram(
        edges=edges,
        counts=np.histogram(np.log10(intervals), bins=edges)[0]
        if len(intervals)
        else np.zeros(len(edges) - 1, dtype=np.int64),
        n_intervals=len(intervals),
        values=intervals if keep_intervals else None,
    )
    return StreamingReport(
        n_records=len(trace),
        sessions=sessions,
        users=user_table,
        intervals=histogram,
    )
