"""Streaming aggregation over log records.

Analyses over a 350M-record trace cannot materialize per-record state.  The
helpers here do single-pass, bounded-memory aggregation keyed by user, device
or time bin, and are shared by the analysis modules in :mod:`repro.core`.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Hashable, Iterable, TypeVar

import numpy as np

from .columnar import STORE_CODE, ColumnarTrace
from .schema import DeviceType, Direction, LogRecord, RequestKind

K = TypeVar("K", bound=Hashable)

#: Members the per-record folds compare against by identity: a module
#: global is one dict lookup, an enum class attribute two.
_STORE = Direction.STORE
_FILE_OP = RequestKind.FILE_OP
_PC = DeviceType.PC


@dataclass
class VolumeTally:
    """Running store/retrieve byte and request counters."""

    stored_bytes: int = 0
    retrieved_bytes: int = 0
    store_file_ops: int = 0
    retrieve_file_ops: int = 0
    store_chunks: int = 0
    retrieve_chunks: int = 0

    def add(self, record: LogRecord) -> None:
        """Fold one record into the tally."""
        if record.direction is _STORE:
            if record.kind is _FILE_OP:
                self.store_file_ops += 1
            else:
                self.store_chunks += 1
                self.stored_bytes += record.volume
        else:
            if record.kind is _FILE_OP:
                self.retrieve_file_ops += 1
            else:
                self.retrieve_chunks += 1
                self.retrieved_bytes += record.volume

    @property
    def total_bytes(self) -> int:
        return self.stored_bytes + self.retrieved_bytes

    @property
    def total_file_ops(self) -> int:
        return self.store_file_ops + self.retrieve_file_ops

    def merge(self, other: "VolumeTally") -> None:
        """Fold another tally into this one."""
        self.stored_bytes += other.stored_bytes
        self.retrieved_bytes += other.retrieved_bytes
        self.store_file_ops += other.store_file_ops
        self.retrieve_file_ops += other.retrieve_file_ops
        self.store_chunks += other.store_chunks
        self.retrieve_chunks += other.retrieve_chunks

    def store_retrieve_ratio(self, epsilon: float = 1.0) -> float:
        """Ratio of stored to retrieved volume, as used for Fig 7.

        ``epsilon`` (bytes) keeps the ratio finite when one side is zero;
        with the paper's classification thresholds of 1e±5 the exact value
        of epsilon is immaterial for users with any meaningful volume.
        """
        return (self.stored_bytes + epsilon) / (self.retrieved_bytes + epsilon)


def tally_by(
    records: Iterable[LogRecord], key: Callable[[LogRecord], K]
) -> dict[K, VolumeTally]:
    """Single-pass volume tally grouped by an arbitrary key function."""
    tallies: dict[K, VolumeTally] = defaultdict(VolumeTally)
    for record in records:
        tallies[key(record)].add(record)
    return dict(tallies)


def tally_by_user(records: Iterable[LogRecord]) -> dict[int, VolumeTally]:
    """Per-user volume tallies (basis of the Fig 7 / Table 3 analyses)."""
    return tally_by(records, lambda r: r.user_id)


def tally_by_hour(
    records: Iterable[LogRecord], bin_seconds: float = 3600.0
) -> dict[int, VolumeTally]:
    """Per-time-bin tallies (basis of the Fig 1 workload analysis)."""
    if bin_seconds <= 0:
        raise ValueError("bin_seconds must be positive")
    return tally_by(records, lambda r: int(r.timestamp // bin_seconds))


# ----------------------------------------------------------------------
# Columnar (vectorized) tallies
# ----------------------------------------------------------------------


def _tally_columns(
    trace: ColumnarTrace, group: np.ndarray, n_groups: int
) -> list[VolumeTally]:
    """Per-group :class:`VolumeTally` values from one columnar pass.

    ``group`` assigns every row a group index in ``[0, n_groups)``.  Counts
    come from :func:`np.bincount` over masked group indices; byte sums use
    ``np.add.at`` into int64 accumulators so they stay exact however large
    the trace.  Produces tallies identical to folding every row through
    :meth:`VolumeTally.add`.
    """
    is_store = trace.direction == STORE_CODE
    is_op = trace.file_op_mask
    masks = {
        "store_file_ops": is_store & is_op,
        "retrieve_file_ops": ~is_store & is_op,
        "store_chunks": is_store & ~is_op,
        "retrieve_chunks": ~is_store & ~is_op,
    }
    counts = {
        name: np.bincount(group[mask], minlength=n_groups)
        for name, mask in masks.items()
    }
    stored = np.zeros(n_groups, dtype=np.int64)
    retrieved = np.zeros(n_groups, dtype=np.int64)
    np.add.at(stored, group[masks["store_chunks"]],
              trace.volume[masks["store_chunks"]])
    np.add.at(retrieved, group[masks["retrieve_chunks"]],
              trace.volume[masks["retrieve_chunks"]])
    return [
        VolumeTally(
            stored_bytes=int(stored[g]),
            retrieved_bytes=int(retrieved[g]),
            store_file_ops=int(counts["store_file_ops"][g]),
            retrieve_file_ops=int(counts["retrieve_file_ops"][g]),
            store_chunks=int(counts["store_chunks"][g]),
            retrieve_chunks=int(counts["retrieve_chunks"][g]),
        )
        for g in range(n_groups)
    ]


def tally_by_user_columnar(trace: ColumnarTrace) -> dict[int, VolumeTally]:
    """Vectorized :func:`tally_by_user` over a columnar trace.

    Returns the same per-user tally values; keys iterate in ascending
    ``user_id`` order (the record path iterates in first-appearance order —
    the mapping is identical, only dict order differs).
    """
    if not len(trace):
        return {}
    users, group = np.unique(trace.user_id, return_inverse=True)
    tallies = _tally_columns(trace, group, len(users))
    return {int(user): tally for user, tally in zip(users, tallies)}


@dataclass
class UserDevices:
    """Which devices (and platforms) a user was seen on."""

    mobile_devices: set[str] = field(default_factory=set)
    pc_devices: set[str] = field(default_factory=set)

    @property
    def uses_pc(self) -> bool:
        return bool(self.pc_devices)

    @property
    def uses_mobile(self) -> bool:
        return bool(self.mobile_devices)

    @property
    def mobile_device_count(self) -> int:
        return len(self.mobile_devices)


def devices_by_user(records: Iterable[LogRecord]) -> dict[int, UserDevices]:
    """Single-pass inventory of the devices each user employed."""
    users: dict[int, UserDevices] = defaultdict(UserDevices)
    for record in records:
        entry = users[record.user_id]
        if record.device_type is not _PC:
            entry.mobile_devices.add(record.device_id)
        else:
            entry.pc_devices.add(record.device_id)
    return dict(users)


def unique_rows(*columns: np.ndarray) -> np.ndarray:
    """Distinct rows of equal-length integer columns, in ascending order.

    Returns the ``(n, k)`` int64 array that
    ``np.unique(np.stack(columns, axis=1), axis=0)`` returns, from one
    :func:`np.lexsort` over the columns and a mask dropping each row equal
    to its predecessor.  NumPy's ``axis=0`` unique sorts the rows as a
    structured dtype, field by field, several times slower.
    """
    rows = np.stack(columns, axis=1).astype(np.int64, copy=False)
    if len(rows) < 2:
        return rows
    rows = rows[np.lexsort(rows.T[::-1])]
    keep = np.empty(len(rows), dtype=bool)
    keep[0] = True
    np.any(rows[1:] != rows[:-1], axis=1, out=keep[1:])
    return rows[keep]


def devices_by_user_columnar(trace: ColumnarTrace) -> dict[int, UserDevices]:
    """Vectorized :func:`devices_by_user` over a columnar trace.

    Deduplicates ``(user, device)`` pairs with one :func:`np.unique` over a
    packed key, then walks only the unique pairs (a few per user) instead
    of every record.  Keys iterate in ascending ``user_id`` order.
    """
    if not len(trace):
        return {}
    pool_size = max(1, len(trace.device_pool))
    mobile = trace.mobile_mask.astype(np.int64)
    if np.any(trace.user_id < 0) or trace.user_id.max() >= (1 << 62) // (
        2 * pool_size
    ):
        # A packed key would overflow int64; dedup the raw triples.
        triples = unique_rows(trace.user_id, trace.device_code, mobile)
        unique_users = triples[:, 0]
        unique_codes = triples[:, 1]
        flags = triples[:, 2].astype(bool).tolist()
    else:
        packed = (trace.user_id * pool_size + trace.device_code) * 2 + mobile
        uniq = np.unique(packed)
        flags = (uniq & 1).astype(bool).tolist()
        rest = uniq >> 1
        unique_users = rest // pool_size
        unique_codes = rest % pool_size
    users: dict[int, UserDevices] = {}
    pool = trace.device_pool
    for uid, code, is_mobile in zip(
        unique_users.tolist(), unique_codes.tolist(), flags
    ):
        entry = users.setdefault(int(uid), UserDevices())
        if is_mobile:
            entry.mobile_devices.add(pool[code])
        else:
            entry.pc_devices.add(pool[code])
    return users


def group_by_user(
    records: Iterable[LogRecord],
) -> dict[int, list[LogRecord]]:
    """Group records by user, each group sorted by timestamp.

    This *does* materialize the trace; use it only on traces that fit in
    memory (tests, examples) or after filtering.  The streaming analyses in
    :mod:`repro.core` avoid it where possible.
    """
    groups: dict[int, list[LogRecord]] = defaultdict(list)
    for record in records:
        groups[record.user_id].append(record)
    by_time = attrgetter("timestamp")
    for group in groups.values():
        group.sort(key=by_time)
    return dict(groups)


class RunningStats:
    """Welford single-pass mean/variance with min/max tracking."""

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, value: float) -> None:
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)

    @property
    def mean(self) -> float:
        if not self.count:
            raise ValueError("no values added")
        return self._mean

    @property
    def variance(self) -> float:
        """Sample variance (ddof=1)."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)
