"""Struct-of-arrays trace representation for vectorized analysis.

The record-at-a-time analyses in :mod:`repro.core` walk Python
:class:`~repro.logs.schema.LogRecord` objects one by one — fine for unit
tests, hopeless for the paper's 349 M-request scale.  This module holds the
same Table 1 trace as a **column-per-field** :class:`ColumnarTrace`:
NumPy arrays for the numeric fields, small-integer code arrays for the
enum fields (device type, request kind, direction, result), and a string
pool for device ids (each record stores an index into the pool).

One :class:`LogRecord` costs hundreds of bytes and a Python-level attribute
lookup per field access; one columnar row costs ~60 bytes and every
analysis over it is a NumPy kernel.  The vectorized fast paths built on top
(:func:`repro.core.sessions.sessionize_columnar`,
:func:`repro.core.usage.profile_users_columnar`,
:func:`repro.logs.stream.tally_by_user_columnar`, …) are equivalence-tested
against the record-path implementations: same session boundaries, same
tallies, same profiles.

Invariants
----------
* Row order is preserved exactly by :meth:`ColumnarTrace.from_rows` /
  :meth:`ColumnarTrace.from_records` / :meth:`ColumnarTrace.to_records`;
  the round trip is the identity (floats are stored as float64, never
  quantized).
* :meth:`ColumnarTrace.from_rows` rejects the rows
  :class:`~repro.logs.schema.LogRecord` would reject (negative volume,
  processing time or RTT; a payload on a file operation or a failed
  request), one vectorized check (:func:`first_invalid_row`) per batch;
  the bulk text readers in :mod:`repro.logs.io` run the same check once
  per chunk.
* Enum code tables are part of the schema: :data:`SCHEMA_VERSION` must be
  bumped whenever the column layout *or* a code table changes, so on-disk
  NPZ caches invalidate instead of decoding garbage.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, fields
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .schema import DeviceType, Direction, LogRecord, RequestKind, ResultCode

#: Version of the on-disk/NPZ column layout and enum code tables.  Bump on
#: any change to the columns, dtypes, or the code tables below; cached
#: artifacts keyed by an older version are ignored.
SCHEMA_VERSION = 1

#: Enum code tables.  A field's code is its index in the tuple; the tables
#: are append-only (append new members, never reorder) so codes stay stable.
DEVICE_TYPES: tuple[DeviceType, ...] = (
    DeviceType.ANDROID,
    DeviceType.IOS,
    DeviceType.PC,
)
REQUEST_KINDS: tuple[RequestKind, ...] = (RequestKind.FILE_OP, RequestKind.CHUNK)
DIRECTIONS: tuple[Direction, ...] = (Direction.STORE, Direction.RETRIEVE)
RESULT_CODES: tuple[ResultCode, ...] = (
    ResultCode.OK,
    ResultCode.SERVER_ERROR,
    ResultCode.UNAVAILABLE,
    ResultCode.TIMEOUT,
    ResultCode.SHED,
)

DEVICE_CODE = {member: code for code, member in enumerate(DEVICE_TYPES)}
KIND_CODE = {member: code for code, member in enumerate(REQUEST_KINDS)}
DIRECTION_CODE = {member: code for code, member in enumerate(DIRECTIONS)}
RESULT_CODE = {member: code for code, member in enumerate(RESULT_CODES)}

#: The same tables keyed by ``id(member)``, by column name: hashing an
#: enum member is a Python-level call, ``id`` is not.
CODE_BY_ID = {
    name: {id(m): c for m, c in table.items()}
    for name, table in (
        ("device_type", DEVICE_CODE),
        ("kind", KIND_CODE),
        ("direction", DIRECTION_CODE),
        ("result", RESULT_CODE),
    )
}

#: Frequently tested codes, exported so analysis modules can build boolean
#: masks without importing the code dicts.
PC_CODE = DEVICE_CODE[DeviceType.PC]
FILE_OP_CODE = KIND_CODE[RequestKind.FILE_OP]
CHUNK_CODE = KIND_CODE[RequestKind.CHUNK]
STORE_CODE = DIRECTION_CODE[Direction.STORE]
RETRIEVE_CODE = DIRECTION_CODE[Direction.RETRIEVE]
OK_CODE = RESULT_CODE[ResultCode.OK]
SHED_CODE = RESULT_CODE[ResultCode.SHED]


#: (column name, dtype) of every array column, in on-disk order.
COLUMNS: tuple[tuple[str, str], ...] = (
    ("timestamp", "float64"),
    ("device_type", "uint8"),
    ("device_code", "int64"),
    ("user_id", "int64"),
    ("kind", "uint8"),
    ("direction", "uint8"),
    ("volume", "int64"),
    ("processing_time", "float64"),
    ("server_time", "float64"),
    ("rtt", "float64"),
    ("proxied", "bool"),
    ("result", "uint8"),
    ("session_id", "int64"),
)


#: One request-log row as :meth:`ColumnarTrace.from_rows` takes it: the
#: :class:`LogRecord` fields in declaration order, which is also the order
#: of :data:`COLUMNS` (``device_id`` as its string where the columns hold
#: ``device_code``), with ``device_type``, ``kind``, ``direction`` and
#: ``result`` as their code-table indices above.
Row = tuple[float, int, str, int, int, int, int, float, float, float, bool, int, int]


#: Each enum column's code table as an object array: indexing it with the
#: column's codes decodes the whole column in one C loop.
_MEMBER_ARRAYS = {
    name: np.array(table, dtype=object)
    for name, table in (
        ("device_type", DEVICE_TYPES),
        ("kind", REQUEST_KINDS),
        ("direction", DIRECTIONS),
        ("result", RESULT_CODES),
    )
}


def first_invalid_row(
    columns: dict[str, np.ndarray],
) -> tuple[int, str, str] | None:
    """``(row, column, message)`` of the first row :class:`LogRecord` rejects.

    ``None`` when every row is valid.  The message is the one
    :class:`LogRecord` raises and ``column`` the field it is about;
    callers prefix the row's position.
    """
    volume = columns["volume"]
    carries_payload = volume != 0
    checks = (
        (volume < 0, "volume", "volume must be >= 0"),
        (
            columns["processing_time"] < 0,
            "processing_time",
            "processing_time must be >= 0",
        ),
        (columns["rtt"] < 0, "rtt", "rtt must be >= 0"),
        (
            carries_payload & (columns["kind"] == FILE_OP_CODE),
            "volume",
            "file operations carry no payload",
        ),
        (
            carries_payload & (columns["result"] != OK_CODE),
            "volume",
            "failed requests carry no payload",
        ),
    )
    for bad, column, message in checks:
        if bad.any():
            return int(np.argmax(bad)), column, message
    return None


@dataclass(frozen=True)
class ColumnarTrace:
    """One trace as a struct of arrays (all the same length).

    ``device_code`` indexes into ``device_pool``, the deduplicated tuple of
    device-id strings; every other enum field stores its code-table index.
    Instances are cheap to slice (:meth:`select`), concatenate
    (:meth:`concatenate`) and persist (:meth:`to_npz`), and round-trip
    loss-lessly to :class:`~repro.logs.schema.LogRecord` lists.
    """

    timestamp: np.ndarray
    device_type: np.ndarray
    device_code: np.ndarray
    device_pool: tuple[str, ...]
    user_id: np.ndarray
    kind: np.ndarray
    direction: np.ndarray
    volume: np.ndarray
    processing_time: np.ndarray
    server_time: np.ndarray
    rtt: np.ndarray
    proxied: np.ndarray
    result: np.ndarray
    session_id: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.timestamp)
        for name, _ in COLUMNS:
            if len(getattr(self, name)) != n:
                raise ValueError(
                    f"column {name!r} has {len(getattr(self, name))} rows, "
                    f"expected {n}"
                )
        if len(self.device_code) and self.device_code.max(initial=-1) >= len(
            self.device_pool
        ):
            raise ValueError("device_code points past the device pool")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def empty(cls) -> "ColumnarTrace":
        """A zero-row trace (identity for :meth:`concatenate`)."""
        return cls._from_columns(
            {name: np.empty(0, dtype=dtype) for name, dtype in COLUMNS},
            device_pool=(),
        )

    @classmethod
    def _from_columns(
        cls, columns: dict[str, np.ndarray], device_pool: tuple[str, ...]
    ) -> "ColumnarTrace":
        return cls(device_pool=device_pool, **columns)

    @classmethod
    def from_rows(cls, rows: Iterable[Row]) -> "ColumnarTrace":
        """Build a columnar trace from :data:`Row` tuples, order-preserving.

        The one column builder: each column is one ``np.fromiter`` pass
        over the rows (about twice as fast as transposing with
        ``zip(*rows)``, and no column tuples are built), and device ids
        are pooled in order of first appearance.

        Raises
        ------
        ValueError
            If any row breaks a :class:`LogRecord` invariant.
        """
        if not isinstance(rows, list):
            rows = list(rows)
        if not rows:
            return cls.empty()
        n_rows = len(rows)
        pool: dict[str, int] = {}
        columns = {
            name: np.fromiter(
                map(itemgetter(index), rows), dtype=dtype, count=n_rows
            )
            for index, (name, dtype) in enumerate(COLUMNS)
            if name != "device_code"
        }
        columns["device_code"] = np.fromiter(
            (pool.setdefault(d, len(pool)) for d in map(itemgetter(2), rows)),
            dtype=np.int64,
            count=n_rows,
        )
        invalid = first_invalid_row(columns)
        if invalid is not None:
            row, _, message = invalid
            raise ValueError(f"row {row}: {message}")
        return cls._from_columns(columns, device_pool=tuple(pool))

    @classmethod
    def from_records(cls, records: Iterable[LogRecord]) -> "ColumnarTrace":
        """Build a columnar trace from any record iterable, order-preserving.

        Enum fields are encoded by member identity (:data:`CODE_BY_ID`).
        A field holding a non-member raises the ``KeyError`` the
        member-keyed tables raise for it.
        """
        if not isinstance(records, (list, tuple)):
            records = list(records)
        device, kind = CODE_BY_ID["device_type"], CODE_BY_ID["kind"]
        direction, result = CODE_BY_ID["direction"], CODE_BY_ID["result"]
        try:
            rows = [
                (
                    r.timestamp,
                    device[id(r.device_type)],
                    r.device_id,
                    r.user_id,
                    kind[id(r.kind)],
                    direction[id(r.direction)],
                    r.volume,
                    r.processing_time,
                    r.server_time,
                    r.rtt,
                    r.proxied,
                    result[id(r.result)],
                    r.session_id,
                )
                for r in records
            ]
        except KeyError:
            for r in records:
                DEVICE_CODE[r.device_type]
                KIND_CODE[r.kind]
                DIRECTION_CODE[r.direction]
                RESULT_CODE[r.result]
            raise
        return cls.from_rows(rows)

    # ------------------------------------------------------------------
    # Basic protocol
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.timestamp)

    def columns(self) -> dict[str, np.ndarray]:
        """The array columns as a name -> array dict (no copy)."""
        return {name: getattr(self, name) for name, _ in COLUMNS}

    def record(self, i: int) -> LogRecord:
        """Materialize row ``i`` as a :class:`LogRecord`."""
        return next(self.select([i]).iter_records())

    def __iter__(self) -> Iterator[LogRecord]:
        return self.iter_records()

    def iter_records(self) -> Iterator[LogRecord]:
        """Yield rows as records one at a time (bounded memory)."""
        # .tolist() converts to native Python scalars in bulk, ~5x faster
        # than per-element np indexing; each record is one ``LogRecord``
        # call on the columns' values, with no per-row tuple or frame.
        columns = [
            (
                _MEMBER_ARRAYS[name][getattr(self, name)]
                if name in _MEMBER_ARRAYS
                else getattr(self, name)
            ).tolist()
            for name, _ in COLUMNS
        ]
        columns[2] = map(self.device_pool.__getitem__, columns[2])
        return map(LogRecord, *columns)

    def to_records(self) -> list[LogRecord]:
        """Materialize the whole trace as a record list (row order kept)."""
        return list(self.iter_records())

    def device_ids(self) -> np.ndarray:
        """Per-row device-id strings (decoded through the pool)."""
        pool = np.asarray(self.device_pool, dtype=object)
        if not len(self):
            return pool[:0]
        return pool[self.device_code]

    # ------------------------------------------------------------------
    # Masks
    # ------------------------------------------------------------------

    @property
    def mobile_mask(self) -> np.ndarray:
        return self.device_type != PC_CODE

    @property
    def file_op_mask(self) -> np.ndarray:
        return self.kind == FILE_OP_CODE

    @property
    def chunk_mask(self) -> np.ndarray:
        return self.kind == CHUNK_CODE

    @property
    def ok_mask(self) -> np.ndarray:
        return self.result == OK_CODE

    # ------------------------------------------------------------------
    # Slicing, ordering, concatenation
    # ------------------------------------------------------------------

    def select(self, index: np.ndarray) -> "ColumnarTrace":
        """Rows selected by a boolean mask or integer index array.

        The device pool is shared (codes keep their meaning), so selection
        never rewrites strings.
        """
        return self._from_columns(
            {name: getattr(self, name)[index] for name, _ in COLUMNS},
            device_pool=self.device_pool,
        )

    def sorted_by_user_time(self) -> "ColumnarTrace":
        """Rows stably reordered by ``(user_id, timestamp)``.

        This is the serial generator's emission order (users ascending,
        each user time-sorted); ties keep their current row order because
        :func:`np.lexsort` is stable.
        """
        return self.select(np.lexsort((self.timestamp, self.user_id)))

    @classmethod
    def concatenate(cls, traces: Sequence["ColumnarTrace"]) -> "ColumnarTrace":
        """Stack traces row-wise, merging device pools and remapping codes."""
        traces = [t for t in traces if len(t)]
        if not traces:
            return cls.empty()
        pool: dict[str, int] = {}
        remapped_codes: list[np.ndarray] = []
        for trace in traces:
            lookup = np.asarray(
                [pool.setdefault(d, len(pool)) for d in trace.device_pool],
                dtype=np.int64,
            )
            remapped_codes.append(
                lookup[trace.device_code]
                if len(trace.device_pool)
                else trace.device_code
            )
        columns = {
            name: np.concatenate([getattr(t, name) for t in traces])
            for name, _ in COLUMNS
            if name != "device_code"
        }
        columns["device_code"] = np.concatenate(remapped_codes)
        return cls._from_columns(columns, device_pool=tuple(pool))

    # ------------------------------------------------------------------
    # NPZ persistence
    # ------------------------------------------------------------------

    def to_npz_payload(self) -> dict[str, np.ndarray]:
        """The ``np.savez``-ready mapping for this trace (plus metadata)."""
        payload = dict(self.columns())
        payload["device_pool"] = np.asarray(self.device_pool, dtype=np.str_)
        payload["schema_version"] = np.asarray(SCHEMA_VERSION, dtype=np.int64)
        return payload

    def to_npz(self, path: str | Path) -> None:
        """Persist the trace to ``path`` (compressed NPZ)."""
        np.savez_compressed(path, **self.to_npz_payload())

    @classmethod
    def from_npz_payload(cls, data) -> "ColumnarTrace":
        """Rebuild a trace from a loaded NPZ mapping.

        Raises
        ------
        ValueError
            If the payload was written under a different
            :data:`SCHEMA_VERSION` (the caller should regenerate).
        """
        version = int(data["schema_version"])
        if version != SCHEMA_VERSION:
            raise ValueError(
                f"columnar schema version mismatch: file={version}, "
                f"library={SCHEMA_VERSION}"
            )
        columns = {
            name: np.asarray(data[name], dtype=dtype) for name, dtype in COLUMNS
        }
        pool = tuple(str(s) for s in data["device_pool"])
        return cls._from_columns(columns, device_pool=pool)

    @classmethod
    def from_npz(cls, path: str | Path) -> "ColumnarTrace":
        """Load a trace persisted by :meth:`to_npz`."""
        with np.load(path, allow_pickle=False) as data:
            return cls.from_npz_payload(data)


#: ``array`` typecode holding each :data:`COLUMNS` dtype (a bool is one
#: byte, 0 or 1, read back as ``bool``).
_TYPECODES = {"float64": "d", "uint8": "B", "int64": "q", "bool": "B"}


class ColumnBuffer:
    """An append-only request log held as typed column buffers.

    :meth:`append` takes one row's fields in the :data:`Row` layout, enum
    fields as their code-table indices, and appends each to its column's
    :class:`array.array`; device ids are pooled as they arrive.  No
    :class:`LogRecord` is built.  :meth:`take` hands the buffers over as a
    :class:`ColumnarTrace` whose arrays view them (no copy), and the
    buffer starts again empty.
    """

    __slots__ = ("_columns", "_pool", "append")

    def __init__(self) -> None:
        self._reset()

    def _reset(self) -> None:
        columns = [array(_TYPECODES[dtype]) for _, dtype in COLUMNS]
        pool: dict[str, int] = {}
        self._columns = columns
        self._pool = pool
        (
            timestamp, device_type, device_code, user_id, kind, direction,
            volume, processing_time, server_time, rtt, proxied, result,
            session_id,
        ) = (column.append for column in columns)
        setdefault = pool.setdefault

        def append(
            t, dtype, device_id, user, k, d, vol, ptime, stime, r, prox, res,
            session,
        ) -> None:
            timestamp(t)
            device_type(dtype)
            device_code(setdefault(device_id, len(pool)))
            user_id(user)
            kind(k)
            direction(d)
            volume(vol)
            processing_time(ptime)
            server_time(stime)
            rtt(r)
            proxied(prox)
            result(res)
            session_id(session)

        self.append = append

    def take(self) -> ColumnarTrace:
        """The buffered rows in append order; the buffer restarts empty.

        Raises
        ------
        ValueError
            If any row breaks a :class:`LogRecord` invariant.  The buffer
            then keeps every row and can still be appended to.
        """
        columns = {
            name: np.frombuffer(column, dtype=dtype)
            for (name, dtype), column in zip(COLUMNS, self._columns)
        }
        invalid = first_invalid_row(columns)
        if invalid is not None:
            # Drop the views: an array.array cannot grow while exported.
            del columns
            row, _, message = invalid
            raise ValueError(f"row {row}: {message}")
        pool = tuple(self._pool)
        self._reset()
        return ColumnarTrace._from_columns(columns, device_pool=pool)


#: Default rows buffered per source by :func:`merge_columnar_sorted` —
#: ~64 MB of scratch per 8 sources at ~60 bytes/row, far below any
#: whole-trace materialization.
DEFAULT_MERGE_BLOCK_ROWS = 1 << 20


def iter_columnar_blocks(
    trace: ColumnarTrace, block_rows: int
) -> Iterator[ColumnarTrace]:
    """Yield ``trace`` as consecutive row slices of at most ``block_rows``.

    Slices are NumPy views (zero copy); on a memory-mapped trace each
    yielded block touches only its own pages.
    """
    if block_rows < 1:
        raise ValueError(f"block_rows must be >= 1, got {block_rows}")
    for lo in range(0, len(trace), block_rows):
        yield ColumnarTrace._from_columns(
            {
                name: getattr(trace, name)[lo : lo + block_rows]
                for name, _ in COLUMNS
            },
            device_pool=trace.device_pool,
        )


def merge_columnar_sorted(
    sources: Sequence[ColumnarTrace],
    *,
    block_rows: int = DEFAULT_MERGE_BLOCK_ROWS,
) -> Iterator[ColumnarTrace]:
    """Memory-bounded k-way merge of sorted columnar sources.

    Each source must already be sorted by ``(user_id, timestamp)`` (what
    :meth:`ColumnarTrace.sorted_by_user_time` produces and the sharded
    generator writes).  The concatenation of the yielded blocks is
    **byte-identical** to
    ``ColumnarTrace.concatenate(sources).sorted_by_user_time()``: same
    rows, same order, same device pool — ties across sources resolve in
    source order exactly as a stable lexsort over the concatenation would.

    Peak scratch is ``O(block_rows × len(sources))`` rows: the merge
    buffers one window of at most ``block_rows`` rows per source (a
    zero-copy slice when sources are memory-mapped) and emits the rows
    that are provably complete — those whose key is below the smallest
    *last buffered* key of any source with unread data.  Emitted blocks
    therefore vary in size but never exceed ``block_rows × len(sources)``
    rows.
    """
    if block_rows < 1:
        raise ValueError(f"block_rows must be >= 1, got {block_rows}")
    live = [t for t in sources if len(t)]

    # One part-wide device pool, first-appearance order across sources —
    # identical to what concatenate() would build (it also skips empties).
    pool: dict[str, int] = {}
    lookups: list[np.ndarray | None] = []
    for trace in live:
        if len(trace.device_pool):
            lookups.append(
                np.asarray(
                    [pool.setdefault(d, len(pool)) for d in trace.device_pool],
                    dtype=np.int64,
                )
            )
        else:
            lookups.append(None)
    device_pool = tuple(pool)

    primary = [t.user_id for t in live]
    secondary = [t.timestamp for t in live]
    lengths = [len(t) for t in live]
    heads = [0] * len(live)

    while True:
        active = [j for j in range(len(live)) if heads[j] < lengths[j]]
        if not active:
            return
        tails = {j: min(heads[j] + block_rows, lengths[j]) for j in active}
        # Rows are complete once their key can no longer be undercut by
        # unread data: the bound is the smallest last-buffered key among
        # sources that still have rows beyond their window.  Rows *equal*
        # to the bound are safe only from sources at or before the lowest
        # such source (``j_bound``): a stable sort over the concatenation
        # orders equal keys by source, and sources after ``j_bound`` may
        # still have more bound-valued rows unread.
        bound = None
        j_bound = None
        for j in active:
            if tails[j] < lengths[j]:
                key = (primary[j][tails[j] - 1], secondary[j][tails[j] - 1])
                if bound is None or key < bound:
                    bound = key
                    j_bound = j
        pieces: list[tuple[int, int, int]] = []
        for j in active:
            lo, hi = heads[j], tails[j]
            if bound is None:
                cut = hi
            else:
                bound_primary, bound_secondary = bound
                window_primary = primary[j][lo:hi]
                left = lo + int(
                    np.searchsorted(window_primary, bound_primary, side="left")
                )
                right = lo + int(
                    np.searchsorted(window_primary, bound_primary, side="right")
                )
                cut = left + int(
                    np.searchsorted(
                        secondary[j][left:right],
                        bound_secondary,
                        side="right" if j <= j_bound else "left",
                    )
                )
            if cut > lo:
                pieces.append((j, lo, cut))
                heads[j] = cut
        # Progress guarantee: the bound source's window ends exactly at
        # the bound key, so at least its window always drains in full.
        columns = {
            name: np.concatenate(
                [getattr(live[j], name)[lo:hi] for j, lo, hi in pieces]
            )
            for name, _ in COLUMNS
            if name != "device_code"
        }
        columns["device_code"] = np.concatenate(
            [
                lookups[j][live[j].device_code[lo:hi]]
                if lookups[j] is not None
                else live[j].device_code[lo:hi]
                for j, lo, hi in pieces
            ]
        )
        # Pieces are gathered in source order, so the stable lexsort
        # resolves equal keys exactly like sorting the concatenation.
        emit_order = np.lexsort((columns["timestamp"], columns["user_id"]))
        yield ColumnarTrace._from_columns(
            {name: column[emit_order] for name, column in columns.items()},
            device_pool=device_pool,
        )


def as_columnar(records) -> ColumnarTrace:
    """Coerce a record iterable (or pass through a trace) to columnar form."""
    if isinstance(records, ColumnarTrace):
        return records
    return ColumnarTrace.from_records(records)


# Defensive check: a LogRecord field addition without a columnar column is a
# silent data-loss bug, and a reordering would scramble from_rows; fail at
# import time instead.
_COLUMN_NAMES = [name for name, _ in COLUMNS]
_EXPECTED = [
    "device_code" if f.name == "device_id" else f.name for f in fields(LogRecord)
]
if _COLUMN_NAMES != _EXPECTED:  # pragma: no cover - import-time guard
    raise RuntimeError(
        "ColumnarTrace columns out of sync with LogRecord fields: "
        f"{_COLUMN_NAMES} != {_EXPECTED}"
    )
