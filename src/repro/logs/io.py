"""Reading and writing log files.

Two interchangeable on-disk formats are supported:

* **TSV** — one record per line, tab separated, with a ``#``-prefixed header.
  Compact and greppable; the format we recommend for large synthetic traces.
* **JSONL** — one JSON object per line.  Self-describing and friendlier to
  ad-hoc tooling.

Both writers stream: they never hold more than one record in memory, so a
multi-gigabyte trace can be produced or consumed on a laptop.  Readers are
tolerant of CRLF line endings and trailing blank lines (files that visited
a Windows editor or a ``printf``-happy shell still parse).

For analysis workloads there is a second, much faster read path:
:func:`read_tsv_columnar` / :func:`read_jsonl_columnar` /
:func:`read_columnar` bulk-parse the file in line chunks straight into a
:class:`~repro.logs.columnar.ColumnarTrace` — one ``np.asarray`` call per
numeric column per chunk instead of one ``LogRecord`` per line — while
preserving the legacy 12-column tolerance of the record readers and
rejecting every line they reject.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import itertools
import json
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator

import numpy as np

from .columnar import (
    COLUMNS,
    DEVICE_TYPES,
    DIRECTIONS,
    PROXIED_BY_VALUE,
    REQUEST_KINDS,
    RESULT_CODES,
    ColumnarTrace,
    first_invalid_row,
)
from .schema import Direction, DeviceType, LogRecord, RequestKind, ResultCode

TSV_COLUMNS = (
    "timestamp",
    "device_type",
    "device_id",
    "user_id",
    "kind",
    "direction",
    "volume",
    "processing_time",
    "server_time",
    "rtt",
    "proxied",
    "result",
    "session_id",
)

#: Column count of traces written before the ``result`` field existed;
#: such lines parse with ``result=ok`` (the only value they could carry).
_LEGACY_TSV_COLUMNS = len(TSV_COLUMNS) - 1

_HEADER = "#" + "\t".join(TSV_COLUMNS)

#: Enum value -> member: :func:`record_from_tsv` parses the enum columns
#: by table lookup instead of calling the enum.
_DEVICE_TYPES = {member.value: member for member in DeviceType}
_KINDS = {member.value: member for member in RequestKind}
_DIRECTIONS = {member.value: member for member in Direction}
_RESULTS = {member.value: member for member in ResultCode}

#: ``(column index, column name, table)`` of each looked-up column (the
#: enums and ``proxied``), to name the column and value a failed lookup
#: came from.
_TSV_ENUM_COLUMNS = tuple(
    (TSV_COLUMNS.index(name), name, table)
    for name, table in (
        ("device_type", _DEVICE_TYPES),
        ("kind", _KINDS),
        ("direction", _DIRECTIONS),
        ("result", _RESULTS),
        ("proxied", PROXIED_BY_VALUE),
    )
)


def _open(path: str | Path, mode: str) -> IO[str]:
    """Open ``path`` as text, transparently handling ``.gz`` suffixes."""
    path = Path(path)
    if path.suffix == ".gz":
        return io.TextIOWrapper(gzip.open(path, mode + "b"), encoding="utf-8")
    return open(path, mode + "t", encoding="utf-8")


def record_to_tsv(record: LogRecord) -> str:
    """Serialize one record as a TSV line (no trailing newline)."""
    return "\t".join(
        (
            f"{record.timestamp:.6f}",
            record.device_type.value,
            record.device_id,
            str(record.user_id),
            record.kind.value,
            record.direction.value,
            str(record.volume),
            f"{record.processing_time:.6f}",
            f"{record.server_time:.6f}",
            f"{record.rtt:.6f}",
            "1" if record.proxied else "0",
            record.result.value,
            str(record.session_id),
        )
    )


#: One :func:`record_to_tsv` line as a ``%`` template over a row whose
#: enum fields and device id are already strings and whose ``proxied``
#: is a bool (``%d`` renders it ``1``/``0``).  ``%.6f`` and ``%d`` format
#: exactly like the f-string ``.6f`` and ``str`` of :func:`record_to_tsv`.
_TSV_LINE = "\t".join(
    ("%.6f", "%s", "%s", "%d", "%s", "%s", "%d")
    + ("%.6f", "%.6f", "%.6f", "%d", "%s", "%d")
)

#: Rows formatted per block by :func:`iter_tsv_blocks`.  A block holds
#: one Python object per field and one line per row (~1 KB a row), so
#: this bounds what a digest adds to the peak RSS to a few MB.
TSV_BLOCK_ROWS = 4_096

#: Code-table value strings of the enum columns, by column name.
_ENUM_VALUES = {
    name: np.asarray([member.value for member in table], dtype=object)
    for name, table in (
        ("device_type", DEVICE_TYPES),
        ("kind", REQUEST_KINDS),
        ("direction", DIRECTIONS),
        ("result", RESULT_CODES),
    )
}


def iter_tsv_blocks(trace: ColumnarTrace) -> Iterator[str]:
    """Stream a columnar trace as TSV lines, :data:`TSV_BLOCK_ROWS` at a time.

    Each yielded block is its rows' :func:`record_to_tsv` lines joined by
    newlines, with no trailing newline; the lines are byte-identical to
    ``record_to_tsv`` on the rows' records, and no record is built.  Only
    one block of strings is alive at a time.
    """
    pool = np.asarray(trace.device_pool, dtype=object)
    for lo in range(0, len(trace), TSV_BLOCK_ROWS):
        hi = lo + TSV_BLOCK_ROWS
        columns = []
        for name, _ in COLUMNS:
            column = getattr(trace, name)[lo:hi]
            if name == "device_code":
                column = pool[column]
            elif name in _ENUM_VALUES:
                column = _ENUM_VALUES[name][column]
            columns.append(column.tolist())
        yield "\n".join(map(_TSV_LINE.__mod__, zip(*columns)))


def tsv_digest(trace: ColumnarTrace) -> str:
    """MD5 of the trace's TSV lines joined by newlines (no header).

    The access-log digest of the replay harness and of experiment R3: the
    MD5 of the newline-joined :func:`record_to_tsv` lines of the records,
    hashed block by block instead of from one joined string.
    """
    digest = hashlib.md5()
    separator = b""
    for block in iter_tsv_blocks(trace):
        digest.update(separator)
        digest.update(block.encode())
        separator = b"\n"
    return digest.hexdigest()


def record_from_tsv(line: str) -> LogRecord:
    """Parse one TSV line into a :class:`LogRecord`.

    Accepts both the current column set and the legacy pre-``result``
    layout (every legacy request was implicitly successful), with or
    without a trailing CR/LF (CRLF files parse unchanged).

    Raises
    ------
    ValueError
        If the line does not have exactly the expected number of columns or
        a field fails to parse.  Blank lines are malformed here; the file
        readers skip them before calling this.
    """
    return _parse_tsv_line(line, [None] * 7)


def _parse_tsv_line(line: str, last: list) -> LogRecord:
    """:func:`record_from_tsv`, sharing objects with the previous line.

    ``last`` is ``[device_id, user_id text, user_id, rtt text, rtt,
    session_id text, session_id]`` of the line parsed before with the
    same list (``None`` before the first), updated in place.  Where a
    field's text repeats, the record reuses the previous line's object
    instead of a new equal one; a user's consecutive records mostly
    repeat all four, so a read trace holds far fewer objects.  A NaN
    ``rtt`` is never shared: a record compares equal to itself field by
    field, and sharing one NaN object would make two NaN-``rtt`` records
    equal where two separately parsed ones are not.
    """
    parts = line.rstrip("\r\n").split("\t")
    if len(parts) == _LEGACY_TSV_COLUMNS:
        parts.insert(11, ResultCode.OK.value)
    elif len(parts) != len(TSV_COLUMNS):
        raise ValueError(
            f"expected {len(TSV_COLUMNS)} columns, got {len(parts)}: {line!r}"
        )
    try:
        device_id = parts[2]
        if device_id == last[0]:
            device_id = last[0]
        else:
            last[0] = device_id
        text = parts[3]
        if text == last[1]:
            user_id = last[2]
        else:
            user_id = int(text)
            last[1], last[2] = text, user_id
        text = parts[9]
        if text == last[3]:
            rtt = last[4]
        else:
            rtt = float(text)
            last[3], last[4] = (text, rtt) if rtt == rtt else (None, None)
        text = parts[12]
        if text == last[5]:
            session_id = last[6]
        else:
            session_id = int(text)
            last[5], last[6] = text, session_id
        return LogRecord(
            float(parts[0]),
            _DEVICE_TYPES[parts[1]],
            device_id,
            user_id,
            _KINDS[parts[4]],
            _DIRECTIONS[parts[5]],
            int(parts[6]),
            float(parts[7]),
            float(parts[8]),
            rtt,
            PROXIED_BY_VALUE[parts[10]],
            _RESULTS[parts[11]],
            session_id,
        )
    except KeyError:
        for index, name, table in _TSV_ENUM_COLUMNS:
            if parts[index] not in table:
                raise ValueError(
                    f"unknown {name} value {parts[index]!r}: {line!r}"
                ) from None
        raise


def record_to_dict(record: LogRecord) -> dict:
    """Serialize one record as a plain dict (for JSONL)."""
    return {
        "timestamp": record.timestamp,
        "device_type": record.device_type.value,
        "device_id": record.device_id,
        "user_id": record.user_id,
        "kind": record.kind.value,
        "direction": record.direction.value,
        "volume": record.volume,
        "processing_time": record.processing_time,
        "server_time": record.server_time,
        "rtt": record.rtt,
        "proxied": record.proxied,
        "result": record.result.value,
        "session_id": record.session_id,
    }


def _json_proxied(value: object) -> bool:
    """Decode a JSONL ``proxied`` field: only JSON ``true``/``false``
    (by identity: ``1 == True``) — never a string or number's truthiness."""
    if value is True or value is False:
        return value
    raise ValueError(f"unknown proxied value: {value!r}")


def _json_enum(table: dict, name: str, value: object):
    """Decode a JSONL enum field through its TSV value table; an unknown
    value raises the columnar readers' ``unknown {name} value`` error."""
    try:
        return table[value]
    except KeyError:
        raise ValueError(f"unknown {name} value: {value!r}") from None


def record_from_dict(data: dict) -> LogRecord:
    """Build a record from a dict produced by :func:`record_to_dict`."""
    return LogRecord(
        timestamp=float(data["timestamp"]),
        device_type=_json_enum(_DEVICE_TYPES, "device_type", data["device_type"]),
        device_id=str(data["device_id"]),
        user_id=int(data["user_id"]),
        kind=_json_enum(_KINDS, "kind", data["kind"]),
        direction=_json_enum(_DIRECTIONS, "direction", data["direction"]),
        volume=int(data.get("volume", 0)),
        processing_time=float(data.get("processing_time", 0.0)),
        server_time=float(data.get("server_time", 0.0)),
        rtt=float(data.get("rtt", 0.0)),
        proxied=_json_proxied(data.get("proxied", False)),
        result=_json_enum(_RESULTS, "result", data.get("result", "ok")),
        session_id=int(data.get("session_id", -1)),
    )


def write_tsv(records: Iterable[LogRecord], path: str | Path) -> int:
    """Stream ``records`` to ``path`` in TSV format.  Returns record count."""
    count = 0
    with _open(path, "w") as fh:
        fh.write(_HEADER + "\n")
        for record in records:
            fh.write(record_to_tsv(record) + "\n")
            count += 1
    return count


def read_tsv(path: str | Path) -> Iterator[LogRecord]:
    """Stream records from a TSV file written by :func:`write_tsv`.

    Consecutive records share their repeated ``device_id``, ``user_id``,
    ``rtt`` and ``session_id`` objects (:func:`_parse_tsv_line`); the
    reader keeps only the previous line's, so its state stays O(1).
    """
    last: list = [None] * 7
    with _open(path, "r") as fh:
        for line in fh:
            if not line.strip() or line.startswith("#"):
                continue
            yield _parse_tsv_line(line, last)


def write_jsonl(records: Iterable[LogRecord], path: str | Path) -> int:
    """Stream ``records`` to ``path`` in JSONL format.  Returns record count."""
    count = 0
    with _open(path, "w") as fh:
        for record in records:
            fh.write(json.dumps(record_to_dict(record)) + "\n")
            count += 1
    return count


def read_jsonl(path: str | Path) -> Iterator[LogRecord]:
    """Stream records from a JSONL file written by :func:`write_jsonl`."""
    with _open(path, "r") as fh:
        for line in fh:
            if not line.strip():
                continue
            yield record_from_dict(json.loads(line))


def _stem_suffix(path: str | Path) -> str:
    suffixes = Path(path).suffixes
    if suffixes and suffixes[-1] == ".gz":
        return suffixes[-2] if len(suffixes) > 1 else ""
    return suffixes[-1] if suffixes else ""


def open_reader(path: str | Path) -> Iterator[LogRecord]:
    """Pick the reader by file extension (``.tsv``/``.jsonl``, plus ``.gz``)."""
    readers: dict[str, Callable[[str | Path], Iterator[LogRecord]]] = {
        ".tsv": read_tsv,
        ".jsonl": read_jsonl,
    }
    try:
        reader = readers[_stem_suffix(path)]
    except KeyError:
        raise ValueError(f"unsupported log format: {path}") from None
    return reader(path)


# ----------------------------------------------------------------------
# Columnar bulk readers
# ----------------------------------------------------------------------

#: Lines parsed per chunk by the columnar readers.  Each chunk becomes one
#: set of Python lists sliced into columns, so memory stays bounded by the
#: chunk while conversion amortizes to one ``np.asarray`` per column.
COLUMNAR_CHUNK_LINES = 131_072


def _data_lines(fh: IO[str]) -> Iterator[str]:
    """Yield stripped data lines, skipping headers/comments and blanks."""
    for line in fh:
        line = line.rstrip("\r\n")
        if not line or line.startswith("#"):
            continue
        yield line


def _tsv_chunk_to_columnar(
    lines: list[str], pool: dict[str, int]
) -> ColumnarTrace:
    # Fast path: when every line has the same column count, one join+split
    # flattens the whole chunk in C and stride slices peel off the columns
    # — no per-line split, no row tuples.  A chunk mixing layouts falls
    # back to row-at-a-time (conversion errors surface either way).
    n_rows = len(lines)
    n_full = len(TSV_COLUMNS)
    flat = "\t".join(lines).split("\t")
    if len(flat) == n_rows * n_full:
        columns = tuple(flat[i::n_full] for i in range(n_full))
    elif len(flat) == n_rows * _LEGACY_TSV_COLUMNS:
        # Legacy pre-``result`` layout: splice in the only value a legacy
        # trace could carry, keeping the column slice uniform.
        legacy = tuple(flat[i::_LEGACY_TSV_COLUMNS] for i in range(_LEGACY_TSV_COLUMNS))
        columns = legacy[:11] + (["ok"] * n_rows,) + legacy[11:]
    else:
        rows = []
        for line in lines:
            parts = line.split("\t")
            if len(parts) == _LEGACY_TSV_COLUMNS:
                parts = parts[:11] + ["ok", parts[11]]
            elif len(parts) != n_full:
                raise ValueError(
                    f"expected {n_full} columns, got {len(parts)}: "
                    f"{line!r}"
                )
            rows.append(parts)
        columns = tuple(zip(*rows))
    return ColumnarTrace.from_string_columns(
        timestamp=columns[0],
        device_type=columns[1],
        device_id=columns[2],
        user_id=columns[3],
        kind=columns[4],
        direction=columns[5],
        volume=columns[6],
        processing_time=columns[7],
        server_time=columns[8],
        rtt=columns[9],
        proxied=columns[10],
        result=columns[11],
        session_id=columns[12],
        device_pool=pool,
    )


def _jsonl_chunk_to_columnar(
    lines: list[str], pool: dict[str, int]
) -> ColumnarTrace:
    dicts = [json.loads(line) for line in lines]
    return ColumnarTrace.from_string_columns(
        timestamp=[d["timestamp"] for d in dicts],
        device_type=[d["device_type"] for d in dicts],
        device_id=[str(d["device_id"]) for d in dicts],
        user_id=[d["user_id"] for d in dicts],
        kind=[d["kind"] for d in dicts],
        direction=[d["direction"] for d in dicts],
        volume=[d.get("volume", 0) for d in dicts],
        processing_time=[d.get("processing_time", 0.0) for d in dicts],
        server_time=[d.get("server_time", 0.0) for d in dicts],
        rtt=[d.get("rtt", 0.0) for d in dicts],
        proxied=[
            "1" if _json_proxied(d.get("proxied", False)) else "0"
            for d in dicts
        ],
        result=[d.get("result", "ok") for d in dicts],
        session_id=[d.get("session_id", -1) for d in dicts],
        device_pool=pool,
    )


def _read_chunks(
    path: str | Path,
    chunk_lines: int,
    parse_chunk: Callable[[list[str], dict[str, int]], ColumnarTrace],
) -> ColumnarTrace:
    """Parse ``path`` ``chunk_lines`` data lines at a time and concatenate.

    Every chunk is checked against :class:`LogRecord`'s invariants once,
    so the bulk readers reject exactly the lines the record readers do;
    the error names the row's position in the file.
    """
    if chunk_lines < 1:
        raise ValueError("chunk_lines must be >= 1")
    chunks: list[ColumnarTrace] = []
    pool: dict[str, int] = {}
    first_row = 0
    with _open(path, "r") as fh:
        lines = _data_lines(fh)
        while chunk := list(itertools.islice(lines, chunk_lines)):
            trace = parse_chunk(chunk, pool)
            invalid = first_invalid_row(trace.columns())
            if invalid is not None:
                row, message = invalid
                raise ValueError(f"row {first_row + row}: {message}")
            first_row += len(trace)
            chunks.append(trace)
    if not chunks:
        return ColumnarTrace.empty()
    # The chunks thread one device pool, so the concatenation remap is the
    # identity — chunk codes survive unchanged.
    return (
        chunks[0] if len(chunks) == 1 else ColumnarTrace.concatenate(chunks)
    )


def read_tsv_columnar(
    path: str | Path, *, chunk_lines: int = COLUMNAR_CHUNK_LINES
) -> ColumnarTrace:
    """Bulk-parse a TSV trace into a :class:`ColumnarTrace`.

    Reads ``chunk_lines`` lines at a time and converts them column-sliced
    (one ``np.asarray`` per numeric column per chunk) instead of building a
    :class:`LogRecord` per line — the same rows :func:`read_tsv` yields, an
    order of magnitude faster.  Tolerates the legacy 12-column layout,
    CRLF line endings and trailing blank lines exactly like the record
    reader.
    """
    return _read_chunks(path, chunk_lines, _tsv_chunk_to_columnar)


def read_jsonl_columnar(
    path: str | Path, *, chunk_lines: int = COLUMNAR_CHUNK_LINES
) -> ColumnarTrace:
    """Bulk-parse a JSONL trace into a :class:`ColumnarTrace`.

    Same chunked column-sliced conversion as :func:`read_tsv_columnar`;
    missing optional fields take the :func:`record_from_dict` defaults.
    """
    return _read_chunks(path, chunk_lines, _jsonl_chunk_to_columnar)


def read_columnar(path: str | Path) -> ColumnarTrace:
    """Columnar counterpart of :func:`open_reader`: pick by extension."""
    readers: dict[str, Callable[[str | Path], ColumnarTrace]] = {
        ".tsv": read_tsv_columnar,
        ".jsonl": read_jsonl_columnar,
        ".npz": ColumnarTrace.from_npz,
    }
    try:
        reader = readers[_stem_suffix(path)]
    except KeyError:
        raise ValueError(f"unsupported log format: {path}") from None
    return reader(path)
