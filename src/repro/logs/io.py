"""Reading and writing log files.

Two interchangeable on-disk formats are supported:

* **TSV** — one record per line, tab separated, with a ``#``-prefixed header.
  Compact and greppable; the format we recommend for large synthetic traces.
* **JSONL** — one JSON object per line.  Self-describing and friendlier to
  ad-hoc tooling.

Both writers stream: they never hold more than one record in memory.

Each format has one decoder, and the readers are its two sinks.  The
decoder reads :data:`CHUNK_LINES` file lines at a time and turns the
chunk's data lines into its columns of field values, through one
converter per column: ``float``, ``int`` (within int64), the enum and
``proxied`` value tables and the device pool.  The record readers (:func:`read_tsv`,
:func:`read_jsonl`, :func:`open_reader`) build the chunk's
:class:`LogRecord` list and yield it, so they hold one chunk, not one
record or the file; :func:`record_from_tsv` and :func:`record_from_dict`
decode a one-line chunk.  The columnar readers (:func:`read_tsv_columnar`,
:func:`read_jsonl_columnar`, :func:`read_columnar`) turn each column into
an array and concatenate the chunks.

So every reader accepts and rejects the same lines.  Header, ``#`` and
blank lines are skipped, CRLF line endings are tolerated, as is the legacy
12-column TSV layout.  A line that does not decode raises one
``ValueError`` naming its 1-based line number in the file, the column and
the line, whichever reader met it.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import itertools
import json
import math
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator

import numpy as np

from .columnar import (
    CODE_BY_ID,
    COLUMNS,
    DEVICE_TYPES,
    DIRECTIONS,
    REQUEST_KINDS,
    RESULT_CODES,
    ColumnarTrace,
    first_invalid_row,
)
from .schema import LogRecord, ResultCode

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


def write_tsv(records: Iterable[LogRecord], path: str | Path) -> int:
    """Stream ``records`` to ``path`` in TSV format.  Returns record count."""
    count = 0
    with _open(path, "w") as fh:
        fh.write(_HEADER + "\n")
        for record in records:
            fh.write(record_to_tsv(record) + "\n")
            count += 1
    return count


def write_jsonl(records: Iterable[LogRecord], path: str | Path) -> int:
    """Stream ``records`` to ``path`` in JSONL format.  Returns record count."""
    count = 0
    with _open(path, "w") as fh:
        for record in records:
            fh.write(json.dumps(record_to_dict(record)) + "\n")
            count += 1
    return count


def _stem_suffix(path: str | Path) -> str:
    suffixes = Path(path).suffixes
    if suffixes and suffixes[-1] == ".gz":
        return suffixes[-2] if len(suffixes) > 1 else ""
    return suffixes[-1] if suffixes else ""


def _by_suffix(path: str | Path, readers: dict[str, Callable]):
    try:
        reader = readers[_stem_suffix(path)]
    except KeyError:
        raise ValueError(f"unsupported log format: {path}") from None
    return reader(path)


def open_reader(path: str | Path) -> Iterator[LogRecord]:
    """Pick the record reader by file extension (``.tsv``/``.jsonl``, plus ``.gz``)."""
    return _by_suffix(path, {".tsv": read_tsv, ".jsonl": read_jsonl})


def read_columnar(path: str | Path) -> ColumnarTrace:
    """Columnar counterpart of :func:`open_reader`: pick by extension."""
    return _by_suffix(
        path,
        {
            ".tsv": read_tsv_columnar,
            ".jsonl": read_jsonl_columnar,
            ".npz": ColumnarTrace.from_npz,
        },
    )


def read_tsv(path: str | Path) -> Iterator[LogRecord]:
    """Stream records from a TSV file written by :func:`write_tsv`."""
    return _read_records(path, _TSV)


def read_jsonl(path: str | Path) -> Iterator[LogRecord]:
    """Stream records from a JSONL file written by :func:`write_jsonl`."""
    return _read_records(path, _JSONL)


def read_tsv_columnar(path: str | Path) -> ColumnarTrace:
    """Read a TSV trace into a :class:`ColumnarTrace`: the rows
    :func:`read_tsv` yields, with no :class:`LogRecord` built."""
    return _read_columnar(path, _TSV)


def read_jsonl_columnar(path: str | Path) -> ColumnarTrace:
    """Read a JSONL trace into a :class:`ColumnarTrace`: the rows
    :func:`read_jsonl` yields, with no :class:`LogRecord` built."""
    return _read_columnar(path, _JSONL)


def record_from_tsv(line: str) -> LogRecord:
    """Decode one TSV line (a one-line chunk) into a :class:`LogRecord`.

    A trailing CR/LF is dropped.  A blank or ``#`` line is malformed here;
    the file readers skip those before decoding.

    Raises
    ------
    ValueError
        If the line does not decode; the message gives it line number 1.
    """
    line = line.rstrip("\r\n")
    return _decode_one(_TSV, line + "\n", line)


def record_from_dict(data: dict) -> LogRecord:
    """Decode a dict produced by :func:`record_to_dict` (a one-line chunk).

    Raises
    ------
    ValueError
        If the dict does not decode; the message quotes it as its JSON
        line, line number 1.
    """
    return _decode_one(_JSON_OBJECTS, data, json.dumps(data, default=repr))


# ----------------------------------------------------------------------
# The decoder: chunks of lines -> columns of field values -> records or arrays
# ----------------------------------------------------------------------

#: File lines read per chunk by every reader (header, comment and blank
#: lines included).  A record reader holds one chunk's columns and
#: records at a time; the columnar readers amortize one ``np.fromiter``
#: per column over it.  Of 256-16,384, 1,024 read fastest in both sinks.
CHUNK_LINES = 1_024

#: The characters a blank line is made of.
_BLANK = " \t\n\r\f\v"

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


class _BadLine(Exception):
    """``(column, problem)``: what is wrong with a line (``columns`` is
    the line's shape)."""


#: Exceptions a chunk's decode raises on a line that does not decode.
_DECODE_ERRORS = (_BadLine, KeyError, OverflowError, TypeError, ValueError)


class _DevicePool:
    """The device ids read so far, in order of first appearance.

    :attr:`ids` holds each id as one string object, which every record
    with that id shares; :attr:`codes` gives its position.
    """

    def __init__(self) -> None:
        self.ids: dict[str, str] = {}
        self.codes: dict[str, int] = {}

    def intern(self, texts: list[str]) -> Iterator[str]:
        """Each text's pooled string, pooling the ones not seen before."""
        ids, codes = self.ids, self.codes
        for text in dict.fromkeys(texts):
            if text not in ids:
                ids[text] = text
                codes[text] = len(codes)
        return map(ids.__getitem__, texts)


# Column converters: ``convert(pool, values)`` returns the column's field
# values (enum members, pooled device ids) as an iterator.  A bad value
# raises from ``convert`` itself or while its iterator is drawn.


def _floats(pool: _DevicePool, values: list) -> Iterator[float]:
    return map(float, values)


def _shared_floats(pool: _DevicePool, texts: list[str]) -> Iterator[float]:
    """:func:`_floats`, one float object per distinct text of the chunk.

    Not where any text reads as NaN: a record compares equal to itself
    field by field, and a shared NaN object would make two NaN records
    equal where two separately decoded ones are not.
    """
    table = dict.fromkeys(texts)
    for text in table:
        table[text] = float(text)
    if any(map(math.isnan, table.values())):
        return map(float, texts)
    return map(table.__getitem__, texts)


def _ints(pool: _DevicePool, values: list) -> Iterator[int]:
    """``int`` of each value within int64, one int object per distinct value."""
    table = dict.fromkeys(values)
    for value in table:
        table[value] = int(value)
    if table and (
        min(table.values()) < _INT64_MIN or max(table.values()) > _INT64_MAX
    ):
        raise OverflowError("outside int64")
    return map(table.__getitem__, values)


def _lookup(table: dict) -> Callable[[_DevicePool, list], Iterator]:
    """The converter of a column decoded by value table."""
    return lambda pool, values: map(table.__getitem__, values)


def _json_devices(pool: _DevicePool, values: list) -> Iterator[str]:
    return pool.intern(list(map(str, values)))


#: A JSONL ``proxied`` field by identity: only JSON ``true``/``false``
#: (``1 == True``), never a string or number's truthiness.
_JSON_PROXIED_BY_ID = {id(False): False, id(True): True}


def _json_proxied(pool: _DevicePool, values: list) -> Iterator[bool]:
    return map(_JSON_PROXIED_BY_ID.__getitem__, map(id, values))


#: Each enum column's value table: value string -> member.
_MEMBERS = {
    name: {member.value: member for member in table}
    for name, table in (
        ("device_type", DEVICE_TYPES),
        ("kind", REQUEST_KINDS),
        ("direction", DIRECTIONS),
        ("result", RESULT_CODES),
    )
}

#: The ``proxied`` column's text -> value: exactly what the writer emits.
_PROXIED = {"0": False, "1": True}

#: The converter of each TSV column, in field order.
_TSV_CONVERTERS = (
    _floats,
    _lookup(_MEMBERS["device_type"]),
    _DevicePool.intern,
    _ints,
    _lookup(_MEMBERS["kind"]),
    _lookup(_MEMBERS["direction"]),
    _ints,
    _floats,
    _floats,
    _shared_floats,
    _lookup(_PROXIED),
    _lookup(_MEMBERS["result"]),
    _ints,
)

#: The JSONL columns': device ids may be JSON numbers, JSON floats are
#: already objects (and ``-0.0 == 0.0`` as dict keys), and ``proxied`` is
#: decoded by identity.
_JSONL_CONVERTERS = (
    _TSV_CONVERTERS[:2]
    + (_json_devices,)
    + _TSV_CONVERTERS[3:9]
    + (_floats, _json_proxied)
    + _TSV_CONVERTERS[11:]
)

#: What a column's bad value is, by the column's dtype.
_PROBLEMS = {"float64": "not a number", "int64": "not an integer"}


def _tsv_split(lines: list[str]) -> list[list[str]]:
    """The 13 text columns of a chunk of ``\\n``-terminated TSV lines.

    A legacy 12-column line gets result ``ok``.  When every line has the
    same layout, one join and split flattens the chunk in C and stride
    slices peel off the columns: each line's one newline then ends its
    last field, and the last column sheds them with one more join and
    split (which yields one value per line unless a last field holds a
    newline of its own).  Otherwise the lines are split one by one.
    """
    n_rows = len(lines)
    flat = "\t".join(lines).split("\t")
    width = len(flat) // n_rows
    if len(flat) % n_rows == 0 and width in (len(TSV_COLUMNS), _LEGACY_TSV_COLUMNS):
        last = flat[width - 1 :: width]
        if all(map(str.endswith, last, itertools.repeat("\n"))):
            tail = "".join(last).split("\n")[:-1]
            if len(tail) == n_rows:
                columns = [flat[i::width] for i in range(width - 1)]
                columns.append(tail)
                if width == _LEGACY_TSV_COLUMNS:
                    columns.insert(11, [ResultCode.OK.value] * n_rows)
                return columns
    rows = []
    for line in lines:
        parts = line.rstrip("\r\n").split("\t")
        if len(parts) == _LEGACY_TSV_COLUMNS:
            parts.insert(11, ResultCode.OK.value)
        elif len(parts) != len(TSV_COLUMNS):
            raise _BadLine(
                "columns",
                f"expected {len(TSV_COLUMNS)} (or {_LEGACY_TSV_COLUMNS}), "
                f"got {len(parts)}",
            )
        rows.append(parts)
    return [list(column) for column in zip(*rows)]


#: Defaults of the JSONL fields a line may leave out (the others are
#: required), as :func:`record_to_dict`'s defaults.
_JSONL_DEFAULTS = {
    "volume": 0,
    "processing_time": 0.0,
    "server_time": 0.0,
    "rtt": 0.0,
    "proxied": False,
    "result": ResultCode.OK.value,
    "session_id": -1,
}


def _jsonl_split(objects: list) -> list[list]:
    """The 13 columns of a chunk of decoded JSON objects."""
    if not all(map(isinstance, objects, itertools.repeat(dict))):
        raise _BadLine("columns", "not a JSON object")
    columns = []
    for name in TSV_COLUMNS:
        if name in _JSONL_DEFAULTS:
            default = _JSONL_DEFAULTS[name]
            columns.append([obj.get(name, default) for obj in objects])
            continue
        try:
            columns.append([obj[name] for obj in objects])
        except KeyError:
            raise _BadLine(name, "missing") from None
    return columns


def _jsonl_split_lines(lines: list[str]) -> list[list]:
    try:
        objects = list(map(json.loads, lines))
    except ValueError as exc:
        raise _BadLine(
            "columns", f"invalid JSON ({getattr(exc, 'msg', exc)})"
        ) from None
    return _jsonl_split(objects)


#: ``(split, converters)`` of each input: text lines of either format, and
#: :func:`record_from_dict`'s already decoded objects.
_TSV = (_tsv_split, _TSV_CONVERTERS)
_JSONL = (_jsonl_split_lines, _JSONL_CONVERTERS)
_JSON_OBJECTS = (_jsonl_split, _JSONL_CONVERTERS)


def _record_sink(pool: _DevicePool, values: list[Iterator], n: int) -> list[LogRecord]:
    """The chunk's records, each built as its fields are drawn."""
    return list(map(LogRecord, *values))


def _column_sink(
    pool: _DevicePool, values: list[Iterator], n: int
) -> dict[str, np.ndarray]:
    """The chunk's arrays, checked against :class:`LogRecord`'s invariants."""
    values = list(values)
    values[2] = map(pool.codes.__getitem__, values[2])
    for index, name in enumerate(TSV_COLUMNS):
        if name in CODE_BY_ID:
            values[index] = map(CODE_BY_ID[name].__getitem__, map(id, values[index]))
    columns = {
        name: np.fromiter(column, dtype=dtype, count=n)
        for (name, dtype), column in zip(COLUMNS, values)
    }
    invalid = first_invalid_row(columns)
    if invalid is not None:
        _, column, message = invalid
        raise _BadLine(column, message)
    return columns


def _decode(decoder, items: list, pool: _DevicePool, sink):
    split, converters = decoder
    values = [
        convert(pool, column) for convert, column in zip(converters, split(items))
    ]
    return sink(pool, values, len(items))


def _first_problem(
    decoder, items: list, pool: _DevicePool
) -> tuple[int, str, str] | None:
    """``(row, column, problem)`` of the first item that does not decode.

    Decodes the items one by one, each column converted and checked in
    field order, then the row's invariants: the first failure the chunk's
    decode can meet, in file order.
    """
    split, converters = decoder
    for row, item in enumerate(items):
        try:
            values = []
            for name, (_, dtype), convert, column in zip(
                TSV_COLUMNS, COLUMNS, converters, split([item])
            ):
                try:
                    values.append(list(convert(pool, column)))
                except OverflowError:
                    # An int past int64, or a JSON integer past float64.
                    raise _BadLine(name, f"outside {dtype} {column[0]!r}") from None
                except (KeyError, TypeError, ValueError):
                    problem = _PROBLEMS.get(dtype, "unknown value")
                    raise _BadLine(name, f"{problem} {column[0]!r}") from None
            _column_sink(pool, values, 1)
        except _BadLine as exc:
            return (row, *exc.args)
    return None


def _sink_chunks(chunks: Iterable[tuple], decoder, sink, pool: _DevicePool) -> Iterator:
    """Decode each chunk and yield what ``sink`` makes of its columns.

    ``chunks`` holds ``(items, lines, first, rows)``: the items to decode
    (lines, or :func:`record_from_dict`'s objects), their lines, the file
    line number of the chunk's first line and each item's offset from it.
    On an item that does not decode, the sink's output for the items
    before it is yielded, then a ``ValueError`` raised naming its line.
    """
    for items, lines, first, rows in chunks:
        try:
            chunk = _decode(decoder, items, pool, sink)
        except _DECODE_ERRORS:
            problem = _first_problem(decoder, items, pool)
            if problem is None:
                raise
            row, column, text = problem
            if row:
                yield _decode(decoder, items[:row], pool, sink)
            line = lines[row].rstrip("\r\n")
            raise ValueError(
                f"line {first + rows[row]}, {column}: {text} in {line!r}"
            ) from None
        yield chunk


def _file_chunks(path: str | Path) -> Iterator[tuple]:
    """``path``'s data lines as :func:`_sink_chunks` chunks.

    Each chunk comes from :data:`CHUNK_LINES` file lines, each ending in
    one newline, without the blank (ASCII whitespace only) and ``#``
    lines among them.
    """
    with _open(path, "r") as fh:
        first = 1
        while lines := list(itertools.islice(fh, CHUNK_LINES)):
            n_lines = len(lines)
            if not lines[-1].endswith("\n"):
                lines[-1] += "\n"
            rows = range(n_lines)
            # Only a line starting with ``#`` or whitespace sorts below
            # ``$``; the data lines of a chunk mostly have none.
            if min(lines) < "$":
                rows = [
                    i for i, line in enumerate(lines)
                    if line.strip(_BLANK) and line[0] != "#"
                ]
                lines = [lines[i] for i in rows]
            if lines:
                yield lines, lines, first, rows
            first += n_lines


def _decode_one(decoder, item, line: str) -> LogRecord:
    (chunk,) = _sink_chunks(
        [([item], [line], 1, [0])], decoder, _record_sink, _DevicePool()
    )
    return chunk[0]


def _read_records(path: str | Path, decoder) -> Iterator[LogRecord]:
    return itertools.chain.from_iterable(
        _sink_chunks(_file_chunks(path), decoder, _record_sink, _DevicePool())
    )


def _read_columnar(path: str | Path, decoder) -> ColumnarTrace:
    pool = _DevicePool()
    chunks = list(_sink_chunks(_file_chunks(path), decoder, _column_sink, pool))
    if not chunks:
        return ColumnarTrace.empty()
    columns = chunks[0] if len(chunks) == 1 else {
        name: np.concatenate([chunk[name] for chunk in chunks])
        for name, _ in COLUMNS
    }
    return ColumnarTrace(device_pool=tuple(pool.ids), **columns)
