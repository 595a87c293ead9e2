"""The one decoder per log format behind every reader (`repro.logs.io`).

The record readers are checked against the line-at-a-time oracles in
:mod:`tests.helpers`, field by field; every malformed line is checked
against all eight entry points, which must raise one message.
"""

import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.logs.io as io_mod
from repro.logs import (
    DeviceType,
    Direction,
    LogRecord,
    RequestKind,
    ResultCode,
    open_reader,
    read_columnar,
    read_jsonl,
    read_jsonl_columnar,
    read_tsv,
    read_tsv_columnar,
    record_from_dict,
    record_from_tsv,
    record_to_dict,
    record_to_tsv,
)
from tests.helpers import oracle_read_jsonl, oracle_read_tsv

FIELDS = [field.name for field in dataclasses.fields(LogRecord)]


def assert_same_fields(got: list[LogRecord], want: list[LogRecord]) -> None:
    """Equal field by field: types, ``session_id``, NaN and the sign of zero."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for name in FIELDS:
            x, y = getattr(a, name), getattr(b, name)
            assert type(x) is type(y), name
            assert repr(x) == repr(y), name


_FLOATS = st.floats(0, 1e6, allow_nan=False, allow_infinity=False)
_RTTS = st.one_of(
    _FLOATS, st.sampled_from([0.0, -0.0, math.nan, math.inf, 0.05])
)


@st.composite
def records(draw) -> LogRecord:
    kind = draw(st.sampled_from(list(RequestKind)))
    result = draw(st.sampled_from(list(ResultCode)))
    payload = kind is RequestKind.CHUNK and result is ResultCode.OK
    return LogRecord(
        timestamp=draw(_FLOATS),
        device_type=draw(st.sampled_from(list(DeviceType))),
        device_id=draw(st.sampled_from(["d1", "d2", "m7-1", "x"])),
        user_id=draw(st.sampled_from([0, 1, 42, 2**62, -3])),
        kind=kind,
        direction=draw(st.sampled_from(list(Direction))),
        volume=draw(st.integers(0, 2**40)) if payload else 0,
        processing_time=draw(_FLOATS),
        server_time=draw(st.one_of(_FLOATS, st.just(-0.0))),
        rtt=draw(_RTTS),
        proxied=draw(st.booleans()),
        result=result,
        session_id=draw(st.sampled_from([-1, 0, 7, 65537, 2**62])),
    )


#: Lines a reader skips, interleaved with the records' lines.
_SKIPPED = ["", "   ", "\t", "# a comment", "#"]

_LINE = st.tuples(
    records(),
    st.booleans(),  # legacy 12-column TSV layout (OK results only)
    st.booleans(),  # CRLF line ending
    st.lists(st.sampled_from(_SKIPPED), max_size=2),
)


def _write(path, lines, header: str | None) -> None:
    text = "".join(lines)
    path.write_bytes(((header + "\n" if header else "") + text).encode())


@given(
    rows=st.lists(_LINE, max_size=25),
    chunk_lines=st.sampled_from([1, 2, 3, 7, 1_024]),
)
@settings(max_examples=120, deadline=None)
def test_read_tsv_equals_the_line_oracle(tmp_path_factory, rows, chunk_lines):
    path = tmp_path_factory.mktemp("tsv") / "t.tsv"
    lines = []
    for record, legacy, crlf, skipped in rows:
        parts = record_to_tsv(record).split("\t")
        if legacy and record.result is ResultCode.OK:
            del parts[11]
        lines.append("\t".join(parts) + ("\r\n" if crlf else "\n"))
        lines.extend(line + "\n" for line in skipped)
    _write(path, lines, "#" + "\t".join(FIELDS))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(io_mod, "CHUNK_LINES", chunk_lines)
        got = list(read_tsv(path))
        columnar = read_tsv_columnar(path).to_records()
    want = oracle_read_tsv(path)
    assert_same_fields(got, want)
    assert_same_fields(columnar, want)


@given(
    rows=st.lists(_LINE, max_size=25),
    chunk_lines=st.sampled_from([1, 2, 3, 7, 1_024]),
)
@settings(max_examples=120, deadline=None)
def test_read_jsonl_equals_the_line_oracle(tmp_path_factory, rows, chunk_lines):
    path = tmp_path_factory.mktemp("jsonl") / "t.jsonl"
    lines = []
    for record, sparse, crlf, skipped in rows:
        data = record_to_dict(record)
        if sparse:  # leave out the optional fields at their defaults
            defaults = {"volume": 0, "result": "ok", "session_id": -1, "proxied": False}
            data = {
                k: v for k, v in data.items()
                if k not in defaults or repr(v) != repr(defaults[k])
            }
        lines.append(json.dumps(data) + ("\r\n" if crlf else "\n"))
        lines.extend(line + "\n" for line in skipped)
    _write(path, lines, None)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(io_mod, "CHUNK_LINES", chunk_lines)
        got = list(read_jsonl(path))
        columnar = read_jsonl_columnar(path).to_records()
    want = oracle_read_jsonl(path)
    assert_same_fields(got, want)
    assert_same_fields(columnar, want)


def test_records_share_repeated_values_but_not_across_a_signed_zero(tmp_path):
    base = LogRecord(
        timestamp=1.0, device_type=DeviceType.IOS, device_id="dev-7",
        user_id=123456789, kind=RequestKind.CHUNK, direction=Direction.STORE,
        volume=524288, rtt=0.25, session_id=8675309,
    )
    rtts = [0.25, 0.25, -0.0, 0.0, -0.0]
    path = tmp_path / "t.tsv"
    path.write_text(
        "".join(record_to_tsv(dataclasses.replace(base, rtt=r)) + "\n" for r in rtts)
    )
    first, second, negative, zero, negative_again = list(read_tsv(path))
    for name in ("device_id", "user_id", "volume", "rtt", "session_id"):
        assert getattr(second, name) is getattr(first, name), name
    assert negative.rtt is negative_again.rtt
    assert negative.rtt is not zero.rtt
    assert math.copysign(1.0, negative.rtt) == -1.0
    assert math.copysign(1.0, zero.rtt) == 1.0


# ----------------------------------------------------------------------
# One error per malformed line, from every entry point
# ----------------------------------------------------------------------

GOOD = LogRecord(
    timestamp=2.0,
    device_type=DeviceType.ANDROID,
    device_id="abc",
    user_id=1,
    kind=RequestKind.CHUNK,
    direction=Direction.STORE,
    volume=10,
    processing_time=0.5,
    rtt=0.1,
    session_id=3,
)

#: One malformed line per class: ``(overrides, column, problem)``.  The
#: overrides are applied to :data:`GOOD`'s TSV fields and JSON object;
#: ``None`` drops the field.
MALFORMED = {
    "columns": (
        {"device_type": None, "device_id": None},
        ("columns", "expected 13 (or 12), got 11"),
        ("device_type", "missing"),
    ),
    "enum": ({"direction": "stoor"}, ("direction", "unknown value 'stoor'"), None),
    "proxied": ({"proxied": "yes"}, ("proxied", "unknown value 'yes'"), None),
    "non-numeric": ({"volume": "abc"}, ("volume", "not an integer 'abc'"), None),
    "non-float": ({"rtt": "fast"}, ("rtt", "not a number 'fast'"), None),
    "int64": (
        {"user_id": 99999999999999999999},
        ("user_id", "outside int64 '99999999999999999999'"),
        ("user_id", "outside int64 99999999999999999999"),
    ),
    "negative volume": ({"volume": -5}, ("volume", "volume must be >= 0"), None),
    "negative processing time": (
        {"processing_time": -1.5},
        ("processing_time", "processing_time must be >= 0"),
        None,
    ),
    "negative rtt": ({"rtt": -0.25}, ("rtt", "rtt must be >= 0"), None),
    "file op with payload": (
        {"kind": "file_op"},
        ("volume", "file operations carry no payload"),
        None,
    ),
    "failed request with payload": (
        {"result": "timeout"},
        ("volume", "failed requests carry no payload"),
        None,
    ),
}


def malformed_line(case: str, suffix: str) -> tuple[str, str, str]:
    """``(line, column, problem)`` of ``case`` in ``suffix``'s format."""
    overrides, tsv_error, json_error = MALFORMED[case]
    if suffix == ".jsonl":
        data = record_to_dict(GOOD)
        for name, value in overrides.items():
            if value is None:
                del data[name]
            else:
                data[name] = value
        return (json.dumps(data), *(json_error or tsv_error))
    parts = dict(zip(FIELDS, record_to_tsv(GOOD).split("\t")))
    for name, value in overrides.items():
        if value is None:
            del parts[name]
        else:
            parts[name] = str(value)
    return ("\t".join(parts.values()), *tsv_error)


def entry_points(suffix: str):
    """The five entry points that read ``suffix``'s format, by name."""
    if suffix == ".tsv":
        return {
            "read_tsv": lambda path, line: list(read_tsv(path)),
            "open_reader": lambda path, line: list(open_reader(path)),
            "record_from_tsv": lambda path, line: record_from_tsv(line),
            "read_tsv_columnar": lambda path, line: read_tsv_columnar(path),
            "read_columnar": lambda path, line: read_columnar(path),
        }
    return {
        "read_jsonl": lambda path, line: list(read_jsonl(path)),
        "open_reader": lambda path, line: list(open_reader(path)),
        "record_from_dict": lambda path, line: record_from_dict(json.loads(line)),
        "read_jsonl_columnar": lambda path, line: read_jsonl_columnar(path),
        "read_columnar": lambda path, line: read_columnar(path),
    }


@pytest.mark.parametrize("suffix", [".tsv", ".jsonl"])
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_every_entry_point_raises_one_message(tmp_path, case, suffix):
    line, column, problem = malformed_line(case, suffix)
    path = tmp_path / f"bad{suffix}"
    path.write_text(line + "\n")
    want = f"line 1, {column}: {problem} in {line!r}"
    for name, read in entry_points(suffix).items():
        with pytest.raises(ValueError) as error:
            read(path, line)
        assert str(error.value) == want, name


@pytest.mark.parametrize("chunk_lines", [1, 2, 3, 1_024])
@pytest.mark.parametrize("suffix", [".tsv", ".jsonl"])
@pytest.mark.parametrize("case", ["columns", "int64", "file op with payload"])
def test_the_error_names_the_line_number_in_the_file(
    tmp_path, monkeypatch, case, suffix, chunk_lines
):
    """Header, comment and blank lines count; chunk boundaries do not."""
    good = malformed_line("enum", suffix)[0].replace("stoor", "store")
    bad, column, problem = malformed_line(case, suffix)
    lines = ["#header", good, "", "# comment", good, "  ", good, bad, good]
    path = tmp_path / f"bad{suffix}"
    path.write_text("\r\n".join(lines) + "\r\n")
    monkeypatch.setattr(io_mod, "CHUNK_LINES", chunk_lines)
    want = f"line 8, {column}: {problem} in {bad!r}"
    for name, read in entry_points(suffix).items():
        if name.startswith("record_from"):
            continue
        with pytest.raises(ValueError) as error:
            read(path, bad)
        assert str(error.value) == want, name


@pytest.mark.parametrize("chunk_lines", [2, 1_024])
def test_a_record_reader_yields_the_records_before_a_bad_line(
    tmp_path, monkeypatch, chunk_lines
):
    good = record_to_tsv(GOOD)
    bad = malformed_line("enum", ".tsv")[0]
    path = tmp_path / "t.tsv"
    path.write_text("\n".join([good] * 3 + [bad, good]) + "\n")
    monkeypatch.setattr(io_mod, "CHUNK_LINES", chunk_lines)
    reader = read_tsv(path)
    assert [next(reader) for _ in range(3)] == [GOOD] * 3
    with pytest.raises(ValueError, match="^line 4, direction: unknown value 'stoor'"):
        next(reader)


def test_a_json_line_that_is_not_an_object(tmp_path):
    path = tmp_path / "t.jsonl"
    for line, problem in [
        ("[1, 2]", "not a JSON object"),
        ("{'a': 1}", "invalid JSON (Expecting property name enclosed in double quotes)"),
    ]:
        path.write_text(line + "\n")
        want = f"line 1, columns: {problem} in {line!r}"
        for read in (lambda: list(read_jsonl(path)), lambda: read_jsonl_columnar(path)):
            with pytest.raises(ValueError) as error:
                read()
            assert str(error.value) == want


@pytest.mark.parametrize("field", ["session_id", "user_id"])
def test_a_newline_inside_a_tsv_field_is_not_a_line_break(field):
    """A newline of the line's own, not its end, stays in its field."""
    parts = dict(zip(FIELDS, record_to_tsv(GOOD).split("\t")))
    parts[field] = "5\n6"
    line = "\t".join(parts.values())
    with pytest.raises(ValueError) as error:
        record_from_tsv(line)
    assert str(error.value) == f"line 1, {field}: not an integer '5\\n6' in {line!r}"


def test_a_json_integer_past_float64_names_its_float_column(tmp_path):
    data = record_to_dict(GOOD)
    data["timestamp"] = 10**400
    line = json.dumps(data)
    path = tmp_path / "bad.jsonl"
    path.write_text(line + "\n")
    want = f"line 1, timestamp: outside float64 {10**400!r} in {line!r}"
    for name, read in entry_points(".jsonl").items():
        with pytest.raises(ValueError) as error:
            read(path, line)
        assert str(error.value) == want, name
