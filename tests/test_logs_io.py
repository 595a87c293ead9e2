"""Tests for log file I/O (TSV / JSONL, plain and gzipped)."""

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logs import (
    DeviceType,
    Direction,
    LogRecord,
    RequestKind,
    open_reader,
    read_jsonl,
    read_jsonl_columnar,
    read_tsv,
    read_tsv_columnar,
    record_from_dict,
    record_from_tsv,
    record_to_dict,
    record_to_tsv,
    write_jsonl,
    write_tsv,
)

SAMPLE = [
    LogRecord(
        timestamp=0.5,
        device_type=DeviceType.IOS,
        device_id="abc",
        user_id=1,
        kind=RequestKind.FILE_OP,
        direction=Direction.STORE,
    ),
    LogRecord(
        timestamp=1.25,
        device_type=DeviceType.ANDROID,
        device_id="def",
        user_id=2,
        kind=RequestKind.CHUNK,
        direction=Direction.RETRIEVE,
        volume=524288,
        processing_time=1.5,
        server_time=0.2,
        rtt=0.1,
        proxied=True,
        session_id=42,
    ),
]


def test_tsv_roundtrip(tmp_path):
    path = tmp_path / "trace.tsv"
    count = write_tsv(SAMPLE, path)
    assert count == 2
    assert list(read_tsv(path)) == SAMPLE


def test_jsonl_roundtrip(tmp_path):
    path = tmp_path / "trace.jsonl"
    count = write_jsonl(SAMPLE, path)
    assert count == 2
    assert list(read_jsonl(path)) == SAMPLE


def test_gzip_roundtrip(tmp_path):
    path = tmp_path / "trace.tsv.gz"
    write_tsv(SAMPLE, path)
    assert list(read_tsv(path)) == SAMPLE


def test_open_reader_dispatches_by_extension(tmp_path):
    tsv = tmp_path / "a.tsv"
    jsonl = tmp_path / "b.jsonl"
    gz = tmp_path / "c.jsonl.gz"
    write_tsv(SAMPLE, tsv)
    write_jsonl(SAMPLE, jsonl)
    write_jsonl(SAMPLE, gz)
    assert list(open_reader(tsv)) == SAMPLE
    assert list(open_reader(jsonl)) == SAMPLE
    assert list(open_reader(gz)) == SAMPLE


def test_open_reader_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        list(open_reader(tmp_path / "trace.csv"))


def test_tsv_header_line_skipped(tmp_path):
    path = tmp_path / "trace.tsv"
    write_tsv(SAMPLE, path)
    first_line = path.read_text().splitlines()[0]
    assert first_line.startswith("#")


def test_malformed_tsv_line_raises():
    with pytest.raises(ValueError):
        record_from_tsv("too\tfew\tcolumns")


@pytest.mark.parametrize(
    ("index", "column"),
    [(1, "device_type"), (4, "kind"), (5, "direction"), (11, "result")],
)
def test_unknown_tsv_enum_value_names_column_and_value(index, column):
    parts = record_to_tsv(SAMPLE[1]).split("\t")
    parts[index] = "bogus"
    with pytest.raises(ValueError, match=f"{column}.*'bogus'"):
        record_from_tsv("\t".join(parts))


def test_unknown_enum_value_in_legacy_tsv_line_raises_value_error():
    parts = record_to_tsv(SAMPLE[1]).split("\t")
    del parts[11]  # the pre-``result`` layout
    parts[4] = "chunky"
    with pytest.raises(ValueError, match="kind.*'chunky'"):
        record_from_tsv("\t".join(parts))


def test_record_from_tsv_tolerates_crlf():
    line = record_to_tsv(SAMPLE[1])
    assert record_from_tsv(line + "\r\n") == SAMPLE[1]
    assert record_from_tsv(line + "\n") == SAMPLE[1]


def test_read_tsv_trailing_blank_lines_and_crlf(tmp_path):
    """Hand-edited or Windows-written traces still parse."""
    path = tmp_path / "trace.tsv"
    write_tsv(SAMPLE, path)
    text = path.read_text().replace("\n", "\r\n") + "\r\n\r\n"
    path.write_bytes(text.encode())
    assert list(read_tsv(path)) == SAMPLE


def test_read_tsv_gz_trailing_blank_lines_and_crlf(tmp_path):
    import gzip

    plain = tmp_path / "trace.tsv"
    write_tsv(SAMPLE, plain)
    text = plain.read_text().replace("\n", "\r\n") + "\r\n\r\n"
    path = tmp_path / "trace.tsv.gz"
    with gzip.open(path, "wt", newline="") as fh:
        fh.write(text)
    assert list(read_tsv(path)) == SAMPLE


def _same_device_lines(n: int, rtt: str = "0.05") -> list[str]:
    """``n`` TSV lines of one user, device, RTT and session."""
    return [
        "\t".join(
            [f"{i}.5", "ios", "dev-7", "123456789", "chunk", "store", "1024",
             "0.5", "0.1", rtt, "0", "ok", "8675309"]
        )
        for i in range(n)
    ]


def test_read_tsv_shares_repeated_fields_across_consecutive_lines(tmp_path):
    lines = _same_device_lines(3)
    other = lines[0].replace("dev-7", "dev-8").replace("123456789", "42")
    legacy = "\t".join(lines[0].split("\t")[:11] + ["8675309"])
    text = [lines[0], "# comment", "", lines[1], other, lines[2], legacy]
    path = tmp_path / "trace.tsv"
    path.write_text("\n".join(text) + "\n")
    records = list(read_tsv(path))
    assert records == [record_from_tsv(line) for line in text if line and line[0] != "#"]
    first, second, switched, back, old = records
    for name in ("device_id", "user_id", "rtt", "session_id"):
        assert getattr(second, name) is getattr(first, name), name
        assert getattr(old, name) is getattr(back, name), name
    assert switched.device_id == "dev-8" and switched.user_id == 42
    assert switched.rtt is first.rtt
    assert back.device_id == "dev-7" and back.user_id == 123456789
    assert [r.session_id for r in records] == [8675309] * 5


def test_read_tsv_never_shares_a_nan_rtt(tmp_path):
    lines = _same_device_lines(3, rtt="nan")
    path = tmp_path / "trace.tsv"
    path.write_text("\n".join(lines) + "\n")
    records = list(read_tsv(path))
    parsed = [record_from_tsv(line) for line in lines]
    assert records[0].device_id is records[1].device_id
    assert records[0].rtt is not records[1].rtt
    # Equality is what separately parsed records give: NaN != NaN.
    assert records[0] != records[1]
    assert [a == b for a in records for b in records] == [
        a == b for a in parsed for b in parsed
    ]


def test_read_tsv_bad_enum_after_a_good_line_names_the_column(tmp_path):
    good = _same_device_lines(1)[0]
    path = tmp_path / "trace.tsv"
    path.write_text(good + "\n" + good.replace("chunk", "chunky") + "\n")
    reader = read_tsv(path)
    assert next(reader) == record_from_tsv(good)
    with pytest.raises(ValueError, match="kind.*'chunky'"):
        next(reader)


def test_read_jsonl_trailing_blank_lines(tmp_path):
    path = tmp_path / "trace.jsonl"
    write_jsonl(SAMPLE, path)
    path.write_text(path.read_text() + "\n\n")
    assert list(read_jsonl(path)) == SAMPLE


def test_record_dict_roundtrip():
    for record in SAMPLE:
        assert record_from_dict(record_to_dict(record)) == record


def test_record_dict_defaults_for_missing_optionals():
    data = {
        "timestamp": 1.0,
        "device_type": "android",
        "device_id": "x",
        "user_id": 3,
        "kind": "chunk",
        "direction": "store",
        "volume": 10,
    }
    record = record_from_dict(data)
    assert record.rtt == 0.0
    assert record.session_id == -1
    assert not record.proxied


record_strategy = st.builds(
    LogRecord,
    timestamp=st.floats(0, 1e7, allow_nan=False),
    device_type=st.sampled_from(list(DeviceType)),
    device_id=st.text(
        alphabet=st.characters(whitelist_categories=("Ll", "Nd")),
        min_size=1,
        max_size=12,
    ),
    user_id=st.integers(0, 2**40),
    kind=st.just(RequestKind.CHUNK),
    direction=st.sampled_from(list(Direction)),
    volume=st.integers(0, 2**31),
    processing_time=st.floats(0, 1e4, allow_nan=False),
    server_time=st.floats(0, 1e4, allow_nan=False),
    rtt=st.floats(0, 100, allow_nan=False),
    proxied=st.booleans(),
    session_id=st.integers(-1, 2**31),
)


@given(record=record_strategy)
@settings(max_examples=200)
def test_tsv_line_roundtrip_property(record):
    parsed = record_from_tsv(record_to_tsv(record))
    assert parsed.user_id == record.user_id
    assert parsed.device_id == record.device_id
    assert parsed.volume == record.volume
    assert parsed.timestamp == pytest.approx(record.timestamp, abs=1e-6)
    assert parsed.rtt == pytest.approx(record.rtt, abs=1e-6)
    assert parsed.proxied == record.proxied
    assert parsed.session_id == record.session_id


@given(record=record_strategy)
@settings(max_examples=200)
def test_dict_roundtrip_property(record):
    assert record_from_dict(record_to_dict(record)) == record


# One line per ``proxied`` text; the writers emit only ``0`` and ``1``.
_PROXIED_LINE = (
    "0.500000\tios\tabc\t1\tfile_op\tstore\t0\t0.000000\t0.000000\t"
    "0.000000\t{}\tok\t-1"
)


@pytest.mark.parametrize(
    "text", ["0", "1", "true", "false", "yes", "True", "", " 1", "2"]
)
def test_tsv_readers_agree_on_proxied(tmp_path, text):
    path = tmp_path / "t.tsv"
    path.write_text(
        _PROXIED_LINE.format("0") + "\n" + _PROXIED_LINE.format(text) + "\n"
    )
    if text in ("0", "1"):
        records = list(read_tsv(path))
        columnar = read_tsv_columnar(path)
        assert [r.proxied for r in records] == [False, text == "1"]
        assert columnar.proxied.tolist() == [False, text == "1"]
        assert list(columnar.iter_records()) == records
        return
    message = f"line 2, proxied: unknown value {text!r} in "
    with pytest.raises(ValueError, match=f"^{re.escape(message)}") as records_error:
        list(read_tsv(path))
    with pytest.raises(ValueError) as columnar_error:
        read_tsv_columnar(path)
    assert str(records_error.value) == str(columnar_error.value)


#: One unknown value per enum column.
_BAD_ENUM_VALUES = [
    ("device_type", "commodore64"),
    ("kind", "upload"),
    ("direction", "stoor"),
    ("result", "okay"),
]


@pytest.mark.parametrize("column, bad", _BAD_ENUM_VALUES)
def test_bulk_readers_name_the_bad_enum_column(tmp_path, column, bad):
    row = record_to_dict(SAMPLE[0])
    tsv = tmp_path / "t.tsv"
    write_tsv(SAMPLE[:1], tsv)
    head, line = tsv.read_text().splitlines()
    fields = line.split("\t")
    fields[fields.index(row[column])] = bad
    tsv.write_text(head + "\n" + "\t".join(fields) + "\n")
    jsonl = tmp_path / "t.jsonl"
    jsonl.write_text(json.dumps({**row, column: bad}) + "\n")
    with pytest.raises(ValueError, match=f"^line 2, {column}: unknown value {bad!r} in "):
        read_tsv_columnar(tsv)
    with pytest.raises(ValueError, match=f"^line 1, {column}: unknown value {bad!r} in "):
        read_jsonl_columnar(jsonl)


@pytest.mark.parametrize("column, bad", _BAD_ENUM_VALUES)
def test_jsonl_readers_give_one_enum_error(tmp_path, column, bad):
    line = json.dumps({**record_to_dict(SAMPLE[0]), column: bad})
    path = tmp_path / "t.jsonl"
    path.write_text(line + "\n")
    with pytest.raises(ValueError) as record_error:
        list(read_jsonl(path))
    with pytest.raises(ValueError) as columnar_error:
        read_jsonl_columnar(path)
    message = f"line 1, {column}: unknown value {bad!r} in {line!r}"
    assert str(record_error.value) == str(columnar_error.value) == message


#: Marks a JSONL row written without a ``proxied`` field.
_ABSENT = object()


def _jsonl_with_proxied(path, value):
    row = record_to_dict(SAMPLE[0])
    if value is _ABSENT:
        del row["proxied"]
    else:
        row["proxied"] = value
    path.write_text(json.dumps(row) + "\n")
    return path


@pytest.mark.parametrize("value", ["false", "true", 0, 1])
def test_jsonl_readers_reject_non_boolean_proxied(tmp_path, value):
    path = _jsonl_with_proxied(tmp_path / "t.jsonl", value)
    message = re.escape(f"line 1, proxied: unknown value {value!r} in ")
    with pytest.raises(ValueError, match=f"^{message}"):
        list(read_jsonl(path))
    with pytest.raises(ValueError, match=f"^{message}"):
        read_jsonl_columnar(path)


@pytest.mark.parametrize(
    "value, expected", [(True, True), (False, False), (_ABSENT, False)]
)
def test_jsonl_readers_agree_on_boolean_proxied(tmp_path, value, expected):
    path = _jsonl_with_proxied(tmp_path / "t.jsonl", value)
    records = list(read_jsonl(path))
    assert [r.proxied for r in records] == [expected]
    columnar = read_jsonl_columnar(path)
    assert columnar.proxied.tolist() == [expected]
    assert list(columnar.iter_records()) == records
