"""Tests for the struct-of-arrays trace (`repro.logs.columnar`)."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logs import (
    SCHEMA_VERSION,
    ColumnarTrace,
    DeviceType,
    Direction,
    LogRecord,
    RequestKind,
    ResultCode,
    as_columnar,
    open_reader,
    read_columnar,
    read_jsonl_columnar,
    read_tsv_columnar,
    record_to_dict,
    record_to_tsv,
    write_jsonl,
    write_tsv,
)
from repro.logs.columnar import (
    COLUMNS,
    DEVICE_CODE,
    DIRECTION_CODE,
    KIND_CODE,
    RESULT_CODE,
)
import repro.logs.io as io_mod
from repro.logs.io import TSV_COLUMNS
from repro.workload.generator import GeneratorOptions, generate_trace

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
    LogRecord(
        timestamp=2.0,
        device_type=DeviceType.PC,
        device_id="abc",
        user_id=1,
        kind=RequestKind.CHUNK,
        direction=Direction.STORE,
        volume=0,
        result=ResultCode.TIMEOUT,
    ),
]


@st.composite
def valid_record(draw):
    """Any schema-valid record: every enum code, zero-byte files included.

    The schema constrains volume: file operations and failed requests
    carry none, so the strategy draws kind/result first and volume
    conditionally.
    """
    kind = draw(st.sampled_from(list(RequestKind)))
    result = draw(st.sampled_from(list(ResultCode)))
    carries_volume = kind is RequestKind.CHUNK and result is ResultCode.OK
    return LogRecord(
        timestamp=draw(st.floats(0, 1e7, allow_nan=False)),
        device_type=draw(st.sampled_from(list(DeviceType))),
        device_id=draw(
            st.text(
                alphabet=st.characters(whitelist_categories=("Ll", "Nd")),
                min_size=1,
                max_size=12,
            )
        ),
        user_id=draw(st.integers(0, 2**40)),
        kind=kind,
        direction=draw(st.sampled_from(list(Direction))),
        volume=draw(st.integers(0, 2**40)) if carries_volume else 0,
        processing_time=draw(st.floats(0, 1e4, allow_nan=False)),
        server_time=draw(st.floats(0, 1e4, allow_nan=False)),
        rtt=draw(st.floats(0, 100, allow_nan=False)),
        proxied=draw(st.booleans()),
        result=result,
        session_id=draw(st.integers(-1, 2**40)),
    )


def member_keyed_rows(records):
    """The rows ``from_records`` built before it encoded enums by identity."""
    return [
        (
            r.timestamp,
            DEVICE_CODE[r.device_type],
            r.device_id,
            r.user_id,
            KIND_CODE[r.kind],
            DIRECTION_CODE[r.direction],
            r.volume,
            r.processing_time,
            r.server_time,
            r.rtt,
            r.proxied,
            RESULT_CODE[r.result],
            r.session_id,
        )
        for r in records
    ]


@given(records=st.lists(valid_record(), min_size=1, max_size=40))
@settings(max_examples=150, deadline=None)
def test_from_records_matches_member_keyed_encoding(records):
    """Identity-keyed enum codes equal the member-keyed dict lookups."""
    got = ColumnarTrace.from_records(iter(records))
    expected = ColumnarTrace.from_rows(member_keyed_rows(records))
    for name, dtype in COLUMNS:
        assert got.columns()[name].dtype == np.dtype(dtype), name
        np.testing.assert_array_equal(got.columns()[name], expected.columns()[name])
    assert got.device_pool == expected.device_pool


def test_from_records_rejects_a_non_member_like_the_member_tables():
    # The constructor rejects a non-member (test_logs_schema), so the
    # record is built around it, field by field through the slots.
    record = object.__new__(LogRecord)
    for field, value in zip(
        dataclasses.fields(LogRecord),
        ("android" if f.name == "device_type" else getattr(SAMPLE[0], f.name)
         for f in dataclasses.fields(LogRecord)),
    ):
        getattr(LogRecord, field.name).__set__(record, value)
    with pytest.raises(KeyError) as member_keyed:
        member_keyed_rows([record])
    with pytest.raises(KeyError) as ours:
        ColumnarTrace.from_records([SAMPLE[0], record])
    assert ours.value.args == member_keyed.value.args


@given(records=st.lists(valid_record(), max_size=40))
@settings(max_examples=150, deadline=None)
def test_columnar_roundtrip_property(records):
    """records -> ColumnarTrace -> records is the identity, every field."""
    trace = ColumnarTrace.from_records(records)
    assert len(trace) == len(records)
    assert trace.to_records() == records


def test_roundtrip_preserves_float_precision():
    record = SAMPLE[1]
    oddball = LogRecord(
        **{
            **{f: getattr(record, f) for f in (
                "device_type", "device_id", "user_id", "kind", "direction",
                "volume", "proxied", "result", "session_id",
            )},
            "timestamp": 0.1 + 0.2,  # not representable in short decimal
            "processing_time": 1.0 / 3.0,
            "server_time": 2.0 / 3.0,
            "rtt": 1e-17,
        }
    )
    back = ColumnarTrace.from_records([oddball]).to_records()[0]
    assert back == oddball  # exact, not approx: float64 end to end


def test_record_materializes_one_row(generated):
    trace = ColumnarTrace.from_records(generated)
    for i in (0, len(trace) // 2, -1):
        assert trace.record(i) == generated[i]
        assert trace.record(i).session_id == generated[i].session_id


def test_empty_trace():
    trace = ColumnarTrace.from_records([])
    assert len(trace) == 0
    assert trace.to_records() == []
    assert len(ColumnarTrace.empty()) == 0


def test_columns_match_logrecord_schema():
    names = {name for name, _ in COLUMNS}
    assert "device_code" in names
    assert "device_id" not in names  # pooled, not a column


def test_as_columnar_passthrough():
    trace = as_columnar(SAMPLE)
    assert as_columnar(trace) is trace
    assert trace.to_records() == SAMPLE


def test_select_and_masks():
    trace = as_columnar(SAMPLE)
    mobile = trace.select(trace.mobile_mask)
    assert mobile.to_records() == [r for r in SAMPLE if r.is_mobile]
    ops = trace.select(trace.file_op_mask)
    assert ops.to_records() == [r for r in SAMPLE if r.is_file_op]
    ok = trace.select(trace.ok_mask)
    assert ok.to_records() == [r for r in SAMPLE if r.is_ok]


def test_concatenate_remaps_device_pools():
    a = ColumnarTrace.from_records(SAMPLE[:2])
    b = ColumnarTrace.from_records(SAMPLE[2:])
    merged = ColumnarTrace.concatenate([a, b])
    assert merged.to_records() == SAMPLE
    # "abc" appears in both inputs but must occupy one pool slot.
    assert sorted(merged.device_pool) == ["abc", "def"]


def test_sorted_by_user_time_stable():
    trace = as_columnar(SAMPLE)
    ordered = trace.sorted_by_user_time().to_records()
    assert ordered == sorted(
        SAMPLE, key=lambda r: (r.user_id, r.timestamp)
    )


def test_npz_roundtrip(tmp_path):
    path = tmp_path / "trace.npz"
    trace = as_columnar(SAMPLE)
    trace.to_npz(path)
    assert ColumnarTrace.from_npz(path).to_records() == SAMPLE


def test_npz_schema_version_mismatch(tmp_path):
    path = tmp_path / "trace.npz"
    payload = as_columnar(SAMPLE).to_npz_payload()
    payload["schema_version"] = np.asarray(SCHEMA_VERSION + 1, dtype=np.int64)
    np.savez_compressed(path, **payload)
    with pytest.raises(ValueError, match="schema version"):
        ColumnarTrace.from_npz(path)


@pytest.fixture(scope="module")
def generated():
    return generate_trace(
        60,
        n_pc_only_users=10,
        options=GeneratorOptions(max_chunks_per_file=3),
        seed=17,
    )


def test_read_tsv_columnar_equals_record_reader(tmp_path, generated):
    path = tmp_path / "trace.tsv"
    write_tsv(generated, path)
    # Compare against the record reader, not the in-memory records: TSV
    # text quantizes floats, and both readers must agree on the result.
    from repro.logs import read_tsv

    assert read_tsv_columnar(path).to_records() == list(read_tsv(path))


def test_read_tsv_columnar_chunked(tmp_path, generated, monkeypatch):
    """Tiny chunks exercise the multi-chunk concat + shared device pool."""
    from repro.logs import read_tsv

    path = tmp_path / "trace.tsv"
    write_tsv(generated, path)
    whole = read_tsv_columnar(path)
    monkeypatch.setattr(io_mod, "CHUNK_LINES", 97)
    trace = read_tsv_columnar(path)
    assert trace.to_records() == list(read_tsv(path))
    assert trace.device_pool == whole.device_pool
    for name, _ in COLUMNS:
        assert getattr(trace, name).tobytes() == getattr(whole, name).tobytes()


def test_read_jsonl_columnar_equals_record_reader(tmp_path, generated):
    from repro.logs import read_jsonl

    path = tmp_path / "trace.jsonl"
    write_jsonl(generated, path)
    assert read_jsonl_columnar(path).to_records() == list(read_jsonl(path))


def test_read_columnar_dispatch(tmp_path):
    tsv = tmp_path / "a.tsv"
    jsonl = tmp_path / "b.jsonl"
    npz = tmp_path / "c.npz"
    write_tsv(SAMPLE, tsv)
    write_jsonl(SAMPLE, jsonl)
    as_columnar(SAMPLE).to_npz(npz)
    for path in (tsv, jsonl, npz):
        assert read_columnar(path).to_records() == SAMPLE
    with pytest.raises(ValueError):
        read_columnar(tmp_path / "trace.csv")


def test_read_tsv_columnar_legacy_12_columns(tmp_path):
    """Pre-``result`` traces (12 columns) parse as all-OK records."""
    path = tmp_path / "legacy.tsv"
    write_tsv(SAMPLE[:2], path)  # OK-result records serialize losslessly
    lines = path.read_text().splitlines()
    legacy = []
    for line in lines:
        if line.startswith("#"):
            legacy.append(line)
            continue
        parts = line.split("\t")
        legacy.append("\t".join(parts[:11] + parts[12:]))  # drop result
    path.write_text("\n".join(legacy) + "\n")
    assert read_tsv_columnar(path).to_records() == SAMPLE[:2]


def test_read_tsv_columnar_crlf_and_trailing_blanks(tmp_path):
    path = tmp_path / "crlf.tsv"
    write_tsv(SAMPLE, path)
    text = path.read_text().replace("\n", "\r\n") + "\r\n\r\n"
    path.write_bytes(text.encode())
    assert read_tsv_columnar(path).to_records() == SAMPLE


def test_read_tsv_columnar_rejects_malformed(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("only\tthree\tcolumns\n")
    with pytest.raises(ValueError):
        read_tsv_columnar(path)


def test_invalid_enum_value_raises(tmp_path):
    path = tmp_path / "bad-enum.tsv"
    write_tsv(SAMPLE[:1], path)
    path.write_text(
        path.read_text().replace("\tios\t", "\tcommodore64\t")
    )
    with pytest.raises(
        ValueError, match="^line 2, device_type: unknown value 'commodore64' in "
    ):
        read_tsv_columnar(path)


def test_device_ids_shared_pool():
    trace = as_columnar(SAMPLE)
    assert list(trace.device_ids()) == ["abc", "def", "abc"]
    assert len(trace.device_pool) == 2


#: One way to break each LogRecord invariant: (SAMPLE row, field, value,
#: the message LogRecord raises).
INVARIANT_BREAKS = [
    (1, "volume", -5, "volume must be >= 0"),
    (1, "processing_time", -1.5, "processing_time must be >= 0"),
    (1, "rtt", -0.25, "rtt must be >= 0"),
    (0, "volume", 10, "file operations carry no payload"),
    (2, "volume", 10, "failed requests carry no payload"),
]


def serialize(suffix, record, **overrides):
    """``record`` as one line of ``suffix``'s format, fields overridden."""
    if suffix == ".jsonl":
        return json.dumps({**record_to_dict(record), **overrides})
    parts = record_to_tsv(record).split("\t")
    for field, value in overrides.items():
        parts[TSV_COLUMNS.index(field)] = str(value)
    return "\t".join(parts)


def write_lines(path, records, bad_index, field, value):
    """Write ``records`` to ``path`` with ``field = value`` on row ``bad_index``."""
    lines = [
        serialize(path.suffix, record, **({field: value} if index == bad_index else {}))
        for index, record in enumerate(records)
    ]
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("suffix", [".tsv", ".jsonl"])
@pytest.mark.parametrize(("row", "field", "value", "message"), INVARIANT_BREAKS)
def test_bulk_readers_enforce_record_invariants(
    tmp_path, suffix, row, field, value, message
):
    """A line the record reader rejects, the columnar reader rejects too."""
    path = tmp_path / f"bad{suffix}"
    write_lines(path, SAMPLE, row, field, value)
    with pytest.raises(ValueError) as records_error:
        list(open_reader(path))
    with pytest.raises(ValueError, match=f"^line {row + 1}, {field}: {message} in "):
        read_columnar(path)
    assert str(records_error.value) == str(read_error(read_columnar, path))


def read_error(reader, path) -> ValueError:
    with pytest.raises(ValueError) as error:
        reader(path)
    return error.value


@pytest.mark.parametrize(
    "reader", [read_tsv_columnar, read_jsonl_columnar], ids=["tsv", "jsonl"]
)
def test_bulk_reader_error_names_the_file_row(tmp_path, reader, monkeypatch):
    """The reported line counts from the file's first line, not the chunk's."""
    suffix = ".tsv" if reader is read_tsv_columnar else ".jsonl"
    path = tmp_path / f"bad{suffix}"
    write_lines(path, SAMPLE * 3, 7, "volume", -5)
    monkeypatch.setattr(io_mod, "CHUNK_LINES", 2)
    with pytest.raises(ValueError, match="^line 8, volume: volume must be >= 0 in "):
        reader(path)
