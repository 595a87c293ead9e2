"""Row emission: the generator's rows, their record view and their columns.

:meth:`TraceGenerator.generate_user_rows` is the generator's one emission
routine and :meth:`ColumnarTrace.from_rows` the one column builder.  The
record path (:meth:`TraceGenerator.generate_user` into
:meth:`ColumnarTrace.from_records`) must build the same columns, and
``from_rows`` must reject every row :class:`LogRecord` rejects.
"""

import numpy as np
import pytest

import repro.logs.schema as schema_mod
from repro.logs.columnar import (
    CHUNK_CODE,
    COLUMNS,
    DEVICE_TYPES,
    DIRECTIONS,
    FILE_OP_CODE,
    REQUEST_KINDS,
    RESULT_CODE,
    RESULT_CODES,
    ColumnarTrace,
)
from repro.logs.schema import LogRecord, ResultCode
from repro.workload import GeneratorOptions, TraceGenerator
from repro.workload.parallel import (
    generate_columnar_parallel,
    generate_columnar_sharded,
)


def assert_same_columns(got: ColumnarTrace, want: ColumnarTrace) -> None:
    assert got.device_pool == want.device_pool
    for name, dtype in COLUMNS:
        column = getattr(got, name)
        assert column.dtype == np.dtype(dtype), name
        assert column.tobytes() == getattr(want, name).tobytes(), name


@pytest.mark.parametrize(
    ("seed", "options"),
    [
        (1, GeneratorOptions(max_chunks_per_file=2)),
        (20161114, GeneratorOptions(max_chunks_per_file=2)),
        (7, GeneratorOptions(max_chunks_per_file=1)),
        (7, GeneratorOptions(max_chunks_per_file=64)),
        (7, GeneratorOptions(emit_chunks=False)),
    ],
)
def test_rows_and_records_build_identical_columns(seed, options):
    generator = TraceGenerator(40, n_pc_only_users=8, options=options, seed=seed)
    users = generator.population
    assert any(not user.mobile_devices for user in users)
    for user in users:
        assert_same_columns(
            ColumnarTrace.from_rows(generator.generate_user_rows(user)),
            ColumnarTrace.from_records(generator.generate_user(user)),
        )
    assert_same_columns(
        ColumnarTrace.from_rows(
            row for user in users for row in generator.generate_user_rows(user)
        ),
        ColumnarTrace.from_records(generator.generate()),
    )


def test_dedup_only_and_pc_only_users_match_their_records():
    generator = TraceGenerator(
        300,
        n_pc_only_users=20,
        options=GeneratorOptions(max_chunks_per_file=4),
        seed=11,
    )
    dedup = [user for user in generator.population if user.dedup_only]
    pc_only = [user for user in generator.population if not user.mobile_devices]
    assert dedup and pc_only
    for user in dedup + pc_only:
        rows = generator.generate_user_rows(user)
        assert rows
        assert_same_columns(
            ColumnarTrace.from_rows(rows),
            ColumnarTrace.from_records(generator.generate_user(user)),
        )
        if user.dedup_only:
            assert all(row[4] == FILE_OP_CODE for row in rows)


def test_from_rows_of_nothing_is_empty():
    assert_same_columns(ColumnarTrace.from_rows([]), ColumnarTrace.empty())
    assert_same_columns(ColumnarTrace.from_rows(iter(())), ColumnarTrace.empty())


# ----------------------------------------------------------------------
# LogRecord invariants, checked once per batch
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def valid_rows():
    generator = TraceGenerator(
        6, options=GeneratorOptions(max_chunks_per_file=2), seed=5
    )
    rows = [
        row for user in generator.population
        for row in generator.generate_user_rows(user)
    ]
    assert any(row[4] == CHUNK_CODE for row in rows)
    assert any(row[4] == FILE_OP_CODE for row in rows)
    return rows


def _break(row, field, value):
    index = [f for f in LogRecord.__dataclass_fields__].index(field)
    return row[:index] + (value,) + row[index + 1:]


def _record(row):
    """The :class:`LogRecord` of one row, its enum codes decoded."""
    return LogRecord(
        *row[:1], DEVICE_TYPES[row[1]], *row[2:4], REQUEST_KINDS[row[4]],
        DIRECTIONS[row[5]], *row[6:11], RESULT_CODES[row[11]], row[12],
    )


def _first_of_kind(rows, kind_code):
    return next(row for row in rows if row[4] == kind_code)


BREAKS = {
    "negative volume": lambda rows: _break(
        _first_of_kind(rows, CHUNK_CODE), "volume", -1
    ),
    "negative processing time": lambda rows: _break(
        rows[0], "processing_time", -0.5
    ),
    "negative rtt": lambda rows: _break(rows[0], "rtt", -1e-9),
    "file op with payload": lambda rows: _break(
        _first_of_kind(rows, FILE_OP_CODE), "volume", 1
    ),
    "failed request with payload": lambda rows: _break(
        _first_of_kind(rows, CHUNK_CODE),
        "result",
        RESULT_CODE[ResultCode.SERVER_ERROR],
    ),
}

MESSAGES = {
    "negative volume": "volume must be >= 0",
    "negative processing time": "processing_time must be >= 0",
    "negative rtt": "rtt must be >= 0",
    "file op with payload": "file operations carry no payload",
    "failed request with payload": "failed requests carry no payload",
}


@pytest.mark.parametrize("case", sorted(BREAKS))
def test_from_rows_rejects_what_log_record_rejects(valid_rows, case):
    bad_row = BREAKS[case](valid_rows)
    with pytest.raises(ValueError, match=MESSAGES[case]):
        _record(bad_row)
    middle = len(valid_rows) // 2
    batch = valid_rows[:middle] + [bad_row] + valid_rows[middle:]
    with pytest.raises(ValueError, match=f"row {middle}: {MESSAGES[case]}"):
        ColumnarTrace.from_rows(batch)


def test_failed_request_without_payload_is_valid(valid_rows):
    row = _break(
        _first_of_kind(valid_rows, FILE_OP_CODE),
        "result",
        RESULT_CODE[ResultCode.TIMEOUT],
    )
    _record(row)
    assert len(ColumnarTrace.from_rows(valid_rows + [row])) == len(valid_rows) + 1


# ----------------------------------------------------------------------
# Columnar workers build no LogRecord
# ----------------------------------------------------------------------


def test_columnar_workers_build_no_log_record(tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("a columnar worker built a LogRecord")

    monkeypatch.setattr(schema_mod.LogRecord, "__post_init__", refuse)
    with pytest.raises(AssertionError, match="built a LogRecord"):
        next(TraceGenerator(3, seed=9).generate())
    kwargs = dict(
        n_pc_only_users=5,
        options=GeneratorOptions(max_chunks_per_file=2),
        seed=9,
        n_shards=2,
        n_workers=1,
    )
    sharded = generate_columnar_sharded(
        30, part_dir=tmp_path / "parts", batch_records=64, **kwargs
    )
    trace = generate_columnar_parallel(30, **kwargs)
    assert sharded.n_records == len(trace) > 0
