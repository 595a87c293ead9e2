"""Emission: the generator's column runs, their record view and their parts.

:meth:`TraceGenerator._emit_user` is the generator's one emission routine;
it appends column runs that :meth:`TraceGenerator.column_batches` turns
into sorted column batches.  The oracle is the row emitter it replaced
(:class:`tests.helpers.RowEmissionGenerator`): ``ColumnarTrace.from_rows``
of its rows must equal, column for column and bit for bit, every batch,
every written part (device pool included) and the record view
(:meth:`TraceGenerator.generate_user` and :meth:`TraceGenerator.generate`
into :meth:`ColumnarTrace.from_records`).  ``from_rows``, the column
builder :meth:`ColumnarTrace.from_records` uses, must reject every row
:class:`LogRecord` rejects.
"""

import numpy as np
import pytest

import repro.logs.schema as schema_mod
import repro.workload.generator as generator_mod
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
    DEFAULT_PART_BATCH_RECORDS,
    generate_columnar_parallel,
    generate_columnar_sharded,
    partition_users,
)
from tests.helpers import RowEmissionGenerator, oracle_columns


def assert_same_columns(got: ColumnarTrace, want: ColumnarTrace) -> None:
    assert got.device_pool == want.device_pool
    for name, dtype in COLUMNS:
        column = getattr(got, name)
        assert column.dtype == np.dtype(dtype), name
        assert column.tobytes() == getattr(want, name).tobytes(), name


OPTIONS = {
    "chunks1": GeneratorOptions(max_chunks_per_file=1),
    "chunks4": GeneratorOptions(max_chunks_per_file=4),
    "chunks8": GeneratorOptions(max_chunks_per_file=8),
    "ops-only": GeneratorOptions(emit_chunks=False),
}


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
    oracle = RowEmissionGenerator(40, n_pc_only_users=8, options=options, seed=seed)
    users = generator.population
    assert any(not user.mobile_devices for user in users)
    for user in users:
        assert_same_columns(
            ColumnarTrace.from_records(generator.generate_user(user)),
            oracle_columns(oracle, [user]),
        )
    want = oracle_columns(oracle, users)
    assert_same_columns(ColumnarTrace.from_records(generator.generate()), want)
    for max_rows in (1, 7, 10**9):
        assert_same_columns(
            ColumnarTrace.concatenate(list(generator.column_batches(users, max_rows))),
            want,
        )


def test_dedup_only_and_pc_only_users_match_their_records():
    kwargs = dict(
        n_pc_only_users=20, options=GeneratorOptions(max_chunks_per_file=4), seed=11
    )
    generator = TraceGenerator(300, **kwargs)
    oracle = RowEmissionGenerator(300, **kwargs)
    dedup = [user for user in generator.population if user.dedup_only]
    pc_only = [user for user in generator.population if not user.mobile_devices]
    assert dedup and pc_only
    for user in dedup + pc_only:
        rows = oracle.generate_user_rows(user)
        assert rows
        assert_same_columns(
            ColumnarTrace.from_records(generator.generate_user(user)),
            ColumnarTrace.from_rows(rows),
        )
        if user.dedup_only:
            assert all(row[4] == FILE_OP_CODE for row in rows)


def test_from_rows_of_nothing_is_empty():
    assert_same_columns(ColumnarTrace.from_rows([]), ColumnarTrace.empty())
    assert_same_columns(ColumnarTrace.from_rows(iter(())), ColumnarTrace.empty())


@pytest.mark.parametrize("seed", [1, 7, 20161114])
@pytest.mark.parametrize("options", list(OPTIONS.values()), ids=list(OPTIONS))
def test_written_parts_match_oracle_rows(tmp_path, seed, options):
    """Every part, for every shard count and batch size, holds exactly
    ``from_rows`` of its users' oracle rows: 13 columns and device pool."""
    kwargs = dict(n_pc_only_users=8, options=options, seed=seed)
    oracle = RowEmissionGenerator(40, **kwargs)
    users = oracle.population
    assert any(not user.mobile_devices for user in users)
    assert any(user.dedup_only for user in users)
    rows = {user.user_id: oracle.generate_user_rows(user) for user in users}
    for n_shards in (1, 3, 4):
        shards = partition_users(users, n_shards)
        for batch_records in (1, 7, DEFAULT_PART_BATCH_RECORDS):
            sharded = generate_columnar_sharded(
                40,
                n_shards=n_shards,
                n_workers=1,
                part_dir=tmp_path / f"{n_shards}-{batch_records}",
                batch_records=batch_records,
                **kwargs,
            )
            for part, shard in zip(sharded.parts, shards):
                want = ColumnarTrace.from_rows(
                    row for user in shard for row in rows[user.user_id]
                )
                assert part.n_records == len(want)
                assert_same_columns(part.open(), want)


def test_column_batches_cut_after_the_user_reaching_max_rows():
    generator = TraceGenerator(
        30, options=GeneratorOptions(max_chunks_per_file=2), seed=3
    )
    users = generator.population
    want, rows = [], 0
    for user in users:
        rows += sum(1 for _ in generator.generate_user(user))
        if rows >= 50:
            want.append(rows)
            rows = 0
    if rows:
        want.append(rows)
    assert len(want) > 2
    assert [len(batch) for batch in generator.column_batches(users, 50)] == want


def test_column_batches_keep_users_in_the_given_order():
    """A user whose id does not ascend starts a new batch, so the sort
    never moves a user: the batches follow the users' order."""
    kwargs = dict(options=GeneratorOptions(max_chunks_per_file=2), seed=4)
    generator = TraceGenerator(12, **kwargs)
    oracle = RowEmissionGenerator(12, **kwargs)
    users = generator.population[::-1]
    users = users[:3] + users[:2] + users[3:]
    want = oracle_columns(oracle, users)
    got = list(generator.column_batches(users, 10**9))
    assert len(got) == 1 + sum(
        b.user_id <= a.user_id for a, b in zip(users, users[1:])
    )
    assert_same_columns(ColumnarTrace.concatenate(got), want)
    reversed_population = TraceGenerator(
        12, population=generator.population[::-1], **kwargs
    )
    assert_same_columns(
        ColumnarTrace.from_records(reversed_population.generate()),
        oracle_columns(oracle, generator.population[::-1]),
    )


def test_record_view_decodes_a_few_thousand_rows_at_a_time(monkeypatch):
    generator = TraceGenerator(
        200, options=GeneratorOptions(max_chunks_per_file=8), seed=2
    )
    taken = []
    take = generator_mod._ColumnRuns.take

    def spy(self):
        batch = take(self)
        taken.append(len(batch))
        return batch

    monkeypatch.setattr(generator_mod._ColumnRuns, "take", spy)
    records = generator.generate()
    next(records)
    assert len(taken) == 1
    assert taken[0] < 2 * generator_mod._RECORD_BATCH_ROWS
    n = 1 + sum(1 for _ in records)
    assert sum(taken) == n > generator_mod._RECORD_BATCH_ROWS


# ----------------------------------------------------------------------
# LogRecord invariants, checked once per batch
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def valid_rows():
    generator = RowEmissionGenerator(
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


def _runs_of(rows) -> generator_mod._ColumnRuns:
    """The rows as column runs of one row each."""
    runs = generator_mod._ColumnRuns()
    for row in rows:
        runs.timestamp.append(row[0])
        runs.volume.append(row[6])
        runs.processing_time.append(row[7])
        runs.server_time.append(row[8])
        runs.lengths.append(1)
        runs.run_fields.append(len(runs.fields))
        runs.fields.append(row[1:6] + row[9:])
    return runs


def test_column_runs_of_rows_are_their_sorted_columns(valid_rows):
    shuffled = valid_rows[1::2] + valid_rows[0::2]
    assert_same_columns(
        _runs_of(shuffled).take(),
        ColumnarTrace.from_rows(sorted(shuffled, key=lambda row: (row[3], row[0]))),
    )


@pytest.mark.parametrize("case", sorted(BREAKS))
def test_column_runs_reject_what_log_record_rejects(valid_rows, case):
    bad_row = BREAKS[case](valid_rows)
    middle = len(valid_rows) // 2
    batch = valid_rows[:middle] + [bad_row] + valid_rows[middle:]
    order = np.lexsort(([row[0] for row in batch], [row[3] for row in batch]))
    position = order.tolist().index(middle)
    with pytest.raises(ValueError, match=f"row {position}: {MESSAGES[case]}"):
        _runs_of(batch).take()


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
