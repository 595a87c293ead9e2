"""Sharded parallel generation: determinism-equivalence harness.

The contract under test (see ``docs/SCALING.md``): for a fixed master
seed the sharded engine writes columnar parts whose merged stream is
record-for-record the serial generator's trace, in its order, for every
shard count and worker count.
"""

from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.helpers import assert_traces_equivalent, canonical_lines
from tests.test_columnar_parts import assert_traces_equal
from repro.logs.columnar import ColumnarTrace
from repro.logs.io import open_reader, write_jsonl, write_tsv
from repro.workload import (
    GeneratorOptions,
    ShardTask,
    generate_columnar_parallel,
    generate_trace,
    partition_users,
    shard_of_user,
)
from repro.workload.parallel import (
    _generate_shard_part,
    build_population,
    generate_columnar_sharded,
)

N_USERS = 120
N_PC_USERS = 25
SEED = 977
OPTIONS = GeneratorOptions(max_chunks_per_file=2)


@pytest.fixture(scope="module")
def serial_trace():
    return generate_trace(
        N_USERS, n_pc_only_users=N_PC_USERS, options=OPTIONS, seed=SEED
    )


def sharded_kwargs(**overrides):
    kwargs = dict(
        n_pc_only_users=N_PC_USERS, options=OPTIONS, seed=SEED
    )
    kwargs.update(overrides)
    return kwargs


def user_time_keys(trace: ColumnarTrace) -> list[tuple[int, float]]:
    return list(zip(trace.user_id.tolist(), trace.timestamp.tolist()))


# ----------------------------------------------------------------------
# Serial == sharded equivalence
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    ("n_shards", "n_workers"),
    [(1, 1), (2, 1), (4, 1), (2, 2), (4, 2)],
)
def test_sharded_equals_serial(serial_trace, n_shards, n_workers):
    parallel = generate_columnar_parallel(
        N_USERS,
        **sharded_kwargs(n_shards=n_shards, n_workers=n_workers),
    )
    assert_traces_equivalent(
        serial_trace,
        parallel.to_records(),
        label=f"shards={n_shards} workers={n_workers}",
    )


def test_parallel_reconstructs_serial_order_exactly(serial_trace):
    """The merged parts are the serial list itself: same records, same
    order, same session ids (which ``LogRecord.__eq__`` ignores)."""
    parallel = generate_columnar_parallel(
        N_USERS, **sharded_kwargs(n_shards=4, n_workers=2)
    ).to_records()
    assert parallel == serial_trace
    assert [r.session_id for r in parallel] == [
        r.session_id for r in serial_trace
    ]


@pytest.mark.parametrize("part_format", ["tsv", "jsonl"])
def test_file_backed_shards_equal_serial(serial_trace, tmp_path, part_format):
    """Parts on disk, merged and exported as text, read back as serial."""
    sharded = generate_columnar_sharded(
        N_USERS,
        **sharded_kwargs(n_shards=3, n_workers=2),
        part_dir=tmp_path / "parts",
    )
    assert sharded.n_records == len(serial_trace)
    assert len(sharded.paths) == 3
    out = tmp_path / f"trace.{part_format}"
    writer = write_jsonl if part_format == "jsonl" else write_tsv
    writer(
        (r for block in sharded.merged_blocks() for r in block.iter_records()),
        out,
    )
    assert_traces_equivalent(
        serial_trace, open_reader(out), label=f"file-backed {part_format}"
    )


def test_different_seeds_produce_different_sharded_traces():
    a = generate_columnar_parallel(40, options=OPTIONS, seed=1, n_shards=2)
    b = generate_columnar_parallel(40, options=OPTIONS, seed=2, n_shards=2)
    assert canonical_lines(a.to_records()) != canonical_lines(b.to_records())


# ----------------------------------------------------------------------
# Per-shard determinism and merge ordering
# ----------------------------------------------------------------------


def shard_task(index, n_shards, path, users=None):
    return ShardTask(
        shard_index=index,
        n_shards=n_shards,
        n_mobile_users=N_USERS,
        n_pc_only_users=N_PC_USERS,
        config=None,
        options=OPTIONS,
        seed=SEED,
        path=str(path),
        users=users,
    )


def part_bytes(path) -> dict[str, bytes]:
    return {f.name: f.read_bytes() for f in sorted(Path(path).iterdir())}


def test_shard_rerun_is_bit_identical(tmp_path):
    """Re-running one shard task writes a byte-identical part, and a
    worker that rebuilds the population (``users=None``) writes the part
    the prebuilt-users task writes."""
    population = build_population(
        N_USERS, n_pc_only_users=N_PC_USERS, seed=SEED
    )
    users = tuple(partition_users(population, 3)[1])
    part_a = _generate_shard_part(shard_task(1, 3, tmp_path / "a.cols"))
    part_b = _generate_shard_part(shard_task(1, 3, tmp_path / "b.cols"))
    part_c = _generate_shard_part(shard_task(1, 3, tmp_path / "c.cols", users))
    assert part_a.n_records == part_b.n_records == part_c.n_records > 0
    assert part_a.n_users == part_b.n_users == part_c.n_users == len(users)
    assert part_bytes(part_a.path) == part_bytes(part_b.path)
    assert part_bytes(part_a.path) == part_bytes(part_c.path)


def test_part_files_sorted_by_user_time(tmp_path):
    for index in range(3):
        part = _generate_shard_part(
            shard_task(index, 3, tmp_path / f"part-{index}.cols")
        )
        keys = user_time_keys(part.open())
        assert keys == sorted(keys)
        assert {uid % 3 for uid, _ in keys} == {index}


def test_merge_stream_is_globally_sorted(tmp_path):
    sharded = generate_columnar_sharded(
        N_USERS,
        **sharded_kwargs(n_shards=4, n_workers=1),
        part_dir=tmp_path,
    )
    keys = [
        key
        for block in sharded.merged_blocks(block_rows=97)
        for key in user_time_keys(block)
    ]
    assert keys == sorted(keys)
    assert len(keys) == sharded.n_records


def test_merged_iterator_streams_in_memory_parts(tmp_path):
    """``mmap=False`` loads the parts into memory; same merged stream."""
    sharded = generate_columnar_sharded(
        N_USERS, **sharded_kwargs(n_shards=2, n_workers=1), part_dir=tmp_path
    )
    in_memory = sharded.merged_blocks(block_rows=97, mmap=False)
    mapped = sharded.merged_blocks(block_rows=97)
    for loaded, mapped_block in zip(in_memory, mapped, strict=True):
        assert_traces_equal(loaded, mapped_block)


# ----------------------------------------------------------------------
# Shard partitioner properties (Hypothesis)
# ----------------------------------------------------------------------

user_id_lists = st.lists(
    st.integers(min_value=0, max_value=100_000), unique=True, max_size=200
)
shard_counts = st.integers(min_value=1, max_value=16)


def stub_users(user_ids):
    return [SimpleNamespace(user_id=uid) for uid in user_ids]


@given(user_ids=user_id_lists, n_shards=shard_counts)
@settings(max_examples=200, deadline=None)
def test_every_user_in_exactly_one_shard(user_ids, n_shards):
    shards = partition_users(stub_users(user_ids), n_shards)
    assert len(shards) == n_shards
    seen = [u.user_id for shard in shards for u in shard]
    assert sorted(seen) == sorted(user_ids)
    assert len(seen) == len(set(seen))


@given(user_ids=user_id_lists, n_shards=shard_counts)
@settings(max_examples=100, deadline=None)
def test_assignment_independent_of_other_users(user_ids, n_shards):
    """A user's shard is a pure function of (user_id, n_shards): dropping
    other users from the population never moves anyone."""
    full = partition_users(stub_users(user_ids), n_shards)
    placement = {
        u.user_id: index
        for index, shard in enumerate(full)
        for u in shard
    }
    subset = user_ids[::2]
    for index, shard in enumerate(partition_users(stub_users(subset), n_shards)):
        for user in shard:
            assert placement[user.user_id] == index


@given(user_id=st.integers(min_value=0, max_value=10**9),
       n_shards=shard_counts)
@settings(max_examples=100, deadline=None)
def test_shard_of_user_in_range_and_stable(user_id, n_shards):
    shard = shard_of_user(user_id, n_shards)
    assert 0 <= shard < n_shards
    assert shard == shard_of_user(user_id, n_shards)


@given(n_shards=shard_counts)
@settings(max_examples=20, deadline=None)
def test_empty_population_yields_empty_shards(n_shards):
    shards = partition_users([], n_shards)
    assert shards == [[] for _ in range(n_shards)]


def test_shard_count_change_reassigns_only_as_documented():
    """The documented instability: assignment may change with the shard
    count, but for user_id % lcm-compatible counts it follows the modulo
    rule exactly."""
    for n_shards in (1, 2, 4, 8):
        for user_id in range(32):
            assert shard_of_user(user_id, n_shards) == user_id % n_shards


# ----------------------------------------------------------------------
# Validation error paths
# ----------------------------------------------------------------------


def test_invalid_shard_count_rejected():
    with pytest.raises(ValueError, match="n_shards"):
        shard_of_user(3, 0)
    with pytest.raises(ValueError, match="n_shards"):
        generate_columnar_parallel(10, n_shards=0)


def test_invalid_worker_count_rejected():
    with pytest.raises(ValueError, match="n_workers"):
        generate_columnar_parallel(10, n_shards=2, n_workers=0)


def test_more_shards_than_users_still_equivalent():
    serial = generate_trace(3, options=OPTIONS, seed=5)
    parallel = generate_columnar_parallel(
        3, options=OPTIONS, seed=5, n_shards=8, n_workers=1
    )
    assert_traces_equivalent(serial, parallel.to_records(), label="shards>users")
