"""Tests for the paper-scale streaming pipeline.

Three layers, matching the tentpole's structure:

* the bounded-RAM k-way merge (`merge_columnar_sorted`) — a Hypothesis
  property pins it byte-identical to
  ``ColumnarTrace.concatenate(...).sorted_by_user_time()`` across shard
  counts, block sizes (including ``block_rows=1`` and blocks larger than
  the whole trace) and empty shards;
* the one-pass folds (`repro.core.streaming`) — the streaming report
  must equal the whole-trace in-memory engine bit for bit, at every
  block size, including the exact interval values;
* the end-to-end sharded generator (`generate_columnar_sharded`) — the
  merged part stream reproduces the serial generator's records and
  analyzes to the same digest, for any shard/worker count.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sessions import (
    file_operation_intervals_columnar,
    sessionize_columnar,
)
from repro.core.streaming import (
    DEFAULT_INTERVAL_EDGES,
    StreamingAnalyzer,
    analyze_stream,
    report_from_columnar,
)
from repro.core.usage import profile_users_columnar
from repro.logs.columnar import (
    ColumnarTrace,
    iter_columnar_blocks,
    merge_columnar_sorted,
)
from repro.workload.generator import GeneratorOptions, generate_trace
from repro.workload.parallel import (
    generate_columnar_parallel,
    generate_columnar_sharded,
)
from tests.test_columnar_parts import assert_traces_equal
from tests.test_logs_columnar import valid_record

OPTIONS = GeneratorOptions(max_chunks_per_file=3)


def generated_trace(n_users=40, n_pc=8, seed=11):
    return ColumnarTrace.from_records(
        generate_trace(n_users, n_pc_only_users=n_pc, options=OPTIONS, seed=seed)
    ).sorted_by_user_time()


def collect(blocks) -> ColumnarTrace:
    return ColumnarTrace.concatenate(list(blocks))


def rows(trace: ColumnarTrace, start: int, stop: int | None = None) -> ColumnarTrace:
    stop = len(trace) if stop is None else stop
    return trace.select(np.arange(start, stop))


# ----------------------------------------------------------------------
# The k-way merge
# ----------------------------------------------------------------------


@given(
    shards=st.lists(
        st.lists(valid_record(), max_size=25), min_size=1, max_size=5
    ),
    block_rows=st.sampled_from([1, 2, 3, 7, 1 << 20]),
)
@settings(max_examples=80, deadline=None)
def test_merge_matches_concatenate_property(shards, block_rows):
    """The satellite property: block-streamed merge output is
    byte-identical to ``concatenate(...).sorted_by_user_time()`` for any
    shard count, any block size (1 and > n included), empty shards too.
    """
    sources = [
        ColumnarTrace.from_records(records).sorted_by_user_time()
        for records in shards
    ]
    merged = collect(merge_columnar_sorted(sources, block_rows=block_rows))
    expected = ColumnarTrace.concatenate(sources).sorted_by_user_time()
    assert_traces_equal(merged, expected)


def test_merge_block_sizes_and_shard_counts():
    trace = generated_trace()
    thirds = len(trace) // 3
    for sources in (
        [trace],
        [
            rows(trace, 0, thirds),
            rows(trace, thirds, 2 * thirds),
            rows(trace, 2 * thirds),
        ],
        [trace, ColumnarTrace.empty(), rows(trace, 0, 7)],
    ):
        sources = [s.sorted_by_user_time() for s in sources]
        expected = ColumnarTrace.concatenate(sources).sorted_by_user_time()
        for block_rows in (1, 7, 100, 1 << 20):
            merged = collect(
                merge_columnar_sorted(sources, block_rows=block_rows)
            )
            assert_traces_equal(merged, expected)


def test_merge_block_bound_respected():
    trace = generated_trace()
    half = len(trace) // 2
    sources = [
        rows(trace, 0, half).sorted_by_user_time(),
        rows(trace, half).sorted_by_user_time(),
    ]
    for block in merge_columnar_sorted(sources, block_rows=16):
        # Each emitted block gathers at most one block_rows-sized window
        # cut per source — the O(block_rows x shards) memory bound.
        assert len(block) <= 16 * len(sources)


def test_merge_of_nothing():
    assert collect(merge_columnar_sorted([])).device_pool == ()
    assert len(collect(merge_columnar_sorted([ColumnarTrace.empty()]))) == 0


def test_iter_columnar_blocks_roundtrip():
    trace = generated_trace()
    for block_rows in (1, 7, len(trace), len(trace) + 99):
        blocks = list(iter_columnar_blocks(trace, block_rows=block_rows))
        assert all(len(b) <= block_rows for b in blocks)
        assert_traces_equal(collect(blocks), trace)


# ----------------------------------------------------------------------
# Streaming folds vs the in-memory engine
# ----------------------------------------------------------------------


@pytest.mark.parametrize("block_rows", [1, 5, 37, 911, 1 << 20])
def test_streaming_report_equals_in_memory(block_rows):
    trace = generated_trace()
    streamed = analyze_stream(
        iter_columnar_blocks(trace, block_rows=block_rows),
        keep_intervals=True,
    )
    reference = report_from_columnar(trace, keep_intervals=True)
    assert streamed.digest() == reference.digest()

    # The digest covers every array; also check the exact interval values
    # (not digested — the histogram counts are) and the profile bridge.
    assert np.allclose(
        np.sort(streamed.intervals.values), np.sort(reference.intervals.values)
    )
    mobile = trace.select(trace.mobile_mask)
    expected_intervals = file_operation_intervals_columnar(mobile)
    assert len(streamed.intervals.values) == len(expected_intervals)
    assert np.allclose(
        np.sort(streamed.intervals.values), np.sort(expected_intervals)
    )
    assert streamed.users.to_profiles() == profile_users_columnar(trace)


def test_streaming_sessions_match_sessionize_columnar():
    trace = generated_trace(seed=23)
    mobile = trace.select(trace.mobile_mask)
    want = sessionize_columnar(mobile)
    got = analyze_stream(iter_columnar_blocks(trace, block_rows=41)).sessions
    for field in (
        "user_id", "start", "end", "first_op", "last_op",
        "n_store_ops", "n_retrieve_ops", "store_volume", "retrieve_volume",
    ):
        assert np.array_equal(
            np.asarray(getattr(got, field)), np.asarray(getattr(want, field))
        ), field
    assert got.classify() == want.classify()


def test_streaming_tau_is_honoured():
    trace = generated_trace(seed=5)
    for tau in (60.0, 600.0):
        streamed = analyze_stream(
            iter_columnar_blocks(trace, block_rows=17), tau=tau
        )
        reference = report_from_columnar(trace, tau=tau)
        assert streamed.digest() == reference.digest()
    assert (
        analyze_stream(iter_columnar_blocks(trace, 17), tau=60.0).digest()
        != analyze_stream(iter_columnar_blocks(trace, 17), tau=600.0).digest()
    )


def test_streaming_empty_stream():
    report = analyze_stream(iter(()))
    assert report.n_records == 0
    assert report.sessions.n_sessions == 0
    assert report.users.n_users == 0
    assert report.intervals.n_intervals == 0
    assert report.digest() == report_from_columnar(ColumnarTrace.empty()).digest()


def test_streaming_interval_edges_shape():
    report = analyze_stream(iter_columnar_blocks(generated_trace(), 50))
    assert np.array_equal(report.intervals.edges, DEFAULT_INTERVAL_EDGES)
    assert len(report.intervals.counts) == len(DEFAULT_INTERVAL_EDGES) - 1
    assert report.intervals.counts.sum() == report.intervals.n_intervals
    assert report.intervals.values is None  # not kept at scale


@given(records=st.lists(valid_record(), max_size=40))
@settings(max_examples=60, deadline=None)
def test_streaming_digest_property(records):
    """Any schema-valid trace: stream == in-memory, at a small block."""
    trace = ColumnarTrace.from_records(records).sorted_by_user_time()
    streamed = analyze_stream(iter_columnar_blocks(trace, block_rows=3))
    assert streamed.digest() == report_from_columnar(trace).digest()


# ----------------------------------------------------------------------
# End to end: the sharded generator
# ----------------------------------------------------------------------


def test_sharded_stream_reproduces_parallel_trace(tmp_path):
    kwargs = dict(n_pc_only_users=6, options=OPTIONS, seed=3)
    reference_records = generate_trace(30, **kwargs)
    for n_shards in (1, 3):
        # Byte identity (device pool included) holds against the
        # same-shard-count in-memory path; across shard counts the pool
        # ordering legitimately differs, so compare decoded records.
        reference = generate_columnar_parallel(
            30, n_shards=n_shards, n_workers=1, **kwargs
        )
        sharded = generate_columnar_sharded(
            30,
            n_shards=n_shards,
            n_workers=1,
            part_dir=tmp_path / f"s{n_shards}",
            **kwargs,
        )
        assert sharded.n_records == len(reference)
        assert len(sharded.paths) == n_shards
        merged = collect(sharded.merged_blocks(block_rows=64))
        assert_traces_equal(merged, reference)
        assert merged.to_records() == reference_records


def test_sharded_digest_invariant_across_workers(tmp_path):
    kwargs = dict(n_pc_only_users=6, options=OPTIONS, seed=3)
    digests = set()
    for n_workers, label in ((1, "w1"), (2, "w2")):
        sharded = generate_columnar_sharded(
            30,
            n_shards=2,
            n_workers=n_workers,
            part_dir=tmp_path / label,
            **kwargs,
        )
        digests.add(
            analyze_stream(sharded.merged_blocks(block_rows=128)).digest()
        )
    reference = generate_columnar_parallel(30, n_shards=2, n_workers=1, **kwargs)
    digests.add(report_from_columnar(reference).digest())
    assert len(digests) == 1


def test_sharded_batch_records_do_not_change_output(tmp_path):
    kwargs = dict(n_pc_only_users=4, options=OPTIONS, seed=9)
    merged = {}
    for batch_records in (32, 1 << 16):
        sharded = generate_columnar_sharded(
            20,
            n_shards=2,
            n_workers=1,
            part_dir=tmp_path / f"b{batch_records}",
            batch_records=batch_records,
            **kwargs,
        )
        merged[batch_records] = collect(sharded.merged_blocks())
    assert_traces_equal(merged[32], merged[1 << 16])


def test_streaming_analyzer_incremental_feed(tmp_path):
    """Feeding merged blocks one by one equals the one-shot helper."""
    sharded = generate_columnar_sharded(
        24,
        n_pc_only_users=4,
        options=OPTIONS,
        seed=17,
        n_shards=3,
        n_workers=1,
        part_dir=tmp_path / "parts",
    )
    analyzer = StreamingAnalyzer()
    for block in sharded.merged_blocks(block_rows=97):
        analyzer.feed(block)
    report = analyzer.finalize()
    assert report.n_records == sharded.n_records
    reference = report_from_columnar(
        ColumnarTrace.concatenate(sharded.open_parts()).sorted_by_user_time()
    )
    assert report.digest() == reference.digest()


def test_shard_part_columnar_reader(tmp_path):
    """`ColumnarShardPart.open()` reads back exactly the shard's users'
    records, in the serial generator's order."""
    kwargs = dict(n_pc_only_users=4, options=OPTIONS, seed=2)
    serial = generate_trace(16, **kwargs)
    sharded = generate_columnar_sharded(
        16, n_shards=2, n_workers=1, part_dir=tmp_path, **kwargs
    )
    for part in sharded.parts:
        assert part.open().to_records() == [
            r for r in serial if r.user_id % 2 == part.shard_index
        ]


def test_shard_part_columnar_reader_in_memory(tmp_path):
    sharded = generate_columnar_sharded(
        10, n_pc_only_users=2, options=OPTIONS, seed=2, n_shards=2,
        n_workers=1, part_dir=tmp_path,
    )
    for part in sharded.parts:
        loaded = part.open(mmap=False)
        assert not isinstance(loaded.timestamp, np.memmap)
        assert_traces_equal(loaded, part.open())
