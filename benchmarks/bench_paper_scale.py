"""Benchmark — the paper-scale streaming pipeline (flagship run).

Drives the full bounded-memory pipeline end to end: workers stream
columnar shard parts to disk (``generate_columnar_sharded``), the parent
memory-maps and k-way merges them (``merged_blocks``), and the one-pass
folds in :mod:`repro.core.streaming` reduce the stream to sessions,
profiles and interval histograms.  Records:

* generation throughput (users/sec, records/sec into the part files),
* streaming analysis throughput (records/sec through the folds),
* the peak-RSS **trajectory** — RSS sampled as the stream progresses —
  demonstrating that memory plateaus at O(block_rows × shards) instead
  of growing with the record count.

Two gates, armed by scale:

* at or below ``CHECK_USERS_MAX`` users the streaming report's digest
  must equal the in-memory columnar engine's (the CI equivalence gate);
* the streaming-phase RSS growth must stay under a ceiling derived from
  ``block_rows × shards`` — *not* from the record count (the CI memory
  gate; disable with ``BENCH_PAPER_RSS_GATE=0`` on exotic platforms).

``BENCH_PAPER_USERS`` scales the run (default 500k mobile users — the
flagship; CI smoke uses ~50k).  ``BENCH_PAPER_JSON`` names a JSON output
(uploaded by CI as ``BENCH_paper_scale.json``).
"""

import os
import resource
import sys
import time

import pytest

from repro.core.streaming import StreamingAnalyzer, report_from_columnar
from repro.logs.columnar import ColumnarTrace
from repro.workload import GeneratorOptions
from repro.workload.parallel import generate_columnar_sharded

#: Flagship scale; ``BENCH_PAPER_USERS`` overrides (CI smoke ~50k).
BENCH_USERS = int(os.environ.get("BENCH_PAPER_USERS", "500000"))
BENCH_PC_USERS = BENCH_USERS // 8
BENCH_SEED = 42
BENCH_OPTIONS = GeneratorOptions(max_chunks_per_file=4)
BENCH_SHARDS = int(
    os.environ.get("BENCH_PAPER_SHARDS", str(min(8, os.cpu_count() or 1)))
)
BLOCK_ROWS = int(os.environ.get("BENCH_PAPER_BLOCK_ROWS", str(1 << 20)))

#: The in-memory cross-check materializes the whole trace; keep it to
#: scales where that is cheap.  The flagship run relies on the identical
#: digest having been proven at CI scale plus the Hypothesis merge proof.
CHECK_USERS_MAX = 120_000

#: RSS samples taken across the streaming phase.
RSS_SAMPLES = 16

#: Streaming-phase RSS growth ceiling: the merge holds one block_rows
#: window per shard (~70 B/row on disk) and the emit/gather/lexsort path
#: copies a few multiples of that; 8x covers it with slack.  The fold
#: outputs are O(users + sessions), covered by the flat allowance.
RSS_BYTES_PER_ROW = 70
RSS_SCRATCH_FACTOR = 8
RSS_FLAT_ALLOWANCE_MB = 400


def _rss_mb() -> tuple[float, float]:
    """Current ``(anonymous, total)`` resident set size in MB.

    Anonymous RSS is the honest bounded-memory metric: pages the process
    actually allocated (merge windows, fold state).  Total RSS also
    counts file-backed pages of the memory-mapped part files — clean,
    kernel-reclaimable page cache that grows as the stream reads through
    the parts and vanishes under any memory pressure.  The gate is on
    anonymous growth; the trajectory prints both.
    """
    try:
        anon = total = 0.0
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    total = int(line.split()[1]) / 1024
                elif line.startswith("RssAnon:"):
                    anon = int(line.split()[1]) / 1024
        if total and not anon:
            anon = total
        return anon, total
    except (OSError, ValueError, IndexError):
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        mb = peak / 1024 if sys.platform != "darwin" else peak / 1024**2
        return mb, mb


def test_paper_scale_streaming(tmp_path, emit_json):
    total_users = BENCH_USERS + BENCH_PC_USERS

    start = time.perf_counter()
    sharded = generate_columnar_sharded(
        BENCH_USERS,
        n_pc_only_users=BENCH_PC_USERS,
        options=BENCH_OPTIONS,
        seed=BENCH_SEED,
        n_shards=BENCH_SHARDS,
        part_dir=tmp_path / "parts",
    )
    generate_seconds = time.perf_counter() - start
    n_records = sharded.n_records

    baseline_mb, baseline_total_mb = _rss_mb()
    sample_every = max(1, n_records // (RSS_SAMPLES * max(1, BLOCK_ROWS)))
    trajectory: list[tuple[int, float, float]] = []
    analyzer = StreamingAnalyzer()
    rows_done = 0
    start = time.perf_counter()
    for i, block in enumerate(sharded.merged_blocks(block_rows=BLOCK_ROWS)):
        analyzer.feed(block)
        rows_done += len(block)
        if i % sample_every == 0:
            trajectory.append((rows_done, *_rss_mb()))
    report = analyzer.finalize()
    stream_seconds = time.perf_counter() - start
    trajectory.append((rows_done, *_rss_mb()))

    assert report.n_records == n_records
    digest = report.digest()
    peak_stream_mb = max(anon for _, anon, _total in trajectory)

    print()
    print(
        f"paper-scale streaming pipeline: {total_users:,} users, "
        f"{n_records:,} records, {BENCH_SHARDS} shards, "
        f"block {BLOCK_ROWS:,} rows"
    )
    print(
        f"generate  {generate_seconds:>8.2f}s "
        f"{total_users / generate_seconds:>10,.0f} users/s "
        f"{n_records / generate_seconds:>12,.0f} records/s"
    )
    print(
        f"stream    {stream_seconds:>8.2f}s "
        f"{'':>10} {n_records / stream_seconds:>12,.0f} records/s"
    )
    print(
        f"sessions {report.sessions.n_sessions:,}  users "
        f"{report.users.n_users:,}  intervals "
        f"{report.intervals.n_intervals:,}  digest {digest}"
    )
    print(
        f"RSS trajectory (baseline anon {baseline_mb:,.0f} MB, "
        f"total {baseline_total_mb:,.0f} MB; total includes reclaimable "
        f"mmap page cache):"
    )
    print(
        f"{'records streamed':>18} {'anon MB':>9} {'growth MB':>10}"
        f" {'total MB':>9}"
    )
    for rows, anon, total in trajectory:
        print(
            f"{rows:>18,} {anon:>9,.0f} {anon - baseline_mb:>10,.0f}"
            f" {total:>9,.0f}"
        )

    emit_json(
        "BENCH_PAPER_JSON",
        {
            "users": total_users,
            "records": n_records,
            "shards": BENCH_SHARDS,
            "block_rows": BLOCK_ROWS,
            "generate_seconds": generate_seconds,
            "users_per_second": total_users / generate_seconds,
            "generate_records_per_second": n_records / generate_seconds,
            "stream_seconds": stream_seconds,
            "stream_records_per_second": n_records / stream_seconds,
            "sessions": report.sessions.n_sessions,
            "digest": digest,
            "baseline_rss_anon_mb": baseline_mb,
            "baseline_rss_total_mb": baseline_total_mb,
            "peak_stream_rss_anon_mb": peak_stream_mb,
            "rss_trajectory": [list(sample) for sample in trajectory],
        }
    )

    if os.environ.get("BENCH_PAPER_RSS_GATE", "1") != "0":
        ceiling_mb = (
            BLOCK_ROWS
            * BENCH_SHARDS
            * RSS_BYTES_PER_ROW
            * RSS_SCRATCH_FACTOR
            / 1024**2
            + RSS_FLAT_ALLOWANCE_MB
        )
        growth_mb = peak_stream_mb - baseline_mb
        assert growth_mb <= ceiling_mb, (
            f"streaming RSS grew {growth_mb:,.0f} MB, over the "
            f"O(block x shards) ceiling of {ceiling_mb:,.0f} MB"
        )

    if total_users > CHECK_USERS_MAX:
        pytest.skip(
            f"in-memory digest check arms at <= {CHECK_USERS_MAX} users, "
            f"ran {total_users} (trajectory printed above)"
        )
    reference = report_from_columnar(
        ColumnarTrace.concatenate(sharded.open_parts()).sorted_by_user_time()
    )
    assert reference.digest() == digest, (
        "streaming report diverged from the in-memory columnar engine"
    )
