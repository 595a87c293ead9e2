"""Benchmark — record-path vs. columnar end-to-end trace analysis.

Times the full load -> sessionize -> profile pipeline twice over the same
on-disk TSV trace: once through per-record :class:`LogRecord` objects
(``read_tsv`` + ``sessionize`` + ``profile_users``) and once through the
struct-of-arrays fast path (``read_tsv_columnar`` + ``sessionize_columnar``
+ ``profile_users_columnar``).  Both paths recover the identical sessions
and profiles (the equivalence tests prove it record-for-record; here we
re-check the headline counts), so the ratio is a pure implementation
speedup.

The >= 3x gate arms only at the full 20k-user scale; CI runs a small
smoke via ``BENCH_COLUMNAR_USERS`` where the table is printed but the
gate stays off.  Set ``BENCH_COLUMNAR_JSON`` to a path to emit the
measurements as JSON (the CI job uploads it as ``BENCH_columnar.json``).

A second bench times the :func:`repro.experiments.common.prepared_trace`
disk cache and asserts — via the generation-call counter — that a warm
hit performs no trace generation at all.
"""

import os
import time

import pytest

from repro.core.sessions import sessionize, sessionize_columnar
from repro.core.usage import profile_users, profile_users_columnar
from repro.logs.io import read_tsv, read_tsv_columnar, write_tsv
from repro.workload import GeneratorOptions, generate_columnar_parallel

#: Full benchmark scale; ``BENCH_COLUMNAR_USERS`` overrides (CI smoke).
BENCH_USERS = int(os.environ.get("BENCH_COLUMNAR_USERS", "20000"))
BENCH_PC_USERS = BENCH_USERS // 8
BENCH_SEED = 42
BENCH_OPTIONS = GeneratorOptions(max_chunks_per_file=4)

#: The acceptance gate: the columnar pipeline must beat the record path
#: end to end by this factor — armed only at the full default scale.
SPEEDUP_GATE = 3.0
GATE_USERS = 20_000


def test_columnar_analysis_speedup(tmp_path, emit_json):
    trace_path = tmp_path / "bench.tsv"
    trace = generate_columnar_parallel(
        BENCH_USERS,
        n_pc_only_users=BENCH_PC_USERS,
        options=BENCH_OPTIONS,
        seed=BENCH_SEED,
        n_shards=os.cpu_count() or 1,
    )
    n_records = write_tsv(trace.iter_records(), trace_path)
    del trace

    # Columnar first, and each path's objects are freed before the other
    # is timed: millions of live LogRecords slow every later allocation
    # (GC pressure), which would bill record-path costs to the columnar
    # engine or vice versa.
    start = time.perf_counter()
    columnar = read_tsv_columnar(trace_path)
    mobile_trace = columnar.select(columnar.mobile_mask)
    columnar_sessions = sessionize_columnar(mobile_trace)
    columnar_profiles = profile_users_columnar(columnar)
    columnar_seconds = time.perf_counter() - start
    n_columnar_sessions = columnar_sessions.n_sessions
    n_columnar_profiles = len(columnar_profiles)
    del columnar, mobile_trace, columnar_sessions, columnar_profiles

    start = time.perf_counter()
    records = list(read_tsv(trace_path))
    mobile = [r for r in records if r.is_mobile]
    record_sessions = sessionize(mobile)
    record_profiles = profile_users(records)
    record_seconds = time.perf_counter() - start

    assert n_columnar_sessions == len(record_sessions)
    assert n_columnar_profiles == len(record_profiles)
    del records, mobile, record_sessions, record_profiles

    speedup = record_seconds / columnar_seconds
    print()
    print(
        f"load + sessionize + profile, {BENCH_USERS + BENCH_PC_USERS} "
        f"users, {n_records:,} records"
    )
    print(f"{'engine':<10} {'seconds':>8} {'records/s':>10} {'speedup':>8}")
    for name, seconds in (
        ("records", record_seconds),
        ("columnar", columnar_seconds),
    ):
        print(
            f"{name:<10} {seconds:>8.2f} {n_records / seconds:>10,.0f} "
            f"{record_seconds / seconds:>7.2f}x"
        )
    emit_json(
        "BENCH_COLUMNAR_JSON",
        {
            "users": BENCH_USERS + BENCH_PC_USERS,
            "records": n_records,
            "record_seconds": record_seconds,
            "columnar_seconds": columnar_seconds,
            "speedup": speedup,
        }
    )

    if BENCH_USERS < GATE_USERS:
        pytest.skip(
            f"speedup gate arms at {GATE_USERS} users, ran {BENCH_USERS} "
            "(table printed above)"
        )
    assert speedup >= SPEEDUP_GATE, (
        f"columnar speedup {speedup:.2f}x below the {SPEEDUP_GATE}x gate"
    )


#: The cache bench asserts behaviour (no generation on a warm hit), not a
#: ratio, so it runs at a small fixed scale everywhere, CI included.
CACHE_USERS = 400
CACHE_PC_USERS = 60


def test_warm_cache_skips_generation(tmp_path, emit_json):
    import repro.experiments.common as common

    common.prepared_trace.cache_clear()
    start = time.perf_counter()
    cold = common.prepared_trace(
        n_users=CACHE_USERS,
        n_pc_users=CACHE_PC_USERS,
        seed=BENCH_SEED,
        cache_dir=tmp_path,
    )
    cold_seconds = time.perf_counter() - start
    calls_after_cold = common.GENERATION_CALLS

    common.prepared_trace.cache_clear()
    start = time.perf_counter()
    warm = common.prepared_trace(
        n_users=CACHE_USERS,
        n_pc_users=CACHE_PC_USERS,
        seed=BENCH_SEED,
        cache_dir=tmp_path,
    )
    warm_seconds = time.perf_counter() - start

    assert common.GENERATION_CALLS == calls_after_cold, (
        "warm cache hit ran trace generation"
    )
    assert warm.records == cold.records
    assert warm.sessions == cold.sessions

    print()
    print(
        f"prepared_trace cache, {CACHE_USERS + CACHE_PC_USERS} users, "
        f"{len(cold.records):,} records: cold {cold_seconds:.2f}s, "
        f"warm {warm_seconds:.2f}s ({cold_seconds / warm_seconds:.1f}x)"
    )
    emit_json(
        "BENCH_COLUMNAR_JSON",
        {
            "cache_cold_seconds": cold_seconds,
            "cache_warm_seconds": warm_seconds,
        }
    )
