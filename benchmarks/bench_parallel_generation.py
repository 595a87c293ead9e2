"""Benchmark — sharded columnar generation throughput by worker count.

Every run produces the same artifact, the columnar part directories
``generate_columnar_sharded`` writes (downstream readers merge them in
bounded blocks, so the parts *are* the queryable trace): the baseline is
one shard on one worker, the contenders ``K`` shards on ``K`` worker
processes.  Prints a records/second table and asserts the determinism
contract held (identical record counts).  The >= 1.5x speedup gate only
arms on machines with at least four cores; on smaller runners the
numbers are still printed so the bench stays informative.
"""

import os
import time

import pytest

from repro.workload import GeneratorOptions
from repro.workload.parallel import generate_columnar_sharded

BENCH_USERS = 1200
BENCH_PC_USERS = 200
BENCH_SEED = 42
BENCH_OPTIONS = GeneratorOptions(max_chunks_per_file=4)

#: The acceptance gate: sharded generation at 4 workers must beat one
#: worker by this factor on a >= 4-core runner.
SPEEDUP_GATE = 1.5
GATE_WORKERS = 4


def _generate(tmp_path, workers):
    start = time.perf_counter()
    sharded = generate_columnar_sharded(
        BENCH_USERS,
        n_pc_only_users=BENCH_PC_USERS,
        options=BENCH_OPTIONS,
        seed=BENCH_SEED,
        n_shards=workers,
        n_workers=workers,
        part_dir=tmp_path / f"parts-x{workers}",
    )
    return sharded.n_records, time.perf_counter() - start


def test_parallel_generation_speedup(tmp_path):
    cores = os.cpu_count() or 1
    base_count, base_seconds = _generate(tmp_path, 1)
    rows = [("sharded x1", 1, base_count, base_seconds, 1.0)]
    speedups = {}
    for workers in (2, GATE_WORKERS):
        count, seconds = _generate(tmp_path, workers)
        assert count == base_count, (
            "determinism contract violated: sharded record count "
            f"{count} != single-worker {base_count}"
        )
        speedups[workers] = base_seconds / seconds
        rows.append((f"sharded x{workers}", workers, count, seconds,
                     speedups[workers]))

    print()
    print(f"columnar part generation, {BENCH_USERS + BENCH_PC_USERS} users, "
          f"{base_count:,} records, {cores} cores")
    print(f"{'engine':<14} {'workers':>7} {'seconds':>8} "
          f"{'records/s':>10} {'speedup':>8}")
    for name, workers, count, seconds, speedup in rows:
        print(f"{name:<14} {workers:>7} {seconds:>8.2f} "
              f"{count / seconds:>10,.0f} {speedup:>7.2f}x")

    if cores < GATE_WORKERS:
        pytest.skip(
            f"speedup gate needs >= {GATE_WORKERS} cores, have {cores} "
            "(throughput table printed above)"
        )
    assert speedups[GATE_WORKERS] >= SPEEDUP_GATE, (
        f"sharded x{GATE_WORKERS} speedup {speedups[GATE_WORKERS]:.2f}x "
        f"below the {SPEEDUP_GATE}x gate"
    )
