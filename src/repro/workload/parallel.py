"""Sharded parallel trace generation.

The serial :class:`~repro.workload.generator.TraceGenerator` executes the
whole population in one process, which makes week-scale traces CPU-bound
on a single core.  This module partitions the population into ``K``
deterministic shards and generates them on worker processes, preserving a
strict determinism contract:

**Determinism contract.**  For a fixed master seed, the multiset of
records produced is identical regardless of the number of shards, the
number of workers, or worker scheduling.  Three properties make this
hold:

1. Per-user RNG streams are spawned off the master seed with
   :class:`numpy.random.SeedSequence` keyed only by ``user_id`` (see
   :func:`repro.workload.generator.user_rng`), so a user's records do not
   depend on which other users a worker generates, or in what order.
2. Session ids are namespaced per user
   (``user_id * SESSION_ID_STRIDE + k``), so no cross-user counter leaks
   scheduling order into the output.
3. Shard assignment is a pure function of ``user_id`` and the shard
   count (:func:`shard_of_user`), and every worker rebuilds the same
   deterministic population from ``(n_mobile_users, n_pc_only_users,
   config, seed)``.

Each worker streams its shard to a memory-mappable columnar part
directory (:mod:`repro.logs.parts`), users in ascending ``user_id`` order
and each user's rows time-sorted, so every part is ``(user_id,
timestamp)``-sorted on disk.  :meth:`ColumnarShardedTrace.merged_blocks`
k-way merges the parts (:func:`repro.logs.columnar.merge_columnar_sorted`)
into bounded blocks in the global ``(user_id, timestamp)`` order — the
serial generator's emission order, because a user lives in exactly one
shard — without ever materializing the trace.  Everything else is a
reader of those parts: :func:`generate_columnar_parallel` concatenates
the merged blocks in memory, and ``repro generate`` exports them to
TSV/JSONL.
"""

from __future__ import annotations

import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

from ..logs.columnar import (
    DEFAULT_MERGE_BLOCK_ROWS,
    ColumnarTrace,
    merge_columnar_sorted,
)
from ..logs.parts import ColumnarPartWriter, read_columnar_part
from .config import WorkloadConfig
from .generator import GeneratorOptions, TraceGenerator
from .population import UserSpec, build_population

#: Parts are named ``part-0042.cols`` etc. inside the part directory.
PART_STEM = "part"

#: Records a columnar-part worker buffers before appending them to the
#: part files.  Bounds worker RSS at O(batch), independent of shard size.
DEFAULT_PART_BATCH_RECORDS = 65_536


# ----------------------------------------------------------------------
# Shard partitioning
# ----------------------------------------------------------------------


def shard_of_user(user_id: int, n_shards: int) -> int:
    """Deterministic shard assignment: ``user_id % n_shards``.

    A pure function of its arguments — independent of population size,
    generation order, and worker count.  Changing ``n_shards`` *does*
    reassign users (this is the one documented instability); for a fixed
    shard count the mapping never changes.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    return user_id % n_shards


def partition_users(
    users: Sequence[UserSpec], n_shards: int
) -> list[list[UserSpec]]:
    """Split ``users`` into ``n_shards`` lists by :func:`shard_of_user`.

    Every user lands in exactly one shard; shards may be empty (including
    the degenerate empty-population case, which yields ``n_shards`` empty
    lists).  Within a shard, the population's relative order is kept.
    """
    shards: list[list[UserSpec]] = [[] for _ in range(n_shards)]
    for user in users:
        shards[shard_of_user(user.user_id, n_shards)].append(user)
    return shards


# ----------------------------------------------------------------------
# Shard execution
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ShardTask:
    """Everything a worker needs to regenerate one shard from scratch."""

    shard_index: int
    n_shards: int
    n_mobile_users: int
    n_pc_only_users: int
    config: WorkloadConfig | None
    options: GeneratorOptions | None
    seed: int
    #: Destination part directory.
    path: str
    #: This shard's prebuilt user specs.  ``None`` makes the worker
    #: rebuild the (deterministic) population and partition it itself —
    #: same output, one redundant population build per worker.
    users: tuple[UserSpec, ...] | None = None
    #: Rows the worker buffers before appending them to the part.
    batch_records: int = DEFAULT_PART_BATCH_RECORDS


@dataclass(frozen=True)
class ColumnarShardPart:
    """One shard written as a memory-mappable columnar part directory."""

    shard_index: int
    path: str
    n_records: int
    n_users: int

    def open(self, *, mmap: bool = True) -> ColumnarTrace:
        """Open the part (memory-mapped by default — zero copy)."""
        return read_columnar_part(self.path, mmap=mmap)


def _generate_shard_part(task: ShardTask) -> ColumnarShardPart:
    """Worker: stream one shard straight to a columnar part directory.

    Users are generated in ascending ``user_id`` order and each batch of
    whole users is ``(user_id, timestamp)``-sorted
    (:meth:`TraceGenerator.column_batches`), so the part is sorted on disk
    without any shard-wide sort or materialization: a batch holds about
    ``task.batch_records`` rows (it ends with the user that reaches
    them), whatever the shard size, and no :class:`LogRecord` is built.
    Only the part *path* crosses back to the parent.
    """
    generator = TraceGenerator(
        task.n_mobile_users,
        n_pc_only_users=task.n_pc_only_users,
        config=task.config,
        options=task.options,
        seed=task.seed,
        population=list(task.users) if task.users is not None else None,
    )
    users = (
        list(task.users)
        if task.users is not None
        else partition_users(generator.population, task.n_shards)[task.shard_index]
    )
    # The population is built in ascending user_id order already; sorting
    # makes the part's sort invariant locally evident (and is a no-op).
    users.sort(key=lambda user: user.user_id)
    with ColumnarPartWriter(task.path) as writer:
        for batch in generator.column_batches(users, max(1, task.batch_records)):
            writer.append(batch)
        n_records = writer.n_rows
    return ColumnarShardPart(
        shard_index=task.shard_index,
        path=task.path,
        n_records=n_records,
        n_users=len(users),
    )


# ----------------------------------------------------------------------
# Orchestration
# ----------------------------------------------------------------------


def _resolve_workers(n_shards: int, n_workers: int | None) -> int:
    if n_workers is None:
        n_workers = min(n_shards, os.cpu_count() or 1)
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    return min(n_workers, n_shards)


@dataclass(frozen=True)
class ColumnarShardedTrace:
    """A trace generated as on-disk columnar shard parts.

    Nothing is resident: each part is a directory of raw ``.npy`` column
    files that :meth:`merged_blocks` memory-maps and k-way merges into
    bounded-size blocks in global ``(user_id, timestamp)`` order — the
    stream the folds in :mod:`repro.core.streaming` consume.
    """

    parts: tuple[ColumnarShardPart, ...]

    @property
    def n_records(self) -> int:
        return sum(part.n_records for part in self.parts)

    @property
    def paths(self) -> list[str]:
        return [part.path for part in self.parts]

    def open_parts(self, *, mmap: bool = True) -> list[ColumnarTrace]:
        return [part.open(mmap=mmap) for part in self.parts]

    def merged_blocks(
        self,
        *,
        block_rows: int = DEFAULT_MERGE_BLOCK_ROWS,
        mmap: bool = True,
    ) -> Iterator[ColumnarTrace]:
        """Stream the global ``(user_id, timestamp)`` order in blocks.

        Concatenating the blocks gives the serial generator's records in
        its order (:func:`generate_columnar_parallel`), but peak RSS is
        O(``block_rows`` × shards): sources are memory-mapped and the
        merge buffers one window per shard.
        """
        return merge_columnar_sorted(self.open_parts(mmap=mmap), block_rows=block_rows)


def generate_columnar_sharded(
    n_mobile_users: int,
    *,
    n_pc_only_users: int = 0,
    config: WorkloadConfig | None = None,
    options: GeneratorOptions | None = None,
    seed: int = 0,
    n_shards: int = 4,
    n_workers: int | None = None,
    part_dir: str | Path,
    batch_records: int = DEFAULT_PART_BATCH_RECORDS,
) -> ColumnarShardedTrace:
    """Generate a trace as memory-mappable columnar shard parts.

    The paper-scale entry point: workers stream their shards to
    ``part_dir/part-NNNN.cols/`` directories (worker RSS bounded by
    ``batch_records``) and hand back paths; the parent pickles no arrays
    and holds no records.  Follow with
    :meth:`ColumnarShardedTrace.merged_blocks` to analyze the global
    stream in bounded memory.  The determinism contract of this module
    applies unchanged: the merged stream is identical for every shard
    and worker count.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    n_workers = _resolve_workers(n_shards, n_workers)
    part_dir = Path(part_dir)
    part_dir.mkdir(parents=True, exist_ok=True)
    population = build_population(
        n_mobile_users,
        n_pc_only_users=n_pc_only_users,
        config=config or WorkloadConfig(),
        seed=seed,
    )
    shards = partition_users(population, n_shards)
    tasks = [
        ShardTask(
            shard_index=index,
            n_shards=n_shards,
            n_mobile_users=n_mobile_users,
            n_pc_only_users=n_pc_only_users,
            config=config,
            options=options,
            seed=seed,
            path=str(part_dir / f"{PART_STEM}-{index:04d}.cols"),
            users=tuple(shards[index]),
            batch_records=batch_records,
        )
        for index in range(n_shards)
    ]
    if n_workers == 1:
        parts = [_generate_shard_part(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            parts = list(pool.map(_generate_shard_part, tasks))
    return ColumnarShardedTrace(parts=tuple(parts))


def generate_columnar_parallel(
    n_mobile_users: int,
    *,
    n_pc_only_users: int = 0,
    config: WorkloadConfig | None = None,
    options: GeneratorOptions | None = None,
    seed: int = 0,
    n_shards: int = 4,
    n_workers: int | None = None,
) -> ColumnarTrace:
    """The whole trace in memory, in the serial generator's order.

    Runs :func:`generate_columnar_sharded` into a scratch directory and
    concatenates the merged blocks, so
    ``generate_columnar_parallel(...).to_records()`` equals
    ``generate_trace(...)`` record for record and field for field (parts
    store float64, never text).  The result holds the whole trace: peak
    RSS is O(records).  Beyond a few million records, stream
    :meth:`ColumnarShardedTrace.merged_blocks` instead.
    """
    with tempfile.TemporaryDirectory() as part_dir:
        sharded = generate_columnar_sharded(
            n_mobile_users,
            n_pc_only_users=n_pc_only_users,
            config=config,
            options=options,
            seed=seed,
            n_shards=n_shards,
            n_workers=n_workers,
            part_dir=part_dir,
        )
        return ColumnarTrace.concatenate(list(sharded.merged_blocks(mmap=False)))
