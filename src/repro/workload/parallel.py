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

Each shard's records are sorted by the total order :func:`merge_key` =
``(timestamp, user_id)`` and streamed to a per-shard TSV/JSONL part file
through :mod:`repro.logs.io`; :func:`merge_shards` is a k-way heap merge
over the part files, so downstream analyses see one globally
timestamp-sorted stream without ever materializing the trace in memory.
Ties within one ``(timestamp, user_id)`` key keep the user's emission
order, which is well-defined because a user lives in exactly one shard.
"""

from __future__ import annotations

import heapq
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

from ..logs.columnar import (
    DEFAULT_MERGE_BLOCK_ROWS,
    ColumnarTrace,
    Row,
    merge_columnar_sorted,
)
from ..logs.io import open_reader, read_columnar, write_jsonl, write_tsv
from ..logs.parts import ColumnarPartWriter, read_columnar_part
from ..logs.schema import LogRecord
from .config import WorkloadConfig
from .generator import GeneratorOptions, TraceGenerator
from .population import UserSpec, build_population

#: Part files are named ``part-0042.tsv`` etc. inside the part directory.
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


def merge_key(record: LogRecord) -> tuple[float, int]:
    """Total-order sort key for shard files and the k-way merge.

    ``(timestamp, user_id)`` is total across shards because equal keys can
    only collide within a single user (one shard), where stable sorting
    preserves the generator's emission order.
    """
    return (record.timestamp, record.user_id)


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
    #: Destination part file; ``None`` returns records in memory instead.
    path: str | None
    #: This shard's prebuilt user specs.  ``None`` makes the worker
    #: rebuild the (deterministic) population and partition it itself —
    #: same output, one redundant population build per worker.
    users: tuple[UserSpec, ...] | None = None
    #: Record batch size for the columnar-part worker (ignored by the
    #: TSV/JSONL and in-memory workers).
    batch_records: int = DEFAULT_PART_BATCH_RECORDS


@dataclass(frozen=True)
class ShardPart:
    """One generated shard: its part file (if any) and bookkeeping."""

    shard_index: int
    path: str | None
    n_records: int
    n_users: int
    records: tuple[LogRecord, ...] = ()

    def __iter__(self) -> Iterator[LogRecord]:
        if self.path is None:
            return iter(self.records)
        return open_reader(self.path)

    def columnar(self) -> ColumnarTrace:
        """Load this part as a :class:`ColumnarTrace` (bulk parse).

        The record iterator above re-parses the part file into one
        :class:`LogRecord` object per line; this path goes through the
        chunked columnar readers in :mod:`repro.logs.io` instead — no
        per-record objects, an order of magnitude faster on large parts.
        Prefer it (or :func:`generate_columnar_sharded`, which skips text
        entirely) for anything beyond record-at-a-time debugging.
        """
        if self.path is None:
            return ColumnarTrace.from_records(self.records)
        return read_columnar(self.path)


def generate_shard(task: ShardTask) -> ShardPart:
    """Generate one shard's records, sorted by :func:`merge_key`.

    Runs in a worker process: takes the shard's users from the task (or
    rebuilds the deterministic population and partitions it), then either
    streams the sorted records to ``task.path`` via :mod:`repro.logs.io`
    or returns them in memory.
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
    records = [r for user in users for r in generator.generate_user(user)]
    records.sort(key=merge_key)
    if task.path is None:
        return ShardPart(
            shard_index=task.shard_index,
            path=None,
            n_records=len(records),
            n_users=len(users),
            records=tuple(records),
        )
    writer = (
        write_jsonl
        if task.path.endswith((".jsonl", ".jsonl.gz"))
        else write_tsv
    )
    count = writer(records, task.path)
    return ShardPart(
        shard_index=task.shard_index,
        path=task.path,
        n_records=count,
        n_users=len(users),
    )


# ----------------------------------------------------------------------
# Orchestration and merging
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ShardedTrace:
    """The output of a sharded generation run."""

    parts: tuple[ShardPart, ...]

    @property
    def n_records(self) -> int:
        return sum(part.n_records for part in self.parts)

    @property
    def paths(self) -> list[str]:
        return [part.path for part in self.parts if part.path is not None]

    def merged(self) -> Iterator[LogRecord]:
        """One globally time-sorted stream over all shards."""
        return heapq.merge(*self.parts, key=merge_key)


def merge_shards(paths: Sequence[str | Path]) -> Iterator[LogRecord]:
    """K-way merge of sorted part files into one time-sorted stream.

    Holds one record per shard in memory; output is non-decreasing in
    :func:`merge_key` provided each part file is sorted by it (which
    :func:`generate_shard` guarantees).
    """
    return heapq.merge(*(open_reader(p) for p in paths), key=merge_key)


def _resolve_workers(n_shards: int, n_workers: int | None) -> int:
    if n_workers is None:
        n_workers = min(n_shards, os.cpu_count() or 1)
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    return min(n_workers, n_shards)


def generate_sharded(
    n_mobile_users: int,
    *,
    n_pc_only_users: int = 0,
    config: WorkloadConfig | None = None,
    options: GeneratorOptions | None = None,
    seed: int = 0,
    n_shards: int = 4,
    n_workers: int | None = None,
    part_dir: str | Path | None = None,
    part_format: str = "tsv",
) -> ShardedTrace:
    """Generate a trace as ``n_shards`` sorted shards on worker processes.

    Parameters
    ----------
    n_shards:
        Number of deterministic population shards.  The merged output is
        identical for every value (the determinism contract).
    n_workers:
        Worker processes; defaults to ``min(n_shards, cpu_count)``.  With
        one worker, shards run inline in this process (no pool overhead,
        same output).
    part_dir:
        Directory receiving ``part-NNNN.<fmt>`` files.  When ``None``,
        shards are returned in memory on the :class:`ShardPart` objects —
        records then round-trip through pickle instead of a file, keeping
        full float precision.
    part_format:
        ``"tsv"`` or ``"jsonl"`` (optionally with a ``.gz`` suffix, e.g.
        ``"tsv.gz"``), for ``part_dir`` mode.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    stem_format = part_format.removesuffix(".gz")
    if stem_format not in ("tsv", "jsonl"):
        raise ValueError(f"unsupported part format: {part_format!r}")
    n_workers = _resolve_workers(n_shards, n_workers)
    if part_dir is not None:
        part_dir = Path(part_dir)
        part_dir.mkdir(parents=True, exist_ok=True)
    # Build the population once here and hand each worker only its shard,
    # so workers skip the redundant O(population) rebuild.  build_population
    # validates the counts as a side effect.
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
            path=(
                str(part_dir / f"{PART_STEM}-{index:04d}.{part_format}")
                if part_dir is not None
                else None
            ),
            users=tuple(shards[index]),
        )
        for index in range(n_shards)
    ]
    if n_workers == 1:
        parts = [generate_shard(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            parts = list(pool.map(generate_shard, tasks))
    return ShardedTrace(parts=tuple(parts))


def generate_trace_parallel(
    n_mobile_users: int,
    *,
    n_pc_only_users: int = 0,
    config: WorkloadConfig | None = None,
    options: GeneratorOptions | None = None,
    seed: int = 0,
    n_shards: int = 4,
    n_workers: int | None = None,
) -> list[LogRecord]:
    """Parallel drop-in for :func:`repro.workload.generator.generate_trace`.

    Generates in-memory shards on worker processes and returns the exact
    record list the serial generator would produce — same records, same
    order (the serial generator emits users in ascending ``user_id`` with
    each user time-sorted, so sorting the merged stream by ``(user_id,
    timestamp)`` reconstructs it; the sort is stable and a user's
    within-timestamp ties keep their emission order).

    .. deprecated:: use only where :class:`LogRecord` objects are the
       point (record-path equivalence tests, small debugging runs).  The
       per-record materialization caps this path far below paper scale;
       :func:`generate_columnar_parallel` returns the same trace as
       arrays, and :func:`generate_columnar_sharded` streams it through
       memory-mapped parts without materializing anything.
    """
    sharded = generate_sharded(
        n_mobile_users,
        n_pc_only_users=n_pc_only_users,
        config=config,
        options=options,
        seed=seed,
        n_shards=n_shards,
        n_workers=n_workers,
        part_dir=None,
    )
    records = [r for part in sharded.parts for r in part.records]
    records.sort(key=lambda r: (r.user_id, r.timestamp))
    return records


def _generate_shard_columnar(task: ShardTask) -> ColumnarTrace:
    """Worker: generate one shard and return it as column arrays.

    The worker turns its users' rows straight into a
    :class:`ColumnarTrace` (no :class:`LogRecord` is built), so what
    crosses the process boundary — and what the parent concatenates — is
    a handful of NumPy arrays, never a per-record object graph.  Rows are
    left in emission order (users in shard order, each user time-sorted);
    the parent's lexsort establishes the global order.
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
    return ColumnarTrace.from_rows(
        row for user in users for row in generator.generate_user_rows(user)
    )


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
    """Columnar counterpart of :func:`generate_trace_parallel`.

    Workers return struct-of-arrays shards which the parent concatenates
    and stably lexsorts by ``(user_id, timestamp)`` — the serial
    generator's emission order — so
    ``generate_columnar_parallel(...).to_records()`` equals
    ``generate_trace(...)`` record for record (and field for field: arrays
    round-trip through pickle at full float precision).  The parent never
    materializes a single :class:`LogRecord`.

    Note that worker results still cross the process boundary as pickled
    arrays and the parent holds — then lexsorts — the whole trace, so
    peak RSS is O(records).  :func:`generate_columnar_sharded` produces
    the identical stream through memory-mapped part files in
    O(block × shards) memory; prefer it beyond a few million records.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    n_workers = _resolve_workers(n_shards, n_workers)
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
            path=None,
            users=tuple(shards[index]),
        )
        for index in range(n_shards)
    ]
    if n_workers == 1:
        parts = [_generate_shard_columnar(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            parts = list(pool.map(_generate_shard_columnar, tasks))
    return ColumnarTrace.concatenate(parts).sorted_by_user_time()


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

    Users are generated in ascending ``user_id`` order (each user's
    records already time-sorted), so the part is ``(user_id, timestamp)``-
    sorted on disk without any shard-wide sort or materialization: at
    most ``task.batch_records`` rows exist at a time, whatever the
    shard size, and no :class:`LogRecord` is built.  Only the part
    *path* crosses back to the parent.
    """
    if task.path is None:
        raise ValueError("columnar part generation needs a part path")
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
    batch_records = max(1, task.batch_records)
    with ColumnarPartWriter(task.path) as writer:
        buffer: list[Row] = []
        for user in users:
            buffer.extend(generator.generate_user_rows(user))
            if len(buffer) >= batch_records:
                writer.append(ColumnarTrace.from_rows(buffer))
                buffer.clear()
        if buffer:
            writer.append(ColumnarTrace.from_rows(buffer))
        n_records = writer.n_rows
    return ColumnarShardPart(
        shard_index=task.shard_index,
        path=task.path,
        n_records=n_records,
        n_users=len(users),
    )


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

        Concatenating the blocks reproduces
        ``generate_columnar_parallel(...)`` byte for byte, but peak RSS
        is O(``block_rows`` × shards): sources are memory-mapped and the
        merge buffers one window per shard.
        """
        return merge_columnar_sorted(
            self.open_parts(mmap=mmap),
            block_rows=block_rows,
            order="user_time",
        )


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


def generate_trace_to_file(
    output: str | Path,
    n_mobile_users: int,
    *,
    n_pc_only_users: int = 0,
    config: WorkloadConfig | None = None,
    options: GeneratorOptions | None = None,
    seed: int = 0,
    n_shards: int = 4,
    n_workers: int | None = None,
) -> int:
    """Generate shards in a scratch directory and merge into ``output``.

    The output file is globally timestamp-sorted (merge order), written in
    the format implied by its extension.  Returns the record count.
    """
    output = Path(output)
    suffix = "".join(output.suffixes)
    part_format = "jsonl" if ".jsonl" in suffix else "tsv"
    writer = write_jsonl if part_format == "jsonl" else write_tsv
    output.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(
        prefix=output.name + ".parts-", dir=output.parent
    ) as scratch:
        sharded = generate_sharded(
            n_mobile_users,
            n_pc_only_users=n_pc_only_users,
            config=config,
            options=options,
            seed=seed,
            n_shards=n_shards,
            n_workers=n_workers,
            part_dir=scratch,
            part_format=part_format,
        )
        return writer(sharded.merged(), output)
