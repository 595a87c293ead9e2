"""Shared trace/session preparation for the experiment harnesses.

Several experiments consume the same synthetic trace and sessionization;
:func:`prepared_trace` builds (and memoizes, per process) the trace, the
recovered sessions and the user profiles for a given scale and seed, so a
benchmark suite does not regenerate identical traces a dozen times.

On top of the in-process memoization sits an **opt-in on-disk cache**:
point ``cache_dir=`` (or the :data:`REPRO_CACHE_DIR <CACHE_ENV>`
environment variable) at a directory and each prepared trace is persisted
as one uncompressed NPZ holding the columnar trace plus the per-record
session assignments.  A warm run then skips both generation and
sessionization — it memory-maps the arrays in place
(:func:`repro.logs.npz.load_npz`), rebuilds the records and buckets
them into the stored sessions, which is exactly the cold result (float
columns round-trip at full precision; no text quantization is involved).
Cache files are keyed by the columnar schema version, the seed, the
population sizes and a hash of the generator options, so any input that
could change the trace changes the file name; stale or corrupt files are
ignored and regenerated.  Without a cache directory nothing is read or
written and behaviour is unchanged.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Sequence

import numpy as np

from ..core.sessions import Session, sessionize
from ..core.usage import UserProfile, profile_users
from ..logs.columnar import SCHEMA_VERSION, ColumnarTrace
from ..logs.npz import load_npz
from ..logs.schema import LogRecord
from ..workload.generator import GeneratorOptions, TraceGenerator
from ..workload.parallel import generate_columnar_parallel

#: Default experiment scale: large enough for stable statistics, small
#: enough to generate in seconds.
DEFAULT_USERS = 2500
DEFAULT_PC_USERS = 400
DEFAULT_SEED = 20160814  # the observation week was August 2015; homage only

#: Populations at or above this size opt into sharded parallel generation
#: (one shard per available core).  The determinism contract guarantees
#: the records are identical to the serial path, so the threshold only
#: trades process overhead against core count — small default traces stay
#: serial and pay nothing.
PARALLEL_USERS_THRESHOLD = 20_000

#: Environment variable naming the on-disk cache directory.  Unset (and
#: ``cache_dir=None``) means no disk cache — the strictly-opt-in default.
CACHE_ENV = "REPRO_CACHE_DIR"

#: Process-wide count of actual trace generations.  Tests and benchmarks
#: read it to assert that a warm cache hit performed **no** generation.
GENERATION_CALLS = 0


@dataclass(frozen=True)
class PreparedTrace:
    """A generated trace with its derived artifacts.

    ``sessions`` covers mobile-device records only (the Section 3.1 view);
    ``all_sessions`` also includes PC-client sessions, which the Section
    3.2 engagement analyses need — a mobile&PC user's sync retrievals
    happen mostly on the PC.  ``mobile_records`` is the precomputed mobile
    filter of ``records`` (it used to be rebuilt on every property
    access).
    """

    records: tuple[LogRecord, ...]
    mobile_records: tuple[LogRecord, ...]
    sessions: tuple[Session, ...]
    all_sessions: tuple[Session, ...]
    profiles: tuple[UserProfile, ...]


def prepared_trace(
    n_users: int = DEFAULT_USERS,
    n_pc_users: int = DEFAULT_PC_USERS,
    seed: int = DEFAULT_SEED,
    max_chunks_per_file: int = 6,
    workers: int | None = None,
    cache_dir: str | Path | None = None,
) -> PreparedTrace:
    """Build (once per arguments, per process) the shared experiment trace.

    ``workers`` opts into sharded parallel generation: ``None`` picks it
    automatically for populations of :data:`PARALLEL_USERS_THRESHOLD`
    users or more, ``1`` forces the serial path, and any larger value
    pins the worker count.  Either path yields byte-identical records
    (the :mod:`repro.workload.parallel` determinism contract), so the
    memoization key stays meaningful.

    ``cache_dir`` names the on-disk NPZ cache directory; ``None`` falls
    back to the :data:`CACHE_ENV` environment variable, and an unset
    variable disables the disk cache entirely.  The resolution happens
    here, *before* the memoizing layer, so the environment is honoured on
    every call rather than frozen into the first one.
    """
    if cache_dir is None:
        cache_dir = os.environ.get(CACHE_ENV) or None
    return _prepared_trace(
        n_users,
        n_pc_users,
        seed,
        max_chunks_per_file,
        workers,
        str(cache_dir) if cache_dir is not None else None,
    )


@lru_cache(maxsize=4)
def _prepared_trace(
    n_users: int,
    n_pc_users: int,
    seed: int,
    max_chunks_per_file: int,
    workers: int | None,
    cache_dir: str | None,
) -> PreparedTrace:
    options = GeneratorOptions(max_chunks_per_file=max_chunks_per_file)
    cache_path = (
        Path(cache_dir) / _cache_name(n_users, n_pc_users, seed, options)
        if cache_dir is not None
        else None
    )
    if cache_path is not None and cache_path.exists():
        prepared = _load_cache(cache_path)
        if prepared is not None:
            return prepared
    records = _generate_records(n_users, n_pc_users, seed, options, workers)
    # One pass computes the mobile view; sessionize/profile_users consume
    # the shared tuples directly (no defensive list() copies).
    mobile = tuple(r for r in records if r.is_mobile)
    sessions = tuple(sessionize(mobile))
    all_sessions = tuple(sessionize(records))
    profiles = tuple(profile_users(records))
    if cache_path is not None:
        _store_cache(cache_path, records, sessions, all_sessions)
    return PreparedTrace(
        records=records,
        mobile_records=mobile,
        sessions=sessions,
        all_sessions=all_sessions,
        profiles=profiles,
    )


prepared_trace.cache_clear = _prepared_trace.cache_clear  # type: ignore[attr-defined]


def _generate_records(
    n_users: int,
    n_pc_users: int,
    seed: int,
    options: GeneratorOptions,
    workers: int | None,
) -> tuple[LogRecord, ...]:
    global GENERATION_CALLS
    GENERATION_CALLS += 1
    if workers is None:
        workers = (
            os.cpu_count() or 1
            if n_users + n_pc_users >= PARALLEL_USERS_THRESHOLD
            else 1
        )
    if workers > 1:
        return tuple(
            generate_columnar_parallel(
                n_users,
                n_pc_only_users=n_pc_users,
                options=options,
                seed=seed,
                n_shards=workers,
                n_workers=workers,
            ).to_records()
        )
    generator = TraceGenerator(
        n_users,
        n_pc_only_users=n_pc_users,
        options=options,
        seed=seed,
    )
    return tuple(generator.generate())


# ----------------------------------------------------------------------
# On-disk NPZ cache
# ----------------------------------------------------------------------


def _cache_name(
    n_users: int, n_pc_users: int, seed: int, options: GeneratorOptions
) -> str:
    """Cache file name: every trace-shaping input lands in the key.

    The columnar schema version invalidates old files when the on-disk
    layout changes; the options hash covers every :class:`GeneratorOptions`
    field (present and future — the digest is over the dataclass repr).
    """
    digest = hashlib.blake2b(
        repr(options).encode(), digest_size=8
    ).hexdigest()
    return (
        f"prepared-v{SCHEMA_VERSION}-s{seed}-u{n_users}-p{n_pc_users}"
        f"-{digest}.npz"
    )


def _session_assignment(
    records: tuple[LogRecord, ...], sessions: Sequence[Session]
) -> np.ndarray:
    """Per-record session ordinal (index into ``sessions``; -1 if none).

    Sessions hold references into ``records``, so identity is the join
    key — value equality would conflate coincidentally identical records.
    """
    position = {id(r): i for i, r in enumerate(records)}
    out = np.full(len(records), -1, dtype=np.int64)
    for number, session in enumerate(sessions):
        for record in session.records:
            out[position[id(record)]] = number
    return out


def _sessions_from_assignment(
    records: tuple[LogRecord, ...], assignment: np.ndarray
) -> tuple[Session, ...]:
    """Rebuild the session tuple from stored per-record ordinals.

    Bucketing in record order reproduces each session's record order
    because the trace is stored per-user time-sorted — the same order
    sessionization walks.
    """
    numbers = assignment.tolist()
    n_sessions = max(numbers, default=-1) + 1
    buckets: list[list[LogRecord]] = [[] for _ in range(n_sessions)]
    for record, number in zip(records, numbers):
        if number >= 0:
            buckets[number].append(record)
    return tuple(
        Session(user_id=bucket[0].user_id, records=bucket)
        for bucket in buckets
    )


def _store_cache(
    path: Path,
    records: tuple[LogRecord, ...],
    sessions: tuple[Session, ...],
    all_sessions: tuple[Session, ...],
) -> None:
    """Persist trace + session assignments atomically; best-effort only."""
    payload = ColumnarTrace.from_records(records).to_npz_payload()
    payload["prepared_mobile_session"] = _session_assignment(records, sessions)
    payload["prepared_all_session"] = _session_assignment(
        records, all_sessions
    )
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            prefix=path.name + ".", suffix=".tmp", dir=path.parent
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                # Uncompressed on purpose: stored (not deflated) members
                # let warm loads memory-map the arrays in place instead
                # of paying a full decompress-and-copy per column.
                np.savez(fh, **payload)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError:
        # An unwritable cache directory degrades to no caching.
        pass


def _load_cache(path: Path) -> PreparedTrace | None:
    """Load a cache file; ``None`` (regenerate) on any stale/corrupt file."""
    try:
        # Members of an uncompressed cache come back memory-mapped (zero
        # copy); legacy compressed caches and scalar members fall back to
        # regular reads inside load_npz.
        data = load_npz(path, mmap=True)
        trace = ColumnarTrace.from_npz_payload(data)
        mobile_assignment = np.asarray(
            data["prepared_mobile_session"], dtype=np.int64
        )
        all_assignment = np.asarray(
            data["prepared_all_session"], dtype=np.int64
        )
    except (OSError, ValueError, KeyError):
        return None
    if len(mobile_assignment) != len(trace) or len(all_assignment) != len(
        trace
    ):
        return None
    records = tuple(trace.iter_records())
    mobile = tuple(r for r in records if r.is_mobile)
    return PreparedTrace(
        records=records,
        mobile_records=mobile,
        sessions=_sessions_from_assignment(records, mobile_assignment),
        all_sessions=_sessions_from_assignment(records, all_assignment),
        profiles=tuple(profile_users(records)),
    )
