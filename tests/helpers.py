"""Shared test helpers: the trace canonicalizer and reference oracles.

The serial generator emits records grouped by user while the sharded
engine merges shards into a globally time-sorted stream, so the two
equal traces arrive in different orders — and a trace that round-tripped
through a TSV part file carries floats quantized to the format's 6
decimal places.  :func:`canonical_lines` maps any of those
representations of the same trace to one canonical form so equivalence
asserts are record-for-record string comparisons:

* every record is serialized with :func:`repro.logs.io.record_to_tsv`,
  which quantizes floats identically whether or not the record already
  visited a file, and covers **every** field including ``session_id``
  (which ``LogRecord.__eq__`` deliberately ignores);
* lines are stable-sorted by the serialized ``(timestamp, user_id)``
  key.  The key is total across users; within one user, equal-timestamp
  records keep their emission order in every representation (per-user
  streams are never split across shards), so the stable sort yields one
  well-defined order.

The oracles are the record-at-a-time implementations the columnar live
path replaced, kept as the definitions it is tested against:
:func:`sort_by_time` (the access-log merge order) and
:func:`observe_record` (the per-record telemetry fold).
"""

from __future__ import annotations

import functools
import hashlib
from typing import Iterable

from repro.experiments.r4_open_loop import R4_RETRY_POLICY, correlated_config
from repro.logs.io import record_to_tsv
from repro.logs.schema import LogRecord, ResultCode
from repro.service.cluster import ServiceCluster
from repro.service.replay import replay_trace, synthetic_replay_trace
from repro.service.telemetry import _WindowCounters


def canonical_lines(records: Iterable[LogRecord]) -> list[str]:
    """Serialize ``records`` into the canonical sorted line list."""
    lines = [record_to_tsv(record) for record in records]
    lines.sort(key=_line_key)
    return lines


def _line_key(line: str) -> tuple[float, int]:
    parts = line.split("\t")
    return (float(parts[0]), int(parts[3]))


def replay_fingerprint(result) -> dict[str, str]:
    """Byte-level identity of one replay: canonical log + telemetry MD5s.

    ``log`` digests the *canonicalized* access log (same canonical form
    as :func:`canonical_lines`, so it is representation-independent);
    ``telemetry`` digests the snapshot's canonical JSON.  Two replays are
    "byte-identical" exactly when these fingerprints are equal — the
    determinism tests and the golden fixture both pin this dict.
    """
    log_digest = hashlib.md5(
        "\n".join(canonical_lines(result.records)).encode()
    ).hexdigest()
    telemetry_digest = hashlib.md5(
        result.snapshot().to_json().encode()
    ).hexdigest()
    return {"log": log_digest, "telemetry": telemetry_digest}


def assert_traces_equivalent(
    expected: Iterable[LogRecord],
    actual: Iterable[LogRecord],
    *,
    label: str = "trace",
) -> None:
    """Assert two traces are record-for-record identical (canonicalized)."""
    expected_lines = canonical_lines(expected)
    actual_lines = canonical_lines(actual)
    assert len(expected_lines) == len(actual_lines), (
        f"{label}: record count differs: "
        f"{len(expected_lines)} != {len(actual_lines)}"
    )
    for index, (want, got) in enumerate(zip(expected_lines, actual_lines)):
        assert want == got, (
            f"{label}: first mismatch at canonical record {index}:\n"
            f"  expected: {want}\n"
            f"  actual:   {got}"
        )


def sort_by_time(records: Iterable[LogRecord]) -> list[LogRecord]:
    """Records stably sorted by ``(timestamp, user, device)``.

    The access-log merge before the columnar log: each front-end's
    records concatenated in front-end order, then sorted.
    """
    return sorted(records, key=lambda r: (r.timestamp, r.user_id, r.device_id))


def observe_record(collector, record: LogRecord) -> None:
    """Tally one record into a ``TelemetryCollector``, one at a time.

    The per-record fold before ``TelemetryCollector.observe_log`` folded
    whole columns.
    """
    result = record.result
    timestamp = record.timestamp
    collector._result_counts[result] += 1
    if timestamp > collector._horizon:
        collector._horizon = timestamp
    index = int(timestamp // collector.window_seconds)
    windows = collector._windows
    window = windows.get(index)
    if window is None:
        window = windows[index] = _WindowCounters()
    window.requests += 1
    if result is ResultCode.OK:
        window.ok += 1
    else:
        window.failed += 1
        if result is ResultCode.SHED:
            window.shed += 1
    window.bytes += record.volume


def capture_frontend_logs(cluster) -> list:
    """Record each ``(server_id, part)`` the cluster's merge takes.

    Wraps every front-end's ``take_log`` so the test keeps the rows in
    the order each front-end emitted them, which the merge no longer
    does.  Returns the list the wrappers append to.
    """
    taken: list = []
    for frontend in cluster.frontends:

        def take(original=frontend.take_log, fid=frontend.server_id):
            part = original()
            taken.append((fid, part))
            return part

        frontend.take_log = take
    return taken


def oracle_access_log(taken: list) -> list[LogRecord]:
    """The old cluster merge over captured parts: :func:`sort_by_time`
    of the front-end logs concatenated in front-end order."""
    by_frontend: dict[int, list[LogRecord]] = {}
    for fid, part in taken:
        by_frontend.setdefault(fid, []).extend(part.iter_records())
    return sort_by_time(
        record for fid in sorted(by_frontend) for record in by_frontend[fid]
    )


# ----------------------------------------------------------------------
# The ``replay`` benchmark workload's three passes
# ----------------------------------------------------------------------

#: Users, client seed and fault seed of ``benchmarks/perf`` ``--workload replay``.
BENCH_REPLAY_USERS = 500
BENCH_REPLAY_SEED = 3
BENCH_FAULT_SEED = 7


def _bench_chaos_cluster() -> ServiceCluster:
    return ServiceCluster(
        n_frontends=2,
        faults=correlated_config(),
        fault_seed=BENCH_FAULT_SEED,
        frontend_capacity=8,
        retry_policy=R4_RETRY_POLICY,
        metadata_shards=4,
        metadata_replicas=2,
        read_policy="quorum",
    )


#: ``label -> (cluster factory, replay_trace arguments)`` of each pass.
BENCH_REPLAY_PASSES = {
    "clean": (lambda: ServiceCluster(n_frontends=2), {"speedup": 2.0}),
    "below": (_bench_chaos_cluster, {"rate": 0.05}),
    "above": (_bench_chaos_cluster, {"rate": 4.0}),
}


@functools.lru_cache(maxsize=None)
def bench_replay_pass(label: str):
    """One benchmark pass at trace seed 1, run once per session.

    Returns ``(result, cluster, taken)`` with ``taken`` the front-end
    parts the merge consumed (:func:`capture_frontend_logs`).
    """
    make_cluster, kwargs = BENCH_REPLAY_PASSES[label]
    cluster = make_cluster()
    taken = capture_frontend_logs(cluster)
    trace = synthetic_replay_trace(BENCH_REPLAY_USERS, 1)
    result = replay_trace(trace, cluster, seed=BENCH_REPLAY_SEED, **kwargs)
    return result, cluster, taken
