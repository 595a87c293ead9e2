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
:func:`observe_record` (the per-record telemetry fold).  The analysis
path's are :class:`OracleDeviceFold` (row-wise ``np.unique`` device
dedup), :class:`RowEmissionGenerator` (one row tuple per request, the
emitter the column runs replaced) and its per-file variant
:class:`PerFileEmissionGenerator`, :func:`spread_file_sizes_numpy` (the
array version of the per-session size spread) and
:func:`summarize_per_record` (the per-record summary fold).  The live
path's attempts run their earlier way inside :func:`reference_attempts`
(closure/keyword attempts, unmemoized placement, scalar fault draws,
the per-failover zone scan :func:`scan_failover_shift` and the
recomputed backoff :func:`computed_backoff_delay`).
The autoscaler's are :func:`reference_reactive` and
:func:`reference_predictive`, the closed-form provisioning loops the
fault-free controller driver replaced.  The log readers' are
:func:`oracle_read_tsv` and :func:`oracle_read_jsonl`, the line-at-a-time
record readers the chunk decoders replaced.

:func:`bench_replay_pass`, :func:`bench_paper_scale_digests` and
:func:`bench_analyze_digest` mirror the benchmark workloads whose
digests ``tests/data/digests.json`` pins.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import math
import operator
import tempfile
from pathlib import Path
from typing import Iterable

import numpy as np

from repro.core.report import analyze_trace
from repro.core.streaming import DEVICE_GROUPS, analyze_stream, report_from_columnar
from repro.experiments.r4_open_loop import R4_RETRY_POLICY, correlated_config
from repro.faults import FaultPlan, RetryPolicy
from repro.logs.columnar import (
    CHUNK_CODE,
    DEVICE_CODE,
    FILE_OP_CODE,
    OK_CODE,
    RETRIEVE_CODE,
    STORE_CODE,
    ColumnarTrace,
)
from repro.logs.io import TSV_COLUMNS, open_reader, record_to_tsv, write_tsv
from repro.logs.schema import (
    CHUNK_SIZE,
    DeviceType,
    Direction,
    LogRecord,
    RequestKind,
    ResultCode,
)
from repro.logs.summary import TraceSummary, summarize
from repro.service.autoscaler import _servers_for, _servers_needed
from repro.service.client import StorageClient
from repro.service.cluster import ServiceCluster
from repro.service.metadata import MetadataServer
from repro.service.metatier import ShardedMetadataTier
from repro.service.placement import frontend_for, shard_for
from repro.service.replay import replay_trace, synthetic_replay_trace
from repro.service.telemetry import _WindowCounters
from repro.tcpsim.devices import Lognormal, profile_for
from repro.tcpsim.rto import paper_rto_estimate
from repro.workload import GeneratorOptions
from repro.workload.config import DeviceGroup
from repro.workload.diurnal import SECONDS_PER_DAY
from repro.workload.generator import SESSION_ID_STRIDE, TraceGenerator, user_rng
from repro.workload.parallel import generate_columnar_sharded
from repro.workload.sampling import pow10_normals


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
# Live-path attempt oracle: closure/keyword attempts, unmemoized
# placement, scalar fault draws
# ----------------------------------------------------------------------


def _closure_request(self, preferred_id, call, tally):
    """``StorageClient._request`` before positional attempts: ``call(frontend,
    attempt)`` performs attempt number ``attempt`` (1-based) against
    ``frontend`` at the current clock."""
    policy = self.retry_policy
    plan = self.fault_plan
    shift = 0
    failures = 0
    while True:
        frontend = self.frontends[(preferred_id + shift) % len(self.frontends)]
        attempt = failures + 1
        tally.attempts += 1
        outcome = call(frontend, attempt)
        if outcome.ok:
            return outcome
        failures += 1
        self.clock += outcome.elapsed
        if failures >= policy.max_attempts:
            return None
        tally.retries += 1
        if plan is not None:
            plan.stats.retries += 1
        if outcome.wants_failover and policy.failover and len(self.frontends) > 1:
            shift = self._failover_shift(preferred_id, shift)
            tally.failovers += 1
            if plan is not None:
                plan.stats.failovers += 1
        self._backoff(failures)


def _closure_file_op(self, frontend_id, direction_code, tally):
    outcome = self._request(
        frontend_id,
        lambda frontend, attempt: frontend.handle_file_op(
            timestamp=self.clock,
            user_id=self.user_id,
            device_id=self.device_id,
            device_type_code=self._device_type_code,
            direction_code=direction_code,
            rtt=self.network.rtt,
            proxied=self.proxied,
            session_id=self.session_id,
            timeout=self.retry_policy.request_timeout,
            rng=self._rng,
        ),
        tally,
    )
    if outcome is None:
        return False
    self.clock += outcome.elapsed + self.network.rtt
    return True


def _closure_transfer_chunks(self, frontend_id, sizes, direction_code, tally):
    rto = paper_rto_estimate(self.network.rtt)
    tclt_dist = self._profile.tclt(direction_code == STORE_CODE)
    idle = 0.0
    for i, size in enumerate(sizes):
        restarted = i > 0 and idle > rto
        outcome = self._request(
            frontend_id,
            lambda frontend, attempt, _restarted=restarted, _size=size: (
                frontend.handle_chunk(
                    timestamp=self.clock,
                    user_id=self.user_id,
                    device_id=self.device_id,
                    device_type_code=self._device_type_code,
                    direction_code=direction_code,
                    size=_size,
                    rtt=self.network.rtt,
                    bandwidth=self.network.bandwidth,
                    restarted=_restarted or attempt > 1,
                    proxied=self.proxied,
                    session_id=self.session_id,
                    timeout=self.retry_policy.request_timeout,
                    rng=self._rng,
                )
            ),
            tally,
        )
        if outcome is None:
            return False
        tclt = float(tclt_dist.sample(self._rng))
        self.clock += outcome.tchunk + tclt
        idle = outcome.tsrv + tclt
    return True


def _scalar_draw_transient_error(self, frontend_id):
    if self.config.error_rate <= 0:
        return False
    return bool(self._error_rngs[frontend_id].random() < self.config.error_rate)


def _scalar_error_fraction(self, frontend_id):
    return float(self._error_rngs[frontend_id].random())


def _scalar_draw_pressure_shed(self, frontend_id, now):
    zones = self.zone_config
    if zones is None or zones.pressure_per_failure <= 0:
        return False
    self._drain_pressure(frontend_id, now)
    pressure = self._pressure[frontend_id]
    if pressure <= 0.0:
        return False
    probability = pressure / (pressure + zones.pressure_shed_scale)
    return bool(self._pressure_rngs[frontend_id].random() < probability)


def scan_failover_shift(self, preferred_id, shift):
    """``StorageClient._failover_shift`` before the plan's step table: scan
    the fleet in rotation order for the nearest server outside the failed
    one's zone on every failover."""
    n = len(self.frontends)
    failed_id = (preferred_id + shift) % n
    plan = self.fault_plan
    if plan is None:
        return shift + 1
    failed_zone = plan.zone_of(failed_id)
    if failed_zone is None:
        return shift + 1
    for step in range(1, n):
        candidate = (preferred_id + shift + step) % n
        if plan.zone_of(candidate) != failed_zone:
            return shift + step
    return shift + 1


def computed_backoff_delay(self, failure_index, rng):
    """``RetryPolicy.backoff_delay`` before the delay table: the pre-jitter
    delay recomputed on every retry."""
    delay = self.nominal_delay(failure_index)
    if self.jitter:
        delay *= 1.0 + self.jitter * (2.0 * float(rng.random()) - 1.0)
    return delay


#: ``(owner, attribute, reference)`` swapped in by :func:`reference_attempts`.
_REFERENCE_ATTEMPTS = (
    (StorageClient, "_request", _closure_request),
    (StorageClient, "_file_op", _closure_file_op),
    (StorageClient, "_transfer_chunks", _closure_transfer_chunks),
    (
        MetadataServer,
        "_frontend_for",
        lambda self, user_id: frontend_for(user_id, self.n_frontends),
    ),
    (
        ShardedMetadataTier,
        "shard_of",
        lambda self, user_id: shard_for(user_id, self.n_shards),
    ),
    (FaultPlan, "draw_transient_error", _scalar_draw_transient_error),
    (FaultPlan, "error_fraction", _scalar_error_fraction),
    (FaultPlan, "draw_pressure_shed", _scalar_draw_pressure_shed),
    (StorageClient, "_failover_shift", scan_failover_shift),
    (RetryPolicy, "backoff_delay", computed_backoff_delay),
)


@contextlib.contextmanager
def reference_attempts():
    """Run the live path's attempts the way they ran before positional calls.

    Inside the block every client attempt goes through a per-attempt
    closure that calls the front-end handler by keyword, placement
    recomputes its keyed digest on every call, the fault plan draws
    each error and pressure uniform with one scalar ``random()``, a
    failover scans the fleet for the next zone, and each backoff
    recomputes its pre-jitter delay.
    """
    saved = [
        (owner, name, owner.__dict__[name])
        for owner, name, _ in _REFERENCE_ATTEMPTS
    ]
    try:
        for owner, name, reference in _REFERENCE_ATTEMPTS:
            setattr(owner, name, reference)
        yield
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)


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
    return run_bench_replay_pass(label)


def run_bench_replay_pass(label: str):
    """:func:`bench_replay_pass` run afresh, never cached."""
    make_cluster, kwargs = BENCH_REPLAY_PASSES[label]
    cluster = make_cluster()
    taken = capture_frontend_logs(cluster)
    trace = synthetic_replay_trace(BENCH_REPLAY_USERS, 1)
    result = replay_trace(trace, cluster, seed=BENCH_REPLAY_SEED, **kwargs)
    return result, cluster, taken


# ----------------------------------------------------------------------
# The ``analysis`` benchmark workload: its ``paper-scale`` and ``analyze``
# batches, and the CI ``repro paper-scale --check`` run
# ----------------------------------------------------------------------

#: ``benchmarks/perf`` ``--workload paper-scale``: mobile users (PC-only
#: users are an eighth of them), chunk cap, shards, merge block rows and
#: the user count of the set-up check against the in-memory engine.
BENCH_PAPER_SCALE = {
    "users": 1200,
    "max_chunks": 4,
    "shards": 4,
    "block_rows": 1024,
    "check_users": 200,
}
#: ``benchmarks/perf`` ``--workload analyze``: ``repro generate`` defaults.
BENCH_ANALYZE_USERS = 600
BENCH_ANALYZE_MAX_CHUNKS = 8
#: The CI ``paper-scale-smoke`` job's ``repro paper-scale`` arguments.
CI_PAPER_SCALE = {
    "users": 3000,
    "pc_users": 600,
    "max_chunks": 8,
    "shards": 4,
    "block_rows": 65536,
    "seed": 7,
}


def paper_scale_digest(
    users: int,
    *,
    pc_users: int,
    max_chunks: int,
    shards: int,
    block_rows: int,
    seed: int,
) -> str:
    """The streaming report digest of one sharded columnar generation.

    Generates in-process (the digest is the same for every worker
    count), folds the merged blocks and asserts the in-memory engine
    agrees, as ``repro paper-scale --check`` and the benchmark's set-up
    do.
    """
    with tempfile.TemporaryDirectory() as part_dir:
        sharded = generate_columnar_sharded(
            users,
            n_pc_only_users=pc_users,
            options=GeneratorOptions(max_chunks_per_file=max_chunks),
            seed=seed,
            n_shards=shards,
            n_workers=1,
            part_dir=part_dir,
        )
        digest = analyze_stream(
            sharded.merged_blocks(block_rows=block_rows)
        ).digest()
        whole = report_from_columnar(
            ColumnarTrace.concatenate(sharded.open_parts()).sorted_by_user_time()
        ).digest()
    assert digest == whole, "streaming digest differs from the in-memory engine"
    return digest


def bench_paper_scale_digests(seed: int = 1) -> dict[str, str]:
    """The ``paper-scale`` batch's ``report`` and ``check`` digests."""
    size = BENCH_PAPER_SCALE

    def digest(users: int) -> str:
        return paper_scale_digest(
            users,
            pc_users=users // 8,
            max_chunks=size["max_chunks"],
            shards=size["shards"],
            block_rows=size["block_rows"],
            seed=seed,
        )

    return {"report": digest(size["users"]), "check": digest(size["check_users"])}


def bench_analyze_digest(seed: int = 1) -> str:
    """The ``analyze`` batch's ``findings`` digest (``repro analyze --fast``)."""
    generator = TraceGenerator(
        BENCH_ANALYZE_USERS,
        options=GeneratorOptions(max_chunks_per_file=BENCH_ANALYZE_MAX_CHUNKS),
        seed=seed,
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.tsv"
        write_tsv(generator.generate(), path)
        records = list(open_reader(path))
    summary = summarize(records).render()
    findings = analyze_trace(records, fit_size_model=False)
    values = [row.value for row in findings.rows()]
    return hashlib.md5(
        "\n".join(
            [
                summary,
                repr(values),
                repr(findings.interval_model.tau),
                str(findings.session_shares),
            ]
        ).encode()
    ).hexdigest()


# ----------------------------------------------------------------------
# Log reader oracles: one record per line, parsed on its own
# ----------------------------------------------------------------------

_DEVICE_TYPES = {member.value: member for member in DeviceType}
_KINDS = {member.value: member for member in RequestKind}
_DIRECTIONS = {member.value: member for member in Direction}
_RESULTS = {member.value: member for member in ResultCode}
_PROXIED = {"0": False, "1": True}


def oracle_parse_tsv_line(line: str, last: list) -> LogRecord:
    """One TSV line's record, sharing objects with the previous line's.

    ``last`` is ``[device_id, user_id text, user_id, rtt text, rtt,
    session_id text, session_id]`` of the line parsed before with the
    same list (``None`` before the first), updated in place.  A NaN
    ``rtt`` is never shared.  Raises ``ValueError`` or ``KeyError`` on a
    malformed line.
    """
    parts = line.rstrip("\r\n").split("\t")
    if len(parts) == len(TSV_COLUMNS) - 1:
        parts.insert(11, ResultCode.OK.value)
    elif len(parts) != len(TSV_COLUMNS):
        raise ValueError(f"expected {len(TSV_COLUMNS)} columns, got {len(parts)}")
    device_id = parts[2]
    if device_id == last[0]:
        device_id = last[0]
    else:
        last[0] = device_id
    text = parts[3]
    if text == last[1]:
        user_id = last[2]
    else:
        user_id = int(text)
        last[1], last[2] = text, user_id
    text = parts[9]
    if text == last[3]:
        rtt = last[4]
    else:
        rtt = float(text)
        last[3], last[4] = (text, rtt) if rtt == rtt else (None, None)
    text = parts[12]
    if text == last[5]:
        session_id = last[6]
    else:
        session_id = int(text)
        last[5], last[6] = text, session_id
    return LogRecord(
        float(parts[0]),
        _DEVICE_TYPES[parts[1]],
        device_id,
        user_id,
        _KINDS[parts[4]],
        _DIRECTIONS[parts[5]],
        int(parts[6]),
        float(parts[7]),
        float(parts[8]),
        rtt,
        _PROXIED[parts[10]],
        _RESULTS[parts[11]],
        session_id,
    )


def oracle_read_tsv(path) -> list[LogRecord]:
    """The records of a TSV file, one line at a time."""
    last: list = [None] * 7
    with open(path, encoding="utf-8", newline="") as fh:
        return [
            oracle_parse_tsv_line(line, last)
            for line in fh
            if line.strip() and not line.startswith("#")
        ]


def oracle_record_from_dict(data: dict) -> LogRecord:
    """The record of one decoded JSONL object."""
    proxied = data.get("proxied", False)
    if proxied is not True and proxied is not False:
        raise ValueError(f"unknown proxied value: {proxied!r}")
    return LogRecord(
        timestamp=float(data["timestamp"]),
        device_type=_DEVICE_TYPES[data["device_type"]],
        device_id=str(data["device_id"]),
        user_id=int(data["user_id"]),
        kind=_KINDS[data["kind"]],
        direction=_DIRECTIONS[data["direction"]],
        volume=int(data.get("volume", 0)),
        processing_time=float(data.get("processing_time", 0.0)),
        server_time=float(data.get("server_time", 0.0)),
        rtt=float(data.get("rtt", 0.0)),
        proxied=proxied,
        result=_RESULTS[data.get("result", "ok")],
        session_id=int(data.get("session_id", -1)),
    )


def oracle_read_jsonl(path) -> list[LogRecord]:
    """The records of a JSONL file, one line at a time."""
    with open(path, encoding="utf-8", newline="") as fh:
        return [
            oracle_record_from_dict(json.loads(line))
            for line in fh
            if line.strip() and not line.startswith("#")
        ]


# ----------------------------------------------------------------------
# Analysis-path oracles: the per-row definitions the folds replaced
# ----------------------------------------------------------------------


class OracleDeviceFold:
    """The streaming device fold deduplicating with ``np.unique(axis=0)``.

    The definition :class:`repro.core.streaming._DeviceFold` is tested
    against: the same pool re-coding, then a row-wise ``np.unique`` over
    the stacked ``(user, device, mobile)`` triples per block and once more
    at finalize.
    """

    def __init__(self) -> None:
        self._pool_tuple = None
        self._pool_index: dict[str, int] = {}
        self.triples: list[np.ndarray] = []

    def feed(self, block: ColumnarTrace) -> None:
        if not len(block):
            return
        codes = block.device_code
        if self._pool_tuple is None or block.device_pool is not self._pool_tuple:
            if self._pool_tuple is None:
                self._pool_tuple = block.device_pool
            lookup = np.asarray(
                [
                    self._pool_index.setdefault(d, len(self._pool_index))
                    for d in block.device_pool
                ],
                dtype=np.int64,
            )
            if len(lookup) and not np.array_equal(lookup, np.arange(len(lookup))):
                codes = lookup[codes]
        triples = np.stack(
            [
                block.user_id.astype(np.int64),
                codes.astype(np.int64),
                block.mobile_mask.astype(np.int64),
            ],
            axis=1,
        )
        self.triples.append(np.unique(triples, axis=0))

    def finalize(self, users: np.ndarray) -> dict[str, np.ndarray]:
        n = len(users)
        uses_mobile = np.zeros(n, dtype=bool)
        uses_pc = np.zeros(n, dtype=bool)
        mobile_count = np.zeros(n, dtype=np.int64)
        if self.triples:
            triples = np.unique(np.concatenate(self.triples), axis=0)
            mobile = triples[:, 2] == 1
            mob_users, mob_counts = np.unique(triples[mobile, 0], return_counts=True)
            idx = np.searchsorted(users, mob_users)
            uses_mobile[idx] = True
            mobile_count[idx] = mob_counts
            uses_pc[np.searchsorted(users, np.unique(triples[~mobile, 0]))] = True
        code = {group: i for i, group in enumerate(DEVICE_GROUPS)}
        group_code = np.where(
            uses_mobile & uses_pc,
            code[DeviceGroup.MOBILE_AND_PC],
            np.where(
                uses_mobile,
                np.where(
                    mobile_count == 1,
                    code[DeviceGroup.ONE_MOBILE],
                    code[DeviceGroup.MULTI_MOBILE],
                ),
                code[DeviceGroup.PC_ONLY],
            ),
        ).astype(np.uint8)
        return {"device_group_code": group_code, "mobile_count": mobile_count}


def uniform(rng: np.random.Generator, low: float, high: float) -> float:
    """``rng.uniform(low, high)`` as ``low + (high - low) * rng.random()``."""
    return low + (high - low) * rng.random()


def spread_file_sizes_numpy(
    average: int, n_files: int, rng: np.random.Generator, spread_sigma: float = 0.4
) -> tuple[int, ...]:
    """The array version of :func:`repro.workload.sessions.spread_file_sizes`."""
    if n_files < 1:
        raise ValueError("n_files must be >= 1")
    if average < n_files:
        raise ValueError("average size must be at least one byte per file")
    if n_files == 1:
        return (average,)
    jitter = rng.lognormal(0.0, spread_sigma, size=n_files)
    jitter /= jitter.mean()
    sizes = np.maximum(1, np.round(jitter * average)).astype(np.int64)
    drift = int(average) * n_files - int(sizes.sum())
    sizes[int(np.argmax(sizes))] += drift
    if sizes.min() < 1:
        deficit = 1 - int(sizes.min())
        sizes[int(np.argmin(sizes))] += deficit
        sizes[int(np.argmax(sizes))] -= deficit
    return tuple(int(s) for s in sizes)


_by_timestamp = operator.itemgetter(0)


class RowEmissionGenerator(TraceGenerator):
    """The generator emitting one 13-field row tuple per request.

    The definition the column-run emitter
    (:meth:`TraceGenerator._emit_user`) is tested against:
    :meth:`generate_user_rows` returns one user's rows in
    :class:`LogRecord` field order, enum fields as their code-table
    indices, time-sorted by one stable sort; ``ColumnarTrace.from_rows``
    of consecutive users' rows is the trace the emitter's batches must
    equal.  Per session it recomputes the link constants, and per file it
    draws the queueing jitter with ``rng.random()``.
    """

    def generate_user_rows(self, user) -> list:
        rng = user_rng(self.seed, user.user_id)
        rows: list = []
        plans = self._plan_days(user, user.store_files, user.retrieve_files, rng)
        used_platforms: set[bool] = set()
        session_index = 0
        for day, day_plans in plans:
            n_plans = len(day_plans)
            gap_hi = min(4.5, max(2.0, 14.0 / max(1, n_plans - 1)))
            base = self._diurnal.sample_timestamp(day, rng)
            latest_start = (
                (day + 1) * SECONDS_PER_DAY
                - (n_plans - 1) * gap_hi * 3600.0
                - 1800.0
            )
            base = max(day * SECONDS_PER_DAY, min(base, latest_start))
            for plan in day_plans:
                device = self._pick_device(
                    user, plan, rng, session_index, used_platforms
                )
                used_platforms.add(device.device_type is DeviceType.PC)
                session_index += 1
                session_id = user.user_id * SESSION_ID_STRIDE + session_index
                self._emit_session_rows(
                    rows, user, device.device_id, device.device_type, plan,
                    base, session_id, rng,
                )
                base += uniform(rng, 0.5 * gap_hi, gap_hi) * 3600.0
        rows.sort(key=_by_timestamp)
        return rows

    def _emit_session_rows(
        self, rows, user, device_id, device_type, plan, start, session_id, rng
    ) -> None:
        intervals = self.config.intervals
        store_sizes = plan.store_sizes
        retrieve_sizes = plan.retrieve_sizes
        n_ops = len(store_sizes) + len(retrieve_sizes)
        batch_mode = n_ops > intervals.batch_threshold or (
            n_ops > 1 and rng.random() < intervals.p_batch_small
        )
        mean_log10, std_log10 = (
            (intervals.batch_mean_log10, intervals.batch_std_log10)
            if batch_mode
            else (intervals.within_mean_log10, intervals.within_std_log10)
        )
        op_times = [start]
        for gap in pow10_normals(rng, mean_log10, std_log10, n_ops - 1):
            op_times.append(op_times[-1] + gap)
        device_code = DEVICE_CODE[device_type]
        user_id = user.user_id
        rtt = user.rtt
        proxied = user.proxied
        tsrv_meta = float(self._server.tsrv.sample(rng)) * 0.2
        op_codes = [STORE_CODE] * len(store_sizes) + [RETRIEVE_CODE] * len(
            retrieve_sizes
        )
        for when, direction_code in zip(op_times, op_codes):
            rows.append((
                when, device_code, device_id, user_id, FILE_OP_CODE,
                direction_code, 0, tsrv_meta, tsrv_meta, rtt, proxied,
                OK_CODE, session_id,
            ))
        if not n_ops or not self.options.emit_chunks or user.dedup_only:
            return
        max_chunks = self.options.max_chunks_per_file
        profile = profile_for(device_type)
        rto = paper_rto_estimate(rtt)
        restart_penalty = self._transfer.restart_penalty_rtts * rtt
        tsrv_mu, tsrv_sigma = self._server.tsrv.mu, self._server.tsrv.sigma
        op_index = 0
        transfer_clock = 0.0
        for direction, sizes in (
            (Direction.STORE, store_sizes),
            (Direction.RETRIEVE, retrieve_sizes),
        ):
            if not sizes:
                continue
            is_store = direction is Direction.STORE
            direction_code = STORE_CODE if is_store else RETRIEVE_CODE
            bandwidth = user.bandwidth * (
                1.0 if is_store else self.config.network.downlink_factor
            )
            rate = self._transfer.rate(rtt, bandwidth, direction)
            tclt = profile.tclt(is_store)
            tclt_mu, tclt_sigma = tclt.mu, tclt.sigma
            for size in sizes:
                clock = max(
                    op_times[op_index] + uniform(rng, 0.05, 0.3), transfer_clock
                )
                op_index += 1
                n_records = min(
                    max(1, math.ceil(size / CHUNK_SIZE)), max_chunks
                )
                base_volume, remainder = divmod(size, n_records)
                z = rng.standard_normal(2 * n_records).tolist()
                idle = 0.0
                for index in range(n_records):
                    volume = base_volume + 1 if index < remainder else base_volume
                    tsrv = math.exp(tsrv_mu + tsrv_sigma * z[2 * index])
                    ttran = volume / rate
                    if idle > rto:
                        ttran += restart_penalty
                    tchunk = ttran + tsrv
                    rows.append((
                        clock, device_code, device_id, user_id, CHUNK_CODE,
                        direction_code, volume, tchunk, tsrv, rtt, proxied,
                        OK_CODE, session_id,
                    ))
                    tclt = math.exp(tclt_mu + tclt_sigma * z[2 * index + 1])
                    clock += tchunk + tclt
                    idle = tsrv + tclt
                transfer_clock = clock


def oracle_columns(generator: RowEmissionGenerator, users) -> ColumnarTrace:
    """``ColumnarTrace.from_rows`` of the users' oracle rows, in order."""
    return ColumnarTrace.from_rows(
        row for user in users for row in generator.generate_user_rows(user)
    )


class PerFileEmissionGenerator(RowEmissionGenerator):
    """The generator emitting each file's chunks in a method of its own.

    A second definition of the emitter's rows: per file, ``_emit_chunks``
    draws the chunks' Tsrv/Tclt through :func:`lognormal_pairs`, prices
    each chunk with :meth:`TransferModel.transfer_time` and recomputes the
    RTO and bandwidth; each session's rows are sorted before they join the
    user's.
    """

    def _emit_session_rows(
        self, rows, user, device_id, device_type, plan, start, session_id, rng
    ) -> None:
        intervals = self.config.intervals
        session_rows: list = []
        ops = [(Direction.STORE, size) for size in plan.store_sizes] + [
            (Direction.RETRIEVE, size) for size in plan.retrieve_sizes
        ]
        batch_mode = len(ops) > intervals.batch_threshold or (
            len(ops) > 1 and rng.random() < intervals.p_batch_small
        )
        mean_log10, std_log10 = (
            (intervals.batch_mean_log10, intervals.batch_std_log10)
            if batch_mode
            else (intervals.within_mean_log10, intervals.within_std_log10)
        )
        gaps = pow10_normals(rng, mean_log10, std_log10, len(ops) - 1)
        op_time = start
        op_times = []
        for index, (direction, size) in enumerate(ops):
            if index:
                op_time += gaps[index - 1]
            op_times.append((op_time, direction, size))
        device_code = DEVICE_CODE[device_type]
        tsrv_meta = float(self._server.tsrv.sample(rng)) * 0.2
        for when, direction, _size in op_times:
            session_rows.append((
                when, device_code, device_id, user.user_id, FILE_OP_CODE,
                STORE_CODE if direction is Direction.STORE else RETRIEVE_CODE,
                0, tsrv_meta, tsrv_meta, user.rtt, user.proxied, OK_CODE,
                session_id,
            ))
        if self.options.emit_chunks and not user.dedup_only:
            profile = profile_for(device_type)
            transfer_clock = 0.0
            for when, direction, size in op_times:
                start = max(when + uniform(rng, 0.05, 0.3), transfer_clock)
                transfer_clock = self._emit_chunks(
                    session_rows, user, device_id, device_code, profile,
                    direction, size, start, session_id, rng,
                )
        session_rows.sort(key=lambda row: row[0])
        rows.extend(session_rows)

    def _emit_chunks(
        self, rows, user, device_id, device_code, profile, direction, file_size,
        start, session_id, rng,
    ) -> float:
        n_full = max(1, math.ceil(file_size / CHUNK_SIZE))
        n_records = min(n_full, self.options.max_chunks_per_file)
        base_volume, remainder = divmod(file_size, n_records)
        volumes = [base_volume + (1 if i < remainder else 0) for i in range(n_records)]
        is_store = direction is Direction.STORE
        rtt = user.rtt
        rto = paper_rto_estimate(rtt)
        bandwidth = user.bandwidth * (
            1.0 if is_store else self.config.network.downlink_factor
        )
        tsrvs, tclts = lognormal_pairs(
            rng, self._server.tsrv, profile.tclt(is_store), n_records
        )
        clock = start
        idle = 0.0
        for index, volume in enumerate(volumes):
            restarted = index > 0 and idle > rto
            tsrv = tsrvs[index]
            ttran = self._transfer.transfer_time(
                volume, rtt, bandwidth, direction, restarted
            )
            tchunk = ttran + tsrv
            rows.append((
                clock, device_code, device_id, user.user_id, CHUNK_CODE,
                STORE_CODE if is_store else RETRIEVE_CODE, volume, tchunk,
                tsrv, rtt, user.proxied, OK_CODE, session_id,
            ))
            tclt = tclts[index]
            clock += tchunk + tclt
            idle = tsrv + tclt
        return clock


def lognormal_pairs(
    rng: np.random.Generator, first: Lognormal, second: Lognormal, n: int
) -> tuple[list[float], list[float]]:
    """``n`` alternating draws ``first.sample(rng)``, ``second.sample(rng)``.

    Returns the ``first`` draws and the ``second`` draws as two lists,
    from one ``standard_normal(2n)`` draw: the chunk draws of
    :class:`PerFileEmissionGenerator`.
    """
    z = rng.standard_normal(2 * n).tolist()
    firsts = [math.exp(first.mu + first.sigma * value) for value in z[0::2]]
    seconds = [math.exp(second.mu + second.sigma * value) for value in z[1::2]]
    return firsts, seconds


def summarize_per_record(records: Iterable[LogRecord]) -> TraceSummary:
    """The record-at-a-time summary fold :func:`~repro.logs.summary.summarize`
    replaced: every field of one :class:`TraceSummary` updated per record.
    """
    s = TraceSummary()
    for record in records:
        s.n_records += 1
        if record.is_file_op:
            s.n_file_ops += 1
        else:
            s.n_chunks += 1
            if record.direction is Direction.STORE:
                s.stored_bytes += record.volume
            else:
                s.retrieved_bytes += record.volume
        if record.proxied:
            s.n_proxied += 1
        s.first_timestamp = min(s.first_timestamp, record.timestamp)
        s.last_timestamp = max(s.last_timestamp, record.timestamp)
        s.users.add(record.user_id)
        s.devices.add(record.device_id)
        s.records_by_platform[record.device_type] = (
            s.records_by_platform.get(record.device_type, 0) + 1
        )
        if record.is_mobile:
            s._mobile_users.add(record.user_id)
        else:
            s._pc_users.add(record.user_id)
    return s


# ----------------------------------------------------------------------
# Closed-form provisioning oracles: the hour loops ``provision`` replaced
# ----------------------------------------------------------------------


def reference_reactive(loads, policy) -> tuple[tuple[int, ...], int]:
    """The closed-form reactive loop: ``(trajectory, underprovisioned)``.

    Follows last hour's load with headroom (hour 0 bootstraps from
    ``loads[0] * headroom``) and shrinks on a strictly-below target once
    the at-or-below streak exceeds the cooldown.  No fleet ceiling.
    """
    capacity = policy.capacity_per_server
    fleet = _servers_for(loads[0] * policy.headroom, capacity, policy.min_servers)
    below_streak = 0
    trajectory = []
    violations = 0
    for hour, load in enumerate(loads):
        if hour > 0:
            target = _servers_for(
                loads[hour - 1] * policy.headroom, capacity, policy.min_servers
            )
            if target > fleet:
                fleet = target
                below_streak = 0
            else:
                below_streak += 1
                if target < fleet and below_streak > policy.scale_down_cooldown:
                    fleet = target
                    below_streak = 0
        trajectory.append(fleet)
        violations += _servers_needed(load, capacity) > fleet
    return tuple(trajectory), violations


def reference_predictive(loads, policy) -> tuple[tuple[int, ...], int]:
    """The closed-form predictive loop: ``(trajectory, underprovisioned)``.

    Sizes each hour for the mean of the same-phase loads of up to three
    past cycles (the last load before one full cycle) times headroom;
    while the mean relative error of the last ``period`` forecasts
    already scored exceeds the guardrail, the basis is
    ``max(forecast, last load)``.  An hour's forecast is scored only
    after that hour is sized.  No fleet ceiling.
    """
    capacity = policy.capacity_per_server
    period = policy.period
    fleet = _servers_for(loads[0] * policy.headroom, capacity, policy.min_servers)
    errors: list[float] = []
    trajectory = []
    violations = 0
    for hour, load in enumerate(loads):
        if hour > 0:
            history = loads[:hour]
            if hour < period:
                forecast = history[-1]
            else:
                same_phase = [
                    history[hour - k * period]
                    for k in range(1, 4)
                    if hour - k * period >= 0
                ]
                forecast = sum(same_phase) / len(same_phase)
            basis = forecast
            recent = errors[-period:]
            if recent and sum(recent) / len(recent) > policy.forecast_guardrail:
                basis = max(forecast, history[-1])
            fleet = _servers_for(basis * policy.headroom, capacity, policy.min_servers)
            errors.append(abs(forecast - load) / max(load, 1.0))
        trajectory.append(fleet)
        violations += _servers_needed(load, capacity) > fleet
    return tuple(trajectory), violations
