"""The benchmark's workloads and the layers each one traces.

Each workload is a fixed-size batch job built from one seed.  ``setup``
makes the inputs; ``batch`` runs the job once, times only the program
under test, checks the outputs and returns a :class:`Batch`; ``points``
names the callables to wrap for the traced run; ``layer_metrics`` turns
a traced batch into the per-layer figures of :data:`PER_LAYER`.

Import this module only after ``src/`` is on ``sys.path`` (``run.py``
does that).
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import repro.core.report as report_mod
import repro.logs.io as io_mod
import repro.logs.summary as summary_mod
import repro.service.client as client_mod
import repro.service.replay as replay_mod
import repro.workload.parallel as parallel_mod
from repro.core.streaming import (
    StreamingAnalyzer,
    StreamingSessionizer,
    report_from_columnar,
)
from repro.experiments.r4_open_loop import R4_RETRY_POLICY, correlated_config
from repro.faults import FaultPlan, FaultStats
from repro.logs.columnar import ColumnarTrace
from repro.logs.parts import ColumnarPartWriter
from repro.service.client import StorageClient
from repro.service.cluster import ServiceCluster
from repro.service.frontend import FrontendServer
from repro.service.metadata import MetadataServer
from repro.service.metatier import ShardedMetadataTier
from repro.service.telemetry import TelemetryCollector
from repro.workload import GeneratorOptions
from repro.workload.generator import TraceGenerator

from stats import RssProbe, calibrated
from tracer import Tracer

#: Seed used when ``--seed`` is omitted.
DEFAULT_SEED = 1
#: Seed no change is tuned on; claims are re-checked on it.
HELD_OUT_SEED = 20161114

#: Per-layer metrics of the traced run: ``(name, unit, better)``.  Every
#: traced run reports all of them; a layer that does no work on a
#: workload reads 0 there.  ``_s`` figures are self time: the seconds
#: spent in the layer's own code, excluding the wrapped layers it calls.
PER_LAYER = (
    ("replay.driver_self_s", "s", "lower"),
    ("replay.schedule_s", "s", "lower"),
    ("replay.records_per_op", "records/op", "lower"),
    ("client.store_calls", "count", "lower"),
    ("client.store_s", "s", "lower"),
    ("client.retrieve_calls", "count", "lower"),
    ("client.retrieve_s", "s", "lower"),
    ("client.self_s", "s", "lower"),
    ("client.attempts", "count", "lower"),
    ("client.retries", "count", "lower"),
    ("client.failovers", "count", "lower"),
    ("client.useful_ratio", "ratio", "higher"),
    ("chunks.manifest_calls", "count", "lower"),
    ("chunks.manifest_s", "s", "lower"),
    ("frontend.chunk_calls", "count", "lower"),
    ("frontend.chunk_s", "s", "lower"),
    ("frontend.fileop_calls", "count", "lower"),
    ("frontend.fileop_s", "s", "lower"),
    ("frontend.requests_ok", "count", "higher"),
    ("frontend.requests_failed", "count", "lower"),
    ("faults.query_calls", "count", "lower"),
    ("faults.query_s", "s", "lower"),
    ("faults.enabled_checks", "count", "lower"),
    ("faults.crash_rejections", "count", "lower"),
    ("faults.zone_crash_rejections", "count", "lower"),
    ("faults.shed_requests", "count", "lower"),
    ("faults.overload_sheds", "count", "lower"),
    ("faults.pressure_sheds", "count", "lower"),
    ("faults.injected_errors", "count", "lower"),
    ("faults.timeouts", "count", "lower"),
    ("metadata.calls", "count", "lower"),
    ("metadata.s", "s", "lower"),
    ("metadata.rejections", "count", "lower"),
    ("telemetry.record_s", "s", "lower"),
    ("telemetry.observe_log_s", "s", "lower"),
    ("logs.access_log_merge_s", "s", "lower"),
    ("telemetry.snapshot_s", "s", "lower"),
    ("population.build_s", "s", "lower"),
    ("generate.shard_s", "s", "lower"),
    ("generate.parallel_efficiency", "ratio", "higher"),
    ("parts.append_calls", "count", "lower"),
    ("parts.append_s", "s", "lower"),
    ("merge.blocks", "count", "lower"),
    ("merge.rows_per_block", "rows", "higher"),
    ("merge.s", "s", "lower"),
    ("streaming.feed_s", "s", "lower"),
    ("streaming.sessionize_s", "s", "lower"),
    ("streaming.finalize_s", "s", "lower"),
    ("streaming.rss_anon_growth_mb", "MB", "lower"),
    ("io.read_s", "s", "lower"),
    ("summary.s", "s", "lower"),
    ("sessions.sessionize_calls", "count", "lower"),
    ("sessions.sessionize_s", "s", "lower"),
    ("usage.profile_s", "s", "lower"),
    ("stats.interval_fit_s", "s", "lower"),
    ("stats.size_fit_s", "s", "lower"),
    ("stats.activity_fit_s", "s", "lower"),
    ("engagement.curves_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
)

#: Every ``FaultPlan`` query the service layers make per request: window
#: lookups, pressure and error draws, and the slow-episode multiplier.
FAULT_QUERIES = (
    "frontend_down",
    "zone_down",
    "zone_of",
    "overload_level",
    "note_failure_pressure",
    "pressure_level",
    "draw_pressure_shed",
    "draw_transient_error",
    "error_fraction",
    "latency_multiplier",
    "metadata_down",
    "metadata_node_down",
    "metadata_node_stale",
)

#: ``FaultStats`` counters reported as ``faults.<name>``.
FAULT_COUNTERS = (
    "crash_rejections",
    "zone_crash_rejections",
    "shed_requests",
    "overload_sheds",
    "pressure_sheds",
    "injected_errors",
    "timeouts",
)


class GuardError(RuntimeError):
    """A correctness guard failed: the run's outputs are wrong."""


def guard(condition: bool, message: str) -> None:
    if not condition:
        raise GuardError(message)


@dataclass
class Batch:
    """One run of a workload's fixed-size job."""

    #: Work items completed (replayed trace ops, or trace records).
    items: int
    #: Wall seconds of the timed region.
    seconds: float
    #: Named stages as ``(items, seconds)``, for the per-stage rates.
    phases: dict[str, tuple[int, float]] = field(default_factory=dict)
    #: Output digests; identical for every batch of one seed.
    digests: dict[str, str] = field(default_factory=dict)
    #: Model outputs and sizes (aborts, sheds, record counts).
    counters: dict[str, float] = field(default_factory=dict)
    #: The component batches of a composite workload, by name.
    parts: dict[str, "Batch"] = field(default_factory=dict)


class Workload:
    name = ""
    why = ""

    def __init__(self, seed: int, work_dir: Path, workers: int) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.workers = workers

    def size(self) -> dict:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def batch(
        self, probe: RssProbe, tracer: Tracer | None = None, trace_mode: bool = False
    ) -> Batch:
        raise NotImplementedError

    def points(self, tracer: Tracer) -> list:
        raise NotImplementedError

    def layer_metrics(self, tracer: Tracer, batch: Batch) -> dict[str, float]:
        raise NotImplementedError

    def traced_extras(self) -> dict[str, float]:
        """Per-layer figures measured once per traced run, outside batches."""
        return {}


# ----------------------------------------------------------------------
# Live path: open-loop replay against a service cluster
# ----------------------------------------------------------------------

#: Client seed and fault-plan seed of experiment R4; only the trace
#: varies with ``--seed``, so the fault schedule (and the knee) stays put.
REPLAY_SEED = 3
FAULT_SEED = 7
N_FRONTENDS = 2


def _count_attempts(tracer: Tracer, report) -> None:
    tracer.counts["client.attempts"] += report.attempts


class _Replay(Workload):
    users = 500
    passes: tuple = ()

    def size(self) -> dict:
        return {
            "users": self.users,
            "trace_ops": len(self.trace),
            "passes": [{"label": label, **kw} for label, _, kw in self.passes],
            "frontends": N_FRONTENDS,
            "replay_seed": REPLAY_SEED,
            "fault_seed": FAULT_SEED,
        }

    def setup(self) -> None:
        self.trace = replay_mod.synthetic_replay_trace(self.users, self.seed)

    def check_pass(self, label: str, result) -> None:
        if label == "clean":
            guard(result.ops_aborted == 0, "a fault-free replay aborted ops")
            return
        # The chaos passes must sit on either side of the knee, far from it.
        shed = result.telemetry.shed_rate
        if label == "below":
            guard(shed < 0.05, f"below-knee pass shed {shed:.3f} of requests")
        else:
            guard(shed > 0.5, f"above-knee pass shed only {shed:.3f} of requests")

    def batch(self, probe, tracer=None, trace_mode=False) -> Batch:
        batch = Batch(items=0, seconds=0.0)
        totals = batch.counters
        for label, make_cluster, kwargs in self.passes:
            cluster = make_cluster()
            probe.sample()
            start = time.perf_counter()
            if tracer is None:
                result = replay_mod.replay_trace(
                    self.trace, cluster, seed=REPLAY_SEED, **kwargs
                )
            else:
                with tracer.span("replay.driver"):
                    result = replay_mod.replay_trace(
                        self.trace, cluster, seed=REPLAY_SEED, **kwargs
                    )
            seconds = time.perf_counter() - start
            probe.sample()
            snapshot = result.snapshot()
            stats = cluster.fault_stats
            reconciliation = result.telemetry.reconcile(stats)
            guard(
                reconciliation["matched"],
                f"{label}: telemetry does not reconcile with FaultStats: "
                f"{reconciliation}",
            )
            guard(
                result.ops_completed + result.ops_aborted == result.ops_total,
                f"{label}: completed + aborted != attempted",
            )
            self.check_pass(label, result)
            batch.items += result.ops_total
            batch.seconds += seconds
            batch.phases[label] = (result.ops_total, seconds)
            batch.digests[f"{label}.log"] = result.log_digest()
            batch.digests[f"{label}.telemetry"] = hashlib.md5(
                snapshot.to_json().encode()
            ).hexdigest()
            pass_counters = {
                "ops": result.ops_total,
                "completed": result.ops_completed,
                "aborted": result.ops_aborted,
                "skipped": result.ops_skipped,
                "retries": result.retries,
                "failovers": result.failovers,
                "records": len(result.records),
                "requests_ok": cluster.requests_ok,
                "requests_failed": cluster.requests_failed,
                "shed_rate": result.telemetry.shed_rate,
                **{f.name: getattr(stats, f.name) for f in fields(FaultStats)},
            }
            for key, value in pass_counters.items():
                totals[f"{label}.{key}"] = value
                if key != "shed_rate":
                    totals[key] = totals.get(key, 0) + value
        return batch

    def points(self, tracer: Tracer) -> list:
        pts = [
            (replay_mod, "schedule_arrivals", "replay.schedule", None),
            (StorageClient, "store_file", "client.store", _count_attempts),
            (StorageClient, "retrieve_url", "client.retrieve", _count_attempts),
            (client_mod, "build_manifest", "chunks.manifest", None),
            (FrontendServer, "handle_chunk", "frontend.chunk", None),
            (FrontendServer, "handle_file_op", "frontend.fileop", None),
            (FaultPlan, "enabled", None, None),
            (TelemetryCollector, "record_operation", "telemetry.record", None),
            (TelemetryCollector, "observe_log", "telemetry.observe_log", None),
            (TelemetryCollector, "snapshot", "telemetry.snapshot", None),
            (ServiceCluster, "access_log", "logs.access_log_merge", None),
        ]
        pts += [(FaultPlan, q, "faults.query", None) for q in FAULT_QUERIES]
        pts += [
            (owner, method, "metadata.call", None)
            for owner in (MetadataServer, ShardedMetadataTier)
            for method in ("request_store", "commit_store", "resolve_url")
        ]
        return pts

    def layer_metrics(self, tracer: Tracer, batch: Batch) -> dict[str, float]:
        c = batch.counters
        s, n = tracer.self_s, tracer.calls
        attempts = c["requests_ok"] + c["requests_failed"]
        out = {
            "replay.driver_self_s": s["replay.driver"],
            "replay.schedule_s": s["replay.schedule"],
            "replay.records_per_op": c["records"] / c["ops"],
            "client.store_calls": n["client.store"],
            "client.store_s": s["client.store"],
            "client.retrieve_calls": n["client.retrieve"],
            "client.retrieve_s": s["client.retrieve"],
            "client.self_s": s["client.store"] + s["client.retrieve"],
            "client.attempts": tracer.counts["client.attempts"],
            "client.retries": c["retries"],
            "client.failovers": c["failovers"],
            "client.useful_ratio": c["completed"] / attempts if attempts else 0.0,
            "chunks.manifest_calls": n["chunks.manifest"],
            "chunks.manifest_s": s["chunks.manifest"],
            "frontend.chunk_calls": n["frontend.chunk"],
            "frontend.chunk_s": s["frontend.chunk"],
            "frontend.fileop_calls": n["frontend.fileop"],
            "frontend.fileop_s": s["frontend.fileop"],
            "frontend.requests_ok": c["requests_ok"],
            "frontend.requests_failed": c["requests_failed"],
            "faults.query_calls": n["faults.query"],
            "faults.query_s": s["faults.query"],
            "faults.enabled_checks": tracer.counts["counter:enabled"],
            "metadata.calls": n["metadata.call"],
            "metadata.s": s["metadata.call"],
            "metadata.rejections": c["metadata_rejections"],
            "telemetry.record_s": s["telemetry.record"],
            "telemetry.observe_log_s": s["telemetry.observe_log"],
            "logs.access_log_merge_s": s["logs.access_log_merge"],
            "telemetry.snapshot_s": s["telemetry.snapshot"],
        }
        for name in FAULT_COUNTERS:
            out[f"faults.{name}"] = c[name]
        return out


def _clean_cluster() -> ServiceCluster:
    return ServiceCluster(n_frontends=N_FRONTENDS)


def _chaos_cluster() -> ServiceCluster:
    return ServiceCluster(
        n_frontends=N_FRONTENDS,
        faults=correlated_config(),
        fault_seed=FAULT_SEED,
        frontend_capacity=8,
        retry_policy=R4_RETRY_POLICY,
        metadata_shards=4,
        metadata_replicas=2,
        read_policy="quorum",
    )


#: ``(label, cluster factory, replay_trace arguments)`` of each pass.  The
#: chaos rates (ops/s) sit well below and far above the shed knee, which
#: lies between 0.2 and 0.4 ops/s at 500 users.
CLEAN_PASS = ("clean", _clean_cluster, {"speedup": 2.0})
BELOW_PASS = ("below", _chaos_cluster, {"rate": 0.05})
ABOVE_PASS = ("above", _chaos_cluster, {"rate": 4.0})


class ReplayClean(_Replay):
    name = "replay-clean"
    why = (
        "fault-free 2-front-end cluster below capacity: the success path of "
        "client, front-end, metadata server and telemetry, no fault layer"
    )
    passes = (CLEAN_PASS,)


class ReplayChaos(_Replay):
    name = "replay-chaos"
    why = (
        "R4 correlated faults, capacity 8, 4x2 quorum metadata tier, replayed "
        "below and far above the shed knee: fault lookups, then retry storms"
    )
    passes = (BELOW_PASS, ABOVE_PASS)


class Replay(_Replay):
    name = "replay"
    why = (
        "one trace replayed fault-free, then under R4 correlated faults below "
        "and far above the shed knee: the whole live path"
    )
    passes = (CLEAN_PASS, BELOW_PASS, ABOVE_PASS)


# ----------------------------------------------------------------------
# Analysis path: sharded generation -> k-way merge -> streaming folds
# ----------------------------------------------------------------------


class PaperScale(Workload):
    name = "paper-scale"
    why = (
        "bounded-RAM pipeline: sharded columnar generation in worker "
        "processes, k-way block merge, one-pass streaming folds"
    )
    users = 1200
    shards = 4
    block_rows = 1024
    options = GeneratorOptions(max_chunks_per_file=4)
    #: Size at which set-up checks the streaming digest against the
    #: whole-trace in-memory engine.
    check_users = 200

    def size(self) -> dict:
        return {
            "mobile_users": self.users,
            "pc_users": self.users // 8,
            "shards": self.shards,
            "workers": self.workers,
            "block_rows": self.block_rows,
            "max_chunks_per_file": self.options.max_chunks_per_file,
            "check_users": self.check_users,
        }

    def _generate(self, part_dir: Path, users: int, workers: int):
        return parallel_mod.generate_columnar_sharded(
            users,
            n_pc_only_users=users // 8,
            options=self.options,
            seed=self.seed,
            n_shards=self.shards,
            n_workers=workers,
            part_dir=part_dir,
        )

    def setup(self) -> None:
        part_dir = self.work_dir / "check-parts"
        shutil.rmtree(part_dir, ignore_errors=True)
        sharded = self._generate(part_dir, self.check_users, 1)
        analyzer = StreamingAnalyzer()
        for block in sharded.merged_blocks(block_rows=self.block_rows):
            analyzer.feed(block)
        streamed = analyzer.finalize().digest()
        whole = report_from_columnar(
            ColumnarTrace.concatenate(sharded.open_parts()).sorted_by_user_time()
        ).digest()
        shutil.rmtree(part_dir)
        guard(streamed == whole, "streaming digest differs from the in-memory engine")
        self.check_digest = streamed

    def _generate_only(self, workers: int) -> tuple[int, float]:
        part_dir = self.work_dir / "gen-parts"
        shutil.rmtree(part_dir, ignore_errors=True)
        start = time.perf_counter()
        sharded = self._generate(part_dir, self.users, workers)
        seconds = time.perf_counter() - start
        shutil.rmtree(part_dir)
        return sharded.n_records, seconds

    def traced_extras(self) -> dict[str, float]:
        """Speed-up per worker: the same shards inline and over the pool."""
        _, inline = calibrated(lambda: self._generate_only(1))
        _, pooled = calibrated(lambda: self._generate_only(self.workers))
        return {
            "generate.parallel_efficiency": inline.nominal_seconds
            / (self.workers * pooled.nominal_seconds)
        }

    def batch(self, probe, tracer=None, trace_mode=False) -> Batch:
        part_dir = self.work_dir / "parts"
        shutil.rmtree(part_dir, ignore_errors=True)
        probe.sample()
        start = time.perf_counter()
        sharded = self._generate(part_dir, self.users, 1 if trace_mode else self.workers)
        generated = time.perf_counter()
        baseline = probe.sample()
        peak = baseline
        analyzer = StreamingAnalyzer()
        blocks = iter(sharded.merged_blocks(block_rows=self.block_rows))
        n_blocks = 0
        stream_start = time.perf_counter()
        while True:
            if tracer is not None:
                tracer.enter("merge")
            block = next(blocks, None)
            if tracer is not None:
                tracer.exit()
            if block is None:
                break
            analyzer.feed(block)
            n_blocks += 1
            if n_blocks % 16 == 0:
                peak = max(peak, probe.sample())
        report = analyzer.finalize()
        end = time.perf_counter()
        peak = max(peak, probe.sample())
        shutil.rmtree(part_dir)
        n_records = sharded.n_records
        guard(
            report.n_records == n_records,
            f"streamed {report.n_records} records, generated {n_records}",
        )
        return Batch(
            items=n_records,
            seconds=end - start,
            phases={
                "generate": (n_records, generated - start),
                "stream": (n_records, end - stream_start),
            },
            digests={"report": report.digest(), "check": self.check_digest},
            counters={
                "records": n_records,
                "blocks": n_blocks,
                "sessions": report.sessions.n_sessions,
                "users": report.users.n_users,
                "rss_anon_growth_mb": peak - baseline,
            },
        )

    def points(self, tracer: Tracer) -> list:
        return [
            (parallel_mod, "build_population", "population.build", None),
            (parallel_mod, "_generate_shard_part", "generate.shard", None),
            (ColumnarPartWriter, "append", "parts.append", None),
            (StreamingAnalyzer, "feed", "streaming.feed", None),
            (StreamingAnalyzer, "finalize", "streaming.finalize", None),
            (StreamingSessionizer, "feed", "streaming.sessionize", None),
            (StreamingSessionizer, "finalize", "streaming.sessionize", None),
        ]

    def layer_metrics(self, tracer: Tracer, batch: Batch) -> dict[str, float]:
        c, s = batch.counters, tracer.self_s
        return {
            "population.build_s": s["population.build"],
            "generate.shard_s": s["generate.shard"],
            "parts.append_calls": tracer.calls["parts.append"],
            "parts.append_s": s["parts.append"],
            "merge.blocks": c["blocks"],
            "merge.rows_per_block": c["records"] / c["blocks"],
            "merge.s": s["merge"],
            "streaming.feed_s": s["streaming.feed"],
            "streaming.sessionize_s": s["streaming.sessionize"],
            "streaming.finalize_s": s["streaming.finalize"],
            "streaming.rss_anon_growth_mb": c["rss_anon_growth_mb"],
        }


# ----------------------------------------------------------------------
# Analysis path: ``repro analyze FILE`` over one in-memory trace
# ----------------------------------------------------------------------


class Analyze(Workload):
    """``repro analyze FILE``: ``--fast`` untraced, its defaults traced.

    The defaults add the file-size exponential-mixture EM, whose run
    time is set by how fast it converges on the given trace, not by the
    trace's size: on same-size traces of seeds 1-6 it took 0.2-5.3 s,
    against 0.3 s for the rest of the analysis.  A throughput that swings
    tenfold with the seed measures the seed, so the untraced runs skip
    that fit (``--fast``), and the traced runs include it and report its
    time as ``stats.size_fit_s``.
    """

    name = "analyze"
    why = (
        "repro analyze FILE --fast: read_tsv, summarize, analyze_trace over "
        "one in-memory trace; the record-path analysis engine and model fits"
    )
    users = 600
    #: ``repro generate`` defaults.
    options = GeneratorOptions(max_chunks_per_file=8)

    def size(self) -> dict:
        return {
            "mobile_users": self.users,
            "pc_users": 0,
            "max_chunks_per_file": self.options.max_chunks_per_file,
            "records": getattr(self, "n_records", None),
        }

    def setup(self) -> None:
        self.path = self.work_dir / "trace.tsv"
        generator = TraceGenerator(self.users, options=self.options, seed=self.seed)
        self.n_records = io_mod.write_tsv(generator.generate(), self.path)

    def batch(self, probe, tracer=None, trace_mode=False) -> Batch:
        probe.sample()
        start = time.perf_counter()
        if tracer is not None:
            tracer.enter("io.read")
        records = list(io_mod.open_reader(self.path))
        if tracer is not None:
            tracer.exit()
        read = time.perf_counter()
        probe.sample()
        summary = summary_mod.summarize(records).render()
        findings = report_mod.analyze_trace(records, fit_size_model=trace_mode)
        end = time.perf_counter()
        probe.sample()
        guard(len(records) == self.n_records, "read back a different record count")
        values = [row.value for row in findings.rows()]
        guard(
            all(math.isfinite(v) for v in values),
            f"non-finite finding values: {values}",
        )
        model = findings.interval_model
        digest = hashlib.md5(
            "\n".join(
                [summary, repr(values), repr(model.tau), str(findings.session_shares)]
            ).encode()
        ).hexdigest()
        return Batch(
            items=len(records),
            seconds=end - start,
            phases={
                "read": (len(records), read - start),
                "analyze": (len(records), end - read),
            },
            digests={"findings": digest},
            counters={
                "records": len(records),
                "sessions": findings.session_shares.n_sessions,
            },
        )

    def points(self, tracer: Tracer) -> list:
        return [
            (summary_mod, "summarize", "summary", None),
            (report_mod, "sessionize", "sessions.sessionize", None),
            (report_mod, "profile_users", "usage.profile", None),
            (report_mod, "fit_interval_model", "stats.interval_fit", None),
            (report_mod, "fit_file_size_model", "stats.size_fit", None),
            (report_mod, "fit_activity_model", "stats.activity_fit", None),
            (report_mod, "retrieval_return_curves", "engagement.curves", None),
        ]

    def layer_metrics(self, tracer: Tracer, batch: Batch) -> dict[str, float]:
        s = tracer.self_s
        return {
            "io.read_s": s["io.read"],
            "summary.s": s["summary"],
            "sessions.sessionize_calls": tracer.calls["sessions.sessionize"],
            "sessions.sessionize_s": s["sessions.sessionize"],
            "usage.profile_s": s["usage.profile"],
            "stats.interval_fit_s": s["stats.interval_fit"],
            "stats.size_fit_s": s["stats.size_fit"],
            "stats.activity_fit_s": s["stats.activity_fit"],
            "engagement.curves_s": s["engagement.curves"],
        }


class Analysis(Workload):
    """``paper-scale`` then ``analyze`` in one batch: the analysis path."""

    name = "analysis"
    why = (
        "sharded generation, k-way merge and streaming folds, then repro "
        "analyze FILE --fast over one in-memory trace"
    )
    components = (PaperScale, Analyze)

    def __init__(self, seed: int, work_dir: Path, workers: int) -> None:
        super().__init__(seed, work_dir, workers)
        self.parts = [cls(seed, work_dir, workers) for cls in self.components]

    def size(self) -> dict:
        return {part.name: part.size() for part in self.parts}

    def setup(self) -> None:
        for part in self.parts:
            part.setup()

    def batch(self, probe, tracer=None, trace_mode=False) -> Batch:
        batches = {
            part.name: part.batch(probe, tracer=tracer, trace_mode=trace_mode)
            for part in self.parts
        }
        merged = Batch(
            items=sum(b.items for b in batches.values()),
            seconds=sum(b.seconds for b in batches.values()),
            parts=batches,
        )
        for name, batch in batches.items():
            for attr in ("phases", "digests", "counters"):
                getattr(merged, attr).update(
                    {f"{name}.{key}": value for key, value in getattr(batch, attr).items()}
                )
        return merged

    def points(self, tracer: Tracer) -> list:
        return [point for part in self.parts for point in part.points(tracer)]

    def layer_metrics(self, tracer: Tracer, batch: Batch) -> dict[str, float]:
        out = {}
        for part in self.parts:
            out.update(part.layer_metrics(tracer, batch.parts[part.name]))
        return out

    def traced_extras(self) -> dict[str, float]:
        out = {}
        for part in self.parts:
            out.update(part.traced_extras())
        return out


WORKLOADS = {
    w.name: w
    for w in (Replay, Analysis, ReplayClean, ReplayChaos, PaperScale, Analyze)
}


def default_workers() -> int:
    return max(1, min(PaperScale.shards, os.cpu_count() or 1))

