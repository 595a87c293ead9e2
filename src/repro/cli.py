"""Command-line interface.

Subcommands
-----------
``generate``
    Synthesize a week-long trace to a TSV/JSONL file.
``analyze``
    Run the Section 3 behaviour pipeline over a trace file and print the
    findings report.
``experiments``
    Run the paper-reproduction battery (all of it, or selected ids).
``simulate-flow``
    Run one packet-level chunk flow and print per-chunk measurements.
``faults-demo``
    Chaos smoke test: replay a fixed workload through the fault-injected
    service cluster and fail unless every transfer eventually completes.
``replay``
    Open-loop traffic replay: fire a synthetic trace at the cluster on a
    speed-multiplied or rate-targeted schedule and print the latency/
    shed-rate telemetry dashboard (see ``docs/TELEMETRY.md``).
``autoscale``
    Chaos-coupled autoscaling loop: drive a fleet controller window by
    window against the live service under a chosen fault regime and
    print the fleet trajectory, SLO tally and a determinism digest.
``lint``
    Run reprolint, the determinism/schema static-analysis pass, over the
    given paths (see ``docs/STATIC_ANALYSIS.md``).

All subcommands are deterministic given ``--seed``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence


def _cmd_generate(args: argparse.Namespace) -> int:
    import tempfile
    from pathlib import Path

    from .logs.anonymize import Anonymizer
    from .logs.io import write_jsonl, write_tsv
    from .workload.generator import GeneratorOptions
    from .workload.parallel import generate_columnar_sharded

    if args.workers < 1:
        print(f"--workers must be >= 1, got {args.workers}", file=sys.stderr)
        return 2
    if args.shards < 0:
        print(f"--shards must be >= 1 (or 0 for auto), got {args.shards}",
              file=sys.stderr)
        return 2
    writer = write_jsonl if args.output.endswith((".jsonl", ".jsonl.gz")) else write_tsv
    output = Path(args.output)
    output.parent.mkdir(parents=True, exist_ok=True)
    # Workers write columnar parts into a scratch directory next to the
    # output; the k-way merge streams them back in the serial generator's
    # (user_id, timestamp) order, so the file is byte-identical for any
    # (--shards, --workers) — see docs/SCALING.md.
    with tempfile.TemporaryDirectory(
        prefix=output.name + ".parts-", dir=output.parent
    ) as scratch:
        sharded = generate_columnar_sharded(
            args.users,
            n_pc_only_users=args.pc_users,
            options=GeneratorOptions(max_chunks_per_file=args.max_chunks),
            seed=args.seed,
            n_shards=args.shards or args.workers,
            n_workers=args.workers,
            part_dir=scratch,
        )
        records = (
            r for block in sharded.merged_blocks() for r in block.iter_records()
        )
        if args.anonymize:
            records = Anonymizer().anonymize_stream(records)
        count = writer(records, args.output)
    print(f"wrote {count:,} records to {args.output}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .core.report import analyze_trace
    from .logs.io import open_reader, read_columnar
    from .logs.summary import summarize

    if args.engine == "columnar":
        # Bulk-parse straight into column arrays; LogRecord objects are
        # only materialized transiently for the streaming summary.
        trace = read_columnar(args.trace)
        if not len(trace):
            print("trace is empty", file=sys.stderr)
            return 1
        print(summarize(trace.iter_records()).render())
        report = analyze_trace(
            trace, fit_size_model=not args.fast, engine="columnar"
        )
    else:
        records = list(open_reader(args.trace))
        if not records:
            print("trace is empty", file=sys.stderr)
            return 1
        print(summarize(records).render())
        report = analyze_trace(records, fit_size_model=not args.fast)
    model = report.interval_model
    print(f"sessions recovered  : {report.session_shares.n_sessions:,}")
    print(
        f"interval model      : within={model.within_session_mean_seconds:.1f}s "
        f"between={model.between_session_mean_seconds / 3600:.1f}h "
        f"tau={model.tau:.0f}s"
    )
    for finding in report.rows():
        print(f"[{finding.topic}] {finding.statement}")
        print(f"    -> {finding.implication}")
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    import json

    from . import experiments

    selected = []
    for module in experiments.ALL_EXPERIMENTS:
        name = module.__name__.rsplit(".", 1)[-1]
        if not args.only or any(token in name for token in args.only):
            selected.append(module)
    if not selected:
        print("no experiments match", file=sys.stderr)
        return 1
    failures = 0
    results = []
    for module in selected:
        result = module.run()
        results.append(result)
        if not args.json:
            print(result.render())
            print()
        failures += not result.qualitative_ok()
    if args.json:
        print(json.dumps([r.to_dict() for r in results], indent=2))
    else:
        print(f"{len(selected) - failures}/{len(selected)} experiments pass")
    return 1 if failures else 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from . import experiments
    from .experiments.validation import pass_rate_summary, validate

    selected = [
        module
        for module in experiments.ALL_EXPERIMENTS
        if not args.only
        or any(token in module.__name__ for token in args.only)
    ]
    if not selected:
        print("no experiments match", file=sys.stderr)
        return 1
    seeds = list(range(args.base_seed, args.base_seed + args.seeds))
    outcomes = validate(selected, seeds, verbose=True)
    robust, total, rate = pass_rate_summary(outcomes)
    print(
        f"{robust}/{total} experiments robust over {len(seeds) + 1} runs; "
        f"mean check pass rate {rate:.1%}"
    )
    return 0 if robust == total else 1


def _cmd_simulate_flow(args: argparse.Namespace) -> int:
    from .logs.schema import CHUNK_SIZE, Direction, DeviceType
    from .tcpsim.flow import simulate_flow
    from .tcpsim.path import NetworkPath

    flow = simulate_flow(
        direction=Direction(args.direction),
        device=DeviceType(args.device),
        file_size=args.chunks * CHUNK_SIZE,
        path=NetworkPath(
            bandwidth=args.bandwidth,
            one_way_delay=args.rtt / 2.0,
        ),
        seed=args.seed,
    )
    print(
        f"{args.direction} of {args.chunks} chunks on {args.device}: "
        f"{flow.duration:.2f}s, goodput {flow.throughput / 1024:.1f} KB/s, "
        f"{flow.slow_start_restarts} slow-start restarts"
    )
    for chunk in flow.chunk_results:
        print(
            f"  chunk {chunk.index}: ttran={chunk.ttran:6.3f}s "
            f"tsrv={chunk.tsrv:5.3f}s idle/rto="
            f"{chunk.idle_rto_ratio:5.2f} restarted={chunk.restarted}"
        )
    return 0


def _cmd_faults_demo(args: argparse.Namespace) -> int:
    from .experiments.r2_fault_resilience import _planned_workload, _replay

    if args.fault_rate < 0:
        print(f"--fault-rate must be >= 0, got {args.fault_rate}",
              file=sys.stderr)
        return 2
    if args.zones < 0:
        print(f"--zones must be >= 0, got {args.zones}", file=sys.stderr)
        return 2
    if args.zones and not 0.0 < args.zone_share < 1.0:
        print(f"--zone-share must be in (0, 1), got {args.zone_share}",
              file=sys.stderr)
        return 2
    if args.metadata_shards < 1 or args.metadata_replicas < 0:
        print("--metadata-shards must be >= 1 and --metadata-replicas >= 0",
              file=sys.stderr)
        return 2
    if (args.metadata_shards, args.metadata_replicas) != (1, 0):
        return _faults_demo_metatier(args)
    plan = _planned_workload(args.users, args.seed)
    if args.zones:
        return _faults_demo_correlated(plan, args)
    outcome = _replay(plan, args.fault_rate, args.seed)
    unrecovered = outcome.n_transfers - outcome.n_completed
    print(
        f"replayed {outcome.n_transfers} transfers at fault rate "
        f"{args.fault_rate:g}: {outcome.n_completed} completed, "
        f"{unrecovered} unrecovered"
    )
    print(
        f"  attempt failure rate {outcome.failure_rate:.1%}, "
        f"{outcome.retries} retries, {outcome.failovers} failovers, "
        f"{outcome.backoff_seconds:.1f}s spent backing off"
    )
    if unrecovered:
        print(f"FAIL: {unrecovered} transfers never completed",
              file=sys.stderr)
        return 1
    print("all transfers eventually completed")
    return 0


def _faults_demo_correlated(plan: list, args: argparse.Namespace) -> int:
    """Correlated arm of the chaos smoke test: zones + retry storms.

    Prints the access-log digest so CI can assert that two invocations of
    the same correlated plan are byte-identical across processes.
    """
    from .experiments.r3_correlated_failures import build_configs, replay

    config = build_configs(
        rate=args.fault_rate, zone_share=args.zone_share, n_zones=args.zones
    )[1]
    rep = replay(plan, config, args.seed, "correlated")
    unrecovered = rep.n_transfers - rep.n_completed
    print(
        f"replayed {rep.n_transfers} transfers at fault rate "
        f"{args.fault_rate:g} across {args.zones} failure zones "
        f"(zone share {args.zone_share:g}): {rep.n_completed} completed, "
        f"{unrecovered} unrecovered"
    )
    print(
        f"  {rep.retries} retries, {rep.failovers} failovers, "
        f"{rep.crash_rejections} crash rejections "
        f"({rep.zone_crash_rejections} zone), {rep.shed_requests} sheds "
        f"({rep.pressure_sheds} pressure, {rep.overload_sheds} overload)"
    )
    print(f"  access-log digest: {rep.log_digest}")
    if unrecovered:
        print(f"FAIL: {unrecovered} transfers never completed",
              file=sys.stderr)
        return 1
    print("all transfers eventually completed")
    return 0


def _faults_demo_metatier(args: argparse.Namespace) -> int:
    """Replicated chaos arm: per-shard metadata outages, quorum reads.

    Replays a compressed synthetic trace against a sharded tier whose
    per-node outage schedule is aggressive enough to intersect the
    replayed span, then prints per-shard rejections and the access-log
    digest so CI can ``cmp`` two invocations (metatier-smoke job).
    """
    from .experiments.r4_open_loop import R4_RETRY_POLICY
    from .faults import FaultConfig
    from .service.cluster import ServiceCluster
    from .service.replay import replay_trace, synthetic_replay_trace

    trace = synthetic_replay_trace(args.users, args.seed)
    config = FaultConfig(
        error_rate=args.fault_rate,
        metadata_outage_rate=90.0,
        metadata_mean_downtime=10.0,
    )
    cluster = ServiceCluster(
        n_frontends=2,
        faults=config,
        fault_seed=args.seed,
        retry_policy=R4_RETRY_POLICY,
        metadata_shards=args.metadata_shards,
        metadata_replicas=args.metadata_replicas,
        read_policy=args.read_policy,
    )
    result = replay_trace(trace, cluster, rate=2.0, seed=args.seed)
    avail = cluster.metadata_availability()
    stats = cluster.fault_stats
    print(
        f"replayed {result.ops_total} ops against "
        f"{args.metadata_shards} metadata shard(s) x "
        f"{1 + args.metadata_replicas} node(s) ({args.read_policy}): "
        f"{result.ops_completed} completed, {result.ops_aborted} aborted"
    )
    print(
        f"  shard rejections {avail['shard_rejections']} "
        f"({stats.shard_rejections} total), "
        f"{avail['blocked_users']} users ever blocked; "
        f"replica reads {stats.replica_reads} "
        f"({stats.failover_reads} failover, "
        f"{stats.stale_reads_avoided} stale avoided)"
    )
    print(f"  access-log digest: {result.log_digest()}")
    if result.ops_aborted:
        print(f"FAIL: {result.ops_aborted} operations never completed",
              file=sys.stderr)
        return 1
    print("all operations eventually completed")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from .experiments.r4_open_loop import R4_RETRY_POLICY, correlated_config
    from .service.cluster import ServiceCluster
    from .service.replay import replay_trace, synthetic_replay_trace
    from .service.telemetry import SloPolicy

    if args.users < 1:
        print(f"--users must be >= 1, got {args.users}", file=sys.stderr)
        return 2
    if args.metadata_shards < 1:
        print(f"--metadata-shards must be >= 1, got {args.metadata_shards}",
              file=sys.stderr)
        return 2
    if args.metadata_replicas < 0:
        print(f"--metadata-replicas must be >= 0, got {args.metadata_replicas}",
              file=sys.stderr)
        return 2
    if args.speedup <= 0:
        print(f"--speedup must be > 0, got {args.speedup}", file=sys.stderr)
        return 2
    if args.rate is not None and args.rate <= 0:
        print(f"--rate must be > 0, got {args.rate}", file=sys.stderr)
        return 2
    if args.window <= 0:
        print(f"--window must be > 0, got {args.window}", file=sys.stderr)
        return 2
    slo = None
    if args.slo:
        try:
            slo = SloPolicy.parse(args.slo)
        except ValueError as exc:
            print(f"bad --slo: {exc}", file=sys.stderr)
            return 2
    trace = synthetic_replay_trace(args.users, args.seed)
    cluster = ServiceCluster(
        n_frontends=args.frontends,
        faults=correlated_config() if args.faults else None,
        fault_seed=args.fault_seed,
        frontend_capacity=args.capacity,
        retry_policy=R4_RETRY_POLICY,
        metadata_shards=args.metadata_shards,
        metadata_replicas=args.metadata_replicas,
        read_policy=args.read_policy,
    )
    result = replay_trace(
        trace,
        cluster,
        speedup=args.speedup,
        rate=args.rate,
        mode=args.mode,
        seed=args.seed,
        window_seconds=args.window,
    )
    snap = result.snapshot(slo)
    if args.json:
        print(snap.to_json())
    else:
        print(
            f"replayed {result.ops_total} ops ({result.mode} loop, "
            f"speedup {result.speedup:g}x, offered rate "
            f"{result.offered_rate:.3f} ops/s): "
            f"{result.ops_completed} completed, {result.ops_aborted} aborted, "
            f"{result.ops_skipped} skipped"
        )
        print(snap.render())
    print(f"  access-log digest: {result.log_digest()}")
    if slo is not None and not snap.slo_ok:
        print("FAIL: SLO violated", file=sys.stderr)
        return 1
    return 0


def _cmd_autoscale(args: argparse.Namespace) -> int:
    """Run the chaos-coupled autoscaling loop once and print the outcome.

    Prints one line per window plus a final ``autoscale digest:`` line so
    CI can assert two invocations are byte-identical (autoscaler-smoke
    job).  ``--json PATH`` additionally writes the fleet-trajectory JSON
    artifact.
    """
    from pathlib import Path

    from .experiments.r6_autoscaler import (
        FRONTEND_CAPACITY,
        MEAN_SIZE,
        PEAK_OPS,
        R6_POLICY,
        R6_RETRY_POLICY,
        SLO_SHED,
        WINDOW_SECONDS,
        build_faults,
    )
    from .service.autoscaler import (
        diurnal_autoscale_workload,
        run_autoscaled_service,
    )

    if args.windows < 1:
        print(f"--windows must be >= 1, got {args.windows}", file=sys.stderr)
        return 2
    workload = diurnal_autoscale_workload(
        args.windows,
        window_seconds=WINDOW_SECONDS,
        peak_ops=PEAK_OPS,
        mean_size=MEAN_SIZE,
        seed=args.seed,
    )
    run = run_autoscaled_service(
        workload,
        R6_POLICY,
        strategy=args.strategy,
        faults=build_faults(args.regime, workload.horizon),
        fault_seed=args.fault_seed,
        frontend_capacity=FRONTEND_CAPACITY,
        retry_policy=R6_RETRY_POLICY,
        slo_shed=SLO_SHED,
    )
    print(
        f"autoscale: strategy={run.strategy} regime={args.regime} "
        f"windows={workload.n_windows} fault-seed={args.fault_seed}"
    )
    for w in run.windows:
        flags = "".join(
            flag for flag, on in (
                ("V", w.violation), ("U", w.underprovisioned)
            ) if on
        )
        print(
            f"  w{w.window:03d} fleet={w.fleet:3d} offered={w.offered:3d} "
            f"shed={w.shed_rate:6.1%} down={w.down_fraction:6.1%} "
            f"{flags}"
        )
    print(
        f"  server-hours={run.server_hours} "
        f"violations={run.violation_windows}/{workload.n_windows} "
        f"underprovisioned={run.underprovisioned_windows} "
        f"aborted={run.aborted} reconciled={run.reconciled}"
    )
    if args.json:
        Path(args.json).write_text(run.trajectory_json(), encoding="utf-8")
        print(f"  trajectory written to {args.json}")
    print(f"autoscale digest: {run.log_digest}")
    if not run.reconciled:
        print("FAIL: telemetry did not reconcile with FaultStats",
              file=sys.stderr)
        return 1
    return 0


def _cmd_paper_scale(args: argparse.Namespace) -> int:
    """Streaming columnar pipeline: generate → merge → analyze, bounded RAM.

    Prints the analysis digest so CI can assert that two invocations are
    byte-identical (paper-scale-smoke job), plus peak RSS so the memory
    bound is observable.  ``--check`` additionally runs the in-memory
    columnar engine on the concatenated parts and asserts digest
    equality — only viable at scales that fit in RAM.
    """
    import json
    import resource
    import tempfile

    from .core.streaming import analyze_stream, report_from_columnar
    from .logs.columnar import ColumnarTrace
    from .workload.generator import GeneratorOptions
    from .workload.parallel import generate_columnar_sharded

    if args.users < 1:
        print(f"--users must be >= 1, got {args.users}", file=sys.stderr)
        return 2
    if args.block_rows < 1:
        print(f"--block-rows must be >= 1, got {args.block_rows}",
              file=sys.stderr)
        return 2
    options = GeneratorOptions(max_chunks_per_file=args.max_chunks)
    with tempfile.TemporaryDirectory(dir=args.parts_dir) as scratch:
        sharded = generate_columnar_sharded(
            args.users,
            n_pc_only_users=args.pc_users,
            options=options,
            seed=args.seed,
            n_shards=args.shards,
            n_workers=args.workers or None,
            part_dir=scratch,
            batch_records=args.batch_records,
        )
        report = analyze_stream(
            sharded.merged_blocks(block_rows=args.block_rows), tau=args.tau
        )
        check_ok = None
        if args.check:
            reference = report_from_columnar(
                ColumnarTrace.concatenate(
                    sharded.open_parts()
                ).sorted_by_user_time(),
                tau=args.tau,
            )
            check_ok = reference.digest() == report.digest()
    # Linux reports ru_maxrss in KiB (macOS in bytes).
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak_mb = peak / 1024 if sys.platform != "darwin" else peak / (1024 * 1024)
    summary = {
        "users": args.users + args.pc_users,
        "records": report.n_records,
        "shards": args.shards,
        "block_rows": args.block_rows,
        "sessions": report.sessions.n_sessions,
        "profiled_users": report.users.n_users,
        "intervals": report.intervals.n_intervals,
        "digest": report.digest(),
        "peak_rss_mb": round(peak_mb, 1),
    }
    if args.json:
        # Pure JSON on stdout (the digest is a summary field there).
        print(json.dumps(summary, indent=2))
    else:
        print(
            f"paper-scale: {summary['records']} records from "
            f"{summary['users']} users across {args.shards} shards "
            f"(block {args.block_rows} rows)"
        )
        print(
            f"  sessions: {summary['sessions']}  users profiled: "
            f"{summary['profiled_users']}  intervals: {summary['intervals']}"
        )
        print(f"  peak RSS: {summary['peak_rss_mb']} MB")
        print(f"  analysis digest: {summary['digest']}")
    if check_ok is not None:
        if not check_ok:
            print("FAIL: streaming digest != in-memory digest",
                  file=sys.stderr)
            return 1
        if not args.json:
            print("  check: streaming == in-memory engine")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .devtools.engine import lint_command

    return lint_command(
        args.paths,
        json_out=args.json,
        baseline=args.baseline,
        rules=args.rules,
        cache_file=None if args.no_cache else args.cache_file,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction toolkit for 'An Empirical Analysis of a "
            "Large-scale Mobile Cloud Storage Service' (IMC 2016)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="synthesize a request trace")
    gen.add_argument("output", help="output path (.tsv/.jsonl, optionally .gz)")
    gen.add_argument("--users", type=int, default=1000)
    gen.add_argument("--pc-users", type=int, default=0)
    gen.add_argument("--max-chunks", type=int, default=8,
                     help="chunk records per file cap")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--workers", type=int, default=1,
                     help="worker processes for sharded generation "
                          "(output is identical for any value)")
    gen.add_argument("--shards", type=int, default=0,
                     help="population shards (default: --workers); "
                          "output is identical for any value")
    gen.add_argument("--anonymize", action="store_true",
                     help="pseudonymize user/device ids")
    gen.set_defaults(func=_cmd_generate)

    ana = sub.add_parser("analyze", help="analyze a trace file")
    ana.add_argument("trace", help="trace path written by 'generate'")
    ana.add_argument("--fast", action="store_true",
                     help="skip the mixture-model fit")
    ana.add_argument("--engine", choices=("records", "columnar"),
                     default="records",
                     help="analysis implementation: per-record objects or "
                          "the vectorized struct-of-arrays fast path "
                          "(identical results)")
    ana.set_defaults(func=_cmd_analyze)

    exp = sub.add_parser("experiments", help="run the reproduction battery")
    exp.add_argument("only", nargs="*",
                     help="substring filters on experiment names")
    exp.add_argument("--json", action="store_true",
                     help="emit machine-readable results")
    exp.set_defaults(func=_cmd_experiments)

    val = sub.add_parser(
        "validate", help="rerun experiments across seeds (robustness)"
    )
    val.add_argument("only", nargs="*",
                     help="substring filters on experiment names")
    val.add_argument("--seeds", type=int, default=3,
                     help="number of extra seeds beyond the default run")
    val.add_argument("--base-seed", type=int, default=100)
    val.set_defaults(func=_cmd_validate)

    sim = sub.add_parser("simulate-flow", help="run one packet-level flow")
    sim.add_argument("--direction", choices=("store", "retrieve"),
                     default="store")
    sim.add_argument("--device", choices=("android", "ios"), default="android")
    sim.add_argument("--chunks", type=int, default=8)
    sim.add_argument("--bandwidth", type=float, default=2_000_000.0,
                     help="bottleneck bytes/second")
    sim.add_argument("--rtt", type=float, default=0.1, help="base RTT seconds")
    sim.add_argument("--seed", type=int, default=0)
    sim.set_defaults(func=_cmd_simulate_flow)

    chaos = sub.add_parser(
        "faults-demo",
        help="chaos smoke test: inject faults, require full recovery",
    )
    chaos.add_argument("--fault-rate", type=float, default=0.05,
                       help="fault severity (see FaultConfig.at_rate)")
    chaos.add_argument("--users", type=int, default=12)
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--zones", type=int, default=0,
                       help="partition the fleet into N correlated failure "
                            "zones (0 = independent faults only)")
    chaos.add_argument("--zone-share", type=float, default=0.6,
                       help="fraction of the crash budget moved into the "
                            "shared zone-level outage process")
    chaos.add_argument("--metadata-shards", type=int, default=1,
                       help="run the replicated metadata chaos arm with N "
                            "namespace shards (1 = historical demos)")
    chaos.add_argument("--metadata-replicas", type=int, default=0,
                       help="replicas per metadata shard")
    chaos.add_argument("--read-policy",
                       choices=("primary-only", "quorum", "any-replica"),
                       default="quorum",
                       help="metadata read policy for the replicated arm")
    chaos.set_defaults(func=_cmd_faults_demo)

    rep = sub.add_parser(
        "replay",
        help="open-loop traffic replay with latency/shed telemetry",
    )
    rep.add_argument("--users", type=int, default=16,
                     help="users in the synthetic replay trace")
    rep.add_argument("--seed", type=int, default=0,
                     help="trace + client seed (replay is deterministic)")
    rep.add_argument("--speedup", type=float, default=1.0,
                     help="divide every arrival timestamp by this factor")
    rep.add_argument("--rate", type=float, default=None,
                     help="target mean offered rate in ops/s "
                          "(overrides --speedup)")
    rep.add_argument("--mode", choices=("open", "closed"), default="open",
                     help="open: client clocks jump to scheduled arrivals; "
                          "closed: historical wait-for-completion semantics")
    rep.add_argument("--frontends", type=int, default=2)
    rep.add_argument("--capacity", type=int, default=8,
                     help="per-front-end in-flight admission limit")
    rep.add_argument("--faults", action="store_true",
                     help="arm the R4 correlated fault plan")
    rep.add_argument("--fault-seed", type=int, default=7)
    rep.add_argument("--metadata-shards", type=int, default=1,
                     help="metadata namespace shards (1 = historical "
                          "single server)")
    rep.add_argument("--metadata-replicas", type=int, default=0,
                     help="replicas per metadata shard")
    rep.add_argument("--read-policy",
                     choices=("primary-only", "quorum", "any-replica"),
                     default="primary-only",
                     help="metadata read policy for the sharded tier")
    rep.add_argument("--slo", default=None,
                     help="SLO policy, e.g. 'p99=30,shed=0.01,fail=0.05' "
                          "(exit 1 on violation)")
    rep.add_argument("--window", type=float, default=60.0,
                     help="telemetry window length, virtual seconds")
    rep.add_argument("--json", action="store_true",
                     help="emit the telemetry snapshot as JSON")
    rep.set_defaults(func=_cmd_replay)

    paper = sub.add_parser(
        "paper-scale",
        help="streaming columnar pipeline: generate, merge and analyze "
             "in bounded memory",
    )
    paper.add_argument("--users", type=int, default=50_000,
                       help="mobile users to generate")
    paper.add_argument("--pc-users", type=int, default=0,
                       help="PC-only users to generate")
    paper.add_argument("--max-chunks", type=int, default=8,
                       help="chunk records per file cap")
    paper.add_argument("--seed", type=int, default=0)
    paper.add_argument("--shards", type=int, default=8,
                       help="columnar shard parts (output identical for "
                            "any value)")
    paper.add_argument("--workers", type=int, default=0,
                       help="worker processes (0 = one per core, capped "
                            "at --shards)")
    paper.add_argument("--block-rows", type=int, default=1 << 20,
                       help="merge window per shard; peak RSS scales with "
                            "block-rows x shards, not with records")
    paper.add_argument("--batch-records", type=int, default=65_536,
                       help="records a worker buffers before appending to "
                            "its part files")
    paper.add_argument("--tau", type=float, default=3600.0,
                       help="session cut threshold, seconds")
    paper.add_argument("--parts-dir", default=None,
                       help="directory for the scratch part files "
                            "(default: system temp; always cleaned up)")
    paper.add_argument("--check", action="store_true",
                       help="also run the in-memory engine and assert "
                            "digest equality (loads the whole trace)")
    paper.add_argument("--json", action="store_true",
                       help="emit the summary as JSON")
    paper.set_defaults(func=_cmd_paper_scale)

    auto = sub.add_parser(
        "autoscale",
        help="chaos-coupled autoscaling loop (R6 configuration)",
    )
    auto.add_argument("--strategy",
                      choices=("static", "reactive", "fault-aware",
                               "predictive", "oracle"),
                      default="fault-aware",
                      help="fleet controller to drive the loop with")
    auto.add_argument("--regime",
                      choices=("fault-free", "independent", "correlated"),
                      default="correlated",
                      help="fault regime to deploy under the fleet")
    auto.add_argument("--windows", type=int, default=48,
                      help="number of windows to simulate")
    auto.add_argument("--seed", type=int, default=0,
                      help="workload seed")
    auto.add_argument("--fault-seed", type=int, default=3,
                      help="fault-plan master seed")
    auto.add_argument("--json", metavar="FILE", default=None,
                      help="also write the fleet-trajectory JSON artifact")
    auto.set_defaults(func=_cmd_autoscale)

    lint = sub.add_parser(
        "lint",
        help="run reprolint (determinism & schema-invariant static analysis)",
    )
    lint.add_argument("paths", nargs="*", default=["src/repro"],
                      help="files or directories to lint (default: src/repro)")
    lint.add_argument("--json", action="store_true",
                      help="emit machine-readable findings")
    lint.add_argument("--baseline", metavar="FILE",
                      help="JSON findings file whose entries are ignored")
    lint.add_argument("--rules", metavar="IDS",
                      help="comma-separated rule subset to run (e.g. D2,M1)")
    lint.add_argument("--no-cache", action="store_true",
                      help="disable the incremental summary cache")
    lint.add_argument("--cache-file", metavar="FILE",
                      default=".reprolint_cache.json",
                      help="summary cache location "
                           "(default: .reprolint_cache.json)")
    lint.set_defaults(func=_cmd_lint)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
