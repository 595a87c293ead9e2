"""Benchmark — open-loop replay driver throughput and telemetry cost.

Times the replay harness itself rather than a paper figure: one synthetic
trace is fired at a fault-free cluster and at an R4 correlated-fault
cluster (2x speedup each), and the telemetry collector is timed both with
full sample retention (exact percentiles) and in fixed-memory streaming
mode (P2 estimators only).  The prints give virtual-ops-per-wall-second —
the number that bounds how large a trace the scaling PRs can afford to
sweep — and the streaming run double-checks that dropping the sample
buffers changes neither the request counters nor the access-log digest.

Set ``BENCH_REPLAY_JSON`` to a path to emit the measurements as JSON (the
CI replay-smoke job uploads it as ``BENCH_replay_openloop.json``).
``BENCH_REPLAY_USERS`` overrides the trace scale.
"""

import os
import time

from repro.experiments.r4_open_loop import (
    R4_RETRY_POLICY,
    correlated_config,
)
from repro.service.cluster import ServiceCluster
from repro.service.replay import replay_trace, synthetic_replay_trace

BENCH_USERS = int(os.environ.get("BENCH_REPLAY_USERS", "48"))
BENCH_SEED = 20160814
BENCH_SPEEDUP = 2.0
REPLAY_SEED = 3


def _cluster(faults):
    return ServiceCluster(
        n_frontends=2,
        faults=faults,
        fault_seed=7,
        frontend_capacity=8,
        retry_policy=R4_RETRY_POLICY,
    )


def test_replay_throughput(emit_json):
    trace = synthetic_replay_trace(BENCH_USERS, BENCH_SEED)
    rows = []
    digests = {}
    for label, faults, keep in (
        ("fault-free/exact", None, True),
        ("correlated/exact", correlated_config(), True),
        ("correlated/streaming", correlated_config(), False),
    ):
        start = time.perf_counter()
        result = replay_trace(
            trace,
            _cluster(faults),
            speedup=BENCH_SPEEDUP,
            seed=REPLAY_SEED,
            keep_samples=keep,
        )
        seconds = time.perf_counter() - start
        snap = result.snapshot()
        rows.append(
            {
                "arm": label,
                "ops": result.ops_total,
                "records": len(result.log),
                "seconds": seconds,
                "ops_per_second": result.ops_total / seconds,
                "estimator": snap.estimator,
                "shed_rate": result.telemetry.shed_rate,
            }
        )
        digests[label] = (result.log_digest(), result.telemetry.total_requests)

    print()
    print(
        f"open-loop replay, {BENCH_USERS} users, "
        f"{len(trace)} ops, speedup {BENCH_SPEEDUP:g}x"
    )
    header = f"{'arm':<22} {'ops':>5} {'records':>8} {'seconds':>8} {'ops/s':>8}"
    print(header)
    for row in rows:
        print(
            f"{row['arm']:<22} {row['ops']:>5} {row['records']:>8} "
            f"{row['seconds']:>8.3f} {row['ops_per_second']:>8,.0f}"
        )

    # Streaming mode must change the estimator label only: same requests
    # hit the cluster, so the log digest and request count are identical.
    assert digests["correlated/streaming"] == digests["correlated/exact"]
    assert rows[1]["estimator"] == "exact"
    assert rows[2]["estimator"] == "p2"

    emit_json(
        "BENCH_REPLAY_JSON",
        {
            "users": BENCH_USERS,
            "trace_ops": len(trace),
            "speedup": BENCH_SPEEDUP,
            "log_digest": digests["correlated/exact"][0],
            "arms": rows,
        }
    )
