"""Golden replay fixture for the sharded metadata tier.

``tests/data/golden_replay.json`` runs the historical (1 shard, 0
replica) deployment, so it never reaches the sharded-tier branch of
:meth:`~repro.faults.FaultPlan.overload_level`.  This fixture pins a
small R4 correlated replay on a 4-shard x 2-replica ``quorum`` tier with
``frontend_capacity=8``.  Its fault seed puts a zone-level crash window
(two shard primaries down at once) under the trace's first, densest
session, so the replay sheds on overload, rejects quorum reads and
crashes a front-end.  Regenerate only for an intentional behaviour
change:

    PYTHONPATH=src:. python tests/test_golden_replay_metatier.py --regenerate
"""

import json
import pathlib
import sys

from repro.experiments.r4_open_loop import R4_RETRY_POLICY, correlated_config
from repro.logs.schema import ResultCode
from repro.service.cluster import ServiceCluster
from repro.service.replay import replay_trace, synthetic_replay_trace
from tests.helpers import replay_fingerprint

FIXTURE = pathlib.Path(__file__).parent / "data" / "golden_replay_metatier.json"


def metatier_cluster(fixture: dict) -> ServiceCluster:
    tier = fixture["cluster"]
    return ServiceCluster(
        n_frontends=tier["n_frontends"],
        faults=correlated_config(),
        fault_seed=tier["fault_seed"],
        frontend_capacity=tier["frontend_capacity"],
        retry_policy=R4_RETRY_POLICY,
        metadata_shards=tier["metadata_shards"],
        metadata_replicas=tier["metadata_replicas"],
        read_policy=tier["read_policy"],
    )


def run_golden_replay(fixture: dict):
    trace = synthetic_replay_trace(
        fixture["trace"]["n_users"], fixture["trace"]["seed"]
    )
    cluster = metatier_cluster(fixture)
    result = replay_trace(
        trace,
        cluster,
        speedup=fixture["replay"]["speedup"],
        seed=fixture["replay"]["seed"],
    )
    return result, cluster


def measured_state(result, cluster) -> dict:
    stats = cluster.fault_stats
    return {
        "fingerprint": replay_fingerprint(result),
        "counts": {
            "ops_total": result.ops_total,
            "ops_completed": result.ops_completed,
            "ops_aborted": result.ops_aborted,
            "ops_skipped": result.ops_skipped,
            "records": len(result.records),
            "requests_total": result.telemetry.total_requests,
            "shed": result.telemetry.result_count(ResultCode.SHED),
            "unavailable": result.telemetry.result_count(
                ResultCode.UNAVAILABLE
            ),
            "server_error": result.telemetry.result_count(
                ResultCode.SERVER_ERROR
            ),
            "overload_sheds": stats.overload_sheds,
            "pressure_sheds": stats.pressure_sheds,
            "metadata_rejections": stats.metadata_rejections,
            "shard_rejections": stats.shard_rejections,
        },
    }


def test_replay_matches_golden_fixture():
    fixture = json.loads(FIXTURE.read_text())
    result, cluster = run_golden_replay(fixture)
    state = measured_state(result, cluster)
    assert state["counts"] == fixture["counts"]
    assert state["fingerprint"] == fixture["fingerprint"], (
        "sharded-tier service-path behaviour changed; if intentional, "
        "regenerate via PYTHONPATH=src:. python "
        "tests/test_golden_replay_metatier.py --regenerate"
    )
    assert result.telemetry.reconcile(cluster.fault_stats)["matched"]


def test_fixture_exercises_the_sharded_overload_path():
    """The fixture must keep reaching the sharded overload signal: a
    replay with no overload sheds would not notice a wrong value."""
    counts = json.loads(FIXTURE.read_text())["counts"]
    assert counts["overload_sheds"] > 0
    assert counts["shard_rejections"] > 0
    assert counts["unavailable"] > 0


def _regenerate() -> None:
    fixture = json.loads(FIXTURE.read_text())
    fixture.update(measured_state(*run_golden_replay(fixture)))
    FIXTURE.write_text(
        json.dumps(fixture, indent=2, sort_keys=True) + "\n"
    )
    print(f"rewrote {FIXTURE}")


if __name__ == "__main__":
    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
