"""The live path's per-attempt fast paths against what they replaced.

Every front-end attempt of a replay was made cheaper without changing
what it computes.  Each piece is pinned here:

* :class:`~repro.faults.RequestOutcome`, a named tuple: immutable, built
  by position or by keyword, with the same properties for every result
  code;
* the front-end handlers called by position against the same calls by
  keyword: the same outcomes, logged rows, ``rng`` state and fault
  counters, with and without a fault plan;
* the block-served error and pressure draws against scalar
  ``Generator.random()`` calls, across block boundaries, and a plan that
  never draws leaving its generators in their seeded state;
* the per-instance placement memo against ``frontend_for``/``shard_for``
  for every user, also after the fleet or shard count changes;
* whole access logs of the three ``replay`` benchmark passes and the 4x2
  quorum golden replay against :func:`tests.helpers.reference_attempts`,
  which also swaps the failover step table and the backoff delay table
  back for the computations they replaced.
"""

import hashlib
import json
import pathlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faults
from repro.experiments.r4_open_loop import correlated_config
from repro.faults import FaultConfig, FaultPlan, RequestOutcome, RetryPolicy
from repro.logs.columnar import DEVICE_CODE, RETRIEVE_CODE, STORE_CODE
from repro.logs.schema import DeviceType, ResultCode
from repro.service.client import StorageClient
from repro.service.frontend import FrontendServer
from repro.service.metadata import MetadataServer
from repro.service.metatier import ShardedMetadataTier
from repro.service.placement import PlacementMemo, frontend_for, shard_for
from tests.helpers import (
    BENCH_REPLAY_PASSES,
    bench_replay_pass,
    reference_attempts,
    run_bench_replay_pass,
)
from tests.test_golden_replay_metatier import FIXTURE, run_golden_replay

ANDROID = DEVICE_CODE[DeviceType.ANDROID]

# ----------------------------------------------------------------------
# RequestOutcome
# ----------------------------------------------------------------------


@pytest.mark.parametrize("code", list(ResultCode))
def test_outcome_properties_for_every_code(code):
    outcome = RequestOutcome(code, 0.5)
    assert outcome.ok is (code is ResultCode.OK)
    assert outcome.retryable is (code is not ResultCode.OK)
    assert outcome.wants_failover is (
        code in (ResultCode.UNAVAILABLE, ResultCode.SHED)
    )


def test_outcome_positional_and_keyword_construction_agree():
    positional = RequestOutcome(ResultCode.OK, 1.5, 1.25, 0.25)
    keyword = RequestOutcome(
        result=ResultCode.OK, elapsed=1.5, tchunk=1.25, tsrv=0.25
    )
    assert positional == keyword
    assert (keyword.result, keyword.elapsed, keyword.tchunk, keyword.tsrv) == (
        ResultCode.OK, 1.5, 1.25, 0.25,
    )
    # tchunk and tsrv default to zero, as they did on the dataclass.
    failed = RequestOutcome(ResultCode.SHED, elapsed=0.1)
    assert (failed.tchunk, failed.tsrv) == (0.0, 0.0)
    assert RequestOutcome._fields == ("result", "elapsed", "tchunk", "tsrv")


def test_outcome_is_immutable():
    outcome = RequestOutcome(ResultCode.OK, 1.0)
    with pytest.raises(AttributeError):
        outcome.elapsed = 2.0
    with pytest.raises(AttributeError):
        outcome.note = "no new attributes either"
    assert outcome == RequestOutcome(ResultCode.OK, 1.0)


# ----------------------------------------------------------------------
# Front-end handlers: positional calls equal keyword calls
# ----------------------------------------------------------------------


def _server(with_plan: bool) -> FrontendServer:
    plan = None
    if with_plan:
        # Frequent transient errors, slow episodes and the R4 zones and
        # pressure loop, so sheds, errors and successes all occur.
        config = correlated_config()
        config = FaultConfig(
            error_rate=0.2,
            crash_rate=2.0,
            crash_mean_downtime=30.0,
            slow_rate=2.0,
            slow_mean_duration=60.0,
            horizon=config.horizon,
            zones=config.zones,
        )
        plan = FaultPlan(config, n_frontends=2, seed=11)
    return FrontendServer(server_id=1, fault_plan=plan, capacity=3)


def _requests(n: int = 400):
    """``(chunk, args)`` of ``n`` mixed, overlapping requests; ``args``
    are every handler argument but ``rng``, by name."""
    requests = []
    for i in range(n):
        chunk = i % 3 != 0
        args = {
            "timestamp": 0.01 * i + (i % 5) * 0.002,
            "user_id": i % 7,
            "device_id": f"dev-{i % 4}",
            "device_type_code": ANDROID,
            "direction_code": STORE_CODE if i % 2 else RETRIEVE_CODE,
            "rtt": 0.05 + 0.01 * (i % 3),
            "proxied": i % 4 == 0,
            "session_id": i // 10,
            "timeout": None if i % 6 == 0 else 2.0,
        }
        if chunk:
            args.update(size=1000 * (i % 9), bandwidth=2e6, restarted=i % 5 == 1)
        requests.append((chunk, args))
    return requests


def _positional(server, chunk, args, rng):
    if chunk:
        return server.handle_chunk(
            args["timestamp"], args["user_id"], args["device_id"],
            args["device_type_code"], args["direction_code"], args["size"],
            args["rtt"], args["bandwidth"], rng, args["restarted"],
            args["proxied"], args["session_id"], args["timeout"],
        )
    return server.handle_file_op(
        args["timestamp"], args["user_id"], args["device_id"],
        args["device_type_code"], args["direction_code"], args["rtt"], rng,
        args["proxied"], args["session_id"], args["timeout"],
    )


def _keyword(server, chunk, args, rng):
    handler = server.handle_chunk if chunk else server.handle_file_op
    return handler(**args, rng=rng)


@pytest.mark.parametrize("with_plan", [False, True], ids=["no-plan", "plan"])
def test_positional_handler_calls_equal_keyword_calls(with_plan):
    by_position, by_keyword = _server(with_plan), _server(with_plan)
    rng_p, rng_k = np.random.default_rng(5), np.random.default_rng(5)
    results = set()
    for chunk, args in _requests():
        outcome = _positional(by_position, chunk, args, rng_p)
        assert outcome == _keyword(by_keyword, chunk, args, rng_k)
        assert rng_p.bit_generator.state == rng_k.bit_generator.state
        results.add(outcome.result)
    if with_plan:
        assert {ResultCode.OK, ResultCode.SHED, ResultCode.SERVER_ERROR} <= results
        assert by_position.fault_plan.stats == by_keyword.fault_plan.stats
    else:
        assert results == {ResultCode.OK}
    logged_p, logged_k = by_position.take_log(), by_keyword.take_log()
    assert len(logged_p) == len(_requests())
    assert [(r, r.session_id) for r in logged_p.iter_records()] == [
        (r, r.session_id) for r in logged_k.iter_records()
    ]
    assert (by_position.requests_ok, by_position.requests_failed) == (
        by_keyword.requests_ok, by_keyword.requests_failed,
    )


# ----------------------------------------------------------------------
# Block-served fault draws
# ----------------------------------------------------------------------


def _scalar_stream(rng: np.random.Generator) -> np.random.Generator:
    """A generator in ``rng``'s current state, drawn from independently."""
    copy = np.random.Generator(np.random.PCG64())
    copy.bit_generator.state = rng.bit_generator.state
    return copy


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    block=st.sampled_from([1, 2, 3, 7, 256]),
    ops=st.lists(
        st.tuples(st.integers(0, 1), st.booleans()), min_size=1, max_size=60
    ),
)
def test_error_draws_match_scalar_random_calls(seed, block, ops):
    """Interleaved ``draw_transient_error``/``error_fraction`` calls on two
    front-ends give the decisions and fractions that one scalar
    ``random()`` per call gives, whatever the block size."""
    rate = 0.4
    plan = FaultPlan(FaultConfig(error_rate=rate), n_frontends=2, seed=seed)
    scalar = [_scalar_stream(rng) for rng in plan._error_rngs]
    with mock.patch.object(faults, "UNIFORM_BLOCK", block):
        for frontend_id, decision in ops:
            if decision:
                got = plan.draw_transient_error(frontend_id)
                assert got == (scalar[frontend_id].random() < rate)
            else:
                got = plan.error_fraction(frontend_id)
                assert got == scalar[frontend_id].random()


def test_error_draws_cross_default_block_boundaries():
    plan = FaultPlan(FaultConfig(error_rate=0.5), n_frontends=1, seed=3)
    scalar = _scalar_stream(plan._error_rngs[0])
    n = 3 * faults.UNIFORM_BLOCK + 5
    assert [plan.error_fraction(0) for _ in range(n)] == [
        scalar.random() for _ in range(n)
    ]


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    block=st.sampled_from([1, 2, 5, 256]),
    n_draws=st.integers(1, 40),
)
def test_pressure_draws_match_scalar_random_calls(seed, block, n_draws):
    plan = FaultPlan(correlated_config(), n_frontends=2, seed=seed)
    scalar = _scalar_stream(plan._pressure_rngs[1])
    now = 100.0
    for _ in range(3):
        plan.note_failure_pressure(1, now)
    # No time passes between draws, so the shed probability is fixed.
    pressure = plan.pressure_level(1, now)
    probability = pressure / (pressure + plan.zone_config.pressure_shed_scale)
    with mock.patch.object(faults, "UNIFORM_BLOCK", block):
        got = [plan.draw_pressure_shed(1, now) for _ in range(n_draws)]
    assert got == [scalar.random() < probability for _ in range(n_draws)]


def test_plan_that_never_draws_keeps_seeded_generator_state():
    plan = FaultPlan(correlated_config(), n_frontends=2, seed=4)
    fresh = FaultPlan(correlated_config(), n_frontends=2, seed=4)
    # Zero pressure: no pressure draw.  A zero error rate: no error draw.
    assert not plan.draw_pressure_shed(0, 50.0)
    no_errors = FaultPlan(FaultConfig(crash_rate=1.0), n_frontends=2, seed=4)
    untouched = FaultPlan(FaultConfig(crash_rate=1.0), n_frontends=2, seed=4)
    assert not no_errors.draw_transient_error(0)
    for a, b in (
        (plan._pressure_rngs, fresh._pressure_rngs),
        (plan._error_rngs, fresh._error_rngs),
        (no_errors._error_rngs, untouched._error_rngs),
    ):
        assert [g.bit_generator.state for g in a] == [
            g.bit_generator.state for g in b
        ]


def test_generator_state_runs_ahead_by_at_most_one_block():
    plan = FaultPlan(FaultConfig(error_rate=0.5), n_frontends=1, seed=8)
    reference = _scalar_stream(plan._error_rngs[0])
    plan.error_fraction(0)
    reference.random(faults.UNIFORM_BLOCK)
    assert plan._error_rngs[0].bit_generator.state == (
        reference.bit_generator.state
    )
    for _ in range(faults.UNIFORM_BLOCK - 1):
        plan.error_fraction(0)
    assert plan._error_rngs[0].bit_generator.state == (
        reference.bit_generator.state
    )


# ----------------------------------------------------------------------
# Placement memo
# ----------------------------------------------------------------------

USERS = range(2000)


@pytest.mark.parametrize("n_frontends", [1, 2, 3, 7])
def test_frontend_memo_equals_placement(n_frontends):
    server = MetadataServer(n_frontends=n_frontends)
    for _ in range(2):  # the second pass reads the memo
        assert [server._frontend_for(u) for u in USERS] == [
            frontend_for(u, n_frontends) for u in USERS
        ]


def test_frontend_memo_is_never_stale_after_a_resize():
    server = MetadataServer(n_frontends=2)
    before = [server._frontend_for(u) for u in USERS]
    server.n_frontends = 5
    assert [server._frontend_for(u) for u in USERS] == [
        frontend_for(u, 5) for u in USERS
    ]
    server.n_frontends = 2
    assert [server._frontend_for(u) for u in USERS] == before


@pytest.mark.parametrize("n_shards", [1, 4, 9])
def test_shard_memo_equals_placement(n_shards):
    tier = ShardedMetadataTier(n_frontends=2, n_shards=n_shards)
    for _ in range(2):
        assert [tier.shard_of(u) for u in USERS] == [
            shard_for(u, n_shards) for u in USERS
        ]


def test_memo_holds_answers_for_one_bucket_count_only():
    calls = []

    def place(key, n_buckets):
        calls.append((key, n_buckets))
        return key % n_buckets

    memo = PlacementMemo(place)
    assert [memo(k, 3) for k in (5, 5, 7)] == [2, 2, 1]
    assert [memo(k, 4) for k in (5, 7)] == [1, 3]
    assert memo(5, 3) == 2
    assert calls == [(5, 3), (7, 3), (5, 4), (7, 4), (5, 3)]
    assert memo._answers == {5: 2}


def test_shard_memo_is_never_stale_after_a_reshard():
    tier = ShardedMetadataTier(n_frontends=2, n_shards=4)
    before = [tier.shard_of(u) for u in USERS]
    tier.n_shards = 3
    assert [tier.shard_of(u) for u in USERS] == [shard_for(u, 3) for u in USERS]
    tier.n_shards = 4
    assert [tier.shard_of(u) for u in USERS] == before


# ----------------------------------------------------------------------
# Whole replays against the reference attempts
# ----------------------------------------------------------------------


def _replay_identity(result, cluster) -> tuple:
    log = result.log
    return (
        [(record, record.session_id) for record in log.iter_records()],
        result.log_digest(),
        hashlib.md5(result.snapshot().to_json().encode()).hexdigest(),
        cluster.fault_stats,
        (result.ops_completed, result.ops_aborted, result.retries),
    )


@pytest.mark.parametrize("label", sorted(BENCH_REPLAY_PASSES))
def test_benchmark_pass_matches_reference_attempts(label):
    result, cluster, _taken = bench_replay_pass(label)
    with reference_attempts():
        reference, reference_cluster, _ = run_bench_replay_pass(label)
    assert _replay_identity(result, cluster) == _replay_identity(
        reference, reference_cluster
    )


def test_golden_quorum_replay_matches_reference_attempts():
    fixture = json.loads(pathlib.Path(FIXTURE).read_text())
    result, cluster = run_golden_replay(fixture)
    with reference_attempts():
        reference, reference_cluster = run_golden_replay(fixture)
    assert _replay_identity(result, cluster) == _replay_identity(
        reference, reference_cluster
    )


def test_reference_attempts_restores_the_fast_paths():
    fast = StorageClient.__dict__["_request"]
    with reference_attempts():
        assert StorageClient.__dict__["_request"] is not fast
    assert StorageClient.__dict__["_request"] is fast


def test_reference_attempts_restores_the_retry_tables():
    tables = [
        (StorageClient, "_failover_shift", StorageClient.__dict__["_failover_shift"]),
        (RetryPolicy, "backoff_delay", RetryPolicy.__dict__["backoff_delay"]),
    ]
    with reference_attempts():
        for owner, name, fast in tables:
            assert owner.__dict__[name] is not fast
    for owner, name, fast in tables:
        assert owner.__dict__[name] is fast


# ----------------------------------------------------------------------
# Metadata retries: the clock is read per attempt
# ----------------------------------------------------------------------


def test_metadata_retries_read_the_clock_per_attempt():
    from repro.service import ClientNetwork, ServiceCluster

    cluster = ServiceCluster(
        n_frontends=2,
        faults=FaultConfig(metadata_outage_rate=2.0, metadata_mean_downtime=10.0),
        fault_seed=3,
    )
    window = cluster.fault_plan.metadata_windows[0]
    client = cluster.new_client(
        1, "d1", DeviceType.ANDROID,
        network=ClientNetwork(rtt=0.05, bandwidth=2_000_000.0),
    )
    client.clock = max(window.start, window.end - 0.3)
    started = client.clock
    seen = []
    request_store = cluster.metadata.request_store

    def recording(user_id, manifest, *, now):
        seen.append(now)
        return request_store(user_id, manifest, now=now)

    with mock.patch.object(cluster.metadata, "request_store", recording):
        report = client.store_file("a.jpg", b"a", 200_000)
    assert report.completed
    # Retried inside the outage, then served once it lifted.
    assert len(seen) >= 2
    assert seen[0] == started
    assert all(a < b for a, b in zip(seen, seen[1:]))
    assert seen[-2] < window.end <= seen[-1]
    # Each retry started after one round trip plus its backoff delay.
    stats = cluster.fault_plan.stats
    assert seen[-1] - seen[0] == pytest.approx(
        (len(seen) - 1) * 0.05 + stats.backoff_seconds
    )
