"""Reference oracles for the live path's precomputed and lazy fast paths.

Each fast path on the replay hot loop replaces a direct computation with
an equivalent cheaper one.  The direct computations live on here as
reference implementations, and the tests assert the two agree exactly —
bit for bit, not within a tolerance:

* the sharded-tier overload signal, precomputed at plan construction as
  a step function, against the per-shard sum over
  :meth:`~repro.faults.FaultPlan.metadata_node_down`;
* each front-end's crash state, precomputed the same way, against the
  window-by-window test over its residual and zone crash windows;
* the front-end in-flight heap against the list filter it replaced;
* P² estimates folded in on demand from retained samples against a bank
  fed on every add;
* the zone-aware failover step table against the per-failover scan, and
  the retry policy's delay table against ``nominal_delay``;
* ``schedule_arrivals``' unvalidated slot copies against ops rebuilt
  through the dataclass constructor.
"""

import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.helpers import computed_backoff_delay, scan_failover_shift

from repro.faults import (
    FaultConfig,
    FaultPlan,
    RetryPolicy,
    ZoneConfig,
    zone_failover_steps,
)
from repro.logs.schema import DeviceType, Direction
from repro.service import ServiceCluster
from repro.service.frontend import FrontendServer
from repro.service.replay import (
    ReplayOp,
    natural_rate,
    replay_trace,
    resolve_speedup,
    schedule_arrivals,
    synthetic_replay_trace,
)
from repro.service.telemetry import (
    QUANTILE_LABELS,
    TRACKED_QUANTILES,
    LatencySeries,
    P2Quantile,
)

# ----------------------------------------------------------------------
# Sharded-tier overload signal
# ----------------------------------------------------------------------


def reference_sharded_overload(plan: FaultPlan, t: float) -> float:
    """The direct per-query form: overload factor x down-primary share."""
    zones = plan.zone_config
    if zones is None or zones.overload_factor <= 0:
        return 0.0
    down = sum(
        1
        for shard in range(plan.n_metadata_shards)
        if plan.metadata_node_down(shard, 0, t)
    )
    return zones.overload_factor * (down / plan.n_metadata_shards)


def sharded_plan(
    n_shards: int,
    n_replicas: int,
    n_zones: int,
    overload_factor: float,
    overload_recovery: float,
    seed: int,
) -> FaultPlan:
    """A plan dense in primary and zone windows over a short horizon."""
    config = FaultConfig(
        metadata_outage_rate=3.0,
        metadata_mean_downtime=90.0,
        horizon=6 * 3600.0,
        zones=ZoneConfig(
            n_zones=n_zones,
            zone_crash_rate=1.5 if n_zones else 0.0,
            zone_mean_downtime=300.0,
            overload_factor=overload_factor,
            overload_recovery=overload_recovery,
        ),
    )
    return FaultPlan(
        config,
        n_frontends=max(n_zones, 1),
        seed=seed,
        n_metadata_shards=n_shards,
        n_metadata_replicas=n_replicas,
    )


def signal_edges(plan: FaultPlan) -> list[float]:
    """Every instant a primary's own or zone window opens or closes."""
    edges = set()
    for shard in range(plan.n_metadata_shards):
        windows = list(plan.metadata_node_windows(shard, 0))
        zone = plan.metadata_node_zone(shard, 0)
        if zone is not None:
            windows.extend(plan.zone_windows(zone))
        for window in windows:
            edges.add(window.start)
            edges.add(window.end)
    return sorted(edges)


def probe_points(edges: list[float]) -> list[float]:
    """Each edge, one ulp either side of it, and every midpoint."""
    points = [-1.0, 0.0]
    for edge in edges:
        points += [
            math.nextafter(edge, -math.inf),
            edge,
            math.nextafter(edge, math.inf),
        ]
    points += [(a + b) / 2.0 for a, b in zip(edges, edges[1:])]
    if edges:
        points.append(edges[-1] + 1.0)
    return points


def assert_signal_matches(plan: FaultPlan, points) -> None:
    for t in points:
        expected = reference_sharded_overload(plan, t)
        got = plan.overload_level(t)
        assert got == expected and math.copysign(1.0, got) == math.copysign(
            1.0, expected
        ), (t, got, expected)


plan_shapes = st.tuples(
    st.integers(min_value=1, max_value=5),  # shards
    st.integers(min_value=0, max_value=2),  # replicas
    st.integers(min_value=0, max_value=3),  # zones
    st.floats(min_value=0.0, max_value=1.0),  # overload_factor
    st.floats(min_value=0.0, max_value=120.0),  # overload_recovery
    st.integers(min_value=0, max_value=2**16),  # plan seed
)


class TestShardedOverloadSignal:
    def test_grid_of_shapes_at_edges_ulps_and_midpoints(self):
        checked_edges = 0
        for n_shards in range(1, 6):
            for n_replicas in range(3):
                if (n_shards, n_replicas) == (1, 0):
                    continue  # unsharded: the branch is not precomputed
                for n_zones in range(4):
                    for factor, recovery in ((0.4, 45.0), (1.0, 0.0), (0.07, 300.0)):
                        plan = sharded_plan(
                            n_shards, n_replicas, n_zones, factor, recovery,
                            seed=11 * n_shards + 3 * n_replicas + n_zones,
                        )
                        edges = signal_edges(plan)
                        checked_edges += len(edges)
                        assert_signal_matches(plan, probe_points(edges))
        # The grid must actually exercise the step function.
        assert checked_edges > 1000

    @settings(max_examples=60, deadline=None)
    @given(
        shape=plan_shapes,
        fractions=st.lists(
            st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=40
        ),
        offsets=st.lists(
            st.floats(min_value=-500.0, max_value=500.0), max_size=20
        ),
    )
    def test_random_shapes_and_instants(self, shape, fractions, offsets):
        n_shards, n_replicas, n_zones, factor, recovery, seed = shape
        if (n_shards, n_replicas) == (1, 0):
            n_replicas = 1
        plan = sharded_plan(n_shards, n_replicas, n_zones, factor, recovery, seed)
        horizon = plan.config.horizon
        edges = signal_edges(plan)
        points = [f * horizon for f in fractions]
        # Instants near the edges, where an off-by-one would show.
        for k, offset in enumerate(offsets):
            if edges:
                points.append(edges[k % len(edges)] + offset)
        assert_signal_matches(plan, points)

    def test_signal_is_zero_without_overload_coupling(self):
        plan = sharded_plan(4, 2, 2, 0.0, 45.0, seed=5)
        assert signal_edges(plan)
        assert_signal_matches(plan, probe_points(signal_edges(plan)))
        assert all(
            plan.overload_level(t) == 0.0
            for t in probe_points(signal_edges(plan))
        )

    def test_benchmark_plan_has_four_edges(self):
        """R4's correlated plan on the 4x2 tier: one primary window and
        one zone window inside the horizon, i.e. four signal edges."""
        from repro.experiments.r4_open_loop import correlated_config

        plan = FaultPlan(
            correlated_config(),
            n_frontends=2,
            seed=7,
            n_metadata_shards=4,
            n_metadata_replicas=2,
        )
        edges = signal_edges(plan)
        assert len(edges) == 4
        assert_signal_matches(plan, probe_points(edges))


# ----------------------------------------------------------------------
# Front-end crash state
# ----------------------------------------------------------------------


def frontend_crash_windows(plan: FaultPlan, fid: int) -> list:
    """The front-end's residual crash windows and its zone's windows."""
    windows = list(plan._crash_windows[fid])
    zone = plan.zone_of(fid)
    if zone is not None:
        windows.extend(plan.zone_windows(zone))
    return windows


def reference_frontend_down(plan: FaultPlan, fid: int, t: float) -> bool:
    """The window-by-window definition: inside a residual window of the
    front-end, or inside a window of its zone."""
    return any(window.contains(t) for window in frontend_crash_windows(plan, fid))


def crash_plan(n_frontends: int, n_zones: int, seed: int, rate: float) -> FaultPlan:
    """A plan dense in residual and zone crash windows (which overlap)."""
    zones = (
        ZoneConfig(
            n_zones=n_zones, zone_crash_rate=rate, zone_mean_downtime=400.0
        )
        if n_zones
        else None
    )
    config = FaultConfig(
        crash_rate=rate,
        crash_mean_downtime=300.0,
        horizon=6 * 3600.0,
        zones=zones,
    )
    return FaultPlan(config, n_frontends=n_frontends, seed=seed)


def crash_edges(plan: FaultPlan, fid: int) -> list[float]:
    windows = frontend_crash_windows(plan, fid)
    return sorted({e for w in windows for e in (w.start, w.end)})


def assert_crash_state_matches(plan: FaultPlan, fid: int, points) -> None:
    for t in points:
        assert plan.frontend_down(fid, t) is reference_frontend_down(
            plan, fid, t
        ), (fid, t)


class TestFrontendCrashSteps:
    def test_grid_at_edges_ulps_and_midpoints(self):
        checked_edges = 0
        for n_frontends in (1, 2, 5):
            for n_zones in range(4):
                for rate in (0.5, 3.0):
                    plan = crash_plan(n_frontends, n_zones, 7 * n_zones + n_frontends, rate)
                    for fid in range(n_frontends):
                        edges = crash_edges(plan, fid)
                        checked_edges += len(edges)
                        assert_crash_state_matches(
                            plan, fid, probe_points(edges)
                        )
        assert checked_edges > 1000

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.tuples(
            st.integers(min_value=1, max_value=6),  # front-ends
            st.integers(min_value=0, max_value=3),  # zones
            st.integers(min_value=0, max_value=2**16),  # plan seed
            st.floats(min_value=0.1, max_value=4.0),  # crash rate
        ),
        fractions=st.lists(
            st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=40
        ),
        offsets=st.lists(
            st.floats(min_value=-500.0, max_value=500.0), max_size=20
        ),
    )
    def test_random_plans_and_instants(self, shape, fractions, offsets):
        n_frontends, n_zones, seed, rate = shape
        plan = crash_plan(n_frontends, n_zones, seed, rate)
        horizon = plan.config.horizon
        for fid in range(n_frontends):
            edges = crash_edges(plan, fid)
            points = probe_points(edges) + [f * horizon for f in fractions]
            for k, offset in enumerate(offsets):
                if edges:
                    points.append(edges[k % len(edges)] + offset)
            assert_crash_state_matches(plan, fid, points)

    def test_fault_free_plan_is_never_down(self):
        plan = FaultPlan(FaultConfig(), n_frontends=3)
        assert not any(
            plan.frontend_down(fid, t)
            for fid in range(3)
            for t in (-1.0, 0.0, 1e9)
        )


# ----------------------------------------------------------------------
# In-flight heap
# ----------------------------------------------------------------------


class ListInFlight:
    """The list filter the in-flight heap replaced."""

    def __init__(self) -> None:
        self.finish_times: list[float] = []

    def track(self, finish: float) -> None:
        self.finish_times.append(finish)

    def in_flight(self, now: float) -> int:
        self.finish_times = [t for t in self.finish_times if t > now]
        return len(self.finish_times)


time_values = st.floats(min_value=0.0, max_value=100.0) | st.sampled_from(
    [0.0, 1.0, 2.5, 10.0]
)


class TestInFlightHeap:
    @settings(max_examples=200, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(st.booleans(), time_values, time_values), max_size=120
        )
    )
    def test_matches_list_filter(self, ops):
        """Queries may go back in time (open-loop clients keep their own
        clocks), and finish times may repeat; the counts must agree."""
        server = FrontendServer(server_id=0, capacity=8)
        reference = ListInFlight()
        for is_query, now, elapsed in ops:
            if is_query:
                assert server.in_flight(now) == reference.in_flight(now)
            else:
                server._track(now, elapsed)
                reference.track(now + elapsed)
        assert server.in_flight(50.0) == reference.in_flight(50.0)

    def test_long_random_sequence(self):
        rng = np.random.default_rng(20161114)
        server = FrontendServer(server_id=0, capacity=8)
        reference = ListInFlight()
        clock = 0.0
        for _ in range(5000):
            clock += float(rng.uniform(-0.5, 1.0))
            if rng.random() < 0.6:
                elapsed = float(rng.exponential(2.0))
                server._track(clock, elapsed)
                reference.track(clock + elapsed)
            else:
                assert server.in_flight(clock) == reference.in_flight(clock)


# ----------------------------------------------------------------------
# P² on demand
# ----------------------------------------------------------------------


def eager_bank(samples) -> dict[str, float]:
    """P² estimators fed on every add, the pre-lazy behaviour."""
    bank = [P2Quantile(q) for q in TRACKED_QUANTILES]
    for x in samples:
        for estimator in bank:
            estimator.add(x)
    return {label: e.value for label, e in zip(QUANTILE_LABELS, bank)}


def same_bits(a: dict[str, float], b: dict[str, float]) -> bool:
    return a.keys() == b.keys() and all(
        float(a[k]).hex() == float(b[k]).hex() for k in a
    )


latencies = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
) | st.integers(min_value=0, max_value=10)


class TestLazyP2:
    @settings(max_examples=200, deadline=None)
    @given(
        ops=st.lists(st.one_of(latencies, st.none()), max_size=150)
    )
    def test_reads_interleaved_with_adds(self, ops):
        """``None`` marks a read; every read must equal an eager bank fed
        the same prefix, and the streaming-mode series too."""
        lazy = LatencySeries("store", keep_samples=True)
        eager = LatencySeries("store", keep_samples=False)
        seen = []
        for op in ops:
            if op is None:
                expected = eager_bank(seen)
                assert same_bits(lazy.percentiles_streaming(), expected)
                assert same_bits(eager.percentiles_streaming(), expected)
            else:
                lazy.add(op)
                eager.add(op)
                seen.append(op)
        assert same_bits(lazy.percentiles_streaming(), eager_bank(seen))
        assert same_bits(
            lazy.percentiles_streaming(), eager.percentiles_streaming()
        )

    def test_many_samples_single_late_read(self):
        rng = np.random.default_rng(7)
        samples = rng.lognormal(0.0, 1.5, size=20000).tolist()
        lazy = LatencySeries("retrieve")
        for x in samples:
            lazy.add(x)
        assert same_bits(lazy.percentiles_streaming(), eager_bank(samples))
        # A repeated read folds in nothing new and returns the same bits.
        assert same_bits(lazy.percentiles_streaming(), eager_bank(samples))


# ----------------------------------------------------------------------
# Failover step table and backoff delay table
# ----------------------------------------------------------------------


class ZoneLayout:
    """A stand-in plan answering ``zone_of`` from a list, like FaultPlan."""

    def __init__(self, zones):
        self.zones = zones

    def zone_of(self, frontend_id):
        return self.zones[frontend_id] if self.zones else None


def scan_shift(zones, n, preferred_id, shift):
    client = types.SimpleNamespace(
        frontends=[None] * n, fault_plan=ZoneLayout(zones)
    )
    return scan_failover_shift(client, preferred_id, shift)


class TestFailoverSteps:
    @given(
        zones=st.lists(st.integers(0, 3), min_size=1, max_size=12),
        data=st.data(),
    )
    @settings(max_examples=300)
    def test_table_equals_per_call_scan(self, zones, data):
        n = data.draw(st.integers(1, len(zones)), label="fleet size")
        steps = zone_failover_steps(zones[:n])
        for _ in range(5):
            preferred = data.draw(st.integers(0, n - 1), label="preferred id")
            shift = data.draw(st.integers(0, 3 * n), label="shift")
            failed = (preferred + shift) % n
            assert shift + steps[failed] == scan_shift(zones, n, preferred, shift)

    @given(
        n_zones=st.integers(0, 4),
        plan_size=st.integers(1, 9),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_client_shift_equals_scan_on_real_plans(
        self, n_zones, plan_size, seed, data
    ):
        """One plan, several fleet sizes, as the autoscaler runs it."""
        config = FaultConfig(
            zones=ZoneConfig(
                n_zones=n_zones,
                zone_crash_rate=0.5 if n_zones else 0.0,
                overload_factor=0.2,
            )
        )
        plan = FaultPlan(config, n_frontends=plan_size, seed=seed)
        for n in sorted({data.draw(st.integers(1, plan_size)) for _ in range(3)}):
            cluster = ServiceCluster(n_frontends=n, shared_fault_plan=plan)
            client = cluster.new_client(1, "d", DeviceType.IOS)
            for preferred in range(n):
                for shift in range(2 * n + 1):
                    assert client._failover_shift(
                        preferred, shift
                    ) == scan_failover_shift(client, preferred, shift)
            assert plan.failover_steps(n) is plan.failover_steps(n)
        if n_zones == 0:
            assert plan.failover_steps(plan_size) is None

    def test_zone_free_and_plan_free_paths_rotate_by_one(self):
        cluster = ServiceCluster(n_frontends=3)
        client = cluster.new_client(1, "d", DeviceType.IOS)
        assert client.fault_plan is None or client.fault_plan.failover_steps(3) is None
        assert [client._failover_shift(0, s) for s in range(4)] == [1, 2, 3, 4]


policies = st.builds(
    RetryPolicy,
    max_attempts=st.integers(1, 12),
    base_delay=st.floats(0.0, 2.0),
    max_delay=st.floats(2.0, 60.0),
    multiplier=st.floats(1.0, 4.0),
    jitter=st.floats(0.0, 0.9),
)


class TestDelayTable:
    @given(policy=policies)
    @settings(max_examples=200)
    def test_table_equals_nominal_delay_at_every_index(self, policy):
        assert len(policy._delays) == policy.max_attempts
        for index, delay in enumerate(policy._delays, start=1):
            assert delay == policy.nominal_delay(index)

    @given(policy=policies, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100)
    def test_backoff_delay_equals_computed_delay(self, policy, seed):
        ours, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        for index in range(1, policy.max_attempts + 4):
            got = policy.backoff_delay(index, ours)
            expected = computed_backoff_delay(policy, index, reference)
            assert got.hex() == expected.hex()
        assert ours.bit_generator.state == reference.bit_generator.state

    def test_huge_attempt_budget_overflows_where_it_always_did(self):
        policy = RetryPolicy(max_attempts=2000, multiplier=2.0)
        assert len(policy._delays) == 1024
        rng = np.random.default_rng(0)
        assert policy.backoff_delay(1024, rng) <= policy.max_backoff
        with pytest.raises(OverflowError):
            computed_backoff_delay(policy, 1026, rng)
        with pytest.raises(OverflowError):
            policy.backoff_delay(1026, rng)

    def test_table_stays_out_of_eq_hash_and_repr(self):
        policy = RetryPolicy(max_attempts=3)
        assert "_delays" not in repr(policy)
        assert policy == RetryPolicy(max_attempts=3)
        assert len({policy, RetryPolicy(max_attempts=3)}) == 1
        with pytest.raises(ValueError, match="1-based"):
            policy.backoff_delay(0, np.random.default_rng(0))


# ----------------------------------------------------------------------
# Arrival scheduling
# ----------------------------------------------------------------------


def rebuilt_schedule(trace, *, speedup=1.0, rate=None):
    """``schedule_arrivals`` rebuilding every op through the dataclass."""
    scale = 1.0 / resolve_speedup(trace, speedup, rate)
    return tuple(
        ReplayOp(
            arrival=op.arrival * scale,
            user_id=op.user_id,
            device_id=op.device_id,
            device_type=op.device_type,
            direction=op.direction,
            name=op.name,
            content_seed=op.content_seed,
            size=op.size,
        )
        for op in sorted(trace, key=lambda op: op.arrival)
    )


class TestScheduleArrivals:
    @given(
        n_users=st.integers(1, 6),
        seed=st.integers(0, 2**16),
        speedup=st.floats(1e-3, 1e3),
        rate=st.one_of(st.none(), st.floats(1e-3, 10.0)),
    )
    @settings(max_examples=60, deadline=None)
    def test_copies_equal_rebuilt_ops(self, n_users, seed, speedup, rate):
        trace = synthetic_replay_trace(n_users, seed)
        got = schedule_arrivals(trace, speedup=speedup, rate=rate)
        expected = rebuilt_schedule(trace, speedup=speedup, rate=rate)
        assert got == expected
        assert [op.arrival.hex() for op in got] == [
            op.arrival.hex() for op in expected
        ]
        assert all(type(op) is ReplayOp for op in got)
        assert all(a is not b for a, b in zip(got, trace))

    def test_ties_keep_trace_order(self):
        ops = [
            ReplayOp(1.0, user, f"m{user}", DeviceType.IOS, Direction.RETRIEVE, "f")
            for user in (3, 1, 2)
        ]
        assert [op.user_id for op in schedule_arrivals(tuple(ops))] == [3, 1, 2]

    def test_copies_are_frozen(self):
        op = schedule_arrivals(synthetic_replay_trace(1, 0), speedup=2.0)[0]
        with pytest.raises(AttributeError):
            op.arrival = 0.0

    @pytest.mark.parametrize("kwargs", [{"speedup": 2.0}, {"rate": 0.05}, {"rate": 4.0}])
    def test_offered_rate_is_natural_rate_of_the_schedule(self, kwargs):
        trace = synthetic_replay_trace(8, 1)
        result = replay_trace(trace, ServiceCluster(n_frontends=2), seed=3, **kwargs)
        assert result.offered_rate == natural_rate(schedule_arrivals(trace, **kwargs))
