"""Reference oracles for the live path's precomputed and lazy fast paths.

Each fast path on the replay hot loop replaces a direct computation with
an equivalent cheaper one.  The direct computations live on here as
reference implementations, and the tests assert the two agree exactly —
bit for bit, not within a tolerance:

* the sharded-tier overload signal, precomputed at plan construction as
  a step function, against the per-shard sum over
  :meth:`~repro.faults.FaultPlan.metadata_node_down`;
* the front-end in-flight heap against the list filter it replaced;
* P² estimates folded in on demand from retained samples against a bank
  fed on every add.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultConfig, FaultPlan, ZoneConfig
from repro.service.frontend import FrontendServer
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
