"""Tests for the chaos-coupled autoscaling loop.

The closed-form strategies are covered by ``test_service_autoscaler``;
this file exercises the live path: fleet controllers fed by window
telemetry, the shared fault plan threaded through resized clusters, and
the determinism/reconciliation contracts the R6 experiment rests on.
"""

import json

import pytest

from repro.experiments import r6_autoscaler as r6
from repro.faults import FaultConfig, FaultPlan, FaultStats, ZoneConfig
from repro.service.autoscaler import (
    AutoscalerPolicy,
    FaultAwareController,
    WindowSignals,
    diurnal_autoscale_workload,
    make_controller,
    provision,
    run_autoscaled_service,
)
from repro.service.cluster import ServiceCluster

POLICY = AutoscalerPolicy(
    capacity_per_server=4.0,
    headroom=1.15,
    scale_down_cooldown=2,
    min_servers=2,
    max_servers=16,
    down_alert=0.05,
)

CHAOS = FaultConfig(
    error_rate=0.01,
    crash_rate=0.5,
    crash_mean_downtime=60.0,
    horizon=8 * 60.0,
    zones=ZoneConfig(
        n_zones=2,
        zone_crash_rate=2.0,
        zone_mean_downtime=120.0,
        overload_factor=0.5,
        overload_recovery=60.0,
        pressure_per_failure=0.5,
        pressure_drain_rate=0.5,
        pressure_shed_scale=8.0,
    ),
)


def small_workload(n_windows=8, seed=1):
    return diurnal_autoscale_workload(
        n_windows, peak_ops=16, n_users=8, mean_size=1.5e6, seed=seed
    )


class TestWorkload:
    def test_deterministic(self):
        a = small_workload()
        b = small_workload()
        assert a.windows == b.windows
        assert a.loads == b.loads

    def test_extending_the_horizon_preserves_prefix(self):
        short = small_workload(n_windows=4)
        long = small_workload(n_windows=8)
        # One SeedSequence child per window: extending the horizon can
        # never reshuffle the windows that were already scheduled.
        assert long.windows[:4] == short.windows

    def test_arrivals_live_inside_their_window(self):
        wl = small_workload()
        for w, ops in enumerate(wl.windows):
            for op in ops:
                assert w * wl.window_seconds <= op.arrival
                assert op.arrival < (w + 1) * wl.window_seconds

    def test_diurnal_shape_peaks(self):
        wl = diurnal_autoscale_workload(24, peak_ops=50, seed=0)
        assert max(wl.loads) == 50.0
        assert min(wl.loads) < max(wl.loads)

    def test_validation(self):
        with pytest.raises(ValueError):
            diurnal_autoscale_workload(0)
        with pytest.raises(ValueError):
            diurnal_autoscale_workload(4, burst_fraction=0.0)
        with pytest.raises(ValueError):
            diurnal_autoscale_workload(4, mean_size=-1.0)


class TestControllers:
    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            make_controller("thermostat", POLICY, (1.0, 2.0))

    def test_static_holds_the_peak_fleet(self):
        loads = (4.0, 40.0, 8.0)
        controller = make_controller("static", POLICY, loads)
        fleets = [controller.decide(w) for w in range(3)]
        assert fleets == [fleets[0]] * 3
        assert fleets[0] >= 10  # ceil(40 / 4.0)

    def test_oracle_tracks_the_plan_exactly(self):
        loads = (4.0, 40.0, 8.0)
        controller = make_controller("oracle", POLICY, loads)
        assert [controller.decide(w) for w in range(3)] == [2, 10, 2]

    def test_fault_aware_holds_during_hot_windows(self):
        controller = FaultAwareController(POLICY, (40.0, 4.0, 4.0))
        fleet0 = controller.decide(0)
        controller.observe(
            WindowSignals(window=0, load=40.0, shed_rate=0.2,
                          failure_rate=0.1, down_fraction=0.3,
                          pressure_sheds=3, retries=9)
        )
        # Load collapsed, but the last window was on fire: never scale
        # into the trough.
        assert controller.decide(1) >= fleet0

    def test_fault_aware_drains_after_quiet_window(self):
        policy = AutoscalerPolicy(
            capacity_per_server=4.0, headroom=1.0, scale_down_cooldown=3,
            min_servers=1, max_servers=16, quiet_cooldown=0,
        )
        controller = FaultAwareController(policy, (40.0, 4.0, 4.0))
        controller.decide(0)
        controller.observe(
            WindowSignals(window=0, load=40.0, shed_rate=0.0,
                          failure_rate=0.0, down_fraction=0.0,
                          pressure_sheds=0, retries=0)
        )
        assert controller.decide(1) == 10  # still following load 40
        controller.observe(
            WindowSignals(window=1, load=4.0, shed_rate=0.0,
                          failure_rate=0.0, down_fraction=0.0,
                          pressure_sheds=0, retries=0)
        )
        # Quiet window: the quiet cooldown (0) applies, not the regular
        # scale-down cooldown (3) -- the drop to 1 server is immediate.
        assert controller.decide(2) == 1

    def test_quiet_signal_definition(self):
        quiet = WindowSignals(window=0, load=1.0, shed_rate=0.0,
                              failure_rate=0.0, down_fraction=0.01,
                              pressure_sheds=0, retries=2)
        hot = WindowSignals(window=0, load=1.0, shed_rate=0.0,
                            failure_rate=0.0, down_fraction=0.01,
                            pressure_sheds=1, retries=2)
        assert quiet.quiet(POLICY)
        assert not hot.quiet(POLICY)


class TestFaultStatsLedger:
    def test_copy_is_independent(self):
        stats = FaultStats()
        stats.retries = 3
        snap = stats.copy()
        stats.retries = 7
        assert snap.retries == 3

    def test_delta_is_fieldwise(self):
        before = FaultStats()
        before.retries = 2
        before.shed_requests = 1
        after = FaultStats()
        after.retries = 5
        after.shed_requests = 4
        after.timeouts = 1
        delta = after.delta(before)
        assert delta.retries == 3
        assert delta.shed_requests == 3
        assert delta.timeouts == 1


class TestSharedFaultPlan:
    def test_mutually_exclusive_with_faults(self):
        plan = FaultPlan(CHAOS, n_frontends=8, seed=0)
        with pytest.raises(ValueError, match="not both"):
            ServiceCluster(n_frontends=4, faults=CHAOS,
                           shared_fault_plan=plan)

    def test_plan_must_cover_the_fleet(self):
        plan = FaultPlan(CHAOS, n_frontends=2, seed=0)
        with pytest.raises(ValueError, match="covers 2 front-ends"):
            ServiceCluster(n_frontends=4, shared_fault_plan=plan)

    def test_metadata_shape_must_match(self):
        plan = FaultPlan(CHAOS, n_frontends=8, seed=0)
        with pytest.raises(ValueError, match="metadata-tier shape"):
            ServiceCluster(n_frontends=4, shared_fault_plan=plan,
                           metadata_shards=2, metadata_replicas=1)

    def test_resizing_never_changes_schedules(self):
        plan = FaultPlan(CHAOS, n_frontends=8, seed=0)
        windows = [tuple(plan.effective_crash_windows(f)) for f in range(8)]
        for n in (2, 5, 8):
            ServiceCluster(n_frontends=n, shared_fault_plan=plan,
                           frontend_capacity=4)
            assert [
                tuple(plan.effective_crash_windows(f)) for f in range(8)
            ] == windows

    def test_down_fraction_validation(self):
        plan = FaultPlan(CHAOS, n_frontends=4, seed=0)
        with pytest.raises(ValueError):
            plan.down_fraction(10.0, 10.0)
        with pytest.raises(ValueError):
            plan.down_fraction(0.0, 60.0, n_frontends=0)
        with pytest.raises(ValueError):
            plan.down_fraction(0.0, 60.0, n_frontends=5)
        assert 0.0 <= plan.down_fraction(0.0, 480.0) <= 1.0

    def test_fault_free_cluster_reports_zero_down(self):
        cluster = ServiceCluster(n_frontends=2)
        assert cluster.down_fraction(0.0, 60.0) == 0.0


class TestAutoscaledRun:
    def test_double_run_byte_identical(self):
        wl = small_workload()
        runs = [
            run_autoscaled_service(
                wl, POLICY, strategy="fault-aware", faults=CHAOS,
                fault_seed=3, frontend_capacity=3,
            )
            for _ in range(2)
        ]
        assert runs[0].log_digest == runs[1].log_digest
        assert runs[0].trajectory() == runs[1].trajectory()
        assert runs[0].trajectory_json() == runs[1].trajectory_json()

    @pytest.mark.parametrize("strategy", ["predictive", "reactive"])
    def test_new_policies_deterministic(self, strategy):
        wl = small_workload()
        a = run_autoscaled_service(wl, POLICY, strategy=strategy,
                                   faults=CHAOS, fault_seed=1)
        b = run_autoscaled_service(wl, POLICY, strategy=strategy,
                                   faults=CHAOS, fault_seed=1)
        assert a.trajectory() == b.trajectory()
        assert a.log_digest == b.log_digest

    def test_reconciles_every_window(self):
        wl = small_workload()
        run = run_autoscaled_service(wl, POLICY, strategy="fault-aware",
                                     faults=CHAOS, fault_seed=3,
                                     frontend_capacity=3)
        assert run.reconciled
        assert all(w.reconciled for w in run.windows)
        assert run.n_windows == wl.n_windows

    def test_fault_free_run_sheds_nothing(self):
        wl = small_workload(n_windows=4)
        run = run_autoscaled_service(wl, POLICY, strategy="reactive")
        assert run.violation_windows == 0
        assert run.aborted == 0
        assert run.stats.as_dict() == FaultStats().as_dict()

    def test_trajectory_respects_policy_bounds(self):
        wl = small_workload()
        run = run_autoscaled_service(wl, POLICY, strategy="fault-aware",
                                     faults=CHAOS, fault_seed=3)
        for fleet in run.trajectory():
            assert POLICY.min_servers <= fleet <= POLICY.max_servers

    def test_trajectory_json_round_trips(self):
        wl = small_workload(n_windows=4)
        run = run_autoscaled_service(wl, POLICY, strategy="oracle")
        doc = json.loads(run.trajectory_json())
        assert doc["strategy"] == "oracle"
        assert len(doc["windows"]) == 4
        assert doc["server_hours"] == run.server_hours
        assert doc["log_digest"] == run.log_digest

    def test_to_outcome_collapses_to_closed_form_shape(self):
        wl = small_workload(n_windows=4)
        run = run_autoscaled_service(wl, POLICY, strategy="static")
        outcome = run.to_outcome()
        assert outcome.strategy == "static"
        assert outcome.n_hours == 4
        assert outcome.trajectory == run.trajectory()

    def test_rejects_negative_slo(self):
        with pytest.raises(ValueError):
            run_autoscaled_service(small_workload(4), POLICY, slo_shed=-0.1)


@pytest.mark.parametrize(
    "strategy", ["static", "reactive", "fault-aware", "predictive", "oracle"]
)
def test_fault_free_loop_follows_the_closed_form(strategy):
    # R6's workload and policy: no fault plan, so every window's signals
    # are fault-free and the controller sees exactly what provision feeds.
    workload = r6.build_workload()
    run = run_autoscaled_service(
        workload,
        r6.R6_POLICY,
        strategy=strategy,
        frontend_capacity=r6.FRONTEND_CAPACITY,
        retry_policy=r6.R6_RETRY_POLICY,
    )
    closed = provision(strategy, list(workload.loads), r6.R6_POLICY)
    assert run.trajectory() == closed.trajectory
    assert run.underprovisioned_windows == closed.underprovisioned_hours
