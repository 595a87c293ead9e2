"""Tests for the elastic provisioning simulator."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.service.autoscaler import (
    AutoscalerPolicy,
    _servers_for,
    compare_strategies,
    provision,
)
from tests.helpers import reference_predictive, reference_reactive

POLICY = AutoscalerPolicy(capacity_per_server=100.0, headroom=1.5,
                          scale_down_cooldown=1)

FLAT = np.full(24, 250.0)
DIURNAL = np.array([50.0] * 8 + [200.0] * 8 + [800.0] * 8)


class TestPolicyValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            AutoscalerPolicy(capacity_per_server=0.0)
        with pytest.raises(ValueError):
            AutoscalerPolicy(capacity_per_server=1.0, headroom=0.9)
        with pytest.raises(ValueError):
            AutoscalerPolicy(capacity_per_server=1.0, scale_down_cooldown=-1)
        with pytest.raises(ValueError):
            AutoscalerPolicy(capacity_per_server=1.0, min_servers=0)


class TestStatic:
    def test_peak_sized_fleet(self):
        outcome = provision("static", DIURNAL, POLICY)
        assert outcome.server_hours == 8 * 24  # ceil(800/100) * 24 hours
        assert outcome.underprovisioned_hours == 0

    def test_empty_profile_rejected(self):
        with pytest.raises(ValueError):
            provision("static", np.array([]), POLICY)


class TestOracle:
    def test_exact_fit_every_hour(self):
        outcome = provision("oracle", DIURNAL, POLICY)
        expected = 8 * (1 + 2 + 8)
        assert outcome.server_hours == expected
        assert outcome.underprovisioned_hours == 0

    def test_oracle_never_costlier_than_static(self):
        static = provision("static", DIURNAL, POLICY)
        oracle = provision("oracle", DIURNAL, POLICY)
        assert oracle.server_hours <= static.server_hours


class TestReactive:
    def test_flat_profile_no_violations(self):
        outcome = provision("reactive", FLAT, POLICY)
        assert outcome.underprovisioned_hours == 0
        assert outcome.violation_rate == 0.0

    def test_lags_a_step_increase(self):
        profile = np.array([100.0] * 4 + [1000.0] * 4)
        outcome = provision("reactive", profile, POLICY)
        # The hour of the jump is under-provisioned (reactive lag).
        assert outcome.underprovisioned_hours >= 1

    def test_cooldown_delays_scale_down(self):
        profile = np.array([1000.0, 100.0, 100.0, 100.0, 100.0])
        eager = provision(
            "reactive",
            profile,
            AutoscalerPolicy(capacity_per_server=100.0, headroom=1.0,
                             scale_down_cooldown=0),
        )
        patient = provision(
            "reactive",
            profile,
            AutoscalerPolicy(capacity_per_server=100.0, headroom=1.0,
                             scale_down_cooldown=3),
        )
        assert patient.server_hours > eager.server_hours

    def test_costs_between_oracle_and_static_on_diurnal(self):
        outcomes = compare_strategies(DIURNAL, POLICY)
        assert (
            outcomes["oracle"].server_hours
            <= outcomes["reactive"].server_hours
            <= outcomes["static"].server_hours
        )

    def test_savings_over(self):
        outcomes = compare_strategies(DIURNAL, POLICY)
        saving = outcomes["reactive"].savings_over(outcomes["static"])
        assert 0.0 < saving < 1.0

    def test_min_servers_floor(self):
        policy = AutoscalerPolicy(capacity_per_server=100.0, min_servers=5)
        outcome = provision("reactive", np.full(10, 1.0), policy)
        assert outcome.server_hours == 50


class TestReactiveBootstrap:
    """Hour 0 must be sized like every later hour: from the first
    *observation* with headroom, not an oracle peek at the raw load."""

    def test_hour_zero_gets_headroom(self):
        policy = AutoscalerPolicy(capacity_per_server=100.0, headroom=1.3)
        outcome = provision("reactive", np.array([1000.0]), policy)
        # ceil(1000 * 1.3 / 100) = 13 servers, not the peeked ceil(10).
        assert outcome.server_hours == 13
        assert outcome.underprovisioned_hours == 0

    def test_flat_profile_hour_zero_matches_steady_state(self):
        policy = AutoscalerPolicy(capacity_per_server=100.0, headroom=1.3)
        outcome = provision("reactive", np.full(5, 1000.0), policy)
        # Steady state is 13 servers/hour; hour 0 must agree exactly.
        assert outcome.server_hours == 13 * 5


class TestEpsilonCeiling:
    """Satellite regression: float division landing a hair above an
    integer must not buy a phantom server (math.ceil(2.1/0.7) == 4)."""

    def test_raw_float_ceiling_is_the_trap(self):
        import math
        # The bug being guarded against: 2.1/0.7 = 3.0000000000000004.
        assert math.ceil(2.1 / 0.7) == 4

    def test_int_ceil_absorbs_the_representation_error(self):
        from repro.service.autoscaler import _int_ceil
        assert _int_ceil(2.1 / 0.7) == 3
        assert _int_ceil(3.0) == 3
        assert _int_ceil(3.2) == 4
        assert _int_ceil(0.0) == 0

    @pytest.mark.parametrize("strategy", ["static", "reactive", "oracle"])
    def test_2_1_over_0_7_across_all_three_strategies(self, strategy):
        policy = AutoscalerPolicy(capacity_per_server=0.7, headroom=1.0,
                                  scale_down_cooldown=0)
        outcome = provision(strategy, np.full(4, 2.1), policy)
        # Exactly 3 servers per hour, never the off-by-one 4.
        assert outcome.server_hours == 3 * 4
        assert outcome.underprovisioned_hours == 0
        assert set(outcome.trajectory) == {3}


class TestCooldownPlateauSemantics:
    """Satellite regression: plateau hours (target == fleet) count toward
    the scale-down streak but never themselves shrink the fleet."""

    def test_plateau_counts_toward_the_streak(self):
        # Decline to a plateau at the current fleet, then strictly below.
        # cooldown=2: the two plateau hours must satisfy the streak, so
        # the first strictly-below hour fires the scale-down.
        policy = AutoscalerPolicy(capacity_per_server=100.0, headroom=1.0,
                                  scale_down_cooldown=2)
        profile = np.array([300.0, 300.0, 300.0, 100.0, 100.0])
        outcome = provision("reactive", profile, policy)
        # Hours 1-2 target 3 == fleet (streak 1, 2), hour 3 target 3
        # (follows load[2]=300; streak 3), hour 4 target 1 < fleet with
        # streak > cooldown -> scale down fires at hour 4.
        assert outcome.trajectory == (3, 3, 3, 3, 1)

    def test_plateau_reset_would_postpone_scale_down(self):
        # The old buggy semantics (reset on plateau) would keep the fleet
        # at 3 forever on this profile; the fixed streak fires exactly
        # one cooldown after the decline becomes visible.
        policy = AutoscalerPolicy(capacity_per_server=100.0, headroom=1.0,
                                  scale_down_cooldown=1)
        profile = np.array([300.0, 250.0, 280.0, 250.0, 280.0, 100.0, 100.0])
        outcome = provision("reactive", profile, policy)
        # Targets from hour 1: 3, 3, 3, 3, 3, 1 -- all plateaus until the
        # last; streak grows through the plateaus, so the strictly-below
        # hour 6 scales down immediately.
        assert outcome.trajectory[-1] == 1

    def test_plateau_never_shrinks_the_fleet(self):
        policy = AutoscalerPolicy(capacity_per_server=100.0, headroom=1.0,
                                  scale_down_cooldown=0)
        outcome = provision("reactive", np.full(6, 300.0), policy)
        assert set(outcome.trajectory) == {3}


class TestPredictiveClosedForm:
    def test_degenerates_to_reactive_before_one_cycle(self):
        policy = AutoscalerPolicy(capacity_per_server=100.0, headroom=1.0,
                                  scale_down_cooldown=0, period=24)
        profile = np.array([100.0, 400.0, 200.0])
        predictive = provision("predictive", profile, policy)
        reactive = provision("reactive", profile, policy)
        # With < one period of history the forecast is the last
        # observation -- identical to the reactive follower (and no
        # cooldown on either side here).
        assert predictive.trajectory == reactive.trajectory

    def test_anticipates_the_second_day_ramp(self):
        policy = AutoscalerPolicy(capacity_per_server=100.0, headroom=1.0,
                                  scale_down_cooldown=0, period=4)
        day = [100.0, 800.0, 800.0, 100.0]
        profile = np.array(day * 3)
        predictive = provision("predictive", profile, policy)
        reactive = provision("reactive", profile, policy)
        # Reactive under-provisions every ramp hour; predictive only the
        # first day's (after that the seasonal forecast sees it coming).
        assert predictive.underprovisioned_hours < reactive.underprovisioned_hours

    def test_guardrail_falls_back_on_noisy_history(self):
        policy = AutoscalerPolicy(capacity_per_server=100.0, headroom=1.0,
                                  scale_down_cooldown=0, period=2,
                                  forecast_guardrail=0.05)
        # Anti-periodic profile: the period-2 forecast is maximally wrong,
        # so the guardrail must clamp the basis to >= last observation.
        profile = np.array([100.0, 900.0] * 4)
        outcome = provision("predictive", profile, policy)
        reactive = provision("reactive", profile, policy)
        assert outcome.server_hours >= reactive.server_hours

    def test_compare_strategies_has_all_four(self):
        outcomes = compare_strategies(DIURNAL, POLICY)
        assert set(outcomes) == {"static", "reactive", "predictive", "oracle"}
        assert outcomes["predictive"].strategy == "predictive"


class TestProvisioningProperties:
    """Hypothesis invariants over arbitrary profiles and policies."""

    profiles = st.lists(
        st.floats(0.0, 10_000.0, allow_nan=False, allow_infinity=False),
        min_size=1, max_size=48,
    )
    policies = st.builds(
        AutoscalerPolicy,
        capacity_per_server=st.floats(0.5, 500.0),
        headroom=st.floats(1.0, 3.0),
        scale_down_cooldown=st.integers(0, 4),
        min_servers=st.integers(1, 4),
    )

    @given(profile=profiles, policy=policies)
    @settings(max_examples=60, deadline=None)
    def test_static_never_underprovisions(self, profile, policy):
        outcome = provision("static", np.array(profile), policy)
        assert outcome.underprovisioned_hours == 0

    @given(profile=profiles, policy=policies)
    @settings(max_examples=60, deadline=None)
    def test_oracle_bounds_any_violation_free_reactive(self, profile, policy):
        reactive = provision("reactive", np.array(profile), policy)
        assume(reactive.underprovisioned_hours == 0)
        oracle = provision("oracle", np.array(profile), policy)
        assert oracle.server_hours <= reactive.server_hours

    @given(profile=profiles, policy=policies)
    @settings(max_examples=60, deadline=None)
    def test_trajectory_respects_floor_and_cooldown(self, profile, policy):
        outcome = provision("reactive", np.array(profile), policy)
        trajectory = outcome.trajectory
        assert len(trajectory) == len(profile)
        assert all(fleet >= policy.min_servers for fleet in trajectory)
        # Scale-downs can fire at most once per cooldown+1 hours: the
        # below-streak resets on every fire (and on every scale-up).
        decreases = [
            i for i in range(1, len(trajectory))
            if trajectory[i] < trajectory[i - 1]
        ]
        for first, second in zip(decreases, decreases[1:]):
            assert second - first > policy.scale_down_cooldown

    @given(profile=profiles, policy=policies)
    @settings(max_examples=30, deadline=None)
    def test_closed_form_strategies_are_pure(self, profile, policy):
        once = compare_strategies(np.array(profile), policy)
        again = compare_strategies(np.array(profile), policy)
        for name in once:
            assert once[name].trajectory == again[name].trajectory
            assert once[name].server_hours == again[name].server_hours


class TestOneImplementation:
    """``provision`` runs the live controllers over fault-free signals;
    the closed-form loops it replaced are the oracles."""

    profiles = TestProvisioningProperties.profiles
    # Small fleet ceilings: most profiles need far more servers, which
    # the closed form must provision anyway.
    policies = st.builds(
        AutoscalerPolicy,
        capacity_per_server=st.floats(0.5, 500.0),
        headroom=st.floats(1.0, 3.0),
        scale_down_cooldown=st.integers(0, 4),
        min_servers=st.integers(1, 4),
        max_servers=st.integers(4, 16),
        period=st.integers(1, 12),
        forecast_guardrail=st.floats(0.0, 2.0),
    )

    @given(profile=profiles, policy=policies)
    @settings(max_examples=200, deadline=None)
    def test_matches_the_closed_form_loops(self, profile, policy):
        capacity, floor = policy.capacity_per_server, policy.min_servers
        peak = _servers_for(max(profile), capacity, floor)
        expected = {
            "static": ((peak,) * len(profile), 0),
            "oracle": (
                tuple(_servers_for(load, capacity, floor) for load in profile),
                0,
            ),
            "reactive": reference_reactive(profile, policy),
            "predictive": reference_predictive(profile, policy),
        }
        for name, (trajectory, underprovisioned) in expected.items():
            outcome = provision(name, np.array(profile), policy)
            assert outcome.strategy == name
            assert outcome.trajectory == trajectory, name
            assert outcome.underprovisioned_hours == underprovisioned, name
            assert outcome.server_hours == sum(trajectory), name
            assert outcome.n_hours == len(profile)

    @given(profile=profiles, replacement=profiles, policy=policies)
    @example(
        profile=[100.0, 300.0, 100.0, 100.0],
        replacement=[300.0],
        policy=AutoscalerPolicy(capacity_per_server=100.0, headroom=1.0,
                                period=2, forecast_guardrail=0.5),
    )
    @settings(max_examples=100, deadline=None)
    def test_sizing_never_reads_a_future_load(
        self, profile, replacement, policy
    ):
        # Hour h is sized before its load is known: replacing loads[h:]
        # (h >= 1; hour 0 bootstraps from the advertised first load)
        # leaves the fleets of hours 0..h unchanged.
        future = (replacement * len(profile))[: len(profile)]
        for name in ("reactive", "fault-aware", "predictive"):
            trajectory = provision(name, np.array(profile), policy).trajectory
            for cut in range(1, len(profile)):
                changed = profile[:cut] + future[cut:]
                after = provision(name, np.array(changed), policy).trajectory
                assert after[: cut + 1] == trajectory[: cut + 1], (name, cut)

    def test_guardrail_scores_only_realized_forecasts(self):
        policy = AutoscalerPolicy(capacity_per_server=100.0, headroom=1.0,
                                  period=2, forecast_guardrail=0.5)
        outcome = provision(
            "predictive", np.array([100.0, 300.0, 100.0, 100.0]), policy
        )
        # Hour 1's forecast (100) missed loads[1] = 300 by 2/3, so hour 2
        # distrusts its forecast (loads[0] = 100) and follows the last
        # observation: 3 servers.  Scoring hour 2's own forecast against
        # loads[2] = 100 before sizing it -- a load no controller knows in
        # advance -- would have halved the error and kept 1 server.
        assert outcome.trajectory == (1, 1, 3, 3)
