"""Telemetry battery: P² estimator equivalence, snapshots, SLOs.

The streaming estimator's contract is *rank* accuracy: the value it
reports for quantile ``q`` must sit at empirical rank ``q ± 2.5pp`` of
the observed samples (value error can be arbitrarily large on bimodal
data, where a hair of rank error jumps between modes — which is exactly
why the bound is stated in rank space; see docs/TELEMETRY.md).  Small
series (n <= 5) must match ``numpy.percentile`` exactly.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logs.schema import ResultCode
from repro.service.telemetry import (
    QUANTILE_LABELS,
    TRACKED_QUANTILES,
    LatencySeries,
    P2Quantile,
    SloPolicy,
    SloThreshold,
    TelemetryCollector,
)

#: Documented rank-error bound for the P² estimates (docs/TELEMETRY.md).
RANK_BOUND = 0.025


def rank_error(samples: np.ndarray, q: float, value: float) -> float:
    """Distance from ``q`` to the empirical-rank interval of ``value``.

    With ties/discrete masses the value occupies a rank *interval*
    ``[#(x < v)/n, #(x <= v)/n]``; the error is zero when ``q`` falls
    inside it (the estimate is as good as any exact quantile).
    """
    n = len(samples)
    low = float(np.count_nonzero(samples < value)) / n
    high = float(np.count_nonzero(samples <= value)) / n
    if low <= q <= high:
        return 0.0
    return min(abs(q - low), abs(q - high))


def p2_estimates(samples) -> dict[float, float]:
    estimators = {q: P2Quantile(q) for q in TRACKED_QUANTILES}
    for x in samples:
        for estimator in estimators.values():
            estimator.add(x)
    return {q: estimator.value for q, estimator in estimators.items()}


class TestP2Quantile:
    def test_rejects_degenerate_quantiles(self):
        for q in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                P2Quantile(q)

    def test_empty_is_nan(self):
        assert math.isnan(P2Quantile(0.5).value)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_tiny_series_exact(self, n):
        """n <= k: the estimate is numpy.percentile, not an approximation."""
        rng = np.random.default_rng(7)
        samples = rng.exponential(3.0, size=n)
        for q, value in p2_estimates(samples).items():
            exact = float(np.percentile(samples, q * 100.0))
            assert value == pytest.approx(exact, abs=1e-12), (n, q)

    def test_constant_series_exact(self):
        samples = np.full(2000, 4.25)
        for q, value in p2_estimates(samples).items():
            assert value == 4.25, q

    @pytest.mark.parametrize(
        "shape,sampler",
        [
            ("uniform", lambda rng: rng.uniform(0.0, 10.0, 5000)),
            ("heavy-tail", lambda rng: rng.lognormal(0.0, 2.0, 5000)),
            (
                "bimodal",
                lambda rng: rng.permutation(
                    np.concatenate(
                        [
                            rng.normal(10.0, 1.0, 2500),
                            rng.normal(1000.0, 1.0, 2500),
                        ]
                    )
                ),
            ),
        ],
    )
    def test_adversarial_shapes_within_rank_bound(self, shape, sampler):
        rng = np.random.default_rng(20160814)
        samples = sampler(rng)
        for q, value in p2_estimates(samples).items():
            error = rank_error(samples, q, value)
            assert error <= RANK_BOUND, (shape, q, value, error)

    def test_sorted_and_reversed_input_within_rank_bound(self):
        """Monotone input order is the classic P² stress case."""
        samples = np.arange(1.0, 2001.0)
        for ordered in (samples, samples[::-1]):
            for q, value in p2_estimates(ordered).items():
                assert rank_error(samples, q, value) <= RANK_BOUND, q

    @given(
        values=st.lists(
            st.floats(0.0, 1e6, allow_nan=False), min_size=1, max_size=200
        ),
        q_index=st.integers(0, len(TRACKED_QUANTILES) - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_estimate_bounded_by_observed_range(self, values, q_index):
        estimator = P2Quantile(TRACKED_QUANTILES[q_index])
        for x in values:
            estimator.add(x)
        assert min(values) <= estimator.value <= max(values)

    def test_deterministic_for_same_sequence(self):
        rng = np.random.default_rng(3)
        samples = rng.exponential(1.0, 500)
        assert p2_estimates(samples) == p2_estimates(samples)


class TestLatencySeries:
    def test_rejects_negative_latency(self):
        with pytest.raises(ValueError):
            LatencySeries("store").add(-0.1)

    def test_exact_percentiles_match_numpy(self):
        rng = np.random.default_rng(11)
        samples = rng.lognormal(0.0, 1.0, 400)
        series = LatencySeries("store")
        for x in samples:
            series.add(float(x))
        exact = series.percentiles_exact()
        for label, q in zip(QUANTILE_LABELS, TRACKED_QUANTILES):
            assert exact[label] == pytest.approx(
                float(np.percentile(samples, q * 100.0))
            )

    def test_streaming_mode_has_no_samples_but_valid_percentiles(self):
        series = LatencySeries("store", keep_samples=False)
        rng = np.random.default_rng(12)
        samples = rng.uniform(0.0, 5.0, 1000)
        for x in samples:
            series.add(float(x))
        assert all(math.isnan(v) for v in series.percentiles_exact().values())
        streaming = series.percentiles()
        for label, q in zip(QUANTILE_LABELS, TRACKED_QUANTILES):
            assert rank_error(samples, q, streaming[label]) <= RANK_BOUND

    def test_empty_series_stats_are_nan(self):
        series = LatencySeries("store")
        assert math.isnan(series.mean)
        assert math.isnan(series.max)


class TestSloPolicy:
    def test_parse_full_spec(self):
        policy = SloPolicy.parse("p99=5.0, p50=1, shed=0.01, fail=0.05")
        assert policy.latency == (
            SloThreshold("p99", 5.0),
            SloThreshold("p50", 1.0),
        )
        assert policy.max_shed_rate == 0.01
        assert policy.max_failure_rate == 0.05

    @pytest.mark.parametrize(
        "spec", ["p42=1.0", "p99=fast", "shed=-0.1", "latency=1"]
    )
    def test_parse_rejects_bad_specs(self, spec):
        with pytest.raises(ValueError):
            SloPolicy.parse(spec)

    def test_evaluation_flags_violations(self):
        collector = TelemetryCollector()
        collector.record_operation("store", 2.0)
        snap = collector.snapshot(SloPolicy.parse("p99=1.0"))
        assert not snap.slo_ok
        snap = collector.snapshot(SloPolicy.parse("p99=3.0"))
        assert snap.slo_ok


class TestTelemetryCollector:
    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            TelemetryCollector(window_seconds=0.0)

    def test_empty_collector_snapshot_renders(self):
        """Regression: no observations must never divide by zero."""
        snap = TelemetryCollector().snapshot(
            SloPolicy.parse("p99=1.0,shed=0.1,fail=0.1")
        )
        assert snap.requests["total"] == 0
        assert snap.render()
        assert json.loads(snap.to_json())["requests"]["total"] == 0

    def test_all_shed_window_renders_without_zerodivision(self):
        """A window where every attempt was shed has ok == 0; throughput
        and rates must come out 0/1.0, not raise."""
        from repro.logs.schema import (
            Direction,
            DeviceType,
            LogRecord,
            RequestKind,
        )

        collector = TelemetryCollector(window_seconds=60.0)
        collector.observe_log(
            LogRecord(
                timestamp=10.0 + i,
                device_type=DeviceType.ANDROID,
                device_id="m1",
                user_id=1,
                kind=RequestKind.CHUNK,
                direction=Direction.STORE,
                result=ResultCode.SHED,
            )
            for i in range(5)
        )
        snap = collector.snapshot()
        window = snap.windows[0]
        assert window["shed_rate"] == 1.0
        assert window["failure_rate"] == 1.0
        assert window["throughput_rps"] == 0.0
        assert collector.shed_rate == 1.0
        assert snap.render()

    def test_snapshot_json_round_trips_and_is_deterministic(self):
        collector = TelemetryCollector()
        rng = np.random.default_rng(5)
        for x in rng.exponential(2.0, 50):
            collector.record_operation("store", float(x))
        first = collector.snapshot().to_json()
        second = collector.snapshot().to_json()
        assert first == second
        payload = json.loads(first)  # NaN would fail strict JSON parsers
        assert payload["schema_version"] == 2
        assert payload["operations"][0]["label"] == "store"

    def test_streaming_snapshot_labels_estimator(self):
        exact = TelemetryCollector()
        streaming = TelemetryCollector(keep_samples=False)
        for collector in (exact, streaming):
            collector.record_operation("store", 1.0)
        assert exact.snapshot().estimator == "exact"
        assert streaming.snapshot().estimator == "p2"

    def test_reconcile_empty_ledgers_match(self):
        from repro.faults import FaultStats

        report = TelemetryCollector().reconcile(FaultStats())
        assert report["matched"]
        assert report["attribution_ok"]
