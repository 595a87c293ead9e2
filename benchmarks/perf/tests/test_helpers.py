"""The benchmark's own arithmetic: span self time, quantiles, RSS probe."""

import statistics

import pytest

from stats import (
    REFERENCE_NOMINAL_S,
    calibrate,
    describe,
    quartiles,
    rss_mb,
    tail_percentile,
)
from tracer import Instrumentation, Tracer, self_time


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# -- self time -----------------------------------------------------------


def test_self_time_without_children_is_the_duration():
    assert self_time(2.0, 5.0, []) == 3.0


def test_self_time_subtracts_disjoint_children():
    assert self_time(0.0, 10.0, [(1.0, 2.0), (4.0, 7.0)]) == pytest.approx(6.0)


def test_self_time_counts_nested_children_once():
    # A grandchild interval inside its parent's interval covers nothing new.
    assert self_time(0.0, 10.0, [(1.0, 6.0), (2.0, 3.0)]) == pytest.approx(5.0)


def test_self_time_merges_overlapping_children():
    assert self_time(0.0, 10.0, [(1.0, 4.0), (3.0, 6.0), (5.0, 7.0)]) == pytest.approx(4.0)


def test_self_time_clips_children_to_the_parent():
    assert self_time(2.0, 6.0, [(0.0, 3.0), (5.0, 9.0), (7.0, 8.0)]) == pytest.approx(2.0)


def test_self_time_of_fully_covered_span_is_zero():
    assert self_time(1.0, 2.0, [(0.0, 3.0)]) == 0.0


def test_tracer_charges_each_instant_to_one_span():
    clock = FakeClock()
    tracer = Tracer(clock=clock, keep_durations=("outer",))
    with tracer.span("outer"):
        clock.now = 1.0
        with tracer.span("inner"):
            clock.now = 3.0
            with tracer.span("leaf"):
                clock.now = 3.5
        clock.now = 4.0
        with tracer.span("inner"):
            clock.now = 6.0
        clock.now = 7.0
    assert tracer.self_s["outer"] == pytest.approx(2.5)
    assert tracer.self_s["inner"] == pytest.approx(4.0)
    assert tracer.self_s["leaf"] == pytest.approx(0.5)
    assert tracer.calls == {"outer": 1, "inner": 2, "leaf": 1}
    assert tracer.durations["outer"] == [7.0]
    assert sum(tracer.self_s.values()) == pytest.approx(7.0)


def test_wrapped_recursion_stays_in_one_span():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def walk(depth):
        clock.now += 1.0
        return walk(depth - 1) if depth else "done"

    walk = tracer.wrap(walk, "layer")
    assert walk(3) == "done"
    assert tracer.calls["layer"] == 1
    assert tracer.self_s["layer"] == pytest.approx(4.0)


class Service:
    def __init__(self) -> None:
        self.flag = True

    def work(self, x):
        return x * 2

    @property
    def enabled(self):
        return self.flag


def test_instrumentation_wraps_and_restores():
    original_work = Service.__dict__["work"]
    original_enabled = Service.__dict__["enabled"]
    tracer = Tracer()
    seen = []
    points = [
        (Service, "work", "svc.work", lambda t, result: seen.append(result)),
        (Service, "enabled", None, None),
    ]
    with Instrumentation(tracer, points):
        service = Service()
        assert service.work(4) == 8
        assert service.enabled and service.enabled
    assert tracer.calls["svc.work"] == 1
    assert tracer.counts["counter:enabled"] == 2
    assert seen == [8]
    assert Service.__dict__["work"] is original_work
    assert Service.__dict__["enabled"] is original_enabled


# -- quantiles -----------------------------------------------------------


def test_quartiles_match_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
    q1, median, q3 = quartiles(values)
    assert [q1, median, q3] == statistics.quantiles(values, n=4)
    assert median == statistics.median(values)


def test_single_sample_is_its_own_quartiles():
    assert quartiles([2.5]) == (2.5, 2.5, 2.5)
    with pytest.raises(ValueError):
        quartiles([])


@pytest.mark.parametrize(
    "n, expected",
    [(1, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0),
     (199, 90.0), (200, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_describe_reports_count_and_a_supported_tail():
    values = [float(v) for v in range(100)]
    out = describe(values)
    assert out["n"] == 100
    assert out["median"] == statistics.median(values)
    assert "p90" in out and "p95" not in out
    assert sum(v > out["p90"] for v in values) >= 10
    assert set(describe([1.0, 2.0, 3.0])) == {"n", "median", "q1", "q3"}


def test_calibrate_scales_to_nominal_speed():
    nominal = REFERENCE_NOMINAL_S
    cal = calibrate(4.0, 3 * nominal, 5 * nominal)
    assert cal.slowdown == pytest.approx(4.0)
    assert cal.nominal_seconds == pytest.approx(1.0)
    assert calibrate(4.0, nominal, nominal).nominal_seconds == pytest.approx(4.0)


# -- RSS probe -----------------------------------------------------------


def test_rss_reads_anon_and_total_from_status(tmp_path):
    status = tmp_path / "status"
    status.write_text("Name:\tpython\nVmRSS:\t  204800 kB\nRssAnon:\t  102400 kB\n")
    assert rss_mb(str(status)) == (100.0, 200.0)


def test_rss_without_anon_line_uses_total(tmp_path):
    status = tmp_path / "status"
    status.write_text("VmRSS:\t  51200 kB\n")
    assert rss_mb(str(status)) == (50.0, 50.0)


def test_rss_falls_back_to_getrusage(tmp_path):
    anon, total = rss_mb(str(tmp_path / "missing"))
    assert anon == total > 0
    garbled = tmp_path / "garbled"
    garbled.write_text("VmRSS:\tlots kB\n")
    garbled_anon, garbled_total = rss_mb(str(garbled))
    assert garbled_anon == garbled_total >= anon
