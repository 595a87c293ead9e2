"""Tests for chunk-level performance analysis from logs (Section 4.1)."""

import numpy as np
import pytest

from repro.core import (
    chunk_transfer_times,
    estimate_sending_windows,
    idle_rto_ratios_from_logs,
    restart_fraction,
    rtt_samples,
    window_concentration,
)
from repro.logs import DeviceType, Direction, LogRecord, RequestKind

KB = 1024


def chunk(ts=0.0, device=DeviceType.ANDROID, direction=Direction.STORE,
          volume=512 * KB, proc=1.0, tsrv=0.1, rtt=0.1, proxied=False,
          device_id="d1", user=1):
    return LogRecord(
        timestamp=ts,
        device_type=device,
        device_id=device_id,
        user_id=user,
        kind=RequestKind.CHUNK,
        direction=direction,
        volume=volume,
        processing_time=proc,
        server_time=tsrv,
        rtt=rtt,
        proxied=proxied,
    )


class TestTransferTimes:
    def test_filters(self):
        records = [
            chunk(device=DeviceType.ANDROID, proc=2.0),
            chunk(device=DeviceType.IOS, proc=1.0),
            chunk(device=DeviceType.ANDROID, direction=Direction.RETRIEVE),
            chunk(device=DeviceType.ANDROID, proxied=True),
        ]
        times = chunk_transfer_times(
            records, device_type=DeviceType.ANDROID, direction=Direction.STORE
        )
        assert times.size == 1
        assert times[0] == pytest.approx(1.9)

    def test_proxied_included_on_request(self):
        records = [chunk(proxied=True)]
        assert chunk_transfer_times(records, exclude_proxied=False).size == 1


class TestRtt:
    def test_samples_extracted(self):
        records = [chunk(rtt=0.1), chunk(rtt=0.2), chunk(rtt=0.0)]
        samples = rtt_samples(records)
        assert sorted(samples) == [0.1, 0.2]


class TestSendingWindows:
    def test_window_limited_estimate(self):
        # ttran chosen so that swnd = vol * rtt / ttran = 64 KB exactly.
        volume = 512 * KB
        rtt = 0.1
        ttran = volume * rtt / (64 * KB)
        records = [chunk(volume=volume, proc=ttran + 0.1, tsrv=0.1, rtt=rtt)]
        windows = estimate_sending_windows(records)
        assert windows[0] == pytest.approx(64 * KB)

    def test_degenerate_records_skipped(self):
        records = [
            chunk(volume=0),
            chunk(rtt=0.0),
            chunk(proc=0.1, tsrv=0.1),  # zero ttran
        ]
        assert estimate_sending_windows(records).size == 0

    def test_direction_filter(self):
        records = [chunk(direction=Direction.RETRIEVE)]
        assert estimate_sending_windows(records).size == 0


class TestWindowConcentration:
    def test_concentrated_population(self):
        windows = np.concatenate(
            [np.full(80, 64 * KB), np.full(20, 20 * KB)]
        )
        result = window_concentration(windows)
        assert result.fraction_near_cap == pytest.approx(0.8)
        assert result.fraction_above_cap == 0.0
        assert result.median == pytest.approx(64 * KB)

    def test_validation(self):
        with pytest.raises(ValueError):
            window_concentration(np.array([]))
        with pytest.raises(ValueError):
            window_concentration(np.array([1.0]), cap_bytes=0)


class TestIdleRatios:
    def make_pair(self, gap, tsrv=0.3, rtt=0.1, device_id="d1"):
        return [
            chunk(ts=0.0, tsrv=tsrv, proc=0.5, rtt=rtt, device_id=device_id),
            chunk(ts=gap, tsrv=tsrv, proc=0.5, rtt=rtt, device_id=device_id),
        ]

    def test_ratio_from_gap(self):
        # gap=2.0, prev proc=0.5 -> tclt=1.5; idle=0.3+1.5=1.8; rto=0.3.
        ratios = idle_rto_ratios_from_logs(self.make_pair(2.0))
        assert ratios.size == 1
        assert ratios[0] == pytest.approx(1.8 / 0.3)

    def test_long_gaps_treated_as_separate_flows(self):
        ratios = idle_rto_ratios_from_logs(self.make_pair(7200.0))
        assert ratios.size == 0

    def test_devices_not_mixed(self):
        records = self.make_pair(2.0, device_id="a")[:1] + self.make_pair(
            2.0, device_id="b"
        )[1:]
        assert idle_rto_ratios_from_logs(records).size == 0

    def test_restart_fraction(self):
        ratios = np.array([0.5, 1.5, 2.0, 0.8])
        assert restart_fraction(ratios) == pytest.approx(0.5)

    def test_restart_fraction_empty_rejected(self):
        with pytest.raises(ValueError):
            restart_fraction(np.array([]))
