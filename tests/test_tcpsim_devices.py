"""Tests for device/server profiles and the lognormal helper."""

import math

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro.logs import DeviceType
from repro.tcpsim import ANDROID, DEFAULT_SERVER, IOS, PC, Lognormal, profile_for


class TestLognormal:
    def test_validation(self):
        with pytest.raises(ValueError):
            Lognormal(median=0.0, sigma=1.0)
        with pytest.raises(ValueError):
            Lognormal(median=1.0, sigma=-1.0)

    def test_sample_median(self):
        dist = Lognormal(median=0.2, sigma=0.8)
        rng = np.random.default_rng(0)
        draws = dist.sample(rng, 50_000)
        assert float(np.median(draws)) == pytest.approx(0.2, rel=0.05)

    def test_mu_is_log_median_and_not_compared(self):
        dist = Lognormal(median=0.3, sigma=1.2)
        assert dist.mu == math.log(0.3)
        assert dist == Lognormal(median=0.3, sigma=1.2)
        assert "mu" not in repr(dist)

    def test_mean_formula(self):
        dist = Lognormal(median=1.0, sigma=0.5)
        assert dist.mean == pytest.approx(np.exp(0.125))

    @pytest.mark.parametrize("q", [0.1, 0.5, 0.9, 0.99])
    def test_quantile_matches_scipy(self, q):
        dist = Lognormal(median=0.3, sigma=1.2)
        reference = float(
            scipy_stats.lognorm.ppf(q, s=1.2, scale=0.3)
        )
        assert dist.quantile(q) == pytest.approx(reference, rel=1e-6)

    def test_quantile_bounds(self):
        with pytest.raises(ValueError):
            Lognormal(median=1.0, sigma=1.0).quantile(0.0)


class TestProfiles:
    def test_profile_lookup(self):
        assert profile_for(DeviceType.ANDROID) is ANDROID
        assert profile_for(DeviceType.IOS) is IOS
        assert profile_for(DeviceType.PC) is PC

    def test_android_slower_client_processing(self):
        assert ANDROID.upload_tclt.median > IOS.upload_tclt.median

    def test_android_heavier_download_tail(self):
        assert ANDROID.download_tclt.quantile(0.9) > IOS.download_tclt.quantile(0.9)
        # Paper: Android retrieval Tclt p90 ~1 s, iOS ~0.1 s.
        assert ANDROID.download_tclt.quantile(0.9) > 0.5
        assert IOS.download_tclt.quantile(0.9) < 0.25

    def test_clients_enable_window_scaling(self):
        assert ANDROID.window_scaling
        assert IOS.window_scaling
        assert ANDROID.advertised_rwnd == 4 * 1024 * 1024
        assert IOS.advertised_rwnd == 2 * 1024 * 1024

    def test_server_window_unscaled(self):
        assert not DEFAULT_SERVER.window_scaling
        assert DEFAULT_SERVER.advertised_rwnd == 65_535

    def test_server_tsrv_near_100ms(self):
        assert DEFAULT_SERVER.tsrv.median == pytest.approx(0.1, abs=0.05)

    def test_tclt_selector(self):
        assert ANDROID.tclt(True) is ANDROID.upload_tclt
        assert ANDROID.tclt(False) is ANDROID.download_tclt
