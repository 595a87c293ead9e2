"""Integration: service-simulator logs feed the Section 4 log analyses."""

import numpy as np
import pytest

from repro.core import (
    chunk_transfer_times,
    estimate_sending_windows,
    idle_rto_ratios_from_logs,
    window_concentration,
)
from repro.logs import CHUNK_SIZE, DeviceType, Direction
from repro.service import ClientNetwork, ServiceCluster


@pytest.fixture(scope="module")
def cluster_log():
    cluster = ServiceCluster(n_frontends=2)
    rng = np.random.default_rng(4)
    for user in range(1, 41):
        device_type = (
            DeviceType.ANDROID if user % 3 else DeviceType.IOS
        )
        client = cluster.new_client(
            user,
            f"m{user}",
            device_type,
            # Fast paths so uploads are window-limited (the Fig 15 regime).
            network=ClientNetwork(
                rtt=float(rng.uniform(0.06, 0.2)),
                bandwidth=float(rng.uniform(1e6, 4e6)),
            ),
        )
        client.clock = float(rng.uniform(0, 1800))
        stored = client.store_file(
            "a.bin", f"c{user}".encode(), 4 * CHUNK_SIZE
        )
        if user % 4 == 0:
            client.retrieve_url(stored.url)
    return cluster.access_log()


def test_swnd_estimates_cluster_at_server_window(cluster_log):
    windows = estimate_sending_windows(cluster_log, direction=Direction.STORE)
    assert windows.size > 0
    concentration = window_concentration(windows)
    # The service's TransferModel caps uploads at the 64 KB server window.
    assert concentration.fraction_above_cap < 0.05
    assert concentration.fraction_near_cap > 0.5


def test_device_gap_visible_in_cluster_logs(cluster_log):
    android, ios = (
        chunk_transfer_times(cluster_log, device_type=device, direction=Direction.STORE)
        for device in (DeviceType.ANDROID, DeviceType.IOS)
    )
    # Android's longer inter-chunk processing triggers restart penalties.
    assert android.size and ios.size
    assert np.median(android) > np.median(ios)


def test_idle_ratios_computable_from_cluster_logs(cluster_log):
    ratios = idle_rto_ratios_from_logs(
        list(cluster_log), direction=Direction.STORE
    )
    assert ratios.size > 0
    assert np.all(ratios >= 0)
