"""Chunk-level performance analysis from HTTP logs (Section 4.1).

Everything here works from the access-log fields alone, exactly as the
paper does before reaching for packet traces:

* per-chunk transfer time ``ttran = Tchunk - Tsrv`` split by device type
  (Fig 12);
* the RTT distribution (Fig 14);
* the estimated average sending window ``swnd = reqsize * RTT / ttran``
  (Fig 15), whose concentration at 64 KB exposes the unscaled server
  receive window;
* the idle/RTO analysis using the paper's closed-form RTO approximation
  (feeding Fig 16c when only logs are available).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ..logs.schema import DeviceType, Direction, LogRecord
from ..tcpsim.rto import paper_rto_estimate

KB = 1024


def chunk_transfer_times(
    records: Iterable[LogRecord],
    *,
    device_type: DeviceType | None = None,
    direction: Direction | None = None,
    exclude_proxied: bool = True,
) -> np.ndarray:
    """Per-chunk ``ttran`` samples, filtered like the paper's Fig 12."""
    times = [
        r.transfer_time
        for r in records
        if r.is_chunk
        and (device_type is None or r.device_type is device_type)
        and (direction is None or r.direction is direction)
        and not (exclude_proxied and r.proxied)
    ]
    return np.asarray(times, dtype=float)


def rtt_samples(
    records: Iterable[LogRecord], exclude_proxied: bool = True
) -> np.ndarray:
    """Average-RTT samples of chunk requests (the Fig 14 data)."""
    samples = [
        r.rtt
        for r in records
        if r.is_chunk and r.rtt > 0 and not (exclude_proxied and r.proxied)
    ]
    return np.asarray(samples, dtype=float)


def estimate_sending_windows(
    records: Iterable[LogRecord],
    *,
    direction: Direction = Direction.STORE,
    exclude_proxied: bool = True,
) -> np.ndarray:
    """Per-request average sending-window estimates (Fig 15).

    Approximates flow throughput as ``swnd / RTT``, hence
    ``swnd = reqsize * RTT / ttran``, exactly the paper's estimator.
    Requests with degenerate fields (no volume, zero ttran or RTT) are
    skipped.
    """
    windows = []
    for record in records:
        if not record.is_chunk or record.direction is not direction:
            continue
        if exclude_proxied and record.proxied:
            continue
        ttran = record.transfer_time
        if record.volume <= 0 or ttran <= 0 or record.rtt <= 0:
            continue
        windows.append(record.volume * record.rtt / ttran)
    return np.asarray(windows, dtype=float)


@dataclass(frozen=True)
class WindowConcentration:
    """Fig 15 summary: how tightly swnd estimates cluster near a cap."""

    cap_bytes: float
    fraction_near_cap: float
    fraction_above_cap: float
    median: float
    n_samples: int


def window_concentration(
    windows: np.ndarray, cap_bytes: float = 64 * KB, tolerance: float = 0.5
) -> WindowConcentration:
    """Measure concentration of window estimates around ``cap_bytes``.

    ``fraction_near_cap`` counts samples within ``tolerance`` (relative) of
    the cap; a large value plus a small ``fraction_above_cap`` is the
    signature of a receive-window-limited sender population.
    """
    if windows.size == 0:
        raise ValueError("no window estimates")
    if cap_bytes <= 0:
        raise ValueError("cap_bytes must be positive")
    near = np.abs(windows - cap_bytes) <= tolerance * cap_bytes
    above = windows > cap_bytes * (1.0 + tolerance)
    return WindowConcentration(
        cap_bytes=cap_bytes,
        fraction_near_cap=float(np.mean(near)),
        fraction_above_cap=float(np.mean(above)),
        median=float(np.median(windows)),
        n_samples=int(windows.size),
    )


def idle_rto_ratios_from_logs(
    records: list[LogRecord],
    *,
    device_type: DeviceType | None = None,
    direction: Direction | None = None,
) -> np.ndarray:
    """Idle/RTO ratios reconstructed from log fields.

    The logs carry ``Tsrv`` and average RTT per chunk; the client
    processing time between consecutive chunks of the same device is
    approximated from inter-request gaps: for consecutive chunk records
    ``i -> i+1`` on one device, the sender idle is
    ``gap - ttran_{i+1}``-ish; here we use the paper's decomposition
    ``idle = Tsrv_i + Tclt_i`` with ``Tclt_i`` inferred as the part of the
    request gap not explained by the previous transfer and server time.
    """
    by_device: dict[str, list[LogRecord]] = {}
    for record in records:
        if not record.is_chunk:
            continue
        if device_type is not None and record.device_type is not device_type:
            continue
        if direction is not None and record.direction is not direction:
            continue
        by_device.setdefault(record.device_id, []).append(record)

    ratios: list[float] = []
    for chunk_records in by_device.values():
        chunk_records.sort(key=lambda r: r.timestamp)
        for prev, cur in zip(chunk_records, chunk_records[1:]):
            gap = cur.timestamp - prev.timestamp
            if gap <= 0 or gap > 3600.0:
                continue  # different flows/sessions
            tclt = max(0.0, gap - prev.processing_time)
            idle = prev.server_time + tclt
            rto = paper_rto_estimate(max(1e-3, cur.rtt))
            ratios.append(idle / rto)
    return np.asarray(ratios, dtype=float)


def restart_fraction(ratios: np.ndarray) -> float:
    """Fraction of inter-chunk gaps that trigger a slow-start restart."""
    if ratios.size == 0:
        raise ValueError("no idle ratios")
    return float(np.mean(ratios > 1.0))
