"""One-pass descriptive summary of a trace.

The numbers the paper's Section 2.2 reports about its dataset — record,
user and device counts, platform split, direction volumes, time span —
computed in a single streaming pass.  Used by the CLI and by the D1
experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

from .schema import DeviceType, Direction, LogRecord, RequestKind


@dataclass
class TraceSummary:
    """Aggregate statistics of one log stream."""

    n_records: int = 0
    n_file_ops: int = 0
    n_chunks: int = 0
    n_proxied: int = 0
    stored_bytes: int = 0
    retrieved_bytes: int = 0
    first_timestamp: float = math.inf
    last_timestamp: float = -math.inf
    users: set[int] = field(default_factory=set)
    devices: set[str] = field(default_factory=set)
    records_by_platform: dict[DeviceType, int] = field(default_factory=dict)
    _mobile_users: set[int] = field(default_factory=set)
    _pc_users: set[int] = field(default_factory=set)

    # ------------------------------------------------------------------
    # Derived statistics
    # ------------------------------------------------------------------

    @property
    def n_users(self) -> int:
        return len(self.users)

    @property
    def n_devices(self) -> int:
        return len(self.devices)

    @property
    def span_seconds(self) -> float:
        if self.n_records == 0:
            return 0.0
        return self.last_timestamp - self.first_timestamp

    @property
    def span_days(self) -> float:
        return self.span_seconds / 86_400.0

    @property
    def total_bytes(self) -> int:
        return self.stored_bytes + self.retrieved_bytes

    @property
    def android_record_share(self) -> float:
        """Android share of *mobile* records (the paper's 78.4%)."""
        android = self.records_by_platform.get(DeviceType.ANDROID, 0)
        ios = self.records_by_platform.get(DeviceType.IOS, 0)
        if android + ios == 0:
            return 0.0
        return android / (android + ios)

    @property
    def pc_co_use_share(self) -> float:
        """Share of mobile users also seen on a PC client (paper: 14.3%)."""
        if not self._mobile_users:
            return 0.0
        both = self._mobile_users & self._pc_users
        return len(both) / len(self._mobile_users)

    @property
    def devices_per_user(self) -> float:
        if not self.users:
            return 0.0
        return self.n_devices / self.n_users

    def render(self) -> str:
        """Human-readable multi-line report."""
        gb = 1024.0**3
        lines = [
            f"records          : {self.n_records:,} "
            f"({self.n_file_ops:,} file ops, {self.n_chunks:,} chunks)",
            f"users / devices  : {self.n_users:,} / {self.n_devices:,} "
            f"({self.devices_per_user:.2f} devices/user)",
            f"observation span : {self.span_days:.1f} days",
            f"stored           : {self.stored_bytes / gb:.2f} GB",
            f"retrieved        : {self.retrieved_bytes / gb:.2f} GB",
            f"android share    : {self.android_record_share:.1%} of mobile records",
            f"PC co-use        : {self.pc_co_use_share:.1%} of mobile users",
            f"proxied requests : {self.n_proxied / max(1, self.n_records):.1%}",
        ]
        return "\n".join(lines)


def summarize(records: Iterable[LogRecord]) -> TraceSummary:
    """Build a :class:`TraceSummary` in one streaming pass.

    One loop over the records with local accumulators; the summary is
    built once at the end.  Sets and the platform dict are filled in
    record order, so they equal (and iterate like) a record-at-a-time
    fold's.  Platforms are counted per run of equal ``device_type`` and
    hashed into the dict once per run: a run's count is added when the
    next run starts, which keeps the dict in first-appearance order.
    """
    file_op, store, pc = RequestKind.FILE_OP, Direction.STORE, DeviceType.PC
    n_records = n_file_ops = n_proxied = stored_bytes = retrieved_bytes = 0
    first_timestamp, last_timestamp = math.inf, -math.inf
    users: set[int] = set()
    devices: set[str] = set()
    records_by_platform: dict[DeviceType, int] = {}
    platform, run = None, 0
    mobile_users: set[int] = set()
    pc_users: set[int] = set()
    for record in records:
        n_records += 1
        if record.kind is file_op:
            n_file_ops += 1
        elif record.direction is store:
            stored_bytes += record.volume
        else:
            retrieved_bytes += record.volume
        if record.proxied:
            n_proxied += 1
        # min()/max() semantics: keep the first of equal values.
        timestamp = record.timestamp
        if timestamp < first_timestamp:
            first_timestamp = timestamp
        if timestamp > last_timestamp:
            last_timestamp = timestamp
        user_id = record.user_id
        users.add(user_id)
        devices.add(record.device_id)
        device_type = record.device_type
        if device_type is not platform:
            if run:
                records_by_platform[platform] = records_by_platform.get(platform, 0) + run
            platform, run = device_type, 0
        run += 1
        if device_type is pc:
            pc_users.add(user_id)
        else:
            mobile_users.add(user_id)
    if run:
        records_by_platform[platform] = records_by_platform.get(platform, 0) + run
    return TraceSummary(
        n_records=n_records,
        n_file_ops=n_file_ops,
        n_chunks=n_records - n_file_ops,
        n_proxied=n_proxied,
        stored_bytes=stored_bytes,
        retrieved_bytes=retrieved_bytes,
        first_timestamp=first_timestamp,
        last_timestamp=last_timestamp,
        users=users,
        devices=devices,
        records_by_platform=records_by_platform,
        _mobile_users=mobile_users,
        _pc_users=pc_users,
    )
