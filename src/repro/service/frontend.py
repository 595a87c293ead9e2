"""Storage front-end servers: request handling and access logging.

The front-end servers are where the paper's dataset was collected: every
file operation and chunk request that reaches a front-end produces one log
entry with the Table 1 fields.  This module models a front-end as a request
handler that charges processing time (``Tsrv`` from the server profile plus
transfer time from a latency model) and appends :class:`LogRecord` entries
to its access log.

Requests are no longer unconditionally successful: when the front-end is
bound to a :class:`~repro.faults.FaultPlan`, each handler consults the
plan — crash windows, slow-server episodes, per-request transient errors,
and degraded-mode load shedding — and returns a typed
:class:`~repro.faults.RequestOutcome` carrying the Table 1 result code.
Failed attempts are logged too (with ``volume == 0``), so retries appear
in the access log exactly as they would in the paper's dataset.  Without a
plan the happy path is byte-identical to the fault-free simulator: no
extra RNG draws, no extra log fields beyond ``result=ok``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..faults import FaultPlan, RequestOutcome
from ..logs.schema import DeviceType, Direction, LogRecord, RequestKind, ResultCode
from ..tcpsim.devices import ServerProfile


@dataclass
class TransferModel:
    """Closed-form chunk transfer-time model used by the service simulator.

    The packet-level simulator (:mod:`repro.tcpsim`) is exact but too slow
    for traces with millions of chunks, so the service simulator prices a
    chunk transfer with the TCP throughput approximation the paper itself
    uses in Section 4.1: ``throughput = swnd / RTT``, where the effective
    window is capped by the 64 KB server receive window for uploads, plus a
    slow-start climb penalty when the preceding idle gap restarted the
    window.

    Parameters
    ----------
    server_rwnd:
        Upload window cap (bytes).
    client_rwnd:
        Download window cap (bytes).
    restart_penalty_rtts:
        Extra round trips charged when a transfer begins with a restarted
        congestion window.
    """

    server_rwnd: int = 64 * 1024
    client_rwnd: int = 2 * 1024 * 1024
    restart_penalty_rtts: float = 4.0

    def transfer_time(
        self,
        size: int,
        rtt: float,
        bandwidth: float,
        direction: Direction,
        restarted: bool = False,
    ) -> float:
        """Estimated seconds to move ``size`` bytes.

        ``size == 0`` is a defined case — metadata-only / empty-file
        requests move no payload, so the transfer time is zero and the
        request costs processing time only.
        """
        if size < 0:
            raise ValueError("size must be >= 0")
        if rtt <= 0 or bandwidth <= 0:
            raise ValueError("rtt and bandwidth must be positive")
        if size == 0:
            return 0.0
        window = (
            self.server_rwnd if direction is Direction.STORE else self.client_rwnd
        )
        window_rate = window / rtt
        rate = min(window_rate, bandwidth)
        time = size / rate
        if restarted:
            time += self.restart_penalty_rtts * rtt
        return time


@dataclass
class FrontendServer:
    """One storage front-end server with an append-only access log.

    Parameters
    ----------
    server_id:
        Stable identifier (used by the metadata server's assignment).
    profile:
        Server processing-time profile (``Tsrv`` distribution).  A fresh
        instance per server by default — deployments must not share one
        module-level profile object whose mutation would leak between
        clusters.
    transfer_model:
        Chunk transfer-time estimator.
    log_sink:
        Optional callable receiving each record as it is produced; when
        None, records accumulate in :attr:`access_log`.
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan`.  ``None`` (or a
        disabled plan) keeps the historical always-succeed behaviour.
    capacity:
        Degraded-mode knob: maximum number of in-flight requests before
        the server sheds load (``None`` disables shedding).  In-flight is
        tracked as the set of started requests whose finish time lies
        beyond the current timestamp.

    The plan is consulted only when it can fault: ``__post_init__``
    resolves ``fault_plan`` once into the private ``_faults`` (``None``
    for a missing or disabled plan), so assign the plan at construction.
    """

    server_id: int
    profile: ServerProfile = field(default_factory=ServerProfile)
    transfer_model: TransferModel = field(default_factory=TransferModel)
    log_sink: Callable[[LogRecord], None] | None = None
    fault_plan: FaultPlan | None = None
    capacity: int | None = None
    access_log: list[LogRecord] = field(default_factory=list)
    bytes_stored: int = 0
    bytes_served: int = 0
    requests_ok: int = 0
    requests_failed: int = 0
    #: Min-heap of the finish times of tracked requests.
    _in_flight: list[float] = field(default_factory=list, repr=False)
    _faults: FaultPlan | None = field(init=False, default=None, repr=False)

    def __post_init__(self) -> None:
        plan = self.fault_plan
        self._faults = plan if plan is not None and plan.enabled else None

    def _emit(self, record: LogRecord) -> None:
        if self.log_sink is not None:
            self.log_sink(record)
        else:
            self.access_log.append(record)

    # ------------------------------------------------------------------
    # Fault consultation
    # ------------------------------------------------------------------

    def in_flight(self, now: float) -> int:
        """Number of requests started but not yet finished at ``now``."""
        heap = self._in_flight
        while heap and heap[0] <= now:
            heapq.heappop(heap)
        return len(heap)

    def _preflight(self, now: float, timeout: float | None) -> ResultCode | None:
        """Check crash windows and load shedding before doing any work.

        Returns the failure code, or ``None`` when the request may
        proceed.  Only runs with an enabled fault plan, so the fault-free
        path never touches the in-flight queue.

        With the correlation layer armed, three extra mechanisms apply —
        shared zone-level crash windows (attributed to
        ``zone_crash_rejections``), metadata-outage overload that inflates
        the effective in-flight load against the capacity check, and
        retry-storm pressure sheds.  Every rejection feeds the pressure
        counter back, closing the cascade loop.  With correlation knobs
        zero, all three collapse to the independent PR 2 behaviour.
        """
        plan = self._faults
        if plan is None:
            return None
        if plan.frontend_down(self.server_id, now):
            plan.stats.crash_rejections += 1
            if plan.zone_down(self.server_id, now):
                plan.stats.zone_crash_rejections += 1
            plan.note_failure_pressure(self.server_id, now)
            return ResultCode.UNAVAILABLE
        if self.capacity is not None:
            in_flight = self.in_flight(now)
            effective = in_flight + plan.overload_level(now) * self.capacity
            if effective >= self.capacity:
                plan.stats.shed_requests += 1
                if in_flight < self.capacity:
                    plan.stats.overload_sheds += 1
                plan.note_failure_pressure(self.server_id, now)
                return ResultCode.SHED
        if plan.draw_pressure_shed(self.server_id, now):
            plan.stats.shed_requests += 1
            plan.stats.pressure_sheds += 1
            plan.note_failure_pressure(self.server_id, now)
            return ResultCode.SHED
        return None

    def _finish(
        self,
        *,
        now: float,
        nominal: float,
        timeout: float | None,
    ) -> tuple[ResultCode, float]:
        """Resolve transient errors/timeouts for a started request.

        Returns ``(result, elapsed)`` where ``elapsed`` is the
        client-perceived duration: the full ``nominal`` time on success, a
        partial time when the request errored mid-flight, or the timeout
        when the client abandoned it.
        """
        plan = self._faults
        if plan is None:
            return ResultCode.OK, nominal
        if plan.draw_transient_error(self.server_id):
            plan.stats.injected_errors += 1
            elapsed = nominal * plan.error_fraction(self.server_id)
            if timeout is not None:
                elapsed = min(elapsed, timeout)
            self._track(now, elapsed)
            return ResultCode.SERVER_ERROR, elapsed
        if timeout is not None and nominal > timeout:
            plan.stats.timeouts += 1
            self._track(now, timeout)
            return ResultCode.TIMEOUT, timeout
        self._track(now, nominal)
        return ResultCode.OK, nominal

    def _track(self, now: float, elapsed: float) -> None:
        # Only reached with an enabled plan (from ``_finish``).
        if self.capacity is not None:
            heapq.heappush(self._in_flight, now + elapsed)

    def _count(self, result: ResultCode) -> None:
        if result is ResultCode.OK:
            self.requests_ok += 1
        else:
            self.requests_failed += 1

    # ------------------------------------------------------------------
    # Request handlers
    # ------------------------------------------------------------------

    def handle_file_op(
        self,
        *,
        timestamp: float,
        user_id: int,
        device_id: str,
        device_type: DeviceType,
        direction: Direction,
        rtt: float,
        proxied: bool = False,
        session_id: int = -1,
        timeout: float | None = None,
        rng: np.random.Generator,
    ) -> RequestOutcome:
        """Process a file operation request; returns its typed outcome."""
        failure = self._preflight(timestamp, timeout)
        if failure is not None:
            return self._emit_failure(
                result=failure,
                timestamp=timestamp,
                user_id=user_id,
                device_id=device_id,
                device_type=device_type,
                kind=RequestKind.FILE_OP,
                direction=direction,
                rtt=rtt,
                proxied=proxied,
                session_id=session_id,
            )
        tsrv = float(self.profile.tsrv.sample(rng)) * 0.2  # metadata only
        plan = self._faults
        if plan is not None:
            tsrv *= plan.latency_multiplier(self.server_id, timestamp)
        result, elapsed = self._finish(
            now=timestamp, nominal=tsrv, timeout=timeout
        )
        ok = result is ResultCode.OK
        self._count(result)
        self._emit(
            LogRecord(
                timestamp=timestamp,
                device_type=device_type,
                device_id=device_id,
                user_id=user_id,
                kind=RequestKind.FILE_OP,
                direction=direction,
                volume=0,
                processing_time=elapsed,
                server_time=elapsed if ok else 0.0,
                rtt=rtt,
                proxied=proxied,
                result=result,
                session_id=session_id,
            )
        )
        if not ok:
            return RequestOutcome(result=result, elapsed=elapsed)
        return RequestOutcome(
            result=result, elapsed=elapsed, tchunk=elapsed, tsrv=elapsed
        )

    def handle_chunk(
        self,
        *,
        timestamp: float,
        user_id: int,
        device_id: str,
        device_type: DeviceType,
        direction: Direction,
        size: int,
        rtt: float,
        bandwidth: float,
        restarted: bool = False,
        proxied: bool = False,
        session_id: int = -1,
        timeout: float | None = None,
        rng: np.random.Generator,
    ) -> RequestOutcome:
        """Process one chunk request; returns its typed outcome.

        On success the outcome carries ``(tchunk, tsrv)`` — the transfer
        time plus the upstream storage time, the same decomposition the
        paper's logs carry.
        """
        failure = self._preflight(timestamp, timeout)
        if failure is not None:
            return self._emit_failure(
                result=failure,
                timestamp=timestamp,
                user_id=user_id,
                device_id=device_id,
                device_type=device_type,
                kind=RequestKind.CHUNK,
                direction=direction,
                rtt=rtt,
                proxied=proxied,
                session_id=session_id,
            )
        tsrv = float(self.profile.tsrv.sample(rng))
        ttran = self.transfer_model.transfer_time(
            size, rtt, bandwidth, direction, restarted
        )
        plan = self._faults
        if plan is not None:
            multiplier = plan.latency_multiplier(self.server_id, timestamp)
            tsrv *= multiplier
            ttran *= multiplier
        tchunk = ttran + tsrv
        result, elapsed = self._finish(
            now=timestamp, nominal=tchunk, timeout=timeout
        )
        ok = result is ResultCode.OK
        self._count(result)
        if ok:
            if direction is Direction.STORE:
                self.bytes_stored += size
            else:
                self.bytes_served += size
        self._emit(
            LogRecord(
                timestamp=timestamp,
                device_type=device_type,
                device_id=device_id,
                user_id=user_id,
                kind=RequestKind.CHUNK,
                direction=direction,
                volume=size if ok else 0,
                processing_time=elapsed,
                server_time=tsrv if ok else 0.0,
                rtt=rtt,
                proxied=proxied,
                result=result,
                session_id=session_id,
            )
        )
        if not ok:
            return RequestOutcome(result=result, elapsed=elapsed)
        return RequestOutcome(
            result=result, elapsed=elapsed, tchunk=tchunk, tsrv=tsrv
        )

    def _emit_failure(
        self,
        *,
        result: ResultCode,
        timestamp: float,
        user_id: int,
        device_id: str,
        device_type: DeviceType,
        kind: RequestKind,
        direction: Direction,
        rtt: float,
        proxied: bool,
        session_id: int,
    ) -> RequestOutcome:
        """Log a request rejected before any processing happened.

        A connect to a crashed server costs one RTT to fail; a shed
        request is answered immediately with a cheap rejection.
        """
        elapsed = rtt if result is ResultCode.UNAVAILABLE else rtt / 2.0
        self._count(result)
        self._emit(
            LogRecord(
                timestamp=timestamp,
                device_type=device_type,
                device_id=device_id,
                user_id=user_id,
                kind=kind,
                direction=direction,
                volume=0,
                processing_time=elapsed,
                server_time=0.0,
                rtt=rtt,
                proxied=proxied,
                result=result,
                session_id=session_id,
            )
        )
        return RequestOutcome(result=result, elapsed=elapsed)
