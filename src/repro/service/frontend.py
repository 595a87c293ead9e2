"""Storage front-end servers: request handling and access logging.

The front-end servers are where the paper's dataset was collected: every
file operation and chunk request that reaches a front-end produces one log
entry with the Table 1 fields.  This module models a front-end as a request
handler that charges processing time (``Tsrv`` from the server profile plus
transfer time from a latency model) and appends one row per attempt to
its access log.

The access log is columnar from the start: each attempt is appended to
typed column buffers (:class:`~repro.logs.columnar.ColumnBuffer`) in the
:data:`~repro.logs.columnar.Row` layout, enum fields as their code-table
indices, so no :class:`~repro.logs.schema.LogRecord` is built per
request.  Callers pass the device-type and direction codes, resolved
once per client and per operation.  The handlers take their parameters
by position or by keyword; the client calls them positionally, once per
attempt, with no closure in between.  :meth:`FrontendServer.take_log`
hands the buffers over as a :class:`~repro.logs.columnar.ColumnarTrace`
in emission order; :meth:`repro.service.cluster.ServiceCluster.access_log`
merges every front-end's rows into one time-ordered log.

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

import numpy as np

from ..faults import FaultPlan, RequestOutcome
from ..logs.columnar import (
    CHUNK_CODE,
    DIRECTIONS,
    FILE_OP_CODE,
    OK_CODE,
    RESULT_CODE,
    RESULT_CODES,
    SHED_CODE,
    STORE_CODE,
    ColumnarTrace,
    ColumnBuffer,
)
from ..logs.schema import Direction, ResultCode
from ..tcpsim.devices import ServerProfile

_SERVER_ERROR_CODE = RESULT_CODE[ResultCode.SERVER_ERROR]
_UNAVAILABLE_CODE = RESULT_CODE[ResultCode.UNAVAILABLE]
_TIMEOUT_CODE = RESULT_CODE[ResultCode.TIMEOUT]
#: Enum members used per request, read as module names: reaching one
#: through its enum class costs ~0.1 µs on CPython 3.11.
_OK = ResultCode.OK
_STORE = Direction.STORE


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

    def rate(self, rtt: float, bandwidth: float, direction: Direction) -> float:
        """Bytes per second of a transfer: ``min(window / rtt, bandwidth)``.

        Raises :class:`ValueError` unless ``rtt`` and ``bandwidth`` are
        positive, the check :meth:`transfer_time` makes through it.
        """
        if rtt <= 0 or bandwidth <= 0:
            raise ValueError("rtt and bandwidth must be positive")
        window = (
            self.server_rwnd if direction is _STORE else self.client_rwnd
        )
        return min(window / rtt, bandwidth)

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
        rate = self.rate(rtt, bandwidth, direction)
        if size == 0:
            return 0.0
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
    Every attempt is appended to the column buffers; :meth:`take_log`
    hands them over.
    """

    server_id: int
    profile: ServerProfile = field(default_factory=ServerProfile)
    transfer_model: TransferModel = field(default_factory=TransferModel)
    fault_plan: FaultPlan | None = None
    capacity: int | None = None
    bytes_stored: int = 0
    bytes_served: int = 0
    requests_ok: int = 0
    requests_failed: int = 0
    #: Min-heap of the finish times of tracked requests.
    _in_flight: list[float] = field(default_factory=list, repr=False)
    _faults: FaultPlan | None = field(init=False, default=None, repr=False)
    _log: ColumnBuffer = field(init=False, repr=False)

    def __post_init__(self) -> None:
        plan = self.fault_plan
        self._faults = plan if plan is not None and plan.enabled else None
        self._log = ColumnBuffer()

    def take_log(self) -> ColumnarTrace:
        """The rows logged since the last take, in emission order.

        The column buffers move into the returned trace without a copy
        and the log restarts empty, so a merged log never sits next to a
        second copy of its rows.

        Raises
        ------
        ValueError
            If a logged row breaks a :class:`~repro.logs.schema.LogRecord`
            invariant; the message names this front-end and the rows stay
            logged.
        """
        try:
            return self._log.take()
        except ValueError as error:
            raise ValueError(f"front-end {self.server_id}: {error}") from None

    # ------------------------------------------------------------------
    # Fault consultation
    # ------------------------------------------------------------------

    def in_flight(self, now: float) -> int:
        """Number of requests started but not yet finished at ``now``."""
        heap = self._in_flight
        while heap and heap[0] <= now:
            heapq.heappop(heap)
        return len(heap)

    def _preflight(self, now: float, timeout: float | None) -> int | None:
        """Check crash windows and load shedding before doing any work.

        Returns the failure's result code (its index in
        :data:`~repro.logs.columnar.RESULT_CODES`), or ``None`` when the
        request may proceed.  Only runs with an enabled fault plan, so
        the fault-free path never touches the in-flight queue.

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
            return _UNAVAILABLE_CODE
        if self.capacity is not None:
            in_flight = self.in_flight(now)
            effective = in_flight + plan.overload_level(now) * self.capacity
            if effective >= self.capacity:
                plan.stats.shed_requests += 1
                if in_flight < self.capacity:
                    plan.stats.overload_sheds += 1
                plan.note_failure_pressure(self.server_id, now)
                return SHED_CODE
        if plan.draw_pressure_shed(self.server_id, now):
            plan.stats.shed_requests += 1
            plan.stats.pressure_sheds += 1
            plan.note_failure_pressure(self.server_id, now)
            return SHED_CODE
        return None

    def _finish(
        self, now: float, nominal: float, timeout: float | None
    ) -> tuple[int, float]:
        """Resolve transient errors/timeouts for a started request.

        Returns ``(result code, elapsed)`` where ``elapsed`` is the
        client-perceived duration: the full ``nominal`` time on success, a
        partial time when the request errored mid-flight, or the timeout
        when the client abandoned it.
        """
        plan = self._faults
        if plan is None:
            return OK_CODE, nominal
        if plan.draw_transient_error(self.server_id):
            plan.stats.injected_errors += 1
            elapsed = nominal * plan.error_fraction(self.server_id)
            if timeout is not None:
                elapsed = min(elapsed, timeout)
            self._track(now, elapsed)
            return _SERVER_ERROR_CODE, elapsed
        if timeout is not None and nominal > timeout:
            plan.stats.timeouts += 1
            self._track(now, timeout)
            return _TIMEOUT_CODE, timeout
        self._track(now, nominal)
        return OK_CODE, nominal

    def _track(self, now: float, elapsed: float) -> None:
        # Only reached with an enabled plan (from ``_finish``).
        if self.capacity is not None:
            heapq.heappush(self._in_flight, now + elapsed)

    # ------------------------------------------------------------------
    # Request handlers
    # ------------------------------------------------------------------

    def handle_file_op(
        self,
        timestamp: float,
        user_id: int,
        device_id: str,
        device_type_code: int,
        direction_code: int,
        rtt: float,
        rng: np.random.Generator,
        proxied: bool = False,
        session_id: int = -1,
        timeout: float | None = None,
    ) -> RequestOutcome:
        """Process a file operation request; returns its typed outcome.

        ``device_type_code`` and ``direction_code`` are the code-table
        indices (:data:`~repro.logs.columnar.DEVICE_CODE`,
        :data:`~repro.logs.columnar.DIRECTION_CODE`) of the request's
        device type and direction.  Parameters may be passed by position
        (the client's per-attempt call) or by keyword.
        """
        failure = self._preflight(timestamp, timeout)
        if failure is not None:
            return self._reject(
                failure, timestamp, device_type_code, device_id, user_id,
                FILE_OP_CODE, direction_code, rtt, proxied, session_id,
            )
        tsrv = self.profile.tsrv.sample(rng) * 0.2  # metadata only
        plan = self._faults
        if plan is not None:
            tsrv *= plan.latency_multiplier(self.server_id, timestamp)
        result, elapsed = self._finish(timestamp, tsrv, timeout)
        ok = result == OK_CODE
        self._log.append(
            timestamp, device_type_code, device_id, user_id, FILE_OP_CODE,
            direction_code, 0, elapsed, elapsed if ok else 0.0, rtt,
            proxied, result, session_id,
        )
        if not ok:
            self.requests_failed += 1
            return RequestOutcome(RESULT_CODES[result], elapsed)
        self.requests_ok += 1
        return RequestOutcome(_OK, elapsed, elapsed, elapsed)

    def handle_chunk(
        self,
        timestamp: float,
        user_id: int,
        device_id: str,
        device_type_code: int,
        direction_code: int,
        size: int,
        rtt: float,
        bandwidth: float,
        rng: np.random.Generator,
        restarted: bool = False,
        proxied: bool = False,
        session_id: int = -1,
        timeout: float | None = None,
    ) -> RequestOutcome:
        """Process one chunk request; returns its typed outcome.

        On success the outcome carries ``(tchunk, tsrv)`` — the transfer
        time plus the upstream storage time, the same decomposition the
        paper's logs carry.  The codes are as in :meth:`handle_file_op`.
        """
        failure = self._preflight(timestamp, timeout)
        if failure is not None:
            return self._reject(
                failure, timestamp, device_type_code, device_id, user_id,
                CHUNK_CODE, direction_code, rtt, proxied, session_id,
            )
        tsrv = self.profile.tsrv.sample(rng)
        ttran = self.transfer_model.transfer_time(
            size, rtt, bandwidth, DIRECTIONS[direction_code], restarted
        )
        plan = self._faults
        if plan is not None:
            multiplier = plan.latency_multiplier(self.server_id, timestamp)
            tsrv *= multiplier
            ttran *= multiplier
        tchunk = ttran + tsrv
        result, elapsed = self._finish(timestamp, tchunk, timeout)
        ok = result == OK_CODE
        self._log.append(
            timestamp, device_type_code, device_id, user_id, CHUNK_CODE,
            direction_code, size if ok else 0, elapsed, tsrv if ok else 0.0,
            rtt, proxied, result, session_id,
        )
        if not ok:
            self.requests_failed += 1
            return RequestOutcome(RESULT_CODES[result], elapsed)
        self.requests_ok += 1
        if direction_code == STORE_CODE:
            self.bytes_stored += size
        else:
            self.bytes_served += size
        return RequestOutcome(_OK, elapsed, tchunk, tsrv)

    def _reject(
        self,
        result: int,
        timestamp: float,
        device_type_code: int,
        device_id: str,
        user_id: int,
        kind_code: int,
        direction_code: int,
        rtt: float,
        proxied: bool,
        session_id: int,
    ) -> RequestOutcome:
        """Log a request rejected before any processing happened.

        A connect to a crashed server costs one RTT to fail; a shed
        request is answered immediately with a cheap rejection.
        """
        elapsed = rtt if result == _UNAVAILABLE_CODE else rtt / 2.0
        self.requests_failed += 1
        self._log.append(
            timestamp, device_type_code, device_id, user_id, kind_code,
            direction_code, 0, elapsed, 0.0, rtt, proxied, result, session_id,
        )
        return RequestOutcome(RESULT_CODES[result], elapsed)
