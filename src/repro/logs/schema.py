"""HTTP request log schema.

The paper's Table 1 lists the fields of one HTTP request log entry collected
at the storage front-end servers: timestamp, device type, device ID, user ID,
request type, data volume, request processing time, average RTT, and whether
the request went through an HTTP proxy.

This module defines :class:`LogRecord` — the single record type every other
subsystem consumes or produces — together with the enums for device type,
client platform and request type.  The paper distinguishes *file operation
requests* (which carry file metadata and mark the beginning of a file
store/retrieve) from *chunk requests* (which carry up to 512 KB of data).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields, replace
from typing import Iterable, Iterator

#: Fixed chunk size used by the examined service (bytes).  Files larger than
#: this are split into 512 KB chunks; only the final chunk may be smaller.
CHUNK_SIZE = 512 * 1024


class DeviceType(enum.Enum):
    """Operating system of the client device."""

    ANDROID = "android"
    IOS = "ios"
    PC = "pc"

    @property
    def is_mobile(self) -> bool:
        """Whether this device type is a mobile platform."""
        return self is not DeviceType.PC


class RequestKind(enum.Enum):
    """The two request granularities visible at the front-end servers.

    A *file operation* announces an upcoming file store or retrieve and
    carries only metadata; *chunk* requests move the actual data.
    """

    FILE_OP = "file_op"
    CHUNK = "chunk"


class Direction(enum.Enum):
    """Whether a request stores (uploads) or retrieves (downloads) data."""

    STORE = "store"
    RETRIEVE = "retrieve"


class ResultCode(enum.Enum):
    """Outcome of one request (the Table 1 *result* field).

    Real front-end logs record failed requests next to successful ones;
    the fault-injection layer (:mod:`repro.faults`) produces every code
    below, and analyses that only want the happy path filter with
    :func:`iter_ok` / :attr:`LogRecord.is_ok`.
    """

    OK = "ok"
    #: Transient server-side error (5xx); the request may be retried.
    SERVER_ERROR = "server_error"
    #: The front-end (or metadata server) was down/unreachable.
    UNAVAILABLE = "unavailable"
    #: The client gave up waiting for the response (per-op timeout).
    TIMEOUT = "timeout"
    #: Rejected by degraded-mode load shedding (in-flight queue full).
    SHED = "shed"


#: Members the record predicates and checks compare against by identity:
#: a module global is one dict lookup, an enum class attribute two.
_ANDROID = DeviceType.ANDROID
_IOS = DeviceType.IOS
_PC = DeviceType.PC
_FILE_OP = RequestKind.FILE_OP
_CHUNK = RequestKind.CHUNK
_STORE = Direction.STORE
_RETRIEVE = Direction.RETRIEVE
_OK = ResultCode.OK
_SERVER_ERROR = ResultCode.SERVER_ERROR
_UNAVAILABLE = ResultCode.UNAVAILABLE
_TIMEOUT = ResultCode.TIMEOUT
_SHED = ResultCode.SHED


@dataclass(frozen=True, slots=True, init=False)
class LogRecord:
    """One HTTP request log entry (paper Table 1).

    Attributes
    ----------
    timestamp:
        Seconds since the start of the observation window (float, so
        sub-second inter-arrivals survive a round trip through files).
    device_type:
        Android, iOS or PC.
    device_id:
        Anonymized device identifier, unique per physical device.
    user_id:
        Anonymized account identifier; one user may use several devices.
    kind:
        File operation or chunk request.
    direction:
        Store or retrieve.
    volume:
        Bytes uploaded (store) or downloaded (retrieve) by this request.
        File operations carry no payload and have ``volume == 0``.
    processing_time:
        ``Tchunk`` — seconds between the first byte received by the
        front-end server and the last byte sent to the client.
    server_time:
        ``Tsrv`` — seconds spent by upstream storage servers storing or
        preparing the content for this request.
    rtt:
        Average RTT (seconds) of the TCP connection carrying the request.
    proxied:
        True when the request passed through an HTTP proxy
        (``X-FORWARDED-FOR`` present).
    result:
        Request outcome (Table 1's *result* field).  Failed attempts are
        logged with their error code and ``volume == 0`` — no payload was
        durably transferred — so retries are visible in the trace exactly
        as in real front-end logs.
    session_id:
        Ground-truth session tag assigned by the workload generator, or
        ``-1`` when unknown (as in real traces).  The analysis pipeline never
        reads this field; it exists so tests can score recovered
        sessionizations against the truth.

    The constructor is written out rather than generated: it stores each
    field through its slot's member descriptor (:data:`_SLOT_SETTERS`),
    where the generated frozen ``__init__`` pays one ``object.__setattr__``
    call per field, then runs :meth:`__post_init__` as the generated one
    would.  Signature, equality, hashing, ``repr``, frozenness,
    :func:`~dataclasses.replace` and pickling are the dataclass's.
    """

    timestamp: float
    device_type: DeviceType
    device_id: str
    user_id: int
    kind: RequestKind
    direction: Direction
    volume: int = 0
    processing_time: float = 0.0
    server_time: float = 0.0
    rtt: float = 0.0
    proxied: bool = False
    result: ResultCode = ResultCode.OK
    session_id: int = field(default=-1, compare=False)

    def __init__(
        self,
        timestamp: float,
        device_type: DeviceType,
        device_id: str,
        user_id: int,
        kind: RequestKind,
        direction: Direction,
        volume: int = 0,
        processing_time: float = 0.0,
        server_time: float = 0.0,
        rtt: float = 0.0,
        proxied: bool = False,
        result: ResultCode = ResultCode.OK,
        session_id: int = -1,
    ) -> None:
        (
            set_timestamp,
            set_device_type,
            set_device_id,
            set_user_id,
            set_kind,
            set_direction,
            set_volume,
            set_processing_time,
            set_server_time,
            set_rtt,
            set_proxied,
            set_result,
            set_session_id,
        ) = _SLOT_SETTERS
        set_timestamp(self, timestamp)
        set_device_type(self, device_type)
        set_device_id(self, device_id)
        set_user_id(self, user_id)
        set_kind(self, kind)
        set_direction(self, direction)
        set_volume(self, volume)
        set_processing_time(self, processing_time)
        set_server_time(self, server_time)
        set_rtt(self, rtt)
        set_proxied(self, proxied)
        set_result(self, result)
        set_session_id(self, session_id)
        self.__post_init__()

    def __post_init__(self) -> None:
        device_type, kind = self.device_type, self.kind
        direction, result = self.direction, self.result
        if (
            device_type is not _ANDROID
            and device_type is not _IOS
            and device_type is not _PC
        ):
            raise ValueError(
                f"device_type must be a DeviceType, got {device_type!r}"
            )
        if kind is not _CHUNK and kind is not _FILE_OP:
            raise ValueError(f"kind must be a RequestKind, got {kind!r}")
        if direction is not _STORE and direction is not _RETRIEVE:
            raise ValueError(
                f"direction must be a Direction, got {direction!r}"
            )
        if (
            result is not _OK
            and result is not _SERVER_ERROR
            and result is not _UNAVAILABLE
            and result is not _TIMEOUT
            and result is not _SHED
        ):
            raise ValueError(f"result must be a ResultCode, got {result!r}")
        if self.volume < 0:
            raise ValueError(f"volume must be >= 0, got {self.volume}")
        if self.processing_time < 0:
            raise ValueError("processing_time must be >= 0")
        if self.rtt < 0:
            raise ValueError("rtt must be >= 0")
        if kind is _FILE_OP and self.volume:
            raise ValueError("file operations carry no payload")
        if result is not _OK and self.volume:
            raise ValueError("failed requests carry no payload")

    @property
    def is_file_op(self) -> bool:
        return self.kind is _FILE_OP

    @property
    def is_chunk(self) -> bool:
        return self.kind is _CHUNK

    @property
    def is_mobile(self) -> bool:
        return self.device_type is not _PC

    @property
    def is_ok(self) -> bool:
        """Whether the request succeeded (Table 1 result field)."""
        return self.result is _OK

    @property
    def transfer_time(self) -> float:
        """``ttran = Tchunk - Tsrv``: the user-perceived transfer time."""
        return max(0.0, self.processing_time - self.server_time)

    def with_timestamp(self, timestamp: float) -> "LogRecord":
        """Return a copy shifted to ``timestamp`` (used by deferral policies)."""
        return replace(self, timestamp=timestamp)


#: The slots' member descriptors' ``__set__``, in field order, bound once:
#: :meth:`LogRecord.__init__` stores through them, bypassing the frozen
#: ``__setattr__``.
_SLOT_SETTERS = tuple(
    getattr(LogRecord, f.name).__set__ for f in fields(LogRecord)
)


def iter_ok(records: Iterable[LogRecord]) -> Iterator[LogRecord]:
    """Yield only successful requests, preserving order.

    The behaviour analyses consume this view of a failure-polluted trace:
    retried attempts appear as extra failed records, and filtering them out
    must recover the fault-free workload statistics (experiment R2).
    """
    return (r for r in records if r.is_ok)
