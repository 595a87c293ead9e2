"""Open-loop traffic replay: fire a prepared trace at a service cluster.

Every experiment before this module drove :class:`ServiceCluster`
*closed-loop*: a client issues its next operation only after the previous
one finished, so offered load can never exceed service capacity and
overload is structurally invisible.  The replay driver inverts that: a
prepared trace of timestamped operations is fired at the cluster on an
**arrival-time-faithful or speed-multiplied schedule**, so the arrival
process — not the service's completion times — decides when work shows
up.  Above capacity, in-flight queues grow, load shedding engages and
retry storms feed back, exactly the regime the paper's Section 5
elasticity findings presume.

Everything runs in virtual time: arrivals are scheduled timestamps, the
cluster charges deterministic processing/transfer times, and all
randomness flows from seeded streams (per-user trace streams spawned
from one dedicated :class:`numpy.random.SeedSequence` child block; the
clients reuse the cluster's keyed BLAKE2 seeding).  Two replays of the
same ``(trace, config, seed)`` produce byte-identical access logs and
telemetry JSON — in one process or across processes.

Scheduling semantics (also in ``docs/TELEMETRY.md``):

* ``speedup=s`` divides every arrival timestamp by ``s``; each arrival
  is ``t/s`` exactly, so for power-of-two speedups the inter-arrival
  times scale *exactly* by ``1/s`` (IEEE division by a power of two is
  lossless) and for arbitrary speedups they scale to within one ulp.
* ``rate=r`` picks the speedup that makes the mean offered rate of the
  scheduled trace equal ``r`` operations/second.
* Arrival order is the **stable sort** of the trace by timestamp: ties
  keep their trace order, so a trace is replayed the same way every
  time regardless of how it was assembled.
* ``mode="open"`` (the default) sets each client's clock *to* the
  scheduled arrival even if the client's previous operation is still in
  flight — offered load ignores completions.  ``mode="closed"`` keeps
  the historical semantics (``max(clock, arrival)``); at offered rates
  the cluster can absorb, the two modes are request-identical, which
  the equivalence tests pin.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from ..logs.columnar import ColumnarTrace
from ..logs.io import tsv_digest
from ..logs.schema import Direction, DeviceType, LogRecord
from .client import ClientNetwork
from .cluster import ServiceCluster
from .telemetry import SloPolicy, TelemetryCollector, TelemetrySnapshot

_MB = 1024.0 * 1024.0


@dataclass(frozen=True, slots=True)
class ReplayOp:
    """One timestamped operation of a prepared replay trace.

    ``arrival`` is virtual seconds since the trace origin.  Store
    operations carry the content to upload; retrieve operations name a
    previously stored file of the same user (the driver resolves the URL
    from its own store ledger and counts unresolvable retrieves as
    skipped rather than failing the replay).
    """

    arrival: float
    user_id: int
    device_id: str
    device_type: DeviceType
    direction: Direction
    name: str
    content_seed: bytes = b""
    size: int = 0

    def __post_init__(self) -> None:
        if self.arrival < 0:
            raise ValueError("arrival must be >= 0")
        if self.direction is Direction.STORE and self.size <= 0:
            raise ValueError("store ops need a positive size")


#: Per field of :class:`ReplayOp`, in order, the slot's member descriptor
#: ``(__get__, __set__)`` pair: :func:`schedule_arrivals` copies ops
#: through them, bypassing the frozen ``__setattr__``.
_SLOTS = tuple(
    (getattr(ReplayOp, f.name).__get__, getattr(ReplayOp, f.name).__set__)
    for f in fields(ReplayOp)
)


def synthetic_replay_trace(
    n_users: int,
    seed: int,
    *,
    sessions_per_user: int = 3,
    retrieve_fraction: float = 0.25,
) -> tuple[ReplayOp, ...]:
    """A deterministic store/retrieve trace with paper-shaped structure.

    Sessions sit hours apart with tens of seconds between files (the
    Fig 3 bimodal interval structure); sizes follow the two-scale
    exponential mixture of the R2 workload.  A ``retrieve_fraction``
    share of later-session operations re-fetches a file the same user
    stored in an earlier session.  All randomness comes from per-user
    streams spawned off one dedicated SeedSequence child block, so the
    trace is a pure function of ``(n_users, seed)`` and adding users
    never perturbs existing ones.
    """
    if n_users < 1:
        raise ValueError("need at least one user")
    if not 0.0 <= retrieve_fraction < 1.0:
        raise ValueError("retrieve_fraction must be in [0, 1)")
    master = np.random.SeedSequence([seed, 0x4E97A1])
    user_seqs = master.spawn(n_users)
    ops: list[ReplayOp] = []
    for index in range(n_users):
        user = index + 1
        rng = np.random.default_rng(user_seqs[index])
        device_type = DeviceType.ANDROID if user % 3 else DeviceType.IOS
        device_id = f"m{user}"
        base = float(rng.uniform(0.0, 1800.0))
        session_starts = [base]
        for _ in range(sessions_per_user - 1):
            session_starts.append(
                session_starts[-1] + float(rng.uniform(4.0, 9.0)) * 3600.0
            )
        stored: list[str] = []
        for s, start in enumerate(session_starts):
            n_files = int(rng.integers(3, 6))
            offsets = np.cumsum(rng.uniform(20.0, 60.0, size=n_files))
            for f in range(n_files):
                arrival = start + float(offsets[f])
                retrieve = (
                    stored and float(rng.random()) < retrieve_fraction
                )
                if retrieve:
                    name = stored[int(rng.integers(0, len(stored)))]
                    ops.append(
                        ReplayOp(
                            arrival=arrival,
                            user_id=user,
                            device_id=device_id,
                            device_type=device_type,
                            direction=Direction.RETRIEVE,
                            name=name,
                        )
                    )
                    continue
                if float(rng.random()) < 0.15:
                    size = int(rng.exponential(3.0 * _MB)) + 1
                else:
                    size = int(rng.exponential(1.0 * _MB)) + 1
                size = min(size, 8 * 512 * 1024)  # cap chunk count
                name = f"u{user}s{s}f{f}.bin"
                ops.append(
                    ReplayOp(
                        arrival=arrival,
                        user_id=user,
                        device_id=device_id,
                        device_type=device_type,
                        direction=Direction.STORE,
                        name=name,
                        content_seed=f"u{user}/s{s}/f{f}".encode(),
                        size=size,
                    )
                )
                stored.append(name)
    ops.sort(key=lambda op: op.arrival)
    return tuple(ops)


def natural_rate(trace: tuple[ReplayOp, ...]) -> float:
    """Mean offered rate of the unscaled trace, operations/second."""
    if len(trace) < 2:
        return 0.0
    span = max(op.arrival for op in trace) - min(op.arrival for op in trace)
    return (len(trace) - 1) / span if span > 0 else 0.0


def resolve_speedup(
    trace: tuple[ReplayOp, ...],
    speedup: float = 1.0,
    rate: float | None = None,
) -> float:
    """The effective timeline compression factor for one replay.

    ``rate`` overrides ``speedup``: it picks the factor that makes the
    scheduled trace's mean offered rate equal ``rate`` ops/second.
    """
    if speedup <= 0:
        raise ValueError("speedup must be positive")
    if rate is None:
        return speedup
    if rate <= 0:
        raise ValueError("rate must be positive")
    base = natural_rate(trace)
    if base <= 0:
        # Single-op and zero-span traces make natural_rate() 0.0; dividing
        # through would be a ZeroDivisionError with no hint at the cause.
        raise ValueError(
            "trace has no measurable rate (it needs >= 2 operations "
            "spanning > 0 seconds); pass speedup instead of rate"
        )
    return rate / base


def schedule_arrivals(
    trace: tuple[ReplayOp, ...],
    *,
    speedup: float = 1.0,
    rate: float | None = None,
) -> tuple[ReplayOp, ...]:
    """Stable-sort the trace by arrival and rescale the timeline.

    Returns new :class:`ReplayOp` instances whose arrival is the
    original times ``1/speedup`` (``rate`` overrides ``speedup`` by
    targeting a mean offered rate).  The scale factor is applied as one
    multiplication per arrival, so a power-of-two speedup rescales
    timestamps — and therefore inter-arrival gaps — exactly.  The sort
    is stable: equal-arrival ops keep their trace order.

    The copies skip :meth:`ReplayOp.__post_init__`: the scale is
    positive, so ``arrival >= 0`` still holds, and direction and size are
    copied unchanged.
    """
    scale = 1.0 / resolve_speedup(trace, speedup, rate)
    (get_arrival, set_arrival), *others = _SLOTS
    new = object.__new__
    scheduled = []
    for op in sorted(trace, key=get_arrival):
        copy = new(ReplayOp)
        set_arrival(copy, get_arrival(op) * scale)
        for get, put in others:
            put(copy, get(op))
        scheduled.append(copy)
    return tuple(scheduled)


@dataclass
class ReplayResult:
    """Outcome of one replay: counters, telemetry and the access log.

    ``log`` is the cluster's merged access log, columnar; ``records``
    materializes it as :class:`LogRecord` objects when asked.
    """

    mode: str
    speedup: float
    offered_rate: float
    ops_total: int = 0
    ops_completed: int = 0
    ops_aborted: int = 0
    ops_skipped: int = 0
    retries: int = 0
    failovers: int = 0
    telemetry: TelemetryCollector = field(
        default_factory=TelemetryCollector
    )
    log: ColumnarTrace = field(default_factory=ColumnarTrace.empty)

    @property
    def records(self) -> tuple[LogRecord, ...]:
        """The access log as records, built from ``log`` on each access.

        Each access costs O(n) in the log's length: read it once into a
        local rather than indexing ``records`` repeatedly.  Not cached:
        a kept tuple would be a second copy of the log.
        """
        return tuple(self.log.iter_records())

    def log_digest(self) -> str:
        """MD5 over the TSV serialization of the time-sorted access log."""
        return tsv_digest(self.log)

    def snapshot(self, slo: SloPolicy | None = None) -> TelemetrySnapshot:
        return self.telemetry.snapshot(slo)


def replay_trace(
    trace: tuple[ReplayOp, ...],
    cluster: ServiceCluster,
    *,
    speedup: float = 1.0,
    rate: float | None = None,
    mode: str = "open",
    seed: int = 0,
    network: ClientNetwork | None = None,
    window_seconds: float = 60.0,
    keep_samples: bool = True,
) -> ReplayResult:
    """Fire ``trace`` at ``cluster`` on the scheduled arrival process.

    Operations are issued in stable arrival order.  In ``open`` mode the
    client clock is *set to* each scheduled arrival — offered load is
    independent of completions, so overload is observable; ``closed``
    mode reproduces the historical semantics.  Operation latency is
    measured as completion minus scheduled arrival (sojourn time,
    including every retry and backoff), recorded per direction; the
    cluster's merged access log is then folded into the request/window
    counters, so the telemetry sees every attempt the front-ends logged.
    """
    if mode not in ("open", "closed"):
        raise ValueError("mode must be 'open' or 'closed'")
    effective = resolve_speedup(trace, speedup, rate)
    scheduled = schedule_arrivals(trace, speedup=effective)
    result = ReplayResult(
        mode=mode,
        speedup=effective,
        offered_rate=natural_rate(scheduled),
        telemetry=TelemetryCollector(
            window_seconds=window_seconds, keep_samples=keep_samples
        ),
    )
    clients: dict[int, object] = {}
    urls: dict[tuple[int, str], str] = {}
    for op in scheduled:
        client = clients.get(op.user_id)
        if client is None:
            client = cluster.new_client(
                op.user_id,
                op.device_id,
                op.device_type,
                network=network or ClientNetwork(
                    rtt=0.08, bandwidth=4_000_000.0
                ),
                seed=seed,
            )
            clients[op.user_id] = client
        if mode == "open":
            client.clock = op.arrival
        else:
            client.clock = max(client.clock, op.arrival)
        result.ops_total += 1
        if op.direction is Direction.STORE:
            report = client.store_file(op.name, op.content_seed, op.size)
            if report.completed and not report.deduplicated:
                urls[(op.user_id, op.name)] = report.url
        else:
            url = urls.get((op.user_id, op.name))
            if url is None:
                # The referenced store never completed; an open-loop
                # driver drops the dependent fetch instead of stalling.
                result.ops_total -= 1
                result.ops_skipped += 1
                continue
            report = client.retrieve_url(url)
        result.ops_completed += report.completed
        result.ops_aborted += not report.completed
        result.retries += report.retries
        result.failovers += report.failovers
        result.telemetry.record_operation(
            op.direction.value,
            report.finished_at - op.arrival,
            completed=report.completed,
        )
    result.log = cluster.access_log()
    result.telemetry.observe_log(result.log)
    result.telemetry.set_metadata_availability(cluster.metadata_availability())
    return result


__all__ = [
    "ReplayOp",
    "ReplayResult",
    "natural_rate",
    "replay_trace",
    "resolve_speedup",
    "schedule_arrivals",
    "synthetic_replay_trace",
]
