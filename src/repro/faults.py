"""Deterministic fault injection and failure recovery for the service layer.

The paper's Table 1 log schema carries a per-request *result* field: real
front-end logs record failed and retried requests next to successful ones,
and the retransmission-driven idle gaps the paper diagnoses in its TCP
section are exactly the silences a retrying client produces.  This module
supplies the failure side of the service simulator:

* :class:`FaultConfig` / :class:`FaultPlan` — a seeded schedule of
  front-end crash/restart windows, slow-server episodes (latency
  multipliers), metadata-server outages and per-request transient error
  probabilities.  All randomness is drawn from per-component streams
  spawned off one master :class:`numpy.random.SeedSequence` (the same
  idiom :mod:`repro.workload.parallel` uses for per-user streams), so a
  plan is byte-for-byte reproducible from ``(config, n_frontends, seed)``
  and one component's draws never perturb another's.
* :class:`ZoneConfig` — the *correlation* knobs (all off by default):
  front-ends grouped into seeded failure zones whose crash windows come
  from one shared zone-level Poisson process (real incidents take a rack
  or zone down at once, not one server), metadata outages that raise
  effective front-end load during and shortly after each outage window,
  and retry-storm feedback — shed/unavailable outcomes raise a
  deterministic per-front-end pressure counter that increases shed
  probability until the retries drain, so a burst of failovers can
  cascade across the fleet.
* :class:`RetryPolicy` — the client-side recovery policy: capped
  exponential backoff with deterministic jitter, a per-operation timeout,
  a bounded attempt budget and front-end failover.
* :class:`RequestOutcome` — the typed result every front-end handler
  returns instead of unconditional success.
* :class:`FaultStats` — counters for injected faults and recovery actions,
  aggregated by :class:`~repro.service.cluster.ServiceCluster`.

With no plan (or a disabled one) the service layer takes the exact same
code path it always did: zero extra RNG draws, zero clock perturbation,
record-identical access logs.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass, fields, replace

import numpy as np

from .logs.schema import ResultCode


class FaultKind(enum.Enum):
    """The fault classes a :class:`FaultPlan` can schedule."""

    CRASH = "crash"
    ZONE_CRASH = "zone_crash"
    TRANSIENT_ERROR = "transient_error"
    SLOW_EPISODE = "slow_episode"
    METADATA_OUTAGE = "metadata_outage"
    OVERLOAD = "overload"
    PRESSURE_SHED = "pressure_shed"


class MetadataUnavailableError(RuntimeError):
    """Raised by the metadata server during a scheduled outage window."""


@dataclass(frozen=True)
class Window:
    """One half-open downtime/slowdown interval ``[start, end)``."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError("window must not end before it starts")

    def contains(self, t: float) -> bool:
        return self.start <= t < self.end

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class ZoneConfig:
    """Correlation knobs: failure zones, overload coupling, retry storms.

    The default instance is fully benign (``enabled == False``); a
    :class:`FaultConfig` carrying it (or ``zones=None``) reproduces the
    independent per-component fault model exactly — same seed-stream
    layout, same schedules, byte-identical access logs.

    Attributes
    ----------
    n_zones:
        Number of failure zones the front-end fleet is partitioned into
        (0 disables zone grouping).  Assignment is a seeded permutation
        dealt round-robin, so it is a pure function of the plan seed.
    zone_crash_rate:
        Zone-level crash events per zone-hour.  Every front-end in the
        zone is down for the whole window — shared-fate outages on top of
        the per-server residual ``crash_rate``.
    zone_mean_downtime:
        Mean seconds a zone-level crash window lasts.
    overload_factor:
        Fraction of each front-end's capacity consumed by phantom retry
        load while the metadata server is down (clients that cannot reach
        metadata hammer the data path).  Decays linearly to zero over
        ``overload_recovery`` seconds after the outage lifts.
    overload_recovery:
        Seconds the post-outage overload takes to drain.
    pressure_per_failure:
        Retry-storm feedback: pressure added to a front-end's counter on
        every shed/unavailable outcome it serves (0 disables feedback).
    pressure_drain_rate:
        Pressure units drained per second of quiet time.
    pressure_shed_scale:
        Half-saturation constant: at pressure ``P`` the extra shed
        probability is ``P / (P + pressure_shed_scale)``.
    """

    n_zones: int = 0
    zone_crash_rate: float = 0.0
    zone_mean_downtime: float = 60.0
    overload_factor: float = 0.0
    overload_recovery: float = 60.0
    pressure_per_failure: float = 0.0
    pressure_drain_rate: float = 0.5
    pressure_shed_scale: float = 8.0

    def __post_init__(self) -> None:
        if self.n_zones < 0:
            raise ValueError("n_zones must be >= 0")
        if self.zone_crash_rate < 0:
            raise ValueError("zone_crash_rate must be >= 0")
        if self.zone_crash_rate > 0 and self.n_zones < 1:
            raise ValueError("zone_crash_rate needs n_zones >= 1")
        if self.zone_mean_downtime <= 0:
            raise ValueError("zone_mean_downtime must be positive")
        if not 0.0 <= self.overload_factor <= 1.0:
            raise ValueError("overload_factor must be in [0, 1]")
        if self.overload_recovery < 0:
            raise ValueError("overload_recovery must be >= 0")
        if self.pressure_per_failure < 0:
            raise ValueError("pressure_per_failure must be >= 0")
        if self.pressure_drain_rate <= 0:
            raise ValueError("pressure_drain_rate must be positive")
        if self.pressure_shed_scale <= 0:
            raise ValueError("pressure_shed_scale must be positive")

    @property
    def enabled(self) -> bool:
        """Whether any correlation mechanism is armed."""
        return (
            (self.n_zones > 0 and self.zone_crash_rate > 0)
            or self.overload_factor > 0
            or self.pressure_per_failure > 0
        )


@dataclass(frozen=True)
class FaultConfig:
    """Knobs of the fault model.  All rates are per *hour* of sim time.

    The default instance is fully benign (every rate zero); a plan built
    from it reports ``enabled == False`` and the service layer skips all
    fault bookkeeping.  :meth:`at_rate` scales the whole model with one
    severity knob — the x-axis of experiment R2.
    """

    #: Probability that any single front-end request fails transiently.
    error_rate: float = 0.0
    #: Front-end crashes per server-hour.
    crash_rate: float = 0.0
    #: Mean seconds a crashed front-end stays down before restarting.
    crash_mean_downtime: float = 30.0
    #: Slow-server episodes per server-hour.
    slow_rate: float = 0.0
    #: Mean seconds a slow episode lasts.
    slow_mean_duration: float = 120.0
    #: Latency multiplier applied to ``Tsrv`` and transfer time while slow.
    slow_multiplier: float = 4.0
    #: Metadata-server outages per hour.
    metadata_outage_rate: float = 0.0
    #: Mean seconds a metadata outage lasts.
    metadata_mean_downtime: float = 20.0
    #: Seconds of sim time the schedules cover.  Queries beyond the
    #: horizon are benign (no crash/slow/outage windows are planned there).
    horizon: float = 7 * 24 * 3600.0
    #: Optional correlation layer (failure zones, overload coupling,
    #: retry-storm feedback).  ``None`` — or a benign :class:`ZoneConfig`
    #: — reproduces the independent model exactly.
    zones: ZoneConfig | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.error_rate < 1.0:
            raise ValueError("error_rate must be in [0, 1)")
        for name in (
            "crash_rate",
            "crash_mean_downtime",
            "slow_rate",
            "slow_mean_duration",
            "metadata_outage_rate",
            "metadata_mean_downtime",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.slow_multiplier < 1.0:
            raise ValueError("slow_multiplier must be >= 1")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")

    @property
    def enabled(self) -> bool:
        """Whether this config can produce any fault at all."""
        return (
            self.error_rate > 0
            or self.crash_rate > 0
            or self.slow_rate > 0
            or self.metadata_outage_rate > 0
            or self.correlated
        )

    @property
    def correlated(self) -> bool:
        """Whether the correlation layer (zones/overload/pressure) is armed."""
        return self.zones is not None and self.zones.enabled

    @classmethod
    def at_rate(
        cls,
        rate: float,
        *,
        horizon: float = 7 * 24 * 3600.0,
        zones: ZoneConfig | None = None,
    ) -> "FaultConfig":
        """One-knob severity scaling used by experiments R2/R3 and the CLI.

        ``rate`` is the per-request transient error probability; crash,
        slow-episode and metadata-outage frequencies scale linearly with
        it (calibrated so ``rate=0.05`` yields a few crash and outage
        windows per server-day).
        """
        if not 0.0 <= rate < 1.0:
            raise ValueError(
                "rate must be in [0, 1) — it is the per-request transient "
                f"error probability, got {rate!r}"
            )
        return cls(
            error_rate=rate,
            crash_rate=rate * 2.0,
            slow_rate=rate * 4.0,
            metadata_outage_rate=rate * 1.0,
            horizon=horizon,
            zones=zones,
        )


@dataclass
class FaultStats:
    """Counters for injected faults and the recovery actions they forced.

    ``crash_rejections`` and ``shed_requests`` are umbrella counters —
    every rejection/shed counts there exactly once.  The correlation-layer
    counters below them attribute subsets: ``zone_crash_rejections`` are
    the crash rejections caused by a shared zone-level window,
    ``overload_sheds`` the sheds where metadata-outage overload (not the
    real in-flight queue) pushed the front-end over capacity, and
    ``pressure_sheds`` the sheds triggered by retry-storm pressure.  They
    are *not* added again by :attr:`total_faults`.

    The metadata-tier counters follow the same pattern under the
    ``metadata_rejections`` umbrella: ``shard_rejections`` are the
    rejections issued by a sharded tier (equal to the umbrella when the
    tier is armed — the single-server path never touches it), and the
    read-path attribution counters count successful reads a replica
    served (``replica_reads``), the subset served by a replica *because*
    the primary was down (``failover_reads``), and quorum reads where an
    up-but-catching-up replica was skipped (``stale_reads_avoided``).
    """

    injected_errors: int = 0
    crash_rejections: int = 0
    shed_requests: int = 0
    timeouts: int = 0
    metadata_rejections: int = 0
    retries: int = 0
    failovers: int = 0
    backoff_seconds: float = 0.0
    aborted_transfers: int = 0
    completed_transfers: int = 0
    zone_crash_rejections: int = 0
    overload_sheds: int = 0
    pressure_sheds: int = 0
    shard_rejections: int = 0
    replica_reads: int = 0
    stale_reads_avoided: int = 0
    failover_reads: int = 0

    @property
    def total_faults(self) -> int:
        return (
            self.injected_errors
            + self.crash_rejections
            + self.shed_requests
            + self.timeouts
            + self.metadata_rejections
        )

    def merge(self, other: "FaultStats") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def copy(self) -> "FaultStats":
        """An independent snapshot of the current counters."""
        return FaultStats(**self.as_dict())

    def delta(self, since: "FaultStats") -> "FaultStats":
        """Counters accrued since the ``since`` snapshot.

        The autoscaling loop shares one plan (one ledger) across many
        windows; each window's books are ``plan.stats.delta(snapshot)``
        against a :meth:`copy` taken at the window boundary, and those
        deltas reconcile exactly against that window's telemetry.
        """
        return FaultStats(**{
            f.name: getattr(self, f.name) - getattr(since, f.name)
            for f in fields(self)
        })

    def as_dict(self) -> dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _poisson_windows(
    rng: np.random.Generator, rate_per_hour: float, mean_duration: float, horizon: float
) -> tuple[Window, ...]:
    """Sample non-overlapping outage windows from a Poisson arrival process.

    Arrivals with exponential interarrival times at ``rate_per_hour``;
    each window lasts an exponential ``mean_duration``.  A window opening
    inside the previous one is pushed back to its end, preserving the
    half-open, sorted, disjoint invariant binary search relies on.  Every
    emitted window satisfies ``start < end <= horizon``: a pushback that
    lands at (or beyond) the horizon ends the schedule instead of
    appending a degenerate zero-length window.
    """
    if rate_per_hour <= 0 or mean_duration <= 0:
        return ()
    windows: list[Window] = []
    t = float(rng.exponential(3600.0 / rate_per_hour))
    while t < horizon:
        if windows and t < windows[-1].end:
            t = windows[-1].end
            if t >= horizon:
                break
        duration = float(rng.exponential(mean_duration))
        if duration <= 0.0:
            # Degenerate exponential draw: skip rather than emit an
            # empty window (start == end) that contains no instant.
            t += float(rng.exponential(3600.0 / rate_per_hour))
            continue
        windows.append(Window(start=t, end=min(t + duration, horizon)))
        t += duration + float(rng.exponential(3600.0 / rate_per_hour))
    return tuple(windows)


def _in_windows(windows: tuple[Window, ...], starts: tuple[float, ...], t: float) -> Window | None:
    """Return the window containing ``t``, if any (binary search)."""
    index = bisect.bisect_right(starts, t) - 1
    if index >= 0 and windows[index].contains(t):
        return windows[index]
    return None


class FaultPlan:
    """A deterministic, precomputed fault schedule for one deployment.

    Parameters
    ----------
    config:
        The fault model knobs.
    n_frontends:
        Number of front-end servers the plan covers.
    seed:
        Master seed.  Component streams are spawned off
        ``SeedSequence(seed)`` in a fixed order — per-frontend crash,
        slow-episode and transient-error streams, then the metadata
        stream — so adding front-ends never reshuffles existing ones,
        and the same ``(config, n_frontends, seed)`` always yields the
        same schedule and the same per-request error draws.  When the
        correlation layer is armed, *additional* children are spawned
        strictly after the independent block — one zone-assignment
        stream, one crash stream per zone, one pressure stream per
        front-end — so a correlated plan never reshuffles the schedules
        an independent plan would draw from the same seed.
    n_metadata_shards, n_metadata_replicas:
        Sharded metadata tier shape.  At the default ``(1, 0)`` the plan
        keeps the single metadata-server schedule untouched (zero-knob
        identity with the historical model).  Otherwise each shard gets
        a child block spawned *from the metadata SeedSequence stream*
        (``metadata_seq.spawn``), and each shard child spawns one
        sub-child per node (primary + replicas).  Spawning children off
        a SeedSequence never changes the state it generates, so the
        single-server windows — and every other independent schedule —
        are byte-identical whether or not the tier is armed; and because
        shard ``s``/node ``r`` keep their spawn keys as shards or
        replicas are added, growing the tier never reshuffles existing
        node schedules.

    All window schedules (including zone-level and per-node metadata
    ones), and the sharded tier's overload signal derived from them, are
    materialized at construction; only the per-request
    transient-error and pressure-shed draws consume RNG state at query
    time (in the deterministic order the single-threaded simulator
    issues requests).
    """

    def __init__(
        self,
        config: FaultConfig,
        *,
        n_frontends: int = 1,
        seed: int = 0,
        n_metadata_shards: int = 1,
        n_metadata_replicas: int = 0,
    ) -> None:
        if n_frontends < 1:
            raise ValueError("need at least one front-end")
        if n_metadata_shards < 1:
            raise ValueError("need at least one metadata shard")
        if n_metadata_replicas < 0:
            raise ValueError("n_metadata_replicas must be >= 0")
        self.config = config
        # The config is frozen, so whether it can fault is fixed for the
        # plan's lifetime; the service layers read it on every request.
        self._enabled = config.enabled
        self.n_frontends = n_frontends
        self.seed = seed
        self.n_metadata_shards = n_metadata_shards
        self.n_metadata_replicas = n_metadata_replicas
        self.stats = FaultStats()
        zones = config.zones if config.correlated else None
        self.zone_config = zones
        n_zones = zones.n_zones if zones is not None else 0
        master = np.random.SeedSequence(seed)
        # 3 streams per front-end + 1 metadata stream, in a fixed order.
        # The correlation layer's streams come strictly after, so the
        # first 3n+1 children — and hence the independent schedules —
        # are identical whether or not correlation is armed.
        n_children = 3 * n_frontends + 1
        if zones is not None:
            n_children += 1 + n_zones + n_frontends
        children = master.spawn(n_children)
        crash_seqs = children[0:n_frontends]
        slow_seqs = children[n_frontends : 2 * n_frontends]
        error_seqs = children[2 * n_frontends : 3 * n_frontends]
        metadata_seq = children[3 * n_frontends]
        self._crash_windows: list[tuple[Window, ...]] = []
        self._slow_windows: list[tuple[Window, ...]] = []
        for fid in range(n_frontends):
            self._crash_windows.append(
                _poisson_windows(
                    np.random.default_rng(crash_seqs[fid]),
                    config.crash_rate,
                    config.crash_mean_downtime,
                    config.horizon,
                )
            )
            self._slow_windows.append(
                _poisson_windows(
                    np.random.default_rng(slow_seqs[fid]),
                    config.slow_rate,
                    config.slow_mean_duration,
                    config.horizon,
                )
            )
        self._metadata_windows = _poisson_windows(
            np.random.default_rng(metadata_seq),
            config.metadata_outage_rate,
            config.metadata_mean_downtime,
            config.horizon,
        )
        self._crash_starts = [
            tuple(w.start for w in ws) for ws in self._crash_windows
        ]
        self._slow_starts = [
            tuple(w.start for w in ws) for ws in self._slow_windows
        ]
        self._metadata_starts = tuple(w.start for w in self._metadata_windows)
        self._error_rngs = [np.random.default_rng(s) for s in error_seqs]
        # ------------------------------------------------------------------
        # Sharded metadata tier: per-node outage schedules.
        # ------------------------------------------------------------------
        self._metatier_windows: tuple[tuple[tuple[Window, ...], ...], ...] = ()
        self._metatier_starts: tuple[tuple[tuple[float, ...], ...], ...] = ()
        if (n_metadata_shards, n_metadata_replicas) != (1, 0):
            # Child blocks spawned *from* the metadata stream: spawning
            # children never perturbs the generator state that
            # ``default_rng(metadata_seq)`` above already drew from, so
            # arming the tier leaves the single-server windows — and every
            # other independent schedule — byte-identical.
            shard_seqs = metadata_seq.spawn(n_metadata_shards)
            tier_windows = []
            for shard in range(n_metadata_shards):
                node_seqs = shard_seqs[shard].spawn(1 + n_metadata_replicas)
                tier_windows.append(
                    tuple(
                        _poisson_windows(
                            np.random.default_rng(node_seqs[node]),
                            config.metadata_outage_rate,
                            config.metadata_mean_downtime,
                            config.horizon,
                        )
                        for node in range(1 + n_metadata_replicas)
                    )
                )
            self._metatier_windows = tuple(tier_windows)
            self._metatier_starts = tuple(
                tuple(tuple(w.start for w in ws) for ws in per_shard)
                for per_shard in self._metatier_windows
            )
        # ------------------------------------------------------------------
        # Correlation layer: zone schedules, assignment, pressure state.
        # ------------------------------------------------------------------
        self._zone_of: tuple[int, ...] = ()
        self._zone_windows: tuple[tuple[Window, ...], ...] = ()
        self._zone_starts: tuple[tuple[float, ...], ...] = ()
        self._pressure_rngs: list[np.random.Generator] = []
        self._pressure = [0.0] * n_frontends
        self._pressure_time = [0.0] * n_frontends
        if zones is not None:
            base = 3 * n_frontends + 1
            assign_seq = children[base]
            zone_seqs = children[base + 1 : base + 1 + n_zones]
            pressure_seqs = children[base + 1 + n_zones :]
            if n_zones > 0:
                # Seeded zone assignment: a permutation of the fleet dealt
                # round-robin, so zones are balanced but membership is a
                # pure function of the plan seed.
                order = np.random.default_rng(assign_seq).permutation(
                    n_frontends
                )
                zone_of = [0] * n_frontends
                for position, fid in enumerate(order.tolist()):
                    zone_of[fid] = position % n_zones
                self._zone_of = tuple(zone_of)
                self._zone_windows = tuple(
                    _poisson_windows(
                        np.random.default_rng(zone_seq),
                        zones.zone_crash_rate,
                        zones.zone_mean_downtime,
                        config.horizon,
                    )
                    for zone_seq in zone_seqs
                )
                self._zone_starts = tuple(
                    tuple(w.start for w in ws) for ws in self._zone_windows
                )
            self._pressure_rngs = [
                np.random.default_rng(s) for s in pressure_seqs
            ]
        # ------------------------------------------------------------------
        # Sharded-tier overload signal, precomputed (see overload_level).
        # ------------------------------------------------------------------
        self._overload_edges: tuple[float, ...] = ()
        self._overload_values: tuple[float, ...] = (0.0,)
        if zones is not None and zones.overload_factor > 0 and self.metatier_armed:
            self._overload_edges, self._overload_values = (
                self._sharded_overload_steps(zones.overload_factor)
            )

    # ------------------------------------------------------------------
    # Queries (all deterministic; windows never consume RNG state)
    # ------------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self._enabled

    @property
    def correlated(self) -> bool:
        """Whether the correlation layer is armed on this plan."""
        return self.zone_config is not None

    def frontend_down(self, frontend_id: int, t: float) -> bool:
        """Whether ``frontend_id`` is inside a crash window at ``t``.

        Covers both the per-server residual windows and the shared
        zone-level windows of the front-end's failure zone.
        """
        if (
            _in_windows(
                self._crash_windows[frontend_id],
                self._crash_starts[frontend_id],
                t,
            )
            is not None
        ):
            return True
        return self.zone_down(frontend_id, t)

    def downtime_remaining(self, frontend_id: int, t: float) -> float:
        """Seconds until every crash window containing ``t`` ends (0 if up)."""
        remaining = 0.0
        window = _in_windows(
            self._crash_windows[frontend_id], self._crash_starts[frontend_id], t
        )
        if window is not None:
            remaining = window.end - t
        zone = self.zone_of(frontend_id)
        if zone is not None:
            zone_window = _in_windows(
                self._zone_windows[zone], self._zone_starts[zone], t
            )
            if zone_window is not None:
                remaining = max(remaining, zone_window.end - t)
        return remaining

    # -- failure zones --------------------------------------------------

    def zone_of(self, frontend_id: int) -> int | None:
        """The front-end's failure zone, or ``None`` without zone grouping."""
        if not self._zone_of:
            return None
        return self._zone_of[frontend_id]

    def zone_down(self, frontend_id: int, t: float) -> bool:
        """Whether the front-end's *zone* is inside a shared crash window."""
        zone = self.zone_of(frontend_id)
        if zone is None:
            return False
        return (
            _in_windows(self._zone_windows[zone], self._zone_starts[zone], t)
            is not None
        )

    def zone_windows(self, zone: int) -> tuple[Window, ...]:
        """The shared crash windows of one failure zone."""
        return self._zone_windows[zone]

    def effective_crash_windows(self, frontend_id: int) -> tuple[Window, ...]:
        """Union of residual and zone-level crash windows, merged.

        The result is sorted, disjoint and horizon-bounded — the actual
        downtime intervals of the front-end, used by experiment R3 to
        compute concurrent-down fractions.
        """
        combined = list(self._crash_windows[frontend_id])
        zone = self.zone_of(frontend_id)
        if zone is not None:
            combined.extend(self._zone_windows[zone])
        combined.sort(key=lambda w: (w.start, w.end))
        merged: list[Window] = []
        for window in combined:
            if merged and window.start <= merged[-1].end:
                if window.end > merged[-1].end:
                    merged[-1] = Window(merged[-1].start, window.end)
            else:
                merged.append(window)
        return tuple(merged)

    def down_fraction(
        self, start: float, end: float, *, n_frontends: int | None = None
    ) -> float:
        """Time-averaged fraction of the fleet inside crash windows.

        Pure window arithmetic over :meth:`effective_crash_windows`
        (residual and zone-level downtime merged) for the first
        ``n_frontends`` servers — the *active* fleet, when an autoscaler
        runs a prefix of the plan's capacity — over ``[start, end)``.
        This is the concurrent-down pressure signal the fault-aware
        controller compensates for; 0.12 means 12% of fleet-seconds in
        the interval were spent down.
        """
        if end <= start:
            raise ValueError("need end > start")
        n = self.n_frontends if n_frontends is None else n_frontends
        if not 1 <= n <= self.n_frontends:
            raise ValueError(
                f"n_frontends must be in [1, {self.n_frontends}], got {n}"
            )
        down_seconds = 0.0
        for fid in range(n):
            for window in self.effective_crash_windows(fid):
                if window.start >= end:
                    break
                down_seconds += max(
                    0.0, min(window.end, end) - max(window.start, start)
                )
        return down_seconds / (n * (end - start))

    # -- metadata-outage overload coupling ------------------------------

    def overload_level(self, t: float) -> float:
        """Fraction of front-end capacity consumed by phantom retry load.

        1:1 with :attr:`ZoneConfig.overload_factor` while the metadata
        server is down (clients that cannot reach metadata hammer the
        data path with retries), decaying linearly to zero over
        ``overload_recovery`` seconds after the outage lifts.  Pure
        window arithmetic — no RNG state is consumed.
        """
        zones = self.zone_config
        if zones is None or zones.overload_factor <= 0:
            return 0.0
        if self.metatier_armed:
            # With the sharded tier armed, "metadata down" is a per-shard
            # condition: phantom retry load scales with the fraction of
            # shard primaries currently down (a shard whose primary is up
            # answers its users; its replicas' health does not drive
            # data-path retries).  The step function is precomputed at
            # construction (:meth:`_sharded_overload_steps`).
            return self._overload_values[bisect.bisect_right(self._overload_edges, t)]
        if _in_windows(self._metadata_windows, self._metadata_starts, t) is not None:
            return zones.overload_factor
        index = bisect.bisect_right(self._metadata_starts, t) - 1
        if index >= 0 and zones.overload_recovery > 0:
            end = self._metadata_windows[index].end
            if end <= t < end + zones.overload_recovery:
                return zones.overload_factor * (
                    1.0 - (t - end) / zones.overload_recovery
                )
        return 0.0

    def _sharded_overload_steps(
        self, overload_factor: float
    ) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """The sharded-tier overload signal as a right-continuous step function.

        The down-primary count only changes where a primary's own outage
        window, or the crash window of the zone it sits in, opens or
        closes.  All windows are half-open, so the count is constant on
        each ``[edges[i], edges[i + 1])`` and equals its value at the
        left edge.  Returns ``(edges, values)`` with ``values[0]`` the
        level before the first edge and ``values[i + 1]`` the level on
        ``[edges[i], edges[i + 1])``, so ``values[bisect_right(edges,
        t)]`` is the level at ``t``.
        """
        n_shards = self.n_metadata_shards
        edges: set[float] = set()
        for shard in range(n_shards):
            windows = list(self._metatier_windows[shard][0])
            zone = self.metadata_node_zone(shard, 0)
            if zone is not None:
                windows.extend(self._zone_windows[zone])
            for window in windows:
                edges.update((window.start, window.end))
        ordered = tuple(sorted(edges))
        values = [overload_factor * (0 / n_shards)]
        for edge in ordered:
            down = sum(
                1
                for shard in range(n_shards)
                if self.metadata_node_down(shard, 0, edge)
            )
            values.append(overload_factor * (down / n_shards))
        return ordered, tuple(values)

    # -- retry-storm pressure -------------------------------------------

    def _drain_pressure(self, frontend_id: int, now: float) -> None:
        zones = self.zone_config
        last = self._pressure_time[frontend_id]
        if now > last:
            self._pressure[frontend_id] = max(
                0.0,
                self._pressure[frontend_id]
                - (now - last) * zones.pressure_drain_rate,
            )
            self._pressure_time[frontend_id] = now

    def note_failure_pressure(self, frontend_id: int, now: float) -> None:
        """Record one shed/unavailable outcome on a front-end.

        Raises the front-end's pressure counter by
        ``pressure_per_failure`` (after draining elapsed quiet time), so
        a burst of failovers makes subsequent sheds more likely — the
        retry-storm feedback loop.  No-op when feedback is disabled.
        """
        zones = self.zone_config
        if zones is None or zones.pressure_per_failure <= 0:
            return
        self._drain_pressure(frontend_id, now)
        self._pressure[frontend_id] += zones.pressure_per_failure

    def pressure_level(self, frontend_id: int, now: float) -> float:
        """Current retry-storm pressure on a front-end (0 when disabled)."""
        zones = self.zone_config
        if zones is None or zones.pressure_per_failure <= 0:
            return 0.0
        self._drain_pressure(frontend_id, now)
        return self._pressure[frontend_id]

    def draw_pressure_shed(self, frontend_id: int, now: float) -> bool:
        """One pressure-induced shed decision for a front-end.

        At pressure ``P`` the shed probability is
        ``P / (P + pressure_shed_scale)`` — saturating, so storms raise
        the shed rate sharply but never to certainty.  Draws come from
        the front-end's dedicated pressure stream, so the error-stream
        draw sequence of the independent model is never perturbed.
        """
        zones = self.zone_config
        if zones is None or zones.pressure_per_failure <= 0:
            return False
        self._drain_pressure(frontend_id, now)
        pressure = self._pressure[frontend_id]
        if pressure <= 0.0:
            return False
        probability = pressure / (pressure + zones.pressure_shed_scale)
        return bool(
            self._pressure_rngs[frontend_id].random() < probability
        )

    def latency_multiplier(self, frontend_id: int, t: float) -> float:
        """Slow-episode multiplier on processing/transfer time (1.0 = healthy)."""
        window = _in_windows(
            self._slow_windows[frontend_id], self._slow_starts[frontend_id], t
        )
        return self.config.slow_multiplier if window is not None else 1.0

    def metadata_down(self, t: float) -> bool:
        """Whether the *single* metadata server is inside an outage window.

        Only meaningful for the unsharded model; a sharded tier queries
        :meth:`metadata_node_down` per shard/node instead.
        """
        return _in_windows(self._metadata_windows, self._metadata_starts, t) is not None

    # -- sharded metadata tier ------------------------------------------

    @property
    def metatier_armed(self) -> bool:
        """Whether per-shard/node metadata schedules were materialized."""
        return bool(self._metatier_windows)

    @property
    def n_metadata_nodes(self) -> int:
        """Nodes per shard: one primary plus the replicas."""
        return 1 + self.n_metadata_replicas

    def metadata_node_windows(self, shard: int, node: int) -> tuple[Window, ...]:
        """The outage windows of one shard node (node 0 is the primary)."""
        return self._metatier_windows[shard][node]

    def metadata_node_zone(self, shard: int, node: int) -> int | None:
        """The failure zone a shard node is placed in (zone-spread).

        Nodes of one shard are dealt across zones with a stride of one —
        ``(shard + node) % n_zones`` — so no two nodes of the same shard
        share a zone as long as the replication factor stays below the
        zone count.  ``None`` when zone grouping is off.
        """
        if not self._zone_windows:
            return None
        return (shard + node) % len(self._zone_windows)

    def metadata_node_down(self, shard: int, node: int, t: float) -> bool:
        """Whether a shard node is down at ``t``.

        Covers both the node's own outage windows and the shared crash
        window of the failure zone the node is placed in — a zone event
        takes its metadata nodes down along with its front-ends.
        """
        if (
            _in_windows(
                self._metatier_windows[shard][node],
                self._metatier_starts[shard][node],
                t,
            )
            is not None
        ):
            return True
        zone = self.metadata_node_zone(shard, node)
        if zone is None:
            return False
        return (
            _in_windows(self._zone_windows[zone], self._zone_starts[zone], t)
            is not None
        )

    def metadata_node_stale(self, shard: int, node: int, t: float) -> bool:
        """Whether a shard node is up but still catching up on the log.

        A node that just exited one of its *own* outage windows replays
        the primary's write log for ``metadata_mean_downtime`` seconds
        before it is quorum-fresh; a quorum read skips it during that
        catch-up (counted as ``stale_reads_avoided``).  Zone windows do
        not contribute staleness: a zone event severs the network, it
        does not lose local state.  ``False`` while the node is down.
        """
        if self.metadata_node_down(shard, node, t):
            return False
        starts = self._metatier_starts[shard][node]
        index = bisect.bisect_right(starts, t) - 1
        if index < 0:
            return False
        end = self._metatier_windows[shard][node][index].end
        return end <= t < end + self.config.metadata_mean_downtime

    def draw_transient_error(self, frontend_id: int) -> bool:
        """One per-request transient-error Bernoulli draw.

        Consumes the front-end's dedicated error stream, so the decision
        sequence is a pure function of the plan seed and this front-end's
        request order — other components' draws cannot perturb it.
        """
        if self.config.error_rate <= 0:
            return False
        return bool(self._error_rngs[frontend_id].random() < self.config.error_rate)

    def error_fraction(self, frontend_id: int) -> float:
        """Fraction of the nominal request duration spent before it failed."""
        return float(self._error_rngs[frontend_id].random())

    def crash_windows(self, frontend_id: int) -> tuple[Window, ...]:
        return self._crash_windows[frontend_id]

    def slow_windows(self, frontend_id: int) -> tuple[Window, ...]:
        return self._slow_windows[frontend_id]

    @property
    def metadata_windows(self) -> tuple[Window, ...]:
        return self._metadata_windows


@dataclass(frozen=True)
class RetryPolicy:
    """Client-side failure recovery: bounded retries with capped backoff.

    ``backoff_delay`` grows geometrically from ``base_delay`` and is
    capped at ``max_delay`` before jitter; jitter is a deterministic
    multiplicative perturbation drawn from the caller's RNG stream in
    ``[1 - jitter, 1 + jitter]``, so the delay never exceeds
    ``max_delay * (1 + jitter)`` (the bound the Hypothesis property in
    ``tests/test_faults.py`` enforces).
    """

    #: Total attempts per request, including the first (>= 1).
    max_attempts: int = 5
    #: First retry delay, seconds.
    base_delay: float = 0.2
    #: Cap on the pre-jitter delay, seconds.
    max_delay: float = 5.0
    #: Geometric growth factor between consecutive delays.
    multiplier: float = 2.0
    #: Jitter half-width as a fraction of the delay (0 disables jitter).
    jitter: float = 0.1
    #: Client-side per-operation timeout, seconds; a request whose
    #: (possibly slow-episode-inflated) duration exceeds it is abandoned
    #: and logged as :attr:`ResultCode.TIMEOUT`.
    request_timeout: float = 60.0
    #: Whether retries may rotate to an alternate front-end after an
    #: UNAVAILABLE/SHED outcome (content is replicated across the fleet;
    #: the metadata assignment is the *preferred* server, not the only one).
    failover: bool = True

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < self.base_delay:
            raise ValueError("need 0 <= base_delay <= max_delay")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        if self.request_timeout <= 0:
            raise ValueError("request_timeout must be positive")

    def nominal_delay(self, failure_index: int) -> float:
        """Pre-jitter delay after the ``failure_index``-th failure (1-based)."""
        if failure_index < 1:
            raise ValueError("failure_index is 1-based")
        return min(
            self.base_delay * self.multiplier ** (failure_index - 1),
            self.max_delay,
        )

    def backoff_delay(self, failure_index: int, rng: np.random.Generator) -> float:
        """Jittered delay to wait before retry number ``failure_index``."""
        delay = self.nominal_delay(failure_index)
        if self.jitter:
            delay *= 1.0 + self.jitter * (2.0 * float(rng.random()) - 1.0)
        return delay

    @property
    def max_backoff(self) -> float:
        """Upper bound on any single jittered delay."""
        return self.max_delay * (1.0 + self.jitter)


@dataclass(frozen=True)
class RequestOutcome:
    """Typed result of one front-end request attempt.

    ``elapsed`` is the client-perceived duration of the attempt —
    ``tchunk`` on success, the partial time spent before the failure
    otherwise — and is what advances the client clock.
    """

    result: ResultCode
    elapsed: float
    tchunk: float = 0.0
    tsrv: float = 0.0

    @property
    def ok(self) -> bool:
        return self.result is ResultCode.OK

    @property
    def retryable(self) -> bool:
        """Every non-OK outcome in the current model is retryable."""
        return not self.ok

    @property
    def wants_failover(self) -> bool:
        """Whether retrying on a different front-end could help."""
        return self.result in (ResultCode.UNAVAILABLE, ResultCode.SHED)


def scaled_config(config: FaultConfig, scale: float) -> FaultConfig:
    """Scale every rate in ``config`` by ``scale`` (durations unchanged).

    ``error_rate`` is a *probability*, not a frequency, so it is capped at
    0.999 to stay inside the ``[0, 1)`` domain ``FaultConfig`` enforces —
    scaling an already-severe config cannot push it past certain failure.
    The window frequencies (``crash_rate``, ``slow_rate``,
    ``metadata_outage_rate``, ``zone_crash_rate``) are true rates and
    scale without a cap.
    """
    if scale < 0:
        raise ValueError("scale must be >= 0")
    zones = config.zones
    if zones is not None and zones.zone_crash_rate > 0:
        zones = replace(zones, zone_crash_rate=zones.zone_crash_rate * scale)
    return replace(
        config,
        error_rate=min(config.error_rate * scale, 0.999),
        crash_rate=config.crash_rate * scale,
        slow_rate=config.slow_rate * scale,
        metadata_outage_rate=config.metadata_outage_rate * scale,
        zones=zones,
    )


__all__ = [
    "FaultConfig",
    "FaultKind",
    "FaultPlan",
    "FaultStats",
    "MetadataUnavailableError",
    "RequestOutcome",
    "RetryPolicy",
    "Window",
    "ZoneConfig",
    "scaled_config",
]
