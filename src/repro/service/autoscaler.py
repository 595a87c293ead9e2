"""Elastic front-end scaling against the diurnal workload.

Section 2.4's implication: "both storage servers and metadata servers
would be highly over-provisioned for most of the time, since the server
capacity is often designed to bear the peak load.  Elastic scale-in and
scale-out of the service as such are needed."  This module answers that
with one policy family of fleet controllers — static (peak), reactive
(follow the last load), fault-aware, predictive (seasonal forecast) and
oracle (perfect forecast) — evaluated at two levels.

**The closed form** (:func:`provision`, compared by A11) runs a
controller over an hourly load profile with fault-free signals and
prices it in server-hours (cost) and under-provisioned hours (SLO risk).

**The chaos-coupled loop** (:func:`run_autoscaled_service`) runs the
same controllers inside the live service path: a window-by-window
simulation where the controller's chosen fleet size becomes the
``n_frontends`` of a :class:`~repro.service.cluster.ServiceCluster`
sharing one :class:`~repro.faults.FaultPlan` across all windows, ops are
replayed open-loop, and per-window telemetry/fault-ledger deltas are fed
back to the controller.  The **fault-aware** controller reads those
pressure signals — shed-rate, retry-storm pressure sheds, and the
concurrent-down fraction — and holds or boosts the fleet through fault
windows instead of scaling into a crash trough; quiet windows let it
drain on a shortened cooldown, which is what keeps its server-hours at or
below the fault-blind reactive baseline.  Experiment R6 compares the
family under independent (R2) and correlated-zone (R3) chaos.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from ..faults import FaultConfig, FaultPlan, FaultStats, RetryPolicy
from ..logs.io import iter_tsv_blocks
from ..logs.schema import DeviceType
from ..workload.config import DiurnalModel
from .client import ClientNetwork, StorageClient
from .cluster import ServiceCluster
from .telemetry import TelemetryCollector, TelemetrySnapshot

#: Relative tolerance for float-division noise in integer ceilings.
CEIL_EPS = 1e-9


def _int_ceil(value: float, *, eps: float = CEIL_EPS) -> int:
    """Integer ceiling tolerant of float-division noise.

    ``math.ceil(2.1 / 0.7)`` is 4 because ``2.1 / 0.7`` is
    ``3.0000000000000004``; a provisioning loop must not buy a whole
    server for half an ulp.  Values within ``eps`` (relative) of an
    integer round to that integer instead of up.
    """
    nearest = round(value)
    if abs(value - nearest) <= eps * max(1.0, abs(value)):
        return int(nearest)
    return int(math.ceil(value))


def _servers_for(load: float, capacity: float, floor: int) -> int:
    return max(floor, _int_ceil(load / capacity))


def _servers_needed(load: float, capacity: float) -> int:
    """Minimum servers that cover ``load`` — no floor, noise-tolerant."""
    return _int_ceil(load / capacity)


@dataclass(frozen=True)
class AutoscalerPolicy:
    """Scaling policy shared by the whole strategy family.

    Every knob drives the same controllers in the closed form
    (:func:`provision`) and the live loop.  The fault knobs
    (``shed_alert`` through ``quiet_cooldown``) only matter to the
    fault-aware controller, and only on signals that carry fault
    pressure, which the closed form never feeds; ``period`` and
    ``forecast_guardrail`` drive the predictive controller in both.

    Attributes
    ----------
    capacity_per_server:
        Load units one server absorbs per hour/window (same unit as the
        profile, e.g. bytes — or offered operations in the live loop).
    headroom:
        Provision for ``headroom`` times the last observed load — the
        buffer that absorbs hour-over-hour growth.
    scale_down_cooldown:
        Consecutive hours the follower's target must sit at or below the
        fleet before a strictly-below target may shrink it (guards
        against thrashing on noisy profiles).
    min_servers:
        Floor on the fleet size.
    max_servers:
        Ceiling on the live-loop fleet (and the size of the shared fault
        plan, so growing the fleet never reshuffles fault schedules).
        :func:`provision` lifts it to the largest fleet the profile can
        call for, so the closed form has no ceiling.
    shed_alert:
        Shed-rate above which the fault-aware controller treats the last
        window as a fault window.
    down_alert:
        Concurrent-down fraction above which the fault-aware controller
        compensates for lost capacity and refuses to scale down — a
        blip below this is background noise, not a crash trough.
    boost_factor:
        Fleet multiplier the fault-aware controller applies while sheds
        are being observed (capacity was insufficient, not just skewed).
    max_down_compensation:
        Cap on the concurrent-down fraction used for capacity
        compensation (protects against dividing by ~0 when the whole
        fleet is briefly down).
    quiet_cooldown:
        Shortened scale-down cooldown the fault-aware controller uses
        after a fully quiet window — the drain that pays for the boosts.
    period:
        Seasonality period (windows per cycle) the predictive controller
        fits.
    forecast_guardrail:
        Mean relative forecast error above which the predictive
        controller stops trusting the seasonal forecast alone and
        provisions ``max(forecast, last observation)``.
    """

    capacity_per_server: float
    headroom: float = 1.3
    scale_down_cooldown: int = 2
    min_servers: int = 1
    max_servers: int = 64
    shed_alert: float = 0.01
    down_alert: float = 0.02
    boost_factor: float = 1.25
    max_down_compensation: float = 0.8
    quiet_cooldown: int = 0
    period: int = 24
    forecast_guardrail: float = 0.5

    def __post_init__(self) -> None:
        if self.capacity_per_server <= 0:
            raise ValueError("capacity_per_server must be positive")
        if self.headroom < 1.0:
            raise ValueError("headroom must be >= 1")
        if self.scale_down_cooldown < 0:
            raise ValueError("cooldown must be >= 0")
        if self.min_servers < 1:
            raise ValueError("min_servers must be >= 1")
        if self.max_servers < self.min_servers:
            raise ValueError("max_servers must be >= min_servers")
        if not 0.0 <= self.shed_alert <= 1.0:
            raise ValueError("shed_alert must be in [0, 1]")
        if not 0.0 <= self.down_alert <= 1.0:
            raise ValueError("down_alert must be in [0, 1]")
        if self.boost_factor < 1.0:
            raise ValueError("boost_factor must be >= 1")
        if not 0.0 <= self.max_down_compensation < 1.0:
            raise ValueError("max_down_compensation must be in [0, 1)")
        if self.quiet_cooldown < 0:
            raise ValueError("quiet_cooldown must be >= 0")
        if self.period < 1:
            raise ValueError("period must be >= 1")
        if self.forecast_guardrail < 0:
            raise ValueError("forecast_guardrail must be >= 0")


@dataclass(frozen=True)
class ProvisioningOutcome:
    """Cost and risk of one provisioning strategy over a profile."""

    strategy: str
    server_hours: int
    underprovisioned_hours: int
    n_hours: int
    #: Per-hour fleet sizes (empty for outcomes built before PR 10).
    trajectory: tuple[int, ...] = ()

    @property
    def violation_rate(self) -> float:
        return self.underprovisioned_hours / self.n_hours

    def savings_over(self, other: "ProvisioningOutcome") -> float:
        """Fractional server-hour savings relative to ``other``."""
        if other.server_hours <= 0:
            raise ValueError("reference strategy has no cost")
        return 1.0 - self.server_hours / other.server_hours


# ----------------------------------------------------------------------
# Fleet controllers: one implementation of each policy.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class WindowSignals:
    """What one finished window tells the controller about the service."""

    window: int
    load: float
    shed_rate: float
    failure_rate: float
    down_fraction: float
    pressure_sheds: int
    retries: int

    def quiet(self, policy: AutoscalerPolicy) -> bool:
        """No fault pressure observed: safe to drain the fleet fast."""
        return (
            self.shed_rate <= policy.shed_alert
            and self.down_fraction <= policy.down_alert
            and self.pressure_sheds == 0
        )


class FleetController:
    """Load-following controller — the reactive baseline.

    ``decide(window)`` picks the fleet for the next window from the
    signals observed so far (:meth:`observe` appends one
    :class:`WindowSignals` per finished window).  Window 0 bootstraps
    from the advertised first-window load *with headroom*, as if it were
    the first observation.  ``_below_streak`` counts consecutive windows
    whose target stayed at or below the fleet; a strictly-below target
    shrinks the fleet once the streak exceeds the cooldown, so plateau
    windows count toward the streak but never shrink the fleet.
    """

    name = "reactive"

    def __init__(
        self, policy: AutoscalerPolicy, planned_loads: tuple[float, ...]
    ) -> None:
        if not planned_loads:
            raise ValueError("empty workload")
        self.policy = policy
        self.planned_loads = planned_loads
        self.history: list[WindowSignals] = []
        self.fleet = self._clamp(
            self._servers(planned_loads[0] * policy.headroom)
        )
        self._below_streak = 0

    def _clamp(self, n: int) -> int:
        return max(self.policy.min_servers, min(self.policy.max_servers, n))

    def _servers(self, load: float) -> int:
        """Servers that cover ``load``, at least ``min_servers``."""
        policy = self.policy
        return _servers_for(
            load, policy.capacity_per_server, policy.min_servers
        )

    def _load_target(self) -> int:
        """Follow the last observed load with headroom."""
        return self._servers(self.history[-1].load * self.policy.headroom)

    def target(self) -> int:
        return self._load_target()

    def cooldown(self) -> int:
        return self.policy.scale_down_cooldown

    def observe(self, signals: WindowSignals) -> None:
        self.history.append(signals)

    def decide(self, window: int) -> int:
        if window == 0 or not self.history:
            return self.fleet
        target = self._clamp(self.target())
        if target > self.fleet:
            self.fleet = target
            self._below_streak = 0
        else:
            self._below_streak += 1
            if target < self.fleet and self._below_streak > self.cooldown():
                self.fleet = target
                self._below_streak = 0
        return self.fleet


class FaultAwareController(FleetController):
    """Reactive controller that refuses to scale into a crash trough.

    Three fault responses on top of the load follower:

    * **down compensation** — with a fraction ``d`` of the fleet inside
      crash windows last window, only ``1 - d`` of the servers do work,
      so the load target is divided by ``1 - min(d, cap)``;
    * **hold** — while any pressure signal is lit (shed-rate above
      ``shed_alert``, pressure sheds, or concurrent downs) the target
      never drops below the current fleet: a fault window's depressed
      throughput is not evidence of lower demand;
    * **boost** — while sheds are actually observed, capacity was
      insufficient, so the load target is multiplied by
      ``boost_factor`` (bounded by demand: a persistent storm converges
      to a boosted load target, it never ratchets to ``max_servers``).

    The bill for holds and boosts is paid on the way down: after a fully
    quiet window the scale-down cooldown shortens to
    ``policy.quiet_cooldown``, draining the fleet faster than the
    fault-blind baseline ever dares.
    """

    name = "fault-aware"

    def target(self) -> int:
        policy = self.policy
        last = self.history[-1]
        target = self._load_target()
        if last.down_fraction > policy.down_alert:
            usable = 1.0 - min(
                last.down_fraction, policy.max_down_compensation
            )
            target = _int_ceil(target / usable)
        if last.shed_rate > policy.shed_alert or last.pressure_sheds > 0:
            target = _int_ceil(target * policy.boost_factor)
        if not last.quiet(policy):
            target = max(target, self.fleet)
        return target

    def cooldown(self) -> int:
        if self.history and self.history[-1].quiet(self.policy):
            return self.policy.quiet_cooldown
        return self.policy.scale_down_cooldown


def _seasonal_forecast(history: list[WindowSignals], period: int) -> float:
    """One-step-ahead load forecast from same-phase observations.

    With less than one full cycle of history the forecast degenerates to
    the last observation (exactly what the reactive follower uses); after
    that it averages the same-phase load of up to the last three cycles.
    """
    n = len(history)
    if n < period:
        return history[-1].load
    same_phase = [
        history[n - k * period].load
        for k in range(1, 4)
        if n - k * period >= 0
    ]
    return sum(same_phase) / len(same_phase)


class PredictiveController(FleetController):
    """One-step-ahead seasonal forecaster with an error guardrail.

    Provisions the same-phase forecast (:func:`_seasonal_forecast`) times
    headroom.  Each forecast is scored when its window's load is
    observed; while the mean relative error of the last ``period``
    scored forecasts exceeds the guardrail, the basis is
    ``max(forecast, last observation)``.  No cooldown — the forecast
    anticipates declines as well as ramps.
    """

    name = "predictive"

    def __init__(
        self, policy: AutoscalerPolicy, planned_loads: tuple[float, ...]
    ) -> None:
        super().__init__(policy, planned_loads)
        self._errors: list[float] = []
        self._pending_forecast: float | None = None

    def observe(self, signals: WindowSignals) -> None:
        if self._pending_forecast is not None:
            self._errors.append(
                abs(self._pending_forecast - signals.load)
                / max(signals.load, 1.0)
            )
            self._pending_forecast = None
        super().observe(signals)

    def target(self) -> int:
        policy = self.policy
        forecast = _seasonal_forecast(self.history, policy.period)
        self._pending_forecast = forecast
        basis = forecast
        recent = self._errors[-policy.period:]
        if recent and sum(recent) / len(recent) > policy.forecast_guardrail:
            basis = max(forecast, self.history[-1].load)
        return self._servers(basis * policy.headroom)

    def cooldown(self) -> int:
        return 0


class StaticController(FleetController):
    """Provision the advertised peak permanently."""

    name = "static"

    def __init__(
        self, policy: AutoscalerPolicy, planned_loads: tuple[float, ...]
    ) -> None:
        super().__init__(policy, planned_loads)
        self.fleet = self._clamp(self._servers(max(planned_loads)))

    def decide(self, window: int) -> int:
        return self.fleet


class OracleController(FleetController):
    """Perfect load forecast (still blind to faults — the A11 oracle)."""

    name = "oracle"

    def decide(self, window: int) -> int:
        self.fleet = self._clamp(self._servers(self.planned_loads[window]))
        return self.fleet


CONTROLLERS: dict[str, type[FleetController]] = {
    "reactive": FleetController,
    "fault-aware": FaultAwareController,
    "predictive": PredictiveController,
    "static": StaticController,
    "oracle": OracleController,
}


def make_controller(
    strategy: str,
    policy: AutoscalerPolicy,
    planned_loads: tuple[float, ...],
) -> FleetController:
    """Instantiate one live fleet controller by strategy name."""
    try:
        cls = CONTROLLERS[strategy]
    except KeyError:
        raise ValueError(
            f"unknown strategy {strategy!r}; "
            f"choose from {sorted(CONTROLLERS)}"
        ) from None
    return cls(policy, planned_loads)


# ----------------------------------------------------------------------
# The closed form: a controller over fault-free signals.
# ----------------------------------------------------------------------


def provision(
    strategy: str, profile: np.ndarray, policy: AutoscalerPolicy
) -> ProvisioningOutcome:
    """Run one controller over an hourly load profile, fault-free.

    Each hour is sized, counted as under-provisioned when its load needs
    more servers, then observed with no fault pressure.  ``max_servers``
    is lifted to the peak load with headroom, the largest fleet such
    signals can call for, so the closed form has no fleet ceiling.
    """
    loads = tuple(float(x) for x in np.asarray(profile, dtype=float))
    if not loads:
        raise ValueError("empty profile")
    capacity = policy.capacity_per_server
    ceiling = _servers_for(
        max(loads) * policy.headroom, capacity, policy.min_servers
    )
    if ceiling > policy.max_servers:
        policy = replace(policy, max_servers=ceiling)
    controller = make_controller(strategy, policy, loads)
    trajectory: list[int] = []
    violations = 0
    for hour, load in enumerate(loads):
        fleet = controller.decide(hour)
        trajectory.append(fleet)
        if _servers_needed(load, capacity) > fleet:
            violations += 1
        controller.observe(WindowSignals(hour, load, 0.0, 0.0, 0.0, 0, 0))
    return ProvisioningOutcome(
        strategy=controller.name,
        server_hours=sum(trajectory),
        underprovisioned_hours=violations,
        n_hours=len(loads),
        trajectory=tuple(trajectory),
    )


def compare_strategies(
    profile: np.ndarray, policy: AutoscalerPolicy
) -> dict[str, ProvisioningOutcome]:
    """The closed form of the fault-blind strategies over one profile."""
    return {
        name: provision(name, profile, policy)
        for name in ("static", "reactive", "predictive", "oracle")
    }


# ----------------------------------------------------------------------
# Workload: a diurnal-shaped, store-only open-loop schedule.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class AutoscaleOp:
    """One scheduled store operation of the autoscale workload."""

    arrival: float
    user_id: int
    name: str
    content_seed: bytes
    size: int

    @property
    def device_id(self) -> str:
        return f"as-m{self.user_id}"

    @property
    def device_type(self) -> DeviceType:
        return (
            DeviceType.ANDROID if self.user_id % 3 else DeviceType.IOS
        )


@dataclass(frozen=True)
class AutoscaleWorkload:
    """Window-bucketed open-loop schedule for the autoscaling loop."""

    window_seconds: float
    period: int
    windows: tuple[tuple[AutoscaleOp, ...], ...]

    @property
    def n_windows(self) -> int:
        return len(self.windows)

    @property
    def loads(self) -> tuple[float, ...]:
        """Offered operations per window — the planning profile."""
        return tuple(float(len(ops)) for ops in self.windows)

    @property
    def horizon(self) -> float:
        return self.n_windows * self.window_seconds


#: Fixed tag mixed into every autoscale-workload seed so its streams can
#: never collide with trace-generation or replay streams.
_WORKLOAD_SEED_TAG = 0xA5C0DE


def diurnal_autoscale_workload(
    n_windows: int,
    *,
    window_seconds: float = 60.0,
    peak_ops: int = 64,
    n_users: int = 32,
    period: int = 24,
    burst_fraction: float = 0.5,
    mean_size: float = 384 * 1024,
    seed: int = 0,
) -> AutoscaleWorkload:
    """Deterministic diurnal-shaped store workload.

    Per-window op counts follow the paper's :class:`DiurnalModel` hourly
    weights (resampled onto ``period`` windows per cycle, scaled so the
    peak window offers ``peak_ops`` operations) — counts are pure shape
    arithmetic, no RNG.  Arrival offsets, sizes and user assignment come
    from one SeedSequence child per window, so extending the horizon
    never reshuffles earlier windows.  Arrivals are compressed into the
    first ``burst_fraction`` of each window: the same session burstiness
    that makes in-flight queues (and hence shedding) sensitive to fleet
    size.
    """
    if n_windows < 1:
        raise ValueError("need at least one window")
    if window_seconds <= 0:
        raise ValueError("window_seconds must be positive")
    if peak_ops < 1:
        raise ValueError("peak_ops must be >= 1")
    if n_users < 1:
        raise ValueError("n_users must be >= 1")
    if period < 1:
        raise ValueError("period must be >= 1")
    if not 0.0 < burst_fraction <= 1.0:
        raise ValueError("burst_fraction must be in (0, 1]")
    if mean_size <= 0:
        raise ValueError("mean_size must be positive")
    weights = DiurnalModel().hourly_weights
    shape = tuple(
        weights[(i * len(weights)) // period] for i in range(period)
    )
    top = max(shape)
    master = np.random.SeedSequence([seed, _WORKLOAD_SEED_TAG])
    children = master.spawn(n_windows)
    windows: list[tuple[AutoscaleOp, ...]] = []
    for w in range(n_windows):
        n_ops = max(1, round(peak_ops * shape[w % period] / top))
        rng = np.random.default_rng(children[w])
        offsets = np.sort(
            rng.uniform(0.0, window_seconds * burst_fraction, n_ops)
        )
        users = rng.integers(1, n_users + 1, n_ops)
        sizes = rng.exponential(mean_size, n_ops)
        ops = tuple(
            AutoscaleOp(
                arrival=w * window_seconds + float(offsets[i]),
                user_id=int(users[i]),
                name=f"as-w{w}-f{i}.bin",
                content_seed=f"autoscale/w{w}/f{i}".encode(),
                size=1 + int(sizes[i]),
            )
            for i in range(n_ops)
        )
        windows.append(ops)
    return AutoscaleWorkload(
        window_seconds=window_seconds,
        period=period,
        windows=tuple(windows),
    )


# ----------------------------------------------------------------------
# The chaos-coupled loop: fleet controllers driven by live signals.
# ----------------------------------------------------------------------

#: Chaos-tolerant retry policy for autoscale runs (rides out crash
#: windows comparable to the window length via failover + long backoff).
AUTOSCALE_RETRY_POLICY = RetryPolicy(
    max_attempts=8,
    base_delay=0.5,
    max_delay=20.0,
    multiplier=2.0,
)

#: Client network profile for autoscale runs.  The bandwidth is tuned so
#: that a mean-sized transfer occupies a front-end slot for a sizeable
#: slice of a window — offered load then contends for real in-flight
#: capacity and the shed rate responds to fleet size, which is the whole
#: point of coupling the controller to the live service.
AUTOSCALE_NETWORK = ClientNetwork(rtt=0.08, bandwidth=0.8e6)


@dataclass(frozen=True)
class WindowOutcome:
    """One window of a live autoscale run."""

    window: int
    fleet: int
    offered: int
    completed: int
    aborted: int
    shed_rate: float
    failure_rate: float
    down_fraction: float
    underprovisioned: bool
    violation: bool
    reconciled: bool


@dataclass
class AutoscaleRun:
    """Everything one chaos-coupled autoscale run produced."""

    strategy: str
    slo_shed: float
    window_seconds: float
    windows: list[WindowOutcome] = field(default_factory=list)
    snapshots: list[TelemetrySnapshot] = field(default_factory=list)
    stats: FaultStats = field(default_factory=FaultStats)
    summary: TelemetrySnapshot | None = None
    log_digest: str = ""
    reconciled: bool = True

    @property
    def n_windows(self) -> int:
        return len(self.windows)

    def trajectory(self) -> tuple[int, ...]:
        return tuple(w.fleet for w in self.windows)

    @property
    def server_hours(self) -> int:
        """Fleet-windows of cost (the loop's unit of server-hours)."""
        return sum(w.fleet for w in self.windows)

    @property
    def violation_windows(self) -> int:
        return sum(1 for w in self.windows if w.violation)

    @property
    def underprovisioned_windows(self) -> int:
        return sum(1 for w in self.windows if w.underprovisioned)

    @property
    def completed(self) -> int:
        return sum(w.completed for w in self.windows)

    @property
    def aborted(self) -> int:
        return sum(w.aborted for w in self.windows)

    def to_outcome(self) -> ProvisioningOutcome:
        """Collapse to the closed-form outcome shape (A11 comparisons)."""
        return ProvisioningOutcome(
            strategy=self.strategy,
            server_hours=self.server_hours,
            underprovisioned_hours=self.underprovisioned_windows,
            n_hours=self.n_windows,
            trajectory=self.trajectory(),
        )

    def trajectory_json(self) -> str:
        """The fleet-trajectory artifact uploaded by CI."""
        doc = {
            "strategy": self.strategy,
            "slo_shed": self.slo_shed,
            "window_seconds": self.window_seconds,
            "server_hours": self.server_hours,
            "violation_windows": self.violation_windows,
            "underprovisioned_windows": self.underprovisioned_windows,
            "completed": self.completed,
            "aborted": self.aborted,
            "reconciled": self.reconciled,
            "log_digest": self.log_digest,
            "fault_stats": self.stats.as_dict(),
            "windows": [asdict(w) for w in self.windows],
        }
        return json.dumps(doc, sort_keys=True, indent=2)


def run_autoscaled_service(
    workload: AutoscaleWorkload,
    policy: AutoscalerPolicy,
    *,
    strategy: str = "reactive",
    faults: FaultConfig | None = None,
    fault_seed: int = 0,
    client_seed: int = 0,
    frontend_capacity: int = 4,
    retry_policy: RetryPolicy | None = None,
    slo_shed: float = 0.02,
) -> AutoscaleRun:
    """Run one policy through the chaos-coupled autoscaling loop.

    Window by window: the controller picks a fleet size, a
    :class:`ServiceCluster` of exactly that many front-ends serves the
    window's ops open-loop (client clocks pinned to scheduled arrivals),
    and the finished window's telemetry plus the fault ledger's delta
    become the signals the controller sees before the next decision.

    All windows share **one** :class:`FaultPlan`, built for
    ``policy.max_servers`` front-ends up front: SeedSequence spawn
    stability makes every front-end's fault schedule a pure function of
    ``(faults, max_servers, fault_seed)``, so resizing the fleet changes
    which schedules are *active*, never the schedules themselves — and
    retry-storm pressure carries across window boundaries like the
    service it models.  Double runs are byte-identical; each window's
    telemetry reconciles exactly against the ledger delta it accrued.
    """
    if slo_shed < 0:
        raise ValueError("slo_shed must be >= 0")
    retry = retry_policy or AUTOSCALE_RETRY_POLICY
    plan: FaultPlan | None = None
    if faults is not None:
        plan = FaultPlan(
            faults, n_frontends=policy.max_servers, seed=fault_seed
        )
    controller = make_controller(strategy, policy, workload.loads)
    run = AutoscaleRun(
        strategy=controller.name,
        slo_shed=slo_shed,
        window_seconds=workload.window_seconds,
    )
    aggregate = TelemetryCollector(window_seconds=workload.window_seconds)
    digest = hashlib.md5()
    ledger_before = FaultStats()
    for w, ops in enumerate(workload.windows):
        fleet = controller.decide(w)
        cluster = ServiceCluster(
            n_frontends=fleet,
            frontend_capacity=frontend_capacity,
            retry_policy=retry,
            shared_fault_plan=plan,
        )
        collector = TelemetryCollector(
            window_seconds=workload.window_seconds
        )
        clients: dict[int, StorageClient] = {}
        completed = 0
        aborted = 0
        for op in ops:
            client = clients.get(op.user_id)
            if client is None:
                client = cluster.new_client(
                    op.user_id,
                    op.device_id,
                    op.device_type,
                    network=AUTOSCALE_NETWORK,
                    seed=client_seed,
                )
                clients[op.user_id] = client
            client.clock = op.arrival
            report = client.store_file(op.name, op.content_seed, op.size)
            latency = report.finished_at - op.arrival
            collector.record_operation(
                "store", latency, completed=report.completed
            )
            aggregate.record_operation(
                "store", latency, completed=report.completed
            )
            if report.completed:
                completed += 1
            else:
                aborted += 1
        records = cluster.access_log()
        collector.observe_log(records)
        aggregate.observe_log(records)
        digest.update(f"window {w} fleet {fleet}\n".encode())
        for block in iter_tsv_blocks(records):
            digest.update(block.encode())
            digest.update(b"\n")
        if plan is not None:
            window_stats = plan.stats.delta(ledger_before)
            ledger_before = plan.stats.copy()
        else:
            window_stats = FaultStats()
        reconciled = collector.reconcile(window_stats)["matched"]
        run.reconciled = run.reconciled and reconciled
        start = w * workload.window_seconds
        end = start + workload.window_seconds
        down = cluster.down_fraction(start, end)
        pressure = collector.fault_pressure()
        shed_rate = pressure.shed_rate
        run.windows.append(
            WindowOutcome(
                window=w,
                fleet=fleet,
                offered=len(ops),
                completed=completed,
                aborted=aborted,
                shed_rate=shed_rate,
                failure_rate=pressure.failure_rate,
                down_fraction=down,
                underprovisioned=(
                    _servers_needed(
                        float(len(ops)), policy.capacity_per_server
                    )
                    > fleet
                ),
                violation=shed_rate > slo_shed,
                reconciled=reconciled,
            )
        )
        run.snapshots.append(collector.snapshot())
        controller.observe(
            WindowSignals(
                window=w,
                load=float(len(ops)),
                shed_rate=shed_rate,
                failure_rate=pressure.failure_rate,
                down_fraction=down,
                pressure_sheds=window_stats.pressure_sheds,
                retries=window_stats.retries,
            )
        )
    if plan is not None:
        run.stats = plan.stats.copy()
        run.reconciled = (
            run.reconciled and aggregate.reconcile(run.stats)["matched"]
        )
    run.summary = aggregate.snapshot()
    run.log_digest = digest.hexdigest()
    return run
