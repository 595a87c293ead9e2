"""Experiment R3 — correlated failure domains vs independent outages.

The paper's operational implication (Section 2.4) is that front-end
fleets must survive load and failures that are *correlated*: diurnal
surges, shared-fate rack/zone outages, and the retry storms they set off.
The PR 2 fault model drew every component's outage schedule
independently, which systematically understates tail unavailability —
independent 30-second blips never take half the fleet down at once.

R3 compares an **independent** fault plan against a **correlated** one at
the *same aggregate fault budget* (identical expected crash-window
seconds per server-hour; the correlated plan merely moves a share of the
crash rate from per-server residual streams into shared zone-level
streams, and arms overload coupling plus retry-storm feedback).  Two
findings must hold for the correlated model to be doing its job:

1. **Tail concentration** — the correlated plan's peak
   concurrent-frontend-down fraction is strictly higher: the same budget
   of downtime, spent in shared-fate windows, takes out several
   front-ends at once.
2. **Cascade amplification** — replaying one fixed workload through both
   deployments, the correlated plan forces strictly more retries: zone
   windows defeat naive failover, metadata outages push phantom retry
   load onto the data path, and every rejection raises the pressure
   counter that makes the next shed more likely.

Everything is deterministic from ``(config, n_frontends, seed)``: the
experiment replays the correlated deployment twice and checks the access
logs are byte-identical (the cross-process variant lives in
``tests/test_fault_zones.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..faults import FaultConfig, FaultPlan, RetryPolicy, ZoneConfig
from ..logs.io import tsv_digest
from ..service import ClientNetwork, ServiceCluster
from .base import ExperimentResult
from .r2_fault_resilience import _planned_workload

N_FRONTENDS = 8
N_ZONES = 2
#: Share of the crash budget the correlated plan moves into the shared
#: zone-level Poisson process (the rest stays per-server residual).
ZONE_SHARE = 0.6
#: Base severity (per-request transient error probability; crash/slow/
#: outage channels follow the ``FaultConfig.at_rate`` calibration).
RATE = 0.04
#: Schedule length used for the window-level tail metrics.
PLAN_HORIZON = 7 * 24 * 3600.0
#: Replay horizon (covers the fixed ~30 h workload).
REPLAY_HORIZON = 40 * 3600.0

DEFAULT_USERS = 24
DEFAULT_SEED = 20160814


def build_configs(
    rate: float = RATE,
    zone_share: float = ZONE_SHARE,
    *,
    n_zones: int = N_ZONES,
    horizon: float = REPLAY_HORIZON,
) -> tuple[FaultConfig, FaultConfig]:
    """The (independent, correlated) config pair at equal fault budget.

    Both spend ``rate * 4`` crash events per server-hour with a 10-minute
    mean downtime — ``rate * 4 * 600`` expected crash-window seconds per
    server-hour.  The correlated config moves ``zone_share`` of that
    budget into the zone-level process, whose outages are longer (the
    shared-fate events the paper's elasticity discussion worries about:
    a rack or zone takes minutes to come back, not seconds), with the
    zone *rate* scaled down so the expected downtime seconds stay
    identical by construction.
    """
    if not 0.0 < zone_share < 1.0:
        raise ValueError("zone_share must be in (0, 1)")
    crash_total = rate * 4.0
    residual_downtime = 600.0
    zone_downtime = 1800.0
    base = dict(
        error_rate=rate,
        crash_mean_downtime=residual_downtime,
        slow_rate=rate * 2.0,
        slow_mean_duration=60.0,
        metadata_outage_rate=rate * 2.0,
        metadata_mean_downtime=15.0,
        horizon=horizon,
    )
    independent = FaultConfig(crash_rate=crash_total, **base)
    correlated = FaultConfig(
        crash_rate=crash_total * (1.0 - zone_share),
        zones=ZoneConfig(
            n_zones=n_zones,
            zone_crash_rate=crash_total
            * zone_share
            * residual_downtime
            / zone_downtime,
            zone_mean_downtime=zone_downtime,
            overload_factor=0.6,
            overload_recovery=90.0,
            pressure_per_failure=3.0,
            pressure_drain_rate=0.02,
            pressure_shed_scale=6.0,
        ),
        **base,
    )
    return independent, correlated


def crash_budget(config: FaultConfig) -> float:
    """Expected crash-window seconds per server-hour under ``config``."""
    budget = config.crash_rate * config.crash_mean_downtime
    if config.zones is not None:
        budget += config.zones.zone_crash_rate * config.zones.zone_mean_downtime
    return budget


def peak_down_fraction(plan: FaultPlan) -> float:
    """Largest fraction of the fleet simultaneously inside a crash window."""
    events: list[tuple[float, int]] = []
    for fid in range(plan.n_frontends):
        for window in plan.effective_crash_windows(fid):
            events.append((window.start, 1))
            events.append((window.end, -1))
    # Half-open windows: at a tie, process the -1 (end) before the +1.
    events.sort()
    depth = peak = 0
    for _, delta in events:
        depth += delta
        peak = max(peak, depth)
    return peak / plan.n_frontends


def mean_down_fraction(plan: FaultPlan) -> float:
    """Time-averaged fraction of the fleet inside a crash window."""
    total = sum(
        window.duration
        for fid in range(plan.n_frontends)
        for window in plan.effective_crash_windows(fid)
    )
    return total / (plan.n_frontends * plan.config.horizon)


@dataclass(frozen=True)
class CorrelatedReplay:
    """One replay of the fixed workload against one deployment."""

    label: str
    n_transfers: int
    n_completed: int
    retries: int
    failovers: int
    shed_requests: int
    pressure_sheds: int
    overload_sheds: int
    zone_crash_rejections: int
    crash_rejections: int
    log_digest: str

    @property
    def completion(self) -> float:
        return self.n_completed / self.n_transfers if self.n_transfers else 1.0


#: Chaos-tolerant recovery policy used by both R3 arms: the correlated
#: plan's zone windows and outage-coupled storms outlast the default R2
#: budget, and comparing retry *counts* requires both arms to finish.
R3_RETRY_POLICY = RetryPolicy(
    max_attempts=10, base_delay=0.5, max_delay=20.0, multiplier=2.0
)


def replay(
    plan_entries: list[tuple], config: FaultConfig, seed: int, label: str
) -> CorrelatedReplay:
    """Replay the fixed workload through one deployment."""
    cluster = ServiceCluster(
        n_frontends=N_FRONTENDS,
        faults=config,
        fault_seed=seed,
        frontend_capacity=48,
        retry_policy=R3_RETRY_POLICY,
    )
    clients: dict[int, object] = {}
    n_transfers = 0
    n_completed = 0
    for start, user, device_type, files in plan_entries:
        client = clients.get(user)
        if client is None:
            client = cluster.new_client(
                user,
                f"m{user}",
                device_type,
                network=ClientNetwork(rtt=0.08, bandwidth=4_000_000.0),
                seed=seed,
            )
            clients[user] = client
        client.clock = max(client.clock, start)
        for offset, name, content_seed, size in files:
            client.clock = max(client.clock, start + offset)
            report = client.store_file(name, content_seed, size)
            n_transfers += 1
            n_completed += report.completed
    stats = cluster.fault_stats
    digest = tsv_digest(cluster.access_log())
    return CorrelatedReplay(
        label=label,
        n_transfers=n_transfers,
        n_completed=n_completed,
        retries=stats.retries,
        failovers=stats.failovers,
        shed_requests=stats.shed_requests,
        pressure_sheds=stats.pressure_sheds,
        overload_sheds=stats.overload_sheds,
        zone_crash_rejections=stats.zone_crash_rejections,
        crash_rejections=stats.crash_rejections,
        log_digest=digest,
    )


def run(
    n_users: int = DEFAULT_USERS, seed: int = DEFAULT_SEED
) -> ExperimentResult:
    independent, correlated = build_configs()

    # (a) Window-level tail metrics over a week-long schedule.
    ind_plan = FaultPlan(
        build_configs(horizon=PLAN_HORIZON)[0],
        n_frontends=N_FRONTENDS,
        seed=seed,
    )
    corr_plan = FaultPlan(
        build_configs(horizon=PLAN_HORIZON)[1],
        n_frontends=N_FRONTENDS,
        seed=seed,
    )
    ind_peak = peak_down_fraction(ind_plan)
    corr_peak = peak_down_fraction(corr_plan)

    # (b) Cascade metrics from replaying one fixed workload.
    entries = _planned_workload(n_users, seed)
    ind_replay = replay(entries, independent, seed, "independent")
    corr_replay = replay(entries, correlated, seed, "correlated")
    corr_again = replay(entries, correlated, seed, "correlated-again")

    result = ExperimentResult(
        experiment="R3",
        title="Correlated failure domains, overload coupling, retry storms",
    )
    result.add_row(
        f"  fleet: {N_FRONTENDS} front-ends in {N_ZONES} zones "
        f"(zone share {ZONE_SHARE:.0%} of crash budget "
        f"{crash_budget(independent):.1f} s/server-hour)"
    )
    result.add_row(
        f"  zone map: {[corr_plan.zone_of(f) for f in range(N_FRONTENDS)]}"
    )
    result.add_row(
        f"  week-long schedule: peak concurrent-down "
        f"{ind_peak:.3f} (independent) vs {corr_peak:.3f} (correlated); "
        f"mean down {mean_down_fraction(ind_plan):.4f} vs "
        f"{mean_down_fraction(corr_plan):.4f}"
    )
    for rep in (ind_replay, corr_replay):
        result.add_row(
            f"  {rep.label:<12s}: completion {rep.completion:6.1%}, "
            f"{rep.retries} retries, {rep.failovers} failovers, "
            f"{rep.shed_requests} sheds "
            f"({rep.pressure_sheds} pressure, {rep.overload_sheds} overload), "
            f"{rep.crash_rejections} crash rejections "
            f"({rep.zone_crash_rejections} zone)"
        )

    result.add_check(
        "aggregate crash budget identical (s/server-hour)",
        paper=crash_budget(independent),
        measured=crash_budget(correlated),
        tolerance=1e-9,
    )
    result.add_check(
        "peak concurrent-down fraction: correlated > independent",
        paper=ind_peak,
        measured=corr_peak,
        kind="greater",
    )
    result.add_check(
        "retries under correlated plan exceed independent",
        paper=float(ind_replay.retries),
        measured=float(corr_replay.retries),
        kind="greater",
    )
    result.add_check(
        "eventual completion (independent)",
        paper=1.0,
        measured=ind_replay.completion,
        tolerance=0.0,
    )
    result.add_check(
        "eventual completion (correlated)",
        paper=1.0,
        measured=corr_replay.completion,
        tolerance=0.0,
    )
    result.add_check(
        "zone-level shared-fate rejections occur",
        paper=0.0,
        measured=float(corr_replay.zone_crash_rejections),
        kind="greater",
    )
    result.add_check(
        "retry-storm pressure sheds occur",
        paper=0.0,
        measured=float(corr_replay.pressure_sheds),
        kind="greater",
    )
    result.add_check(
        "independent plan never zone-rejects or pressure-sheds",
        paper=0.0,
        measured=float(
            ind_replay.zone_crash_rejections
            + ind_replay.pressure_sheds
            + ind_replay.overload_sheds
        ),
        tolerance=0.0,
    )
    result.add_check(
        "correlated replay deterministic (byte-identical logs)",
        paper=1.0,
        measured=float(corr_replay.log_digest == corr_again.log_digest),
        tolerance=0.0,
    )
    return result


if __name__ == "__main__":
    print(run().render())
