"""A complete service deployment: metadata server + front-end fleet.

:class:`ServiceCluster` wires the pieces together and exposes the two
operations users perform (store, retrieve), a combined access log in
timestamp order, and the aggregate load statistics used for capacity
studies (the Fig 1 workload view from the serving side).

A cluster may be deployed with a :class:`~repro.faults.FaultConfig`: it
then builds one :class:`~repro.faults.FaultPlan` (seeded off the cluster's
``fault_seed``), threads it through the metadata server and every
front-end, hands each client the deployment's retry policy, and exposes
failure/retry counters.  A config carrying a
:class:`~repro.faults.ZoneConfig` additionally partitions the fleet into
seeded failure zones with shared crash windows, couples metadata outages
into front-end overload, and arms the retry-storm pressure feedback —
clients created by the cluster then fail over preferentially to
out-of-zone front-ends.  With no fault config (the default) the cluster
is record-identical to the historical fault-free simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..faults import FaultConfig, FaultPlan, FaultStats, RetryPolicy
from ..logs.schema import DeviceType, LogRecord, sort_by_time
from ..tcpsim.devices import ServerProfile
from .client import ClientNetwork, StorageClient
from .frontend import FrontendServer, TransferModel
from .metadata import MetadataServer
from .metatier import READ_POLICIES, ShardedMetadataTier


@dataclass
class ServiceCluster:
    """One deployment of the mobile cloud storage service.

    Parameters
    ----------
    n_frontends:
        Number of storage front-end servers.
    server_profile:
        Processing-time profile shared by this cluster's front-ends.  Each
        cluster gets its own instance by default (``default_factory``), so
        one deployment's profile can never leak into another.
    transfer_model:
        Chunk transfer-time model (window caps, restart penalty).
    faults:
        Optional fault model; ``None`` (or a config with all rates zero)
        deploys the historical always-healthy cluster.
    fault_seed:
        Master seed for the fault plan's per-component RNG streams.
    retry_policy:
        Recovery policy handed to every client this cluster creates.
    frontend_capacity:
        Degraded-mode knob: per-front-end in-flight request limit before
        load shedding kicks in (``None`` disables shedding).  Only active
        when a fault plan is deployed.
    shared_fault_plan:
        A prebuilt :class:`~repro.faults.FaultPlan` to deploy instead of
        building one from ``faults``.  The autoscaling loop uses this to
        share one plan — schedules, pressure state and the stats ledger —
        across a sequence of differently-sized clusters: the plan must
        cover at least ``n_frontends`` servers, and a cluster deployed
        this way uses the plan's schedules for its first ``n_frontends``
        front-ends.  Mutually exclusive with ``faults``.
    metadata_shards, metadata_replicas, read_policy:
        Sharded metadata tier shape and read semantics (see
        :mod:`repro.service.metatier`).  At the default ``(1, 0)`` the
        cluster builds the exact historical single
        :class:`~repro.service.metadata.MetadataServer` — the zero-knob
        path is byte-identical to a build that predates the tier.
    """

    n_frontends: int = 4
    server_profile: ServerProfile = field(default_factory=ServerProfile)
    transfer_model: TransferModel = field(default_factory=TransferModel)
    faults: FaultConfig | None = None
    fault_seed: int = 0
    retry_policy: RetryPolicy = field(default_factory=RetryPolicy)
    frontend_capacity: int | None = None
    metadata_shards: int = 1
    metadata_replicas: int = 0
    read_policy: str = "primary-only"
    shared_fault_plan: FaultPlan | None = None
    metadata: MetadataServer | ShardedMetadataTier = field(init=False)
    frontends: list[FrontendServer] = field(init=False)
    fault_plan: FaultPlan | None = field(init=False, default=None)
    #: ``fault_plan`` when it can fault, else ``None`` (resolved once).
    _faults: FaultPlan | None = field(init=False, default=None, repr=False)

    def __post_init__(self) -> None:
        if self.read_policy not in READ_POLICIES:
            raise ValueError(
                f"read_policy must be one of {READ_POLICIES}, "
                f"got {self.read_policy!r}"
            )
        sharded = (self.metadata_shards, self.metadata_replicas) != (1, 0)
        if self.shared_fault_plan is not None:
            if self.faults is not None:
                raise ValueError(
                    "pass either faults or shared_fault_plan, not both"
                )
            if self.shared_fault_plan.n_frontends < self.n_frontends:
                raise ValueError(
                    "shared_fault_plan covers "
                    f"{self.shared_fault_plan.n_frontends} front-ends, "
                    f"cluster needs {self.n_frontends}"
                )
            if (
                self.shared_fault_plan.n_metadata_shards,
                self.shared_fault_plan.n_metadata_replicas,
            ) != (self.metadata_shards, self.metadata_replicas):
                raise ValueError(
                    "shared_fault_plan metadata-tier shape does not "
                    "match the cluster's"
                )
            self.fault_plan = self.shared_fault_plan
        elif self.faults is not None:
            self.fault_plan = FaultPlan(
                self.faults,
                n_frontends=self.n_frontends,
                seed=self.fault_seed,
                n_metadata_shards=self.metadata_shards,
                n_metadata_replicas=self.metadata_replicas,
            )
        plan = self.fault_plan
        self._faults = plan if plan is not None and plan.enabled else None
        if sharded:
            self.metadata = ShardedMetadataTier(
                n_frontends=self.n_frontends,
                n_shards=self.metadata_shards,
                n_replicas=self.metadata_replicas,
                read_policy=self.read_policy,
                fault_plan=self.fault_plan,
            )
        else:
            self.metadata = MetadataServer(
                n_frontends=self.n_frontends, fault_plan=self.fault_plan
            )
        self.frontends = [
            FrontendServer(
                server_id=i,
                profile=self.server_profile,
                transfer_model=self.transfer_model,
                fault_plan=self.fault_plan,
                capacity=self.frontend_capacity,
            )
            for i in range(self.n_frontends)
        ]

    def new_client(
        self,
        user_id: int,
        device_id: str,
        device_type: DeviceType,
        *,
        network: ClientNetwork | None = None,
        proxied: bool = False,
        seed: int = 0,
        retry_policy: RetryPolicy | None = None,
    ) -> StorageClient:
        """Create a client bound to this deployment."""
        return StorageClient(
            user_id=user_id,
            device_id=device_id,
            device_type=device_type,
            metadata=self.metadata,
            frontends=self.frontends,
            network=network or ClientNetwork(),
            proxied=proxied,
            seed=seed,
            retry_policy=retry_policy or self.retry_policy,
            fault_plan=self.fault_plan,
        )

    def access_log(self) -> list[LogRecord]:
        """All front-end log records merged in timestamp order."""
        merged: list[LogRecord] = []
        for frontend in self.frontends:
            merged.extend(frontend.access_log)
        return sort_by_time(merged)

    @property
    def bytes_stored(self) -> int:
        return sum(f.bytes_stored for f in self.frontends)

    @property
    def bytes_served(self) -> int:
        return sum(f.bytes_served for f in self.frontends)

    @property
    def dedup_ratio(self) -> float:
        return self.metadata.dedup_ratio

    # ------------------------------------------------------------------
    # Failure/recovery introspection
    # ------------------------------------------------------------------

    @property
    def fault_stats(self) -> FaultStats:
        """Injected-fault and recovery counters (zeros when fault-free)."""
        if self.fault_plan is None:
            return FaultStats()
        return self.fault_plan.stats

    @property
    def zone_map(self) -> dict[int, int]:
        """Front-end id -> failure zone (empty without zone grouping)."""
        plan = self.fault_plan
        if plan is None:
            return {}
        return {
            fid: zone
            for fid in range(self.n_frontends)
            if (zone := plan.zone_of(fid)) is not None
        }

    def frontends_down(self, t: float) -> int:
        """Number of front-ends inside a crash window (residual or zone) at ``t``."""
        plan = self._faults
        if plan is None:
            return 0
        return sum(
            plan.frontend_down(fid, t) for fid in range(self.n_frontends)
        )

    def down_fraction(self, start: float, end: float) -> float:
        """Time-averaged fraction of *this* fleet down over ``[start, end)``.

        Delegates to :meth:`~repro.faults.FaultPlan.down_fraction` for
        the cluster's active front-ends; 0.0 for a fault-free cluster.
        The autoscaling loop reads this per window as the concurrent-down
        pressure signal.
        """
        plan = self._faults
        if plan is None:
            return 0.0
        return plan.down_fraction(start, end, n_frontends=self.n_frontends)

    @property
    def requests_ok(self) -> int:
        return sum(f.requests_ok for f in self.frontends)

    @property
    def requests_failed(self) -> int:
        return sum(f.requests_failed for f in self.frontends)

    @property
    def failure_rate(self) -> float:
        """Fraction of front-end request attempts that failed."""
        total = self.requests_ok + self.requests_failed
        return self.requests_failed / total if total else 0.0

    def metadata_availability(self) -> dict:
        """Metadata-tier availability summary for telemetry snapshots.

        Always JSON-serializable; on the unsharded path the per-shard
        list collapses to the single server's rejection tally, so the
        dashboard line renders uniformly for both deployments.
        """
        meta = self.metadata
        if isinstance(meta, ShardedMetadataTier):
            return {
                "shards": meta.n_shards,
                "replicas": meta.n_replicas,
                "read_policy": meta.read_policy,
                "shard_rejections": list(meta.per_shard_rejections),
                "blocked_users": len(meta.blocked_users),
                "replica_reads": self.fault_stats.replica_reads,
                "failover_reads": self.fault_stats.failover_reads,
                "stale_reads_avoided": self.fault_stats.stale_reads_avoided,
            }
        return {
            "shards": 1,
            "replicas": 0,
            "read_policy": "primary-only",
            "shard_rejections": [meta.rejected_requests],
            "blocked_users": 0,
            "replica_reads": 0,
            "failover_reads": 0,
            "stale_reads_avoided": 0,
        }
