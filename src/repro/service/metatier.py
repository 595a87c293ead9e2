"""Sharded, replicated metadata tier with quorum reads.

The paper's Section 2.1 routes every storage/retrieval operation through
a metadata server; with PR 2's outage windows that single server is a
single outage domain — one window blocks all users at once.  Real
metadata tiers shard the namespace and replicate each shard, so failure
impact is a *per-shard* phenomenon (the Alibaba block-storage analysis,
arXiv 2203.10766, measures exactly this: load and failure impact are
heavily imbalanced across shards, not cluster-wide booleans).

:class:`ShardedMetadataTier` duck-types
:class:`~repro.service.metadata.MetadataServer` so clients and clusters
are agnostic:

* The namespace is sharded **by user** via the keyed-BLAKE2 placement in
  :mod:`repro.service.placement` — stable across ``PYTHONHASHSEED`` and
  across resharding debates, like client seeding.
* Each shard is one primary (node 0) plus ``n_replicas`` replicas,
  zone-spread across the :class:`~repro.faults.ZoneConfig` failure zones
  by :meth:`FaultPlan.metadata_node_zone` so no zone event takes out a
  whole shard (while replicas < zones).
* Writes (``request_store``) are applied **primary-first** and
  replicated deterministically: the shard's single authoritative
  :class:`MetadataServer` instance *is* the replicated state machine —
  replicas never diverge in content, they only differ in availability
  and freshness, which the fault plan schedules per node.
* Reads go through a configurable policy:

  ``primary-only``
      The historical semantics per shard: reads and writes both need the
      primary up.  Replicas are warm spares only.
  ``any-replica``
      A read succeeds while *any* node of the shard is up; serving
      rotates round-robin over the up nodes (deterministic counter, no
      RNG).  Reads served by a non-primary count ``replica_reads``; the
      subset served because the primary was down also counts
      ``failover_reads``.  Maximally available, staleness-blind.
  ``quorum``
      A read needs a majority of the shard's ``1 + R`` nodes up, and is
      served by the primary when up, else by the first up *and fresh*
      replica; an up-but-catching-up replica is skipped (counted as
      ``stale_reads_avoided``).  No fresh server in a live majority
      still rejects — consistency over availability.

Unavailability is therefore *partial*: a shard whose quorum is lost
rejects its users with
:class:`~repro.faults.MetadataUnavailableError` while every other
shard's users proceed untouched.  Rejections are tallied per shard and
mirrored exactly into :class:`~repro.faults.FaultStats`
(``shard_rejections``, under the ``metadata_rejections`` umbrella), so
telemetry reconciliation stays slack-free.

Trade-off made explicit: content dedup indexes are per shard, so a
content stored by users on two shards is stored twice —
:attr:`unique_contents` counts per-shard-distinct contents.  The paper's
dedup numbers are measured on the unsharded model; R5 holds workload
fixed across arms so the comparison is internally consistent.
"""

from __future__ import annotations

from ..faults import FaultPlan, MetadataUnavailableError
from .chunks import FileManifest
from .metadata import DedupDecision, MetadataServer, StoredFile
from .placement import PlacementMemo, shard_for

#: Read policies a tier accepts, in increasing availability order.
READ_POLICIES = ("primary-only", "quorum", "any-replica")


class ShardedMetadataTier:
    """A drop-in metadata service backed by replicated shards.

    Parameters
    ----------
    n_frontends:
        Storage front-end fleet size (placement domain for commits).
    n_shards, n_replicas:
        Tier shape; must match the ``FaultPlan``'s
        ``n_metadata_shards``/``n_metadata_replicas`` when a plan is
        given, so per-node schedules line up with the tier's topology.
    read_policy:
        One of :data:`READ_POLICIES`.
    fault_plan:
        Optional plan; ``None`` (or a disabled one) makes every node
        permanently up — reads are then always served by the primary and
        no replica counters move, keeping stats consistent with the
        all-zero :class:`~repro.faults.FaultStats` of a fault-free run.
    """

    def __init__(
        self,
        n_frontends: int = 4,
        *,
        n_shards: int,
        n_replicas: int = 0,
        read_policy: str = "primary-only",
        fault_plan: FaultPlan | None = None,
    ) -> None:
        if n_shards < 1:
            raise ValueError("need at least one shard")
        if n_replicas < 0:
            raise ValueError("n_replicas must be >= 0")
        if read_policy not in READ_POLICIES:
            raise ValueError(
                f"read_policy must be one of {READ_POLICIES}, got {read_policy!r}"
            )
        if fault_plan is not None and (
            fault_plan.n_metadata_shards != n_shards
            or fault_plan.n_metadata_replicas != n_replicas
        ):
            raise ValueError(
                "fault plan topology "
                f"({fault_plan.n_metadata_shards} shards, "
                f"{fault_plan.n_metadata_replicas} replicas) does not match "
                f"the tier ({n_shards} shards, {n_replicas} replicas)"
            )
        self.n_frontends = n_frontends
        self.n_shards = n_shards
        self.n_replicas = n_replicas
        self.read_policy = read_policy
        self.fault_plan = fault_plan
        #: Whether availability checks run at all, resolved once: a plan
        #: that is missing, disabled or unsharded never rejects.
        self._faults_armed = (
            fault_plan is not None
            and fault_plan.enabled
            and fault_plan.metatier_armed
        )
        # One authoritative namespace state machine per shard; the tier
        # layers availability on top, so shard servers carry no plan.
        self._shards = [
            MetadataServer(n_frontends=n_frontends) for _ in range(n_shards)
        ]
        self._url_shard: dict[str, int] = {}
        self._placement = PlacementMemo(shard_for)
        #: Per-shard round-robin cursor for ``any-replica`` serving.
        self._cursor = [0] * n_shards
        #: Per-shard rejection tallies (mirror of ``stats.shard_rejections``).
        self.per_shard_rejections = [0] * n_shards
        #: Users who ever had a metadata operation rejected — the R5
        #: partial-unavailability metric (set, so retries don't inflate it).
        self.blocked_users: set[int] = set()
        self.rejected_requests = 0

    # ------------------------------------------------------------------
    # Availability core
    # ------------------------------------------------------------------

    def shard_of(self, user_id: int) -> int:
        """The shard owning ``user_id``'s namespace (stable placement,
        memoized per tier for the current shard count)."""
        return self._placement(user_id, self.n_shards)

    def _node_up(self, shard: int, node: int, now: float) -> bool:
        return not self.fault_plan.metadata_node_down(shard, node, now)

    def _reject(self, shard: int, user_id: int | None, now: float) -> None:
        self.per_shard_rejections[shard] += 1
        self.rejected_requests += 1
        stats = self.fault_plan.stats
        stats.shard_rejections += 1
        stats.metadata_rejections += 1
        if user_id is not None:
            self.blocked_users.add(user_id)
        raise MetadataUnavailableError(
            f"metadata shard {shard} unavailable at t={now:.3f} "
            f"(policy={self.read_policy})"
        )

    def _check_write(self, shard: int, user_id: int | None, now: float) -> None:
        """Writes are primary-first under every policy."""
        if not self._faults_armed:
            return
        if not self._node_up(shard, 0, now):
            self._reject(shard, user_id, now)

    def _check_read(self, shard: int, user_id: int | None, now: float) -> None:
        """Apply the read policy; raises on rejection, else counts the
        replica-serving attribution for the read about to be served."""
        if not self._faults_armed:
            return
        plan = self.fault_plan
        n_nodes = 1 + self.n_replicas
        up = [
            node for node in range(n_nodes) if self._node_up(shard, node, now)
        ]
        primary_up = bool(up) and up[0] == 0
        if self.read_policy == "primary-only":
            if not primary_up:
                self._reject(shard, user_id, now)
            return
        if self.read_policy == "any-replica":
            if not up:
                self._reject(shard, user_id, now)
            serving = up[self._cursor[shard] % len(up)]
            self._cursor[shard] += 1
            if serving != 0:
                plan.stats.replica_reads += 1
                if not primary_up:
                    plan.stats.failover_reads += 1
            return
        # quorum
        if len(up) < n_nodes // 2 + 1:
            self._reject(shard, user_id, now)
        if primary_up:
            return
        for node in up:
            if plan.metadata_node_stale(shard, node, now):
                plan.stats.stale_reads_avoided += 1
                continue
            plan.stats.replica_reads += 1
            plan.stats.failover_reads += 1
            return
        # A live majority, but every up replica is still catching up:
        # consistency wins and the read is rejected.
        self._reject(shard, user_id, now)

    # ------------------------------------------------------------------
    # MetadataServer protocol (duck-typed)
    # ------------------------------------------------------------------

    def request_store(
        self, user_id: int, manifest: FileManifest, *, now: float = 0.0
    ) -> DedupDecision:
        """Handle a storage request; a *write* (it may register the file)."""
        shard = self.shard_of(user_id)
        self._check_write(shard, user_id, now)
        decision = self._shards[shard].request_store(user_id, manifest, now=now)
        if decision.url:
            self._url_shard[decision.url] = shard
        return decision

    def commit_store(
        self,
        user_id: int,
        manifest: FileManifest,
        frontend_id: int,
        *,
        now: float = 0.0,
    ) -> str:
        """Record a completed upload; accepted even while the primary is
        down, for the same reason the single server accepts it: the bytes
        already landed, and real tiers write-ahead-queue the registration
        (we model the queue as always draining)."""
        shard = self.shard_of(user_id)
        url = self._shards[shard].commit_store(
            user_id, manifest, frontend_id, now=now
        )
        self._url_shard[url] = shard
        return url

    def resolve_url(self, url: str, *, now: float = 0.0) -> tuple[StoredFile, int]:
        """Resolve a share URL — a read against the *owner's* shard.

        Unknown URLs raise ``KeyError`` without an availability check:
        the shard is routed from the URL, so a URL no shard issued has
        nowhere to be unavailable.
        """
        shard = self._url_shard.get(url)
        if shard is None:
            raise KeyError(url)
        self._check_read(shard, None, now)
        return self._shards[shard].resolve_url(url, now=now)

    def user_files(self, user_id: int, *, now: float = 0.0) -> list[StoredFile]:
        """List a user's namespace — a read against the user's shard."""
        shard = self.shard_of(user_id)
        self._check_read(shard, user_id, now)
        return self._shards[shard].user_files(user_id, now=now)

    def note_blocked_user(self, user_id: int) -> None:
        """Attribute a rejection to the requesting user.

        ``resolve_url`` carries no user identity (any user may resolve
        any URL), so the client calls this from its metadata retry loop —
        the set is idempotent, double-attribution is harmless.
        """
        self.blocked_users.add(user_id)

    # ------------------------------------------------------------------
    # Introspection (aggregated across shards)
    # ------------------------------------------------------------------

    @property
    def store_requests(self) -> int:
        return sum(s.store_requests for s in self._shards)

    @property
    def dedup_hits(self) -> int:
        return sum(s.dedup_hits for s in self._shards)

    @property
    def unique_contents(self) -> int:
        """Per-shard-distinct contents (cross-shard dedup does not apply)."""
        return sum(s.unique_contents for s in self._shards)

    @property
    def dedup_ratio(self) -> float:
        requests = self.store_requests
        if not requests:
            return 0.0
        return self.dedup_hits / requests

    def shard_users(self) -> list[int]:
        """Number of user namespaces living on each shard."""
        return [len(s._spaces) for s in self._shards]


__all__ = ["READ_POLICIES", "ShardedMetadataTier"]
