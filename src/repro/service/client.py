"""Client model: the mobile app / PC client driving the service protocol.

A :class:`StorageClient` executes the Section 2.1 protocol against a
:class:`~repro.service.metadata.MetadataServer` and the front-end fleet:

* **store**: send the manifest to the metadata server; if the content is
  new, issue a file storage operation request to the assigned front-end
  followed by one chunk storage request per chunk.
* **retrieve**: resolve a URL at the metadata server, issue a file
  retrieval operation request, then one chunk retrieval request per chunk.

Each request advances the client's local clock by the time the front-end
charged, so a session's requests carry realistic timestamps and the idle
gaps between chunks include the client's own processing time.

Failure recovery follows the client's :class:`~repro.faults.RetryPolicy`:
a failed attempt advances the clock by the partial time it consumed plus a
capped, jittered exponential backoff, UNAVAILABLE/SHED outcomes may fail
over to an alternate front-end (content is replicated across the fleet;
the metadata assignment is only the *preferred* server), and a transfer
whose attempt budget runs out is reported with ``completed=False``.  When
the deployment's fault plan groups front-ends into failure zones, failover
prefers a front-end *outside* the failed server's zone — retrying inside a
zone that just suffered a shared-fate outage would walk straight into the
same window.  Every attempt — including failed ones — emits a front-end
log record, so retries are visible in the access log exactly as in the
paper's dataset.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..faults import FaultPlan, MetadataUnavailableError, RequestOutcome, RetryPolicy
from ..logs.schema import DeviceType, Direction
from ..tcpsim.devices import DeviceProfile, profile_for
from ..tcpsim.rto import paper_rto_estimate
from .chunks import build_manifest, chunk_sizes
from .frontend import FrontendServer
from .metadata import MetadataServer


def client_seed(user_id: int, device_id: str, seed: int) -> np.random.SeedSequence:
    """Stable per-client seed stream, independent of ``PYTHONHASHSEED``.

    The historical derivation used :func:`hash` on the device-id string,
    which Python salts per process — two identical runs produced different
    service logs.  A keyed BLAKE2 digest restores the cross-run
    determinism the retry tests (and any golden service log) rely on,
    mirroring the :class:`numpy.random.SeedSequence` spawning idiom of
    :mod:`repro.workload.parallel`.
    """
    digest = hashlib.blake2b(
        f"{user_id}/{device_id}".encode(), digest_size=8
    ).digest()
    return np.random.SeedSequence([int.from_bytes(digest, "little"), seed])


@dataclass
class ClientNetwork:
    """The client's current network conditions."""

    rtt: float = 0.1
    bandwidth: float = 2_000_000.0

    def __post_init__(self) -> None:
        if self.rtt <= 0 or self.bandwidth <= 0:
            raise ValueError("rtt and bandwidth must be positive")


@dataclass
class TransferReport:
    """Summary of one file transfer performed by a client."""

    direction: Direction
    url: str
    size: int
    n_chunks: int
    deduplicated: bool
    started_at: float
    finished_at: float
    #: False when the retry budget ran out before every request succeeded.
    completed: bool = True
    #: Total request attempts issued (file op + chunks + metadata),
    #: including the successful ones.
    attempts: int = 0
    #: Failed attempts that were retried.
    retries: int = 0
    #: Retries that rotated to an alternate front-end.
    failovers: int = 0

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at


class _AttemptTally:
    """Per-transfer bookkeeping shared by the retry helpers."""

    __slots__ = ("attempts", "retries", "failovers")

    def __init__(self) -> None:
        self.attempts = 0
        self.retries = 0
        self.failovers = 0


@dataclass
class StorageClient:
    """One device (mobile or PC) bound to a user account.

    Parameters
    ----------
    user_id, device_id:
        Identity; several clients may share a ``user_id``.
    device_type:
        Determines the processing-time profile (Android clients pay the
        longer inter-chunk ``Tclt`` the paper measured).
    network:
        Current RTT/bandwidth; mutable so tests can move a client between
        WiFi and cellular conditions.
    proxied:
        Whether this client's requests traverse an HTTP proxy.
    retry_policy:
        Failure-recovery knobs (attempt budget, backoff, timeout,
        failover).  Only consulted when a request fails, so the fault-free
        path is untouched by the default policy.
    fault_plan:
        The deployment's fault plan, used for recovery bookkeeping
        (retry/failover/backoff counters).  The plan injects faults at the
        *servers*; the client only reads it for stats.
    """

    user_id: int
    device_id: str
    device_type: DeviceType
    #: Metadata service — a single ``MetadataServer`` or the duck-typed
    #: :class:`~repro.service.metatier.ShardedMetadataTier`; the client
    #: drives both through the same four-method protocol.
    metadata: MetadataServer
    frontends: list[FrontendServer]
    network: ClientNetwork = field(default_factory=ClientNetwork)
    proxied: bool = False
    seed: int = 0
    clock: float = 0.0
    session_id: int = -1
    retry_policy: RetryPolicy = field(default_factory=RetryPolicy)
    fault_plan: FaultPlan | None = None

    def __post_init__(self) -> None:
        if not self.frontends:
            raise ValueError("need at least one front-end")
        self._rng = np.random.default_rng(
            client_seed(self.user_id, self.device_id, self.seed)
        )
        self._profile: DeviceProfile = profile_for(self.device_type)

    # ------------------------------------------------------------------
    # Protocol operations
    # ------------------------------------------------------------------

    def store_file(
        self, name: str, content_seed: bytes, size: int
    ) -> TransferReport:
        """Upload one file, emitting front-end log records as a side effect."""
        started = self.clock
        tally = _AttemptTally()
        manifest = build_manifest(name, content_seed, size)
        decision = self._metadata_call(
            lambda: self.metadata.request_store(
                self.user_id, manifest, now=self.clock
            ),
            tally,
        )
        if decision is None:
            return self._aborted(
                Direction.STORE, "", size, manifest.n_chunks, started, tally
            )
        if decision.duplicate:
            return TransferReport(
                direction=Direction.STORE,
                url=decision.url,
                size=size,
                n_chunks=manifest.n_chunks,
                deduplicated=True,
                started_at=started,
                finished_at=self.clock,
                attempts=tally.attempts,
                retries=tally.retries,
                failovers=tally.failovers,
            )
        if not self._file_op(decision.frontend_id, Direction.STORE, tally):
            return self._aborted(
                Direction.STORE, "", size, manifest.n_chunks, started, tally
            )
        if not self._transfer_chunks(
            decision.frontend_id, manifest.chunk_sizes, Direction.STORE, tally
        ):
            return self._aborted(
                Direction.STORE, "", size, manifest.n_chunks, started, tally
            )
        url = self.metadata.commit_store(
            self.user_id, manifest, decision.frontend_id, now=self.clock
        )
        self._note_completed()
        return TransferReport(
            direction=Direction.STORE,
            url=url,
            size=size,
            n_chunks=manifest.n_chunks,
            deduplicated=False,
            started_at=started,
            finished_at=self.clock,
            attempts=tally.attempts,
            retries=tally.retries,
            failovers=tally.failovers,
        )

    def retrieve_url(self, url: str) -> TransferReport:
        """Download the file behind ``url`` (own file or shared link)."""
        started = self.clock
        tally = _AttemptTally()
        resolved = self._metadata_call(
            lambda: self.metadata.resolve_url(url, now=self.clock), tally
        )
        if resolved is None:
            return self._aborted(Direction.RETRIEVE, url, 0, 0, started, tally)
        record, frontend_id = resolved
        # A download needs only the chunk layout, not the content hashes.
        sizes = chunk_sizes(record.size)
        if not self._file_op(frontend_id, Direction.RETRIEVE, tally):
            return self._aborted(
                Direction.RETRIEVE, url, record.size, len(sizes),
                started, tally,
            )
        if not self._transfer_chunks(
            frontend_id, sizes, Direction.RETRIEVE, tally
        ):
            return self._aborted(
                Direction.RETRIEVE, url, record.size, len(sizes),
                started, tally,
            )
        self._note_completed()
        return TransferReport(
            direction=Direction.RETRIEVE,
            url=url,
            size=record.size,
            n_chunks=len(sizes),
            deduplicated=False,
            started_at=started,
            finished_at=self.clock,
            attempts=tally.attempts,
            retries=tally.retries,
            failovers=tally.failovers,
        )

    # ------------------------------------------------------------------
    # Recovery internals
    # ------------------------------------------------------------------

    def _aborted(
        self,
        direction: Direction,
        url: str,
        size: int,
        n_chunks: int,
        started: float,
        tally: _AttemptTally,
    ) -> TransferReport:
        if self.fault_plan is not None:
            self.fault_plan.stats.aborted_transfers += 1
        return TransferReport(
            direction=direction,
            url=url,
            size=size,
            n_chunks=n_chunks,
            deduplicated=False,
            started_at=started,
            finished_at=self.clock,
            completed=False,
            attempts=tally.attempts,
            retries=tally.retries,
            failovers=tally.failovers,
        )

    def _note_completed(self) -> None:
        if self.fault_plan is not None:
            self.fault_plan.stats.completed_transfers += 1

    def _backoff(self, failure_index: int) -> None:
        """Advance the clock by one jittered backoff delay."""
        delay = self.retry_policy.backoff_delay(failure_index, self._rng)
        self.clock += delay
        if self.fault_plan is not None:
            self.fault_plan.stats.backoff_seconds += delay

    def _metadata_call(self, call: Callable, tally: _AttemptTally):
        """Run a metadata operation with outage retries.

        Returns the operation's value, or ``None`` when the attempt
        budget ran out.  Every attempt — failed or not — costs one
        metadata round trip on the client clock, exactly as before.
        """
        policy = self.retry_policy
        failures = 0
        while True:
            tally.attempts += 1
            try:
                value = call()
            except MetadataUnavailableError:
                # A sharded tier cannot attribute URL resolutions to the
                # requesting user itself; tell it who got blocked (set
                # semantics — double attribution is harmless).
                note = getattr(self.metadata, "note_blocked_user", None)
                if note is not None:
                    note(self.user_id)
                self.clock += self.network.rtt
                failures += 1
                if failures >= policy.max_attempts:
                    return None
                tally.retries += 1
                if self.fault_plan is not None:
                    self.fault_plan.stats.retries += 1
                self._backoff(failures)
                continue
            self.clock += self.network.rtt
            return value

    def _request(
        self,
        preferred_id: int,
        call: Callable[[FrontendServer, int], RequestOutcome],
        tally: _AttemptTally,
    ) -> RequestOutcome | None:
        """Issue one front-end request with retries and failover.

        ``call(frontend, attempt)`` performs attempt number ``attempt``
        (1-based) against ``frontend`` at the current clock.  On success
        the outcome is returned with the clock *not yet* advanced — the
        caller applies its operation-specific cost, keeping the fault-free
        arithmetic identical to the historical simulator.  Failed attempts
        advance the clock by the partial time they consumed plus backoff.
        """
        policy = self.retry_policy
        plan = self.fault_plan
        shift = 0
        failures = 0
        while True:
            frontend = self.frontends[
                (preferred_id + shift) % len(self.frontends)
            ]
            attempt = failures + 1
            tally.attempts += 1
            outcome = call(frontend, attempt)
            if outcome.ok:
                return outcome
            failures += 1
            self.clock += outcome.elapsed
            if failures >= policy.max_attempts:
                return None
            tally.retries += 1
            if plan is not None:
                plan.stats.retries += 1
            if (
                outcome.wants_failover
                and policy.failover
                and len(self.frontends) > 1
            ):
                shift = self._failover_shift(preferred_id, shift)
                tally.failovers += 1
                if plan is not None:
                    plan.stats.failovers += 1
            self._backoff(failures)

    def _failover_shift(self, preferred_id: int, shift: int) -> int:
        """Next rotation offset after a failed attempt.

        Without failure zones this is plain rotation (``shift + 1``, the
        historical behaviour, byte-identical when zones are off).  With
        zones, prefer the nearest front-end in rotation order that sits
        *outside* the failed server's zone; fall back to plain rotation
        when the whole fleet shares one zone.
        """
        n = len(self.frontends)
        failed_id = (preferred_id + shift) % n
        plan = self.fault_plan
        if plan is None:
            return shift + 1
        failed_zone = plan.zone_of(failed_id)
        if failed_zone is None:
            return shift + 1
        for step in range(1, n):
            candidate = (preferred_id + shift + step) % n
            if plan.zone_of(candidate) != failed_zone:
                return shift + step
        return shift + 1

    def _file_op(
        self, frontend_id: int, direction: Direction, tally: _AttemptTally
    ) -> bool:
        outcome = self._request(
            frontend_id,
            lambda frontend, attempt: frontend.handle_file_op(
                timestamp=self.clock,
                user_id=self.user_id,
                device_id=self.device_id,
                device_type=self.device_type,
                direction=direction,
                rtt=self.network.rtt,
                proxied=self.proxied,
                session_id=self.session_id,
                timeout=self.retry_policy.request_timeout,
                rng=self._rng,
            ),
            tally,
        )
        if outcome is None:
            return False
        self.clock += outcome.elapsed + self.network.rtt
        return True

    def _transfer_chunks(
        self,
        frontend_id: int,
        sizes: Sequence[int],
        direction: Direction,
        tally: _AttemptTally,
    ) -> bool:
        rto = paper_rto_estimate(self.network.rtt)
        tclt_dist = self._profile.tclt(direction is Direction.STORE)
        idle = 0.0
        for i, size in enumerate(sizes):
            restarted = i > 0 and idle > rto
            outcome = self._request(
                frontend_id,
                # A retry attempt always restarts the congestion window:
                # the failed connection was torn down and the backoff gap
                # exceeds the RTO by construction.
                lambda frontend, attempt, _restarted=restarted, _size=size: (
                    frontend.handle_chunk(
                        timestamp=self.clock,
                        user_id=self.user_id,
                        device_id=self.device_id,
                        device_type=self.device_type,
                        direction=direction,
                        size=_size,
                        rtt=self.network.rtt,
                        bandwidth=self.network.bandwidth,
                        restarted=_restarted or attempt > 1,
                        proxied=self.proxied,
                        session_id=self.session_id,
                        timeout=self.retry_policy.request_timeout,
                        rng=self._rng,
                    )
                ),
                tally,
            )
            if outcome is None:
                return False
            tclt = float(tclt_dist.sample(self._rng))
            # The next chunk request goes out after the transfer completes
            # and the client prepared the next chunk.
            self.clock += outcome.tchunk + tclt
            # Idle time between chunk transmissions per the paper's Fig 11:
            # server processing plus client processing.
            idle = outcome.tsrv + tclt
        return True
