"""The metadata server: user namespaces and content deduplication.

Per Section 2.1 of the paper, a storage operation first goes to a metadata
server, which checks whether the file's MD5 is already present on some
storage server.  If it is, the file is added to the user's space without any
upload (content deduplication); otherwise the client is directed to the
closest front-end server.  Retrieval resolves a URL to the file MD5 and a
front-end server.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..faults import FaultPlan, MetadataUnavailableError
from .chunks import FileManifest
from .placement import frontend_for


@dataclass(frozen=True)
class StoredFile:
    """A file registered in a user's namespace."""

    owner: int
    name: str
    file_md5: str
    size: int
    url: str


@dataclass(frozen=True)
class DedupDecision:
    """Outcome of a storage operation request at the metadata server.

    An outcome record like :class:`StoredFile` — frozen so a decision
    handed to a client cannot drift after the fact.
    """

    duplicate: bool
    frontend_id: int | None
    url: str


class MetadataServer:
    """Tracks user namespaces, content presence and front-end assignment.

    Parameters
    ----------
    n_frontends:
        Number of storage front-end servers to spread users across.  The
        "closest" front-end is modeled as a stable hash of the user ID.
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan`; during a scheduled
        metadata outage window every operation raises
        :class:`~repro.faults.MetadataUnavailableError` (clients back off
        and retry).  ``None`` keeps the historical always-available
        behaviour.
    """

    def __init__(
        self, n_frontends: int = 4, *, fault_plan: FaultPlan | None = None
    ) -> None:
        if n_frontends < 1:
            raise ValueError("need at least one front-end server")
        self.n_frontends = n_frontends
        self.fault_plan = fault_plan
        # Resolved once: only an enabled plan can reject a request.
        self._faults = (
            fault_plan if fault_plan is not None and fault_plan.enabled else None
        )
        self._content: dict[str, int] = {}  # file_md5 -> hosting frontend
        self._by_url: dict[str, StoredFile] = {}
        self._spaces: dict[int, dict[str, StoredFile]] = {}
        self._url_counter = 0
        self.dedup_hits = 0
        self.store_requests = 0
        self.rejected_requests = 0

    def _check_available(self, now: float) -> None:
        plan = self._faults
        if plan is not None and plan.metadata_down(now):
            self.rejected_requests += 1
            plan.stats.metadata_rejections += 1
            raise MetadataUnavailableError(
                f"metadata server down at t={now:.3f}"
            )

    def _frontend_for(self, user_id: int) -> int:
        # Keyed-digest placement shared with the shard router: stable
        # across PYTHONHASHSEED, well-mixed, and survives resharding
        # (``user_id % n`` remapped every user whenever ``n`` changed).
        return frontend_for(user_id, self.n_frontends)

    def _new_url(self, file_md5: str) -> str:
        self._url_counter += 1
        return f"https://cloud.example/s/{self._url_counter:x}-{file_md5[:8]}"

    # ------------------------------------------------------------------
    # Storage path
    # ------------------------------------------------------------------

    def request_store(
        self, user_id: int, manifest: FileManifest, *, now: float = 0.0
    ) -> DedupDecision:
        """Handle a file storage operation request.

        Returns the dedup decision; on a duplicate the file is registered
        in the user's space immediately and no upload happens.  During a
        scheduled outage window raises
        :class:`~repro.faults.MetadataUnavailableError`.
        """
        self._check_available(now)
        self.store_requests += 1
        hosting = self._content.get(manifest.file_md5)
        if hosting is not None:
            self.dedup_hits += 1
            url = self._register(user_id, manifest)
            return DedupDecision(duplicate=True, frontend_id=None, url=url)
        return DedupDecision(
            duplicate=False,
            frontend_id=self._frontend_for(user_id),
            url="",
        )

    def commit_store(
        self,
        user_id: int,
        manifest: FileManifest,
        frontend_id: int,
        *,
        now: float = 0.0,
    ) -> str:
        """Record a completed upload; returns the file's URL.

        The commit is accepted even during an outage window: the upload
        already happened, and losing the registration would orphan the
        stored bytes.  (Real systems write-ahead-queue this; we model the
        queue as always draining.)
        """
        if not 0 <= frontend_id < self.n_frontends:
            raise ValueError(f"unknown front-end {frontend_id}")
        self._content[manifest.file_md5] = frontend_id
        return self._register(user_id, manifest)

    def _register(self, user_id: int, manifest: FileManifest) -> str:
        space = self._spaces.setdefault(user_id, {})
        existing = space.get(manifest.file_md5)
        if existing is not None:
            return existing.url
        url = self._new_url(manifest.file_md5)
        record = StoredFile(
            owner=user_id,
            name=manifest.name,
            file_md5=manifest.file_md5,
            size=manifest.size,
            url=url,
        )
        space[manifest.file_md5] = record
        self._by_url[url] = record
        return url

    # ------------------------------------------------------------------
    # Retrieval path
    # ------------------------------------------------------------------

    def resolve_url(self, url: str, *, now: float = 0.0) -> tuple[StoredFile, int]:
        """Resolve a share/retrieval URL to the file and its front-end.

        Raises KeyError for unknown URLs and
        :class:`~repro.faults.MetadataUnavailableError` during an outage
        window.  Any user may resolve any URL — URL-based sharing is
        exactly how the paper's download-only users fetch popular content.
        """
        self._check_available(now)
        record = self._by_url[url]
        frontend = self._content.get(record.file_md5)
        if frontend is None:
            raise KeyError(f"content for {url} is not hosted anywhere")
        return record, frontend

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def user_files(self, user_id: int, *, now: float = 0.0) -> list[StoredFile]:
        """All files in a user's space (insertion order).

        Listing a namespace is a metadata read like :meth:`resolve_url`:
        during a scheduled outage window it raises
        :class:`~repro.faults.MetadataUnavailableError` (and counts one
        rejection), rather than serving from a server that is down.
        """
        self._check_available(now)
        return list(self._spaces.get(user_id, {}).values())

    @property
    def unique_contents(self) -> int:
        """Number of distinct file contents hosted."""
        return len(self._content)

    @property
    def dedup_ratio(self) -> float:
        """Fraction of storage operation requests answered by dedup."""
        if not self.store_requests:
            return 0.0
        return self.dedup_hits / self.store_requests
