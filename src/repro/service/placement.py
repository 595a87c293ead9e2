"""Stable, hash-salt-independent placement for the metadata tier.

Both the metadata front-end assignment and the shard router need a
placement that is (a) a pure function of the user id, (b) independent of
``PYTHONHASHSEED`` (reprolint rule D3 bans builtin ``hash()`` for exactly
this reason), and (c) well-mixed — ``user_id % n`` clusters sequential
user populations onto the low buckets and silently re-maps *every* user
when ``n`` changes parity with the population.  A keyed BLAKE2 digest
(the same idiom :func:`repro.service.client.client_seed` uses for client
RNG streams) gives all three: placement survives resharding debates,
reproduces across processes, and spreads any user-id distribution.

The two call sites draw from *distinct* key domains (``frontend/`` vs
``shard/``), so a user's storage front-end and metadata shard are
independent placements — co-locating them would couple the data-path
and metadata-path failure domains for no reason.
"""

from __future__ import annotations

import hashlib
from typing import Callable


def stable_placement(domain: str, key: int, n_buckets: int) -> int:
    """Deterministically place ``key`` into one of ``n_buckets``.

    ``domain`` namespaces the digest so different placement decisions
    (front-end assignment, shard routing) are statistically independent
    even for the same key.
    """
    if n_buckets < 1:
        raise ValueError("need at least one bucket")
    digest = hashlib.blake2b(
        f"{domain}/{key}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little") % n_buckets


def frontend_for(user_id: int, n_frontends: int) -> int:
    """The user's preferred storage front-end (Section 2.1 "closest")."""
    return stable_placement("frontend", user_id, n_frontends)


def shard_for(user_id: int, n_shards: int) -> int:
    """The metadata shard owning the user's namespace."""
    return stable_placement("shard", user_id, n_shards)


class PlacementMemo:
    """A placement function's answers, kept for one bucket count.

    ``memo(key, n_buckets)`` returns ``place(key, n_buckets)``, paying the
    digest once per key.  The memo holds answers for the bucket count it
    was last asked about and starts over when asked about another, so a
    resized fleet or tier never reads a stale placement and the memo
    never holds more than one answer per key.  Each owner keeps its own
    memo; nothing is cached at module level.
    """

    __slots__ = ("_place", "_n_buckets", "_answers")

    def __init__(self, place: Callable[[int, int], int]) -> None:
        self._place = place
        self._n_buckets: int | None = None
        self._answers: dict[int, int] = {}

    def __call__(self, key: int, n_buckets: int) -> int:
        if n_buckets != self._n_buckets:
            self._answers = {}
            self._n_buckets = n_buckets
        bucket = self._answers.get(key)
        if bucket is None:
            bucket = self._answers[key] = self._place(key, n_buckets)
        return bucket


__all__ = ["PlacementMemo", "frontend_for", "shard_for", "stable_placement"]
