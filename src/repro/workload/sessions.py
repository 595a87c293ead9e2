"""Session content synthesis: class, size, file count and file sizes.

Builds the per-session structures the generator turns into log records:
which class a session belongs to (store-only / retrieve-only / mixed), how
many file operations it contains (Fig 5a's shape: 40% single-op, ~10% above
20 ops), and the per-file sizes drawn so that the *session average* file
size follows the planted Table 2 exponential mixtures exactly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import MB, FileSizeModel, SessionMixModel
from .sampling import categorical, pairwise_sum


class SessionClass(enum.Enum):
    """The three session classes of Section 3.1.1."""

    STORE_ONLY = "store_only"
    RETRIEVE_ONLY = "retrieve_only"
    MIXED = "mixed"


@dataclass(frozen=True)
class SessionPlan:
    """A planned session: how many files move in each direction and their
    sizes in bytes."""

    session_class: SessionClass
    store_sizes: tuple[int, ...]
    retrieve_sizes: tuple[int, ...]

    @property
    def n_ops(self) -> int:
        return len(self.store_sizes) + len(self.retrieve_sizes)

    @property
    def store_volume(self) -> int:
        return sum(self.store_sizes)

    @property
    def retrieve_volume(self) -> int:
        return sum(self.retrieve_sizes)


def sample_ops_count(
    mix: SessionMixModel, rng: np.random.Generator, max_ops: int | None = None
) -> int:
    """Number of file operations in a session (Fig 5a shape)."""
    cap = max_ops if max_ops is not None else mix.max_ops
    cap = max(1, cap)
    u = rng.random()
    if u < mix.single_op_fraction or cap == 1:
        return 1
    if u < 1.0 - mix.large_fraction:
        # 2..20 ops: shifted geometric.
        count = 2 + int(rng.geometric(1.0 / mix.small_tail_mean)) - 1
        return min(cap, min(20, count))
    # >20 ops: Pareto tail.
    tail = 20.0 * (1.0 + rng.pareto(mix.large_pareto_alpha))
    return min(cap, min(mix.max_ops, int(tail)))


@lru_cache(maxsize=64)
def _component_probs(weights: tuple[float, ...]) -> tuple[float, ...]:
    return tuple((np.asarray(weights) / sum(weights)).tolist())


def sample_size_component(
    weights: tuple[float, ...], rng: np.random.Generator
) -> int:
    """Pick a size-mixture component index by weight."""
    return categorical(rng, _component_probs(tuple(weights)))


def sample_average_file_size(
    weights: tuple[float, ...],
    means_mb: tuple[float, ...],
    rng: np.random.Generator,
    min_bytes: int = 16 * 1024,
    component: int | None = None,
) -> int:
    """One session-average file size in bytes from an exponential mixture.

    When ``component`` is given the draw comes from that component only
    (used to couple file size with operation count).
    """
    if len(weights) != len(means_mb):
        raise ValueError("weights and means must align")
    if component is None:
        component = sample_size_component(weights, rng)
    if not 0 <= component < len(means_mb):
        raise ValueError(f"component {component} out of range")
    size_mb = float(rng.exponential(means_mb[component]))
    return max(min_bytes, int(size_mb * MB))


def spread_file_sizes(
    average: int, n_files: int, rng: np.random.Generator, spread_sigma: float = 0.4
) -> tuple[int, ...]:
    """Per-file sizes with lognormal spread whose mean is exactly ``average``.

    The paper's Table 2 model describes the per-session *average* file
    size, so we preserve that average exactly while letting individual
    files within the session vary (a photo burst is homogeneous; a mixed
    folder less so).

    One ``rng.lognormal(0, spread_sigma, size=n_files)`` draw, then the
    arithmetic on Python floats: the mean is NumPy's pairwise sum over
    ``n_files`` (:func:`~repro.workload.sampling.pairwise_sum`), rounding
    is half to even as ``np.round``, and the drift lands on the first
    largest size as ``np.argmax`` picks it, so the sizes are those of the
    array version value for value, without its small-array calls.
    """
    if n_files < 1:
        raise ValueError("n_files must be >= 1")
    if average < n_files:
        raise ValueError("average size must be at least one byte per file")
    if n_files == 1:
        return (average,)
    jitter = rng.lognormal(0.0, spread_sigma, size=n_files).tolist()
    mean = pairwise_sum(jitter) / n_files
    sizes = [max(1, round(value / mean * average)) for value in jitter]
    # Fix rounding drift so the session average stays exact.
    sizes[sizes.index(max(sizes))] += average * n_files - sum(sizes)
    smallest = min(sizes)
    if smallest < 1:
        # Pathological drift correction; redistribute from the largest.
        deficit = 1 - smallest
        sizes[sizes.index(smallest)] += deficit
        sizes[sizes.index(max(sizes))] -= deficit
    return tuple(sizes)


class SessionPlanner:
    """Turns a per-user file budget into a sequence of session plans."""

    def __init__(self, mix: SessionMixModel, sizes: FileSizeModel) -> None:
        self.mix = mix
        self.sizes = sizes

    def _class_for(
        self, can_store: bool, can_retrieve: bool, rng: np.random.Generator
    ) -> SessionClass:
        if can_store and not can_retrieve:
            return SessionClass.STORE_ONLY
        if can_retrieve and not can_store:
            return SessionClass.RETRIEVE_ONLY
        total = self.mix.store_only + self.mix.retrieve_only + self.mix.mixed
        u = rng.random() * total
        if u < self.mix.store_only:
            return SessionClass.STORE_ONLY
        if u < self.mix.store_only + self.mix.retrieve_only:
            return SessionClass.RETRIEVE_ONLY
        return SessionClass.MIXED

    def _plan_direction(
        self,
        rng: np.random.Generator,
        budget: int,
        *,
        is_store: bool,
        pc_profile: bool,
        max_avg_size_bytes: int | None,
        ops_override: int | None = None,
    ) -> tuple[int, ...]:
        if pc_profile:
            weights, means = self.sizes.pc_weights, self.sizes.pc_means_mb
            large_cap = None
        elif is_store:
            weights, means = self.sizes.store_weights, self.sizes.store_means_mb
            large_cap = self.sizes.large_component_max_ops_store
        else:
            weights, means = (
                self.sizes.retrieve_weights,
                self.sizes.retrieve_means_mb,
            )
            large_cap = self.sizes.large_component_max_ops_retrieve
        component = sample_size_component(weights, rng)
        if ops_override is not None:
            n = max(1, min(budget, ops_override))
            component = 0  # bulk auto-backup sessions are photo streams
        else:
            n = sample_ops_count(self.mix, rng, max_ops=budget)
            # Large-file sessions carry few operations (videos are uploaded
            # one or two at a time; big shared files are fetched singly —
            # which is what pushes the single-file retrieve session mean
            # toward the paper's ~70 MB).
            if component > 0 and large_cap is not None:
                if not is_store and rng.random() < 0.35:
                    n = 1
                else:
                    n = min(n, large_cap)
        if max_avg_size_bytes is not None:
            # Occasional users draw from the ordinary photo component,
            # truncated: they are simply the users whose few files happened
            # to be small, so the Table 2 mixture stays undistorted.
            component = 0
            avg = max_avg_size_bytes
            for _ in range(64):
                avg = sample_average_file_size(
                    weights, means, rng, component=component
                )
                if avg < max_avg_size_bytes:
                    break
            avg = min(avg, max_avg_size_bytes)
        else:
            avg = sample_average_file_size(weights, means, rng, component=component)
        return spread_file_sizes(max(avg, n), n, rng)

    def plan_session(
        self,
        rng: np.random.Generator,
        *,
        store_budget: int,
        retrieve_budget: int,
        pc_profile: bool = False,
        max_avg_size_bytes: int | None = None,
        bulk_store_ops: int | None = None,
        bulk_retrieve_ops: int | None = None,
    ) -> SessionPlan:
        """Plan one session, consuming at most the given file budgets.

        Parameters
        ----------
        pc_profile:
            Switch the size mixtures to the PC-client profile (smaller,
            editing-heavy files).
        max_avg_size_bytes:
            Cap the sampled average file size (used for occasional users,
            whose total traffic stays under 1 MB).
        bulk_store_ops:
            Force a store session with exactly this many operations (the
            auto-backup catch-up sessions of very heavy users).
        bulk_retrieve_ops:
            Force a retrieve session with exactly this many operations
            (multi-device sync drains of very heavy retrievers).
        """
        if store_budget <= 0 and retrieve_budget <= 0:
            raise ValueError("nothing left to plan")
        if bulk_store_ops is not None and bulk_retrieve_ops is not None:
            raise ValueError("a bulk session drains one direction only")
        if bulk_store_ops is not None:
            cls = SessionClass.STORE_ONLY
        elif bulk_retrieve_ops is not None:
            cls = SessionClass.RETRIEVE_ONLY
        else:
            cls = self._class_for(store_budget > 0, retrieve_budget > 0, rng)
        store_sizes: tuple[int, ...] = ()
        retrieve_sizes: tuple[int, ...] = ()
        if cls in (SessionClass.STORE_ONLY, SessionClass.MIXED):
            store_sizes = self._plan_direction(
                rng,
                store_budget,
                is_store=True,
                pc_profile=pc_profile,
                max_avg_size_bytes=max_avg_size_bytes,
                ops_override=bulk_store_ops,
            )
        if cls in (SessionClass.RETRIEVE_ONLY, SessionClass.MIXED):
            retrieve_sizes = self._plan_direction(
                rng,
                retrieve_budget,
                is_store=False,
                pc_profile=pc_profile,
                max_avg_size_bytes=max_avg_size_bytes,
                ops_override=bulk_retrieve_ops,
            )
        return SessionPlan(
            session_class=cls,
            store_sizes=store_sizes,
            retrieve_sizes=retrieve_sizes,
        )
