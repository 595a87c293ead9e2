"""User population synthesis.

Builds the per-user specifications the trace generator executes: device
group and inventory (Android/iOS/PC mix of Section 2.2), usage type
(Table 3 shares per device group), weekly activity budget (stretched-
exponential ranks, Fig 10), active-day schedule (the bimodal engagement of
Fig 8) and per-user network conditions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..logs.schema import DeviceType
from .activity import assign_store_retrieve_counts
from .config import DeviceGroup, UserType, WorkloadConfig
from .sampling import categorical


@dataclass(frozen=True)
class DeviceSpec:
    """One device owned by a user."""

    device_id: str
    device_type: DeviceType


@dataclass
class UserSpec:
    """Everything the generator needs to emit one user's week."""

    user_id: int
    group: DeviceGroup
    user_type: UserType
    devices: tuple[DeviceSpec, ...]
    active_days: tuple[int, ...]
    store_files: int
    retrieve_files: int
    rtt: float
    bandwidth: float
    proxied: bool
    #: Mixed mobile&PC users that sync uploads from a PC the same day.
    same_day_sync: bool = False
    #: Occasional users whose uploads were answered by the metadata
    #: server's content dedup: they emit file operations but no chunk
    #: traffic, leaving their total volume at (near) zero.
    dedup_only: bool = False

    @property
    def mobile_devices(self) -> tuple[DeviceSpec, ...]:
        return tuple(d for d in self.devices if d.device_type is not DeviceType.PC)

    @property
    def pc_devices(self) -> tuple[DeviceSpec, ...]:
        return tuple(d for d in self.devices if d.device_type is DeviceType.PC)

    @property
    def first_day(self) -> int:
        return self.active_days[0]


@lru_cache(maxsize=64)
def _normalized(weights: tuple[float, ...]) -> tuple[float, ...]:
    probs = np.asarray(weights, dtype=float)
    probs /= probs.sum()
    return tuple(probs.tolist())


def _sample_type(shares: dict[UserType, float], rng: np.random.Generator) -> UserType:
    types = list(shares)
    return types[categorical(rng, _normalized(tuple(shares.values())))]


def _sample_active_days(
    config: WorkloadConfig, group: DeviceGroup, rng: np.random.Generator
) -> tuple[int, ...]:
    """First-activity day plus the bimodal return schedule of Fig 8."""
    if (
        config.observation_days == 1
        or rng.random() < config.first_day_cohort
    ):
        first = 0
    else:
        first = int(rng.integers(1, config.observation_days))
    days = [first]
    engaged = rng.random() < config.engagement.p_engaged[group]
    if engaged:
        for day in range(first + 1, config.observation_days):
            if rng.random() < config.engagement.p_daily:
                days.append(day)
    return tuple(days)


def _sample_devices(
    user_id: int,
    group: DeviceGroup,
    config: WorkloadConfig,
    rng: np.random.Generator,
) -> tuple[DeviceSpec, ...]:
    devices: list[DeviceSpec] = []
    if group is not DeviceGroup.PC_ONLY:
        if group is DeviceGroup.MULTI_MOBILE:
            n_mobile = 2 + categorical(rng, (0.8, 0.2))
        elif group is DeviceGroup.ONE_MOBILE:
            n_mobile = 1
        else:
            n_mobile = 1 + categorical(
                rng, _normalized(tuple(config.devices.device_count_probs))
            )
        for i in range(n_mobile):
            is_android = rng.random() < config.devices.android_share
            devices.append(
                DeviceSpec(
                    device_id=f"m{user_id:x}-{i}",
                    device_type=(
                        DeviceType.ANDROID if is_android else DeviceType.IOS
                    ),
                )
            )
    if group in (DeviceGroup.MOBILE_AND_PC, DeviceGroup.PC_ONLY):
        devices.append(
            DeviceSpec(device_id=f"p{user_id:x}", device_type=DeviceType.PC)
        )
    return tuple(devices)


def _occasional_budget(rng: np.random.Generator) -> tuple[int, int]:
    """Occasional users move under 1 MB total (Table 3 definition).

    Nearly half of them also peek at a shared file, so a later retrieval
    session exists to bound the Fig 9 never-retrieve fraction near the
    paper's ~80%.
    """
    if rng.random() < 0.35:
        return 1, 1
    return 1 + int(rng.integers(0, 2)), 0


def build_population(
    n_mobile_users: int,
    *,
    n_pc_only_users: int = 0,
    config: WorkloadConfig | None = None,
    seed: int = 0,
) -> list[UserSpec]:
    """Synthesize a user population.

    Parameters
    ----------
    n_mobile_users:
        Users with at least one mobile device (the paper's 1.15 M, scaled).
    n_pc_only_users:
        Additional PC-only users for the Table 3 comparison columns.
    config:
        Calibration; defaults to the paper values.
    seed:
        Master seed; the population is fully deterministic given it.
    """
    if n_mobile_users < 1:
        raise ValueError("need at least one mobile user")
    if n_pc_only_users < 0:
        raise ValueError("n_pc_only_users must be >= 0")
    config = config or WorkloadConfig()
    rng = np.random.default_rng(seed)

    rtt_mu = np.log(config.network.rtt_median)
    bandwidth_mu = np.log(config.network.bandwidth_median)
    users: list[UserSpec] = []
    user_id = 0
    for _ in range(n_mobile_users):
        user_id += 1
        uses_pc = rng.random() < config.devices.pc_co_use
        if uses_pc:
            group = DeviceGroup.MOBILE_AND_PC
        else:
            n_mobile = 1 + categorical(
                rng, _normalized(tuple(config.devices.device_count_probs))
            )
            group = (
                DeviceGroup.ONE_MOBILE if n_mobile == 1 else DeviceGroup.MULTI_MOBILE
            )
        user_type = _sample_type(config.user_mix.shares(group), rng)
        devices = _sample_devices(user_id, group, config, rng)
        active_days = _sample_active_days(config, group, rng)
        same_day_sync = user_type is UserType.MIXED and (
            rng.random()
            < (
                config.engagement.p_same_day_sync_pc
                if group is DeviceGroup.MOBILE_AND_PC
                else config.engagement.p_same_day_sync_mobile
            )
        )
        users.append(
            UserSpec(
                user_id=user_id,
                group=group,
                user_type=user_type,
                devices=devices,
                active_days=active_days,
                store_files=0,
                retrieve_files=0,
                rtt=float(rng.lognormal(rtt_mu, config.network.rtt_sigma)),
                bandwidth=max(
                    30_000.0,
                    float(rng.lognormal(bandwidth_mu, config.network.bandwidth_sigma)),
                ),
                proxied=rng.random() < config.network.proxied_fraction,
                same_day_sync=same_day_sync,
            )
        )

    for _ in range(n_pc_only_users):
        user_id += 1
        group = DeviceGroup.PC_ONLY
        user_type = _sample_type(config.user_mix.shares(group), rng)
        users.append(
            UserSpec(
                user_id=user_id,
                group=group,
                user_type=user_type,
                devices=_sample_devices(user_id, group, config, rng),
                active_days=_sample_active_days(config, group, rng),
                store_files=0,
                retrieve_files=0,
                rtt=float(rng.lognormal(np.log(0.04), 0.5)),
                bandwidth=max(
                    100_000.0, float(rng.lognormal(np.log(1_500_000.0), 0.6))
                ),
                proxied=rng.random() < config.network.proxied_fraction,
            )
        )

    _assign_activity(users, config, rng)
    return users


def _assign_activity(
    users: list[UserSpec], config: WorkloadConfig, rng: np.random.Generator
) -> None:
    """Give each user a weekly store/retrieve file budget.

    Upload-only users store, download-only users retrieve, mixed users do
    both, occasional users move a token amount.  The budgets within each
    role follow the stretched-exponential rank law.
    """
    storers = [
        u
        for u in users
        if u.user_type in (UserType.UPLOAD_ONLY, UserType.MIXED)
    ]
    retrievers = [
        u
        for u in users
        if u.user_type in (UserType.DOWNLOAD_ONLY, UserType.MIXED)
    ]
    store_counts, retrieve_counts = assign_store_retrieve_counts(
        len(storers), len(retrievers), config.activity, rng
    )
    for user, count in zip(storers, store_counts):
        user.store_files = int(count)
    for user, count in zip(retrievers, retrieve_counts):
        user.retrieve_files = int(count)
    for user in users:
        if user.user_type is UserType.OCCASIONAL:
            n_store, n_retrieve = _occasional_budget(rng)
            user.store_files = n_store
            user.retrieve_files = n_retrieve
            # Occasional traffic is metadata-only: their few uploads are
            # answered by content dedup and their peeks at shared links
            # never materialize into chunk transfers, keeping their volume
            # at zero (well under the 1 MB Table 3 threshold).
            user.dedup_only = True
        elif user.group is DeviceGroup.PC_ONLY:
            # PC clients are roughly twice as chatty per user in the
            # paper's dataset (1.2B logs / 2M users vs 349M / 1.15M), and
            # their files are an order of magnitude smaller; scale their
            # weekly budgets so small PC users still clear the 1 MB
            # occasional threshold with their tiny files.
            user.store_files = max(user.store_files * 6, 4) if user.store_files else 0
            user.retrieve_files = (
                max(user.retrieve_files * 6, 4) if user.retrieve_files else 0
            )
