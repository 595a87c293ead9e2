"""Workload synthesis substrate.

Generates synthetic week-long request traces statistically calibrated to
every model the paper publishes — Gaussian-mixture operation intervals,
Table 2 file-size mixtures, Table 3 user types, stretched-exponential
activity ranks, bimodal engagement and the Fig 1 diurnal cycle — standing
in for the proprietary 350 M-request dataset."""

from .activity import assign_store_retrieve_counts, rank_activity_counts
from .config import (
    MB,
    PAPER_CONFIG,
    ActivityModel,
    DeviceGroup,
    DeviceModel,
    DiurnalModel,
    EngagementModel,
    FileSizeModel,
    NetworkModel,
    SessionIntervalModel,
    SessionMixModel,
    UserMixModel,
    UserType,
    WorkloadConfig,
)
from .deferral import (
    DeferralPolicy,
    LoadSummary,
    evaluate_deferral,
    folded_load,
    hourly_load,
)
from .diurnal import SECONDS_PER_DAY, SECONDS_PER_HOUR, DiurnalSampler
from .generator import (
    SESSION_ID_STRIDE,
    GeneratorOptions,
    TraceGenerator,
    generate_trace,
    user_rng,
)
from .parallel import (
    ShardTask,
    generate_columnar_parallel,
    partition_users,
    shard_of_user,
)
from .popularity import (
    PopularityModel,
    SharedObject,
    build_catalog,
    corpus_bytes,
    request_stream,
    zipf_weights,
)
from .population import DeviceSpec, UserSpec, build_population
from .redundancy import (
    MobileBackupModel,
    PcSyncModel,
    mobile_backup_stream,
    pc_sync_stream,
)
from .sessions import (
    SessionClass,
    SessionPlan,
    SessionPlanner,
    sample_average_file_size,
    sample_ops_count,
    spread_file_sizes,
)

__all__ = [
    "ActivityModel",
    "DeferralPolicy",
    "DeviceGroup",
    "DeviceModel",
    "DeviceSpec",
    "DiurnalModel",
    "DiurnalSampler",
    "EngagementModel",
    "FileSizeModel",
    "GeneratorOptions",
    "LoadSummary",
    "MB",
    "MobileBackupModel",
    "NetworkModel",
    "PcSyncModel",
    "PopularityModel",
    "PAPER_CONFIG",
    "SECONDS_PER_DAY",
    "SECONDS_PER_HOUR",
    "SESSION_ID_STRIDE",
    "SessionClass",
    "SessionIntervalModel",
    "SessionMixModel",
    "SessionPlan",
    "SessionPlanner",
    "SharedObject",
    "ShardTask",
    "TraceGenerator",
    "UserMixModel",
    "UserSpec",
    "UserType",
    "WorkloadConfig",
    "assign_store_retrieve_counts",
    "build_catalog",
    "build_population",
    "corpus_bytes",
    "evaluate_deferral",
    "generate_columnar_parallel",
    "generate_trace",
    "folded_load",
    "hourly_load",
    "mobile_backup_stream",
    "partition_users",
    "pc_sync_stream",
    "rank_activity_counts",
    "request_stream",
    "sample_average_file_size",
    "sample_ops_count",
    "shard_of_user",
    "spread_file_sizes",
    "user_rng",
    "zipf_weights",
]
