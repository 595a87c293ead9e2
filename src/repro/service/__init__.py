"""Cloud storage service simulator substrate.

Models the examined service end to end: MD5-based chunking and manifests,
a metadata server with content deduplication, storage front-end servers
that emit Table 1 access logs, and client state machines speaking the
store/retrieve protocol of the paper's Section 2.1 — with optional
deterministic fault injection and failure recovery from
:mod:`repro.faults` threaded through every layer."""

from ..faults import (
    FaultConfig,
    FaultPlan,
    FaultStats,
    MetadataUnavailableError,
    RequestOutcome,
    RetryPolicy,
    ZoneConfig,
)

from .autoscaler import (
    AutoscaleOp,
    AutoscaleRun,
    AutoscaleWorkload,
    AutoscalerPolicy,
    FaultAwareController,
    FleetController,
    OracleController,
    PredictiveController,
    ProvisioningOutcome,
    StaticController,
    WindowOutcome,
    WindowSignals,
    compare_strategies,
    diurnal_autoscale_workload,
    make_controller,
    provision,
    run_autoscaled_service,
)
from .cache import CacheStats, LfuCache, LruCache
from .chunks import FileManifest, build_manifest, chunk_sizes, content_md5
from .client import ClientNetwork, StorageClient, TransferReport
from .cluster import ServiceCluster
from .dedup import RedundancyEliminator, Strategy, UploadAccounting
from .frontend import FrontendServer, TransferModel
from .metadata import DedupDecision, MetadataServer, StoredFile
from .metatier import READ_POLICIES, ShardedMetadataTier
from .placement import frontend_for, shard_for, stable_placement
from .replay import (
    ReplayOp,
    ReplayResult,
    natural_rate,
    replay_trace,
    resolve_speedup,
    schedule_arrivals,
    synthetic_replay_trace,
)
from .telemetry import (
    FaultPressure,
    LatencySeries,
    P2Quantile,
    SloPolicy,
    SloThreshold,
    TelemetryCollector,
    TelemetrySnapshot,
)

__all__ = [
    "AutoscaleOp",
    "AutoscaleRun",
    "AutoscaleWorkload",
    "AutoscalerPolicy",
    "CacheStats",
    "ClientNetwork",
    "DedupDecision",
    "FaultAwareController",
    "FaultConfig",
    "FaultPlan",
    "FaultPressure",
    "FaultStats",
    "FileManifest",
    "FleetController",
    "FrontendServer",
    "LatencySeries",
    "LfuCache",
    "LruCache",
    "MetadataServer",
    "MetadataUnavailableError",
    "OracleController",
    "P2Quantile",
    "PredictiveController",
    "ProvisioningOutcome",
    "READ_POLICIES",
    "ReplayOp",
    "ReplayResult",
    "RequestOutcome",
    "RetryPolicy",
    "RedundancyEliminator",
    "ServiceCluster",
    "ShardedMetadataTier",
    "SloPolicy",
    "SloThreshold",
    "StaticController",
    "StorageClient",
    "Strategy",
    "StoredFile",
    "TelemetryCollector",
    "TelemetrySnapshot",
    "TransferModel",
    "TransferReport",
    "UploadAccounting",
    "WindowOutcome",
    "WindowSignals",
    "ZoneConfig",
    "build_manifest",
    "chunk_sizes",
    "compare_strategies",
    "content_md5",
    "diurnal_autoscale_workload",
    "frontend_for",
    "make_controller",
    "natural_rate",
    "provision",
    "replay_trace",
    "resolve_speedup",
    "run_autoscaled_service",
    "schedule_arrivals",
    "shard_for",
    "stable_placement",
    "synthetic_replay_trace",
]
