"""Core analysis pipeline — the paper's primary contribution.

Implements every analysis of Sections 2.4, 3 and 4.1: sessionization via
the fitted interval mixture, session classification and burstiness, session
size and average-file-size modeling, usage-pattern taxonomy, engagement and
retrieval-return curves, stretched-exponential activity models, temporal
workload, and the chunk-level performance diagnostics."""

from .activity import ActivityFit, files_per_user, fit_activity_model
from .burstiness import (
    BurstinessCurve,
    burstiness_curves,
    normalized_operating_times,
)
from .engagement import (
    EngagementCurve,
    RetrievalReturnCurve,
    engagement_curves,
    retrieval_return_curves,
)
from .performance import (
    WindowConcentration,
    chunk_transfer_times,
    estimate_sending_windows,
    idle_rto_ratios_from_logs,
    restart_fraction,
    rtt_samples,
    window_concentration,
)
from .report import Finding, FindingsReport, analyze_trace
from .session_size import (
    FileSizeModelFit,
    VolumeBin,
    average_file_sizes_mb,
    fit_file_size_model,
    ops_per_session,
    storage_slope_mb,
    volume_by_ops,
)
from .sessions import (
    DEFAULT_TAU,
    ColumnarSessions,
    IntervalModel,
    Session,
    SessionClassShares,
    SessionType,
    classify_sessions,
    file_operation_intervals,
    file_operation_intervals_columnar,
    fit_interval_model,
    sessionize,
    sessionize_columnar,
    sessionize_user,
)
from .usage import (
    OCCASIONAL_VOLUME,
    RATIO_THRESHOLD,
    UsageBreakdown,
    UserProfile,
    classify_user,
    device_group_of,
    profile_users,
    profile_users_columnar,
    ratio_samples,
    table3,
)
from .streaming import (
    StreamingAnalyzer,
    StreamingReport,
    analyze_stream,
    report_from_columnar,
)
from .workload import WorkloadSeries, workload_series

__all__ = [
    "ActivityFit",
    "BurstinessCurve",
    "ColumnarSessions",
    "DEFAULT_TAU",
    "EngagementCurve",
    "FileSizeModelFit",
    "Finding",
    "FindingsReport",
    "IntervalModel",
    "OCCASIONAL_VOLUME",
    "RATIO_THRESHOLD",
    "RetrievalReturnCurve",
    "Session",
    "SessionClassShares",
    "SessionType",
    "StreamingAnalyzer",
    "StreamingReport",
    "UsageBreakdown",
    "UserProfile",
    "VolumeBin",
    "WindowConcentration",
    "WorkloadSeries",
    "analyze_stream",
    "analyze_trace",
    "average_file_sizes_mb",
    "burstiness_curves",
    "chunk_transfer_times",
    "classify_sessions",
    "classify_user",
    "device_group_of",
    "engagement_curves",
    "estimate_sending_windows",
    "file_operation_intervals",
    "file_operation_intervals_columnar",
    "files_per_user",
    "fit_activity_model",
    "fit_file_size_model",
    "fit_interval_model",
    "idle_rto_ratios_from_logs",
    "normalized_operating_times",
    "ops_per_session",
    "profile_users",
    "profile_users_columnar",
    "ratio_samples",
    "report_from_columnar",
    "restart_fraction",
    "retrieval_return_curves",
    "rtt_samples",
    "sessionize",
    "sessionize_columnar",
    "sessionize_user",
    "storage_slope_mb",
    "table3",
    "volume_by_ops",
    "window_concentration",
    "workload_series",
]
