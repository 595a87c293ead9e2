"""Latency-percentile telemetry for the service layer.

The replay harness (:mod:`repro.service.replay`) decouples offered load
from service capacity; this module is the measurement side: it turns the
operation reports and access-log records a replay produces into the
latency/throughput observables any "heavy traffic" claim rests on.

Three pieces:

* **Percentile estimators** — :class:`P2Quantile` is the Jain & Chlamtac
  P-squared streaming estimator: five markers per tracked quantile,
  fixed memory, *no RNG draws* (a sampling reservoir would burn random
  state and perturb replay determinism), deterministic given the input
  order.  :class:`LatencySeries` pairs one P² bank (p50/p95/p99/p999)
  with an optional exact sample store so the equivalence tests can pin
  the streaming estimates against :func:`numpy.percentile`.  Error
  bounds are documented in ``docs/TELEMETRY.md`` and enforced in
  ``tests/test_telemetry.py``.
* **Windowed counters** — :class:`TelemetryCollector.observe_log`
  buckets every access-log row into fixed-width virtual-time windows
  and tallies requests/failures/sheds/bytes per window, folding the
  log's columns with ``floor_divide`` and ``bincount``.  Rate queries
  are total-guarded: an empty or all-shed window renders a snapshot
  without dividing by zero.
* **Snapshots** — :meth:`TelemetryCollector.snapshot` freezes everything
  into a :class:`TelemetrySnapshot` with a canonical JSON form
  (``sort_keys``, fixed field set — the schema ``docs/TELEMETRY.md``
  documents and ``tests/test_docs_consistency.py`` asserts) and a text
  dashboard via :meth:`TelemetrySnapshot.render`.  Snapshots embed no
  wall-clock timestamps, so two replays of the same trace are
  byte-identical.

Reconciliation: :meth:`TelemetryCollector.reconcile` cross-checks the
result-code tallies against the deployment's
:class:`~repro.faults.FaultStats` — every shed/unavailable/error/timeout
the fault plan injected must appear in the access log exactly once, so
the two independently-maintained ledgers must agree to the last count.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from ..faults import FaultStats
from ..logs.columnar import OK_CODE, RESULT_CODES, SHED_CODE, as_columnar
from ..logs.schema import ResultCode

#: Version tag embedded in every snapshot; bump when the schema changes.
#: v2 added the ``metadata`` availability section (sharded tier).
TELEMETRY_SCHEMA_VERSION = 2

#: The ``metadata`` section a snapshot carries when no deployment fed
#: availability info — the shape of an unsharded, rejection-free run.
DEFAULT_METADATA_AVAILABILITY = {
    "shards": 1,
    "replicas": 0,
    "read_policy": "primary-only",
    "shard_rejections": [0],
    "blocked_users": 0,
    "replica_reads": 0,
    "failover_reads": 0,
    "stale_reads_avoided": 0,
}

#: The tracked latency quantiles, as fractions.
TRACKED_QUANTILES = (0.50, 0.95, 0.99, 0.999)

#: Snapshot/JSON labels for :data:`TRACKED_QUANTILES`, in order.
QUANTILE_LABELS = ("p50", "p95", "p99", "p999")


class P2Quantile:
    """Streaming estimate of one quantile via the P-squared algorithm.

    Five markers track the running minimum, the target quantile, its
    half-way neighbours and the maximum; marker heights are nudged by
    piecewise-parabolic interpolation as observations arrive.  Memory is
    O(1), no randomness is consumed, and the estimate is a deterministic
    function of the observation sequence.  Until five observations have
    arrived the estimate is the *exact* linear-interpolated quantile of
    the observed samples (matching :func:`numpy.percentile`), so tiny
    series never pay an approximation error.
    """

    __slots__ = ("q", "_heights", "_positions", "_desired", "_increments", "n")

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 1.0:
            raise ValueError("q must be in (0, 1)")
        self.q = q
        self._heights: list[float] = []
        self._positions = [1, 2, 3, 4, 5]
        self._desired = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0]
        self._increments = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]
        self.n = 0

    def add(self, x: float) -> None:
        """Fold one observation into the estimate."""
        x = float(x)
        self.n += 1
        if self.n <= 5:
            self._heights.append(x)
            if self.n == 5:
                self._heights.sort()
            return
        heights = self._heights
        positions = self._positions
        if x < heights[0]:
            heights[0] = x
            k = 0
        elif x >= heights[4]:
            heights[4] = x
            k = 3
        else:
            k = 0
            for i in range(1, 4):
                if x < heights[i]:
                    break
                k = i
        for i in range(k + 1, 5):
            positions[i] += 1
        for i in range(5):
            self._desired[i] += self._increments[i]
        for i in range(1, 4):
            delta = self._desired[i] - positions[i]
            if (delta >= 1.0 and positions[i + 1] - positions[i] > 1) or (
                delta <= -1.0 and positions[i - 1] - positions[i] < -1
            ):
                d = 1 if delta > 0 else -1
                candidate = self._parabolic(i, d)
                if heights[i - 1] < candidate < heights[i + 1]:
                    heights[i] = candidate
                else:
                    heights[i] = self._linear(i, d)
                positions[i] += d

    def _parabolic(self, i: int, d: int) -> float:
        h, n = self._heights, self._positions
        return h[i] + (d / (n[i + 1] - n[i - 1])) * (
            (n[i] - n[i - 1] + d) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - d) * (h[i] - h[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, d: int) -> float:
        h, n = self._heights, self._positions
        return h[i] + d * (h[i + d] - h[i]) / (n[i + d] - n[i])

    @property
    def value(self) -> float:
        """Current estimate (NaN with no observations; exact for n <= 5)."""
        if self.n == 0:
            return math.nan
        if self.n <= 5:
            ordered = sorted(self._heights)
            rank = (len(ordered) - 1) * self.q
            low = int(math.floor(rank))
            high = min(low + 1, len(ordered) - 1)
            return ordered[low] + (rank - low) * (ordered[high] - ordered[low])
        return self._heights[2]


class LatencySeries:
    """Latency samples of one operation type: streaming + optional exact.

    One P² estimator per tracked quantile.  When ``keep_samples`` is true
    (the default) the raw samples are retained, snapshots report exact
    percentiles, and the P² bank is fed lazily: :meth:`percentiles_streaming`
    folds in the retained samples not yet seen, in arrival order.  P² is
    a deterministic function of its input sequence, so the estimates are
    bit-identical to feeding every sample on :meth:`add`, whenever they
    are read.  Streaming mode (``keep_samples=False``) feeds the bank on
    every add and holds memory at O(1) per series for paper-scale
    replays.
    """

    __slots__ = ("label", "keep_samples", "count", "total", "_max",
                 "_samples", "_streaming", "_fed")

    def __init__(self, label: str, *, keep_samples: bool = True) -> None:
        self.label = label
        self.keep_samples = keep_samples
        self.count = 0
        self.total = 0.0
        self._max = 0.0
        self._samples: list[float] = []
        self._streaming = [P2Quantile(q) for q in TRACKED_QUANTILES]
        #: How many retained samples the P² bank has seen.
        self._fed = 0

    def add(self, latency: float) -> None:
        if latency < 0:
            raise ValueError("latency must be >= 0")
        self.count += 1
        self.total += latency
        self._max = max(self._max, latency)
        if self.keep_samples:
            self._samples.append(latency)
            return
        for estimator in self._streaming:
            estimator.add(latency)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan

    @property
    def max(self) -> float:
        return self._max if self.count else math.nan

    def percentiles_streaming(self) -> dict[str, float]:
        """The P² estimates, keyed ``p50``/``p95``/``p99``/``p999``."""
        pending = self._samples[self._fed:]
        if pending:
            for estimator in self._streaming:
                for latency in pending:
                    estimator.add(latency)
            self._fed = len(self._samples)
        return {
            label: estimator.value
            for label, estimator in zip(QUANTILE_LABELS, self._streaming)
        }

    def percentiles_exact(self) -> dict[str, float]:
        """Exact percentiles of the retained samples (NaN when streaming)."""
        if not self.keep_samples or not self._samples:
            return {label: math.nan for label in QUANTILE_LABELS}
        values = np.percentile(
            np.asarray(self._samples), [q * 100.0 for q in TRACKED_QUANTILES]
        )
        return dict(zip(QUANTILE_LABELS, (float(v) for v in values)))

    def percentiles(self) -> dict[str, float]:
        """Best available percentiles: exact when samples are kept."""
        if self.keep_samples and self._samples:
            return self.percentiles_exact()
        return self.percentiles_streaming()


@dataclass(frozen=True)
class SloThreshold:
    """One SLO clause: a metric that must not exceed ``limit``."""

    metric: str
    limit: float


@dataclass(frozen=True)
class SloPolicy:
    """Service-level objectives evaluated against a snapshot.

    ``latency`` maps a quantile label (``p50``/``p95``/``p99``/``p999``)
    to a ceiling in seconds, applied to every operation type;
    ``max_shed_rate`` / ``max_failure_rate`` bound the shed and failed
    shares of all request attempts.  :meth:`parse` reads the CLI format:
    comma-separated ``metric=limit`` clauses, e.g.
    ``"p99=5.0,shed=0.01,fail=0.05"``.
    """

    latency: tuple[SloThreshold, ...] = ()
    max_shed_rate: float | None = None
    max_failure_rate: float | None = None

    @classmethod
    def parse(cls, spec: str) -> "SloPolicy":
        latency: list[SloThreshold] = []
        shed: float | None = None
        fail: float | None = None
        for clause in spec.split(","):
            clause = clause.strip()
            if not clause:
                continue
            metric, _, raw = clause.partition("=")
            metric = metric.strip().lower()
            try:
                limit = float(raw)
            except ValueError:
                raise ValueError(f"bad SLO limit in {clause!r}") from None
            if limit < 0:
                raise ValueError(f"SLO limit must be >= 0 in {clause!r}")
            if metric in QUANTILE_LABELS:
                latency.append(SloThreshold(metric, limit))
            elif metric == "shed":
                shed = limit
            elif metric == "fail":
                fail = limit
            else:
                raise ValueError(
                    f"unknown SLO metric {metric!r} "
                    f"(want one of {QUANTILE_LABELS + ('shed', 'fail')})"
                )
        return cls(
            latency=tuple(latency), max_shed_rate=shed, max_failure_rate=fail
        )


@dataclass(frozen=True)
class TelemetrySnapshot:
    """One frozen view of a replay's telemetry.

    The field set below *is* the snapshot schema — it is documented in
    ``docs/TELEMETRY.md`` and the docs-consistency tests assert the
    document's field list against these dataclass fields, exactly like
    the Table 1 prose is pinned to :class:`~repro.logs.schema.LogRecord`.
    """

    #: Schema version (:data:`TELEMETRY_SCHEMA_VERSION`).
    schema_version: int
    #: Which estimator produced the operation percentiles: exact | p2.
    estimator: str
    #: Seconds of virtual time covered (largest record timestamp seen).
    horizon: float
    #: Width of the throughput/failure-rate windows, seconds.
    window_seconds: float
    #: Per-operation-type latency stats (label, count, completed, mean,
    #: max, p50/p95/p99/p999), sorted by label.
    operations: tuple[dict, ...]
    #: Request-attempt tallies by Table 1 result code, plus totals.
    requests: dict
    #: Metadata-tier availability: shards, replicas, read_policy,
    #: per-shard rejection tallies, blocked-user count and the
    #: replica/failover/stale read counters.
    metadata: dict
    #: Per-window counters: start, requests, ok, failed, shed, bytes and
    #: the derived throughput/failure/shed rates (zero-safe).
    windows: tuple[dict, ...]
    #: SLO clause evaluations: metric, operation, limit, measured, ok.
    slo: tuple[dict, ...]

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, no wall-clock, byte-reproducible."""
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload["operations"] = list(self.operations)
        payload["windows"] = list(self.windows)
        payload["slo"] = list(self.slo)
        return json.dumps(payload, sort_keys=True, indent=2)

    @property
    def slo_ok(self) -> bool:
        """Whether every evaluated SLO clause held."""
        return all(entry["ok"] for entry in self.slo)

    def render(self) -> str:
        """Text dashboard: operations, windows, SLOs."""
        lines = [
            f"== telemetry (horizon {self.horizon:.1f}s, "
            f"{self.window_seconds:.0f}s windows, {self.estimator}) =="
        ]
        lines.append(
            f"  {'operation':<10} {'count':>7} {'done':>7} {'mean':>8} "
            f"{'p50':>8} {'p95':>8} {'p99':>8} {'p999':>8}"
        )
        for op in self.operations:
            lines.append(
                f"  {op['label']:<10} {op['count']:>7} {op['completed']:>7} "
                f"{_fmt(op['mean'])} {_fmt(op['p50'])} {_fmt(op['p95'])} "
                f"{_fmt(op['p99'])} {_fmt(op['p999'])}"
            )
        req = self.requests
        lines.append(
            f"  requests: {req['total']} total, {req['ok']} ok, "
            f"{req['server_error']} error, {req['unavailable']} unavailable, "
            f"{req['timeout']} timeout, {req['shed']} shed "
            f"(failure rate {_rate(req['total'] - req['ok'], req['total']):.2%})"
        )
        meta = self.metadata
        rejections = meta["shard_rejections"]
        lines.append(
            f"  metadata: {meta['shards']} shard(s) x "
            f"{1 + meta['replicas']} node(s) ({meta['read_policy']}); "
            f"rejections {rejections} ({sum(rejections)} total), "
            f"{meta['blocked_users']} users blocked; "
            f"replica reads {meta['replica_reads']} "
            f"({meta['failover_reads']} failover, "
            f"{meta['stale_reads_avoided']} stale avoided)"
        )
        if self.windows:
            busiest = max(self.windows, key=lambda w: w["requests"])
            lines.append(
                f"  {len(self.windows)} windows; busiest @ "
                f"{busiest['start']:.0f}s: {busiest['requests']} reqs "
                f"({busiest['throughput_rps']:.2f} rps, "
                f"shed {busiest['shed_rate']:.1%}, "
                f"fail {busiest['failure_rate']:.1%})"
            )
        for entry in self.slo:
            flag = "ok" if entry["ok"] else "VIOLATED"
            lines.append(
                f"  SLO {entry['operation']}.{entry['metric']} <= "
                f"{entry['limit']:g}: measured {_fmt(entry['measured']).strip()} "
                f"[{flag}]"
            )
        return "\n".join(lines)


def _fmt(value: float) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return f"{'-':>8}"
    return f"{value:>8.3f}"


def _rate(part: float, total: float) -> float:
    """A share that is 0.0 — not a crash — when the denominator is empty."""
    return part / total if total else 0.0


class _WindowCounters:
    """Raw tallies of one fixed-width virtual-time window."""

    __slots__ = ("requests", "ok", "failed", "shed", "bytes")

    def __init__(self) -> None:
        self.requests = 0
        self.ok = 0
        self.failed = 0
        self.shed = 0
        self.bytes = 0


@dataclass(frozen=True)
class FaultPressure:
    """The request-level pressure signals a fault-aware consumer reads.

    A compact, frozen view of one collector's tallies — what the
    autoscaler's fault-aware controller consumes per window (alongside
    the fault ledger's ``pressure_sheds`` delta and the plan's
    concurrent-down fraction).  Not part of the snapshot schema.
    """

    requests: int
    sheds: int
    failed: int
    shed_rate: float
    failure_rate: float

    def shedding(self, shed_alert: float) -> bool:
        """Whether the shed-rate breached the given alert threshold."""
        return self.shed_rate > shed_alert


class TelemetryCollector:
    """Accumulates operation latencies and per-record request counters.

    Parameters
    ----------
    window_seconds:
        Width of the throughput/failure-rate windows (virtual time).
    keep_samples:
        When true (default) exact latency samples are retained next to
        the P² estimators; snapshots then report exact percentiles.
        False caps memory at O(1) per operation type for huge replays.
    """

    def __init__(
        self, *, window_seconds: float = 60.0, keep_samples: bool = True
    ) -> None:
        if window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        self.window_seconds = window_seconds
        self.keep_samples = keep_samples
        self._series: dict[str, LatencySeries] = {}
        self._completed: dict[str, int] = {}
        self._result_counts = {code: 0 for code in ResultCode}
        self._windows: dict[int, _WindowCounters] = {}
        self._horizon = 0.0
        self._metadata: dict | None = None

    # -- operation-level latencies --------------------------------------

    def series(self, label: str) -> LatencySeries:
        found = self._series.get(label)
        if found is None:
            found = LatencySeries(label, keep_samples=self.keep_samples)
            self._series[label] = found
            self._completed[label] = 0
        return found

    def record_operation(
        self, label: str, latency: float, *, completed: bool = True
    ) -> None:
        """Record one client-visible operation (store/retrieve sojourn)."""
        self.series(label).add(latency)
        if completed:
            self._completed[label] += 1

    # -- request-level counters -----------------------------------------

    def observe_log(self, records) -> None:
        """Tally access-log rows into the result and window counters.

        Takes a :class:`~repro.logs.columnar.ColumnarTrace` or any record
        iterable (converted with :func:`~repro.logs.columnar.as_columnar`).
        Row ``i`` lands in window ``timestamp[i] // window_seconds``;
        the fold is whole-column: one ``floor_divide`` for the window
        indices and one ``bincount`` per counter, so the tallies do not
        depend on row order.
        """
        log = as_columnar(records)
        if not len(log):
            return
        result = log.result
        for code, count in enumerate(
            np.bincount(result, minlength=len(RESULT_CODES)).tolist()
        ):
            self._result_counts[RESULT_CODES[code]] += count
        timestamp = log.timestamp
        latest = float(timestamp.max())
        if latest > self._horizon:
            self._horizon = latest
        window_of = np.floor_divide(timestamp, self.window_seconds)
        indices, slot = np.unique(window_of.astype(np.int64), return_inverse=True)
        n_windows = len(indices)
        requests = np.bincount(slot, minlength=n_windows)
        ok = np.bincount(slot[result == OK_CODE], minlength=n_windows)
        shed = np.bincount(slot[result == SHED_CODE], minlength=n_windows)
        volume = np.zeros(n_windows, dtype=np.int64)
        np.add.at(volume, slot, log.volume)
        windows = self._windows
        for index, n, n_ok, n_shed, n_bytes in zip(
            indices.tolist(),
            requests.tolist(),
            ok.tolist(),
            shed.tolist(),
            volume.tolist(),
        ):
            window = windows.get(index)
            if window is None:
                window = windows[index] = _WindowCounters()
            window.requests += n
            window.ok += n_ok
            window.failed += n - n_ok
            window.shed += n_shed
            window.bytes += n_bytes

    def set_metadata_availability(self, info: dict) -> None:
        """Attach the deployment's metadata-tier availability summary.

        The replay harness feeds
        :meth:`~repro.service.cluster.ServiceCluster.metadata_availability`
        here so snapshots carry the per-shard rejection tallies and
        :meth:`reconcile` can pin them against the fault ledger.  Until
        fed, snapshots carry :data:`DEFAULT_METADATA_AVAILABILITY` and
        the metadata reconciliation clause is vacuously true.
        """
        self._metadata = dict(info)

    # -- views ----------------------------------------------------------

    @property
    def total_requests(self) -> int:
        return sum(self._result_counts.values())

    def result_count(self, code: ResultCode) -> int:
        return self._result_counts[code]

    @property
    def shed_rate(self) -> float:
        return _rate(
            self._result_counts[ResultCode.SHED], self.total_requests
        )

    @property
    def failure_rate(self) -> float:
        failed = self.total_requests - self._result_counts[ResultCode.OK]
        return _rate(failed, self.total_requests)

    def fault_pressure(self) -> FaultPressure:
        """Freeze the current request tallies into a :class:`FaultPressure`."""
        total = self.total_requests
        sheds = self._result_counts[ResultCode.SHED]
        failed = total - self._result_counts[ResultCode.OK]
        return FaultPressure(
            requests=total,
            sheds=sheds,
            failed=failed,
            shed_rate=_rate(sheds, total),
            failure_rate=_rate(failed, total),
        )

    def reconcile(self, stats: FaultStats) -> dict:
        """Cross-check record tallies against the fault plan's ledger.

        Every fault the plan injects at a front-end emits exactly one
        access-log record with the matching result code, so the counts
        must agree exactly: SHED records vs ``shed_requests``,
        UNAVAILABLE vs ``crash_rejections`` (metadata rejections raise to
        the client instead of logging), SERVER_ERROR vs
        ``injected_errors`` and TIMEOUT vs ``timeouts``.  The correlation
        attribution counters (``overload_sheds`` + ``pressure_sheds``,
        ``zone_crash_rejections``) must never exceed their umbrellas.

        When :meth:`set_metadata_availability` was fed, the metadata
        clause is exact too: the per-shard rejection tallies must sum to
        ``metadata_rejections``, a sharded tier's ``shard_rejections``
        must *equal* that umbrella (the single-server path never touches
        it, so it must be zero there), and ``failover_reads`` can never
        exceed ``replica_reads``.  Returns a report dict with
        per-counter pairs, ``metadata_ok`` and ``matched``.
        """
        pairs = {
            "shed": (
                self._result_counts[ResultCode.SHED], stats.shed_requests
            ),
            "unavailable": (
                self._result_counts[ResultCode.UNAVAILABLE],
                stats.crash_rejections,
            ),
            "server_error": (
                self._result_counts[ResultCode.SERVER_ERROR],
                stats.injected_errors,
            ),
            "timeout": (
                self._result_counts[ResultCode.TIMEOUT], stats.timeouts
            ),
        }
        attribution_ok = (
            stats.overload_sheds + stats.pressure_sheds
            <= stats.shed_requests
            and stats.zone_crash_rejections <= stats.crash_rejections
            and stats.shard_rejections <= stats.metadata_rejections
            and stats.failover_reads <= stats.replica_reads
        )
        metadata_ok = True
        meta = self._metadata
        if meta is not None:
            shard_sum = sum(meta["shard_rejections"])
            tier_armed = (meta["shards"], meta["replicas"]) != (1, 0)
            pairs["metadata_rejections"] = (
                shard_sum, stats.metadata_rejections
            )
            # No slack: a sharded tier books every rejection under both
            # counters; the single-server path books the umbrella only.
            metadata_ok = (
                stats.shard_rejections == stats.metadata_rejections
                if tier_armed
                else stats.shard_rejections == 0
            )
        matched = (
            attribution_ok
            and metadata_ok
            and all(
                telemetry == ledger for telemetry, ledger in pairs.values()
            )
        )
        return {
            "counters": {
                name: {"telemetry": telemetry, "fault_stats": ledger}
                for name, (telemetry, ledger) in pairs.items()
            },
            "attribution_ok": attribution_ok,
            "metadata_ok": metadata_ok,
            "matched": matched,
        }

    # -- snapshots -------------------------------------------------------

    def snapshot(self, slo: SloPolicy | None = None) -> TelemetrySnapshot:
        """Freeze the current state into a :class:`TelemetrySnapshot`."""
        operations = []
        for label in sorted(self._series):
            series = self._series[label]
            entry = {
                "label": label,
                "count": series.count,
                "completed": self._completed[label],
                "mean": _json_float(series.mean),
                "max": _json_float(series.max),
            }
            entry.update(
                (name, _json_float(value))
                for name, value in series.percentiles().items()
            )
            operations.append(entry)
        requests = {
            code.value: self._result_counts[code] for code in ResultCode
        }
        requests["total"] = self.total_requests
        windows = []
        for index in sorted(self._windows):
            w = self._windows[index]
            windows.append(
                {
                    "start": index * self.window_seconds,
                    "requests": w.requests,
                    "ok": w.ok,
                    "failed": w.failed,
                    "shed": w.shed,
                    "bytes": w.bytes,
                    "throughput_rps": _rate(w.ok, self.window_seconds),
                    "failure_rate": _rate(w.failed, w.requests),
                    "shed_rate": _rate(w.shed, w.requests),
                }
            )
        metadata = (
            dict(self._metadata)
            if self._metadata is not None
            else dict(DEFAULT_METADATA_AVAILABILITY)
        )
        return TelemetrySnapshot(
            schema_version=TELEMETRY_SCHEMA_VERSION,
            estimator="exact" if self.keep_samples else "p2",
            horizon=self._horizon,
            window_seconds=self.window_seconds,
            operations=tuple(operations),
            requests=requests,
            metadata=metadata,
            windows=tuple(windows),
            slo=tuple(self._evaluate_slo(slo, operations)),
        )

    def _evaluate_slo(
        self, slo: SloPolicy | None, operations: list[dict]
    ) -> list[dict]:
        if slo is None:
            return []
        entries: list[dict] = []
        for threshold in slo.latency:
            for op in operations:
                measured = op[threshold.metric]
                entries.append(
                    {
                        "metric": threshold.metric,
                        "operation": op["label"],
                        "limit": threshold.limit,
                        "measured": measured,
                        "ok": measured is not None
                        and measured <= threshold.limit,
                    }
                )
        if slo.max_shed_rate is not None:
            entries.append(
                {
                    "metric": "shed",
                    "operation": "all",
                    "limit": slo.max_shed_rate,
                    "measured": self.shed_rate,
                    "ok": self.shed_rate <= slo.max_shed_rate,
                }
            )
        if slo.max_failure_rate is not None:
            entries.append(
                {
                    "metric": "fail",
                    "operation": "all",
                    "limit": slo.max_failure_rate,
                    "measured": self.failure_rate,
                    "ok": self.failure_rate <= slo.max_failure_rate,
                }
            )
        return entries


def _json_float(value: float) -> float | None:
    """NaN is not valid JSON; absent measurements serialize as null."""
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


__all__ = [
    "DEFAULT_METADATA_AVAILABILITY",
    "LatencySeries",
    "P2Quantile",
    "QUANTILE_LABELS",
    "SloPolicy",
    "SloThreshold",
    "TELEMETRY_SCHEMA_VERSION",
    "TRACKED_QUANTILES",
    "TelemetryCollector",
    "TelemetrySnapshot",
]
