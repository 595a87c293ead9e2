"""The synthetic trace generator.

Executes a synthesized population (:mod:`repro.workload.population`) into
Table 1 request-log rows: for each user, sessions on their active days at
diurnal start times; within each session, file operations bunched at the
beginning (the paper's burstiness), followed by the chunk requests that
move the data; chunk timing priced by the closed-form TCP transfer model
with slow-start-restart penalties.

:meth:`TraceGenerator._emit_user` is the one emission routine.  It appends
a user's rows as *column runs*: per row, the four fields that vary
(``timestamp``, ``volume``, ``processing_time``, ``server_time``); per run
(a session's file operations in one direction, or one file's chunks) the
run's length and the nine fields constant over it, as one tuple shared by
the session's chunk runs in that direction.
:meth:`TraceGenerator.column_batches` turns the runs of whole users into
:class:`~repro.logs.columnar.ColumnarTrace` batches with ``np.repeat`` and
one stable sort, without a per-row tuple or object;
:meth:`TraceGenerator.generate` and :meth:`TraceGenerator.generate_user`
are record views of those batches.

The generator is streaming (it holds at most a batch of rows) and every
record carries a ground-truth ``session_id`` that the analysis pipeline
ignores but tests use to score the recovered sessionization.

Every user's record stream depends only on the master seed and their own
``user_id`` (per-user generators are spawned off the master seed through
:class:`numpy.random.SeedSequence`, and session ids live in a per-user
namespace), so users can be generated in any order — or on any worker —
and still produce bit-identical records.  :mod:`repro.workload.parallel`
relies on this contract to shard generation across processes.

Draws go through :mod:`repro.workload.sampling` where a scalar NumPy call
would cost more than the sample: runs of same-distribution draws become one
array draw, uniforms the top bits of one ``random_raw()``, categorical
choices a cached CDF.  A file's chunks draw their alternating Tsrv/Tclt
lognormals as one ``standard_normal(2n)`` inside the session's emission
loop.  The rule for every such rewrite: a batched draw must consume the
stream exactly as the scalar draws it replaces, value for value, so the
trace stays bit-identical.  The golden fixtures (``tests/data/``),
``tests/test_rng_equivalence.py`` and the row-emission oracles in
``tests/helpers.py`` (compared with in ``tests/test_generator_rows.py``
and ``tests/test_analysis_fast_paths.py``) are the guard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator

import numpy as np

from ..logs.columnar import (
    CHUNK_CODE,
    DEVICE_CODE,
    FILE_OP_CODE,
    OK_CODE,
    RETRIEVE_CODE,
    STORE_CODE,
    ColumnarTrace,
    first_invalid_row,
)
from ..logs.schema import CHUNK_SIZE, DeviceType, Direction, LogRecord
from ..service.frontend import TransferModel
from ..tcpsim.devices import DEFAULT_SERVER, ServerProfile, profile_for
from ..tcpsim.rto import paper_rto_estimate
from .config import UserType, WorkloadConfig
from .diurnal import SECONDS_PER_DAY, DiurnalSampler
from .population import DeviceSpec, UserSpec, build_population
from .sampling import pow10_normals, raw_uniform
from .sessions import SessionClass, SessionPlan, SessionPlanner

#: Session ids are namespaced per user: user ``u``'s ``k``-th session gets
#: id ``u * SESSION_ID_STRIDE + k``.  A user emits at most a few sessions
#: per active day, so the stride leaves orders of magnitude of headroom
#: while keeping ids unique across the whole population regardless of the
#: order (or process) users are generated in.
SESSION_ID_STRIDE = 1 << 16

#: Rows the record view decodes at a time (:meth:`TraceGenerator.generate`).
_RECORD_BATCH_ROWS = 4096

#: The columns that vary within a run, besides ``timestamp``.
_ROW_COLUMNS = (
    ("volume", np.int64),
    ("processing_time", np.float64),
    ("server_time", np.float64),
)

#: The columns constant over a run, in the order of a run's field tuple;
#: ``device_code`` holds the device-id string until the runs are taken.
_RUN_COLUMNS = (
    ("device_type", np.uint8),
    ("device_code", np.int64),
    ("user_id", np.int64),
    ("kind", np.uint8),
    ("direction", np.uint8),
    ("rtt", np.float64),
    ("proxied", np.bool_),
    ("result", np.uint8),
    ("session_id", np.int64),
)
_USER_ID_FIELD = [name for name, _ in _RUN_COLUMNS].index("user_id")


class _ColumnRuns:
    """Emitted rows as column runs, turned into columns once per batch.

    ``timestamp``, ``volume``, ``processing_time`` and ``server_time``
    hold one value per row.  ``lengths`` and ``run_fields`` hold one entry
    per run of consecutive rows: its length, and the index in ``fields``
    of the tuple of its other nine fields (:data:`_RUN_COLUMNS` order),
    which all the chunk runs of a session and direction share.
    """

    def __init__(self) -> None:
        self.timestamp: list[float] = []
        self.volume: list[int] = []
        self.processing_time: list[float] = []
        self.server_time: list[float] = []
        self.lengths: list[int] = []
        self.run_fields: list[int] = []
        self.fields: list[tuple] = []

    def __len__(self) -> int:
        return len(self.timestamp)

    def take(self) -> ColumnarTrace:
        """The rows as a trace stably sorted by ``(user_id, timestamp)``.

        One stable ``np.lexsort`` orders the rows, so rows with equal keys
        keep their emission order; each run column is then gathered from
        the field tuples through the sorted rows' tuple index, and device
        ids are pooled in order of first appearance in the sorted rows.
        The runs restart empty.

        Raises
        ------
        ValueError
            If any row breaks a :class:`LogRecord` invariant.
        """
        n_rows = len(self.timestamp)
        n_runs = len(self.lengths)
        fields = self.fields
        n_fields = len(fields)
        fields_of_row = np.repeat(
            np.fromiter(self.run_fields, dtype=np.int64, count=n_runs),
            np.fromiter(self.lengths, dtype=np.int64, count=n_runs),
        )
        user_id = np.fromiter(
            map(itemgetter(_USER_ID_FIELD), fields), dtype=np.int64, count=n_fields
        )
        timestamp = np.fromiter(self.timestamp, dtype=np.float64, count=n_rows)
        order = np.lexsort((timestamp, user_id[fields_of_row]))
        fields_of_row = fields_of_row[order]
        columns = {"timestamp": timestamp[order]}
        for name, dtype in _ROW_COLUMNS:
            columns[name] = np.fromiter(
                getattr(self, name), dtype=dtype, count=n_rows
            )[order]
        pool: dict[str, int] = {}
        for index, (name, dtype) in enumerate(_RUN_COLUMNS):
            if name == "user_id":
                values = user_id
            else:
                values = map(itemgetter(index), fields)
                if name == "device_code":
                    values = (pool.setdefault(d, len(pool)) for d in values)
                values = np.fromiter(values, dtype=dtype, count=n_fields)
            columns[name] = values[fields_of_row]
        self.__init__()
        # Every pooled id has rows; renumber the ids by their first row.
        codes = columns["device_code"]
        by_first_row = np.argsort(np.unique(codes, return_index=True)[1])
        renumber = np.empty(len(pool), dtype=np.int64)
        renumber[by_first_row] = np.arange(len(pool))
        columns["device_code"] = renumber[codes]
        device_ids = list(pool)
        invalid = first_invalid_row(columns)
        if invalid is not None:
            row, _, message = invalid
            raise ValueError(f"row {row}: {message}")
        return ColumnarTrace(
            device_pool=tuple(device_ids[code] for code in by_first_row.tolist()),
            **columns,
        )


def user_rng(master_seed: int, user_id: int) -> np.random.Generator:
    """Derive user ``user_id``'s private RNG from the master seed.

    Uses a :class:`numpy.random.SeedSequence` spawn key, the supported way
    to carve independent, collision-resistant streams out of one seed:
    ``SeedSequence(s, spawn_key=(u,))`` is exactly the ``u``-th child that
    ``SeedSequence(s).spawn(n)`` would produce, without materializing the
    other ``n - 1``.  The derivation depends only on ``(master_seed,
    user_id)``, never on generation order — the property that lets shards
    of the population be generated on different workers bit-identically.
    """
    return np.random.default_rng(
        np.random.SeedSequence(master_seed, spawn_key=(user_id,))
    )


@dataclass(frozen=True)
class GeneratorOptions:
    """Knobs that trade fidelity for trace size.

    Attributes
    ----------
    max_chunks_per_file:
        Cap on chunk *records* per file.  Volumes are preserved exactly: a
        capped file emits records whose volumes sum to the file size.  The
        512 KB convention only matters for record counts, not for any
        analysis in the paper, so benches use small caps to keep synthetic
        traces tractable.
    emit_chunks:
        When False only file operations are emitted (enough for the
        session/interval analyses), shrinking traces by another order of
        magnitude.
    """

    max_chunks_per_file: int = 64
    emit_chunks: bool = True

    def __post_init__(self) -> None:
        if self.max_chunks_per_file < 1:
            raise ValueError("max_chunks_per_file must be >= 1")


class TraceGenerator:
    """Generates one observation week of synthetic request logs.

    Parameters
    ----------
    n_mobile_users:
        Mobile user population size.
    n_pc_only_users:
        Additional PC-only users (for Table 3's third column).
    config:
        Calibration parameters; defaults to the paper values.
    options:
        Fidelity/size trade-offs.
    seed:
        Master seed; the trace is fully deterministic given it.
    population:
        Prebuilt user specs to execute instead of synthesizing them from
        the counts.  The caller must guarantee they came from
        :func:`~repro.workload.population.build_population` with the same
        ``(counts, config, seed)`` — the sharded engine uses this to build
        the population once and hand each worker only its shard.
    """

    def __init__(
        self,
        n_mobile_users: int,
        *,
        n_pc_only_users: int = 0,
        config: WorkloadConfig | None = None,
        options: GeneratorOptions | None = None,
        seed: int = 0,
        population: list[UserSpec] | None = None,
    ) -> None:
        if n_mobile_users < 1:
            raise ValueError(
                f"n_mobile_users must be >= 1, got {n_mobile_users}"
            )
        if n_pc_only_users < 0:
            raise ValueError(
                f"n_pc_only_users must be >= 0, got {n_pc_only_users}"
            )
        self.config = config or WorkloadConfig()
        self.options = options or GeneratorOptions()
        self.seed = seed
        self.population = (
            population
            if population is not None
            else build_population(
                n_mobile_users,
                n_pc_only_users=n_pc_only_users,
                config=self.config,
                seed=seed,
            )
        )
        self._diurnal = DiurnalSampler(self.config.diurnal)
        self._planner = SessionPlanner(self.config.session_mix, self.config.file_sizes)
        self._transfer = TransferModel()
        self._server: ServerProfile = DEFAULT_SERVER

    # ------------------------------------------------------------------
    # Record generation
    # ------------------------------------------------------------------

    def generate(self) -> Iterator[LogRecord]:
        """Yield the full trace, grouped by user, time-ordered per user.

        The record view of :meth:`column_batches`: a few thousand rows are
        decoded at a time (:meth:`ColumnarTrace.iter_records`).
        """
        for batch in self.column_batches(self.population, _RECORD_BATCH_ROWS):
            yield from batch.iter_records()

    def generate_user(self, user: UserSpec) -> Iterator[LogRecord]:
        """Yield one user's records in timestamp order."""
        runs = _ColumnRuns()
        self._emit_user(user, runs)
        return runs.take().iter_records()

    def column_batches(
        self, users: Iterable[UserSpec], max_rows: int
    ) -> Iterator[ColumnarTrace]:
        """The users' rows as traces of whole users, in the users' order.

        Each batch is ``(user_id, timestamp)``-sorted, each user's rows in
        timestamp order (ties in emission order).  A batch ends after the
        user that brings it to ``max_rows`` (>= 1) rows, or before a user
        whose id does not exceed the previous user's, so the sort never
        moves a user.
        """
        runs = _ColumnRuns()
        last_user_id = None
        for user in users:
            if len(runs) and user.user_id <= last_user_id:
                yield runs.take()
            self._emit_user(user, runs)
            last_user_id = user.user_id
            if len(runs) >= max_rows:
                yield runs.take()
        if len(runs):
            yield runs.take()

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------

    def _plan_days(
        self,
        user: UserSpec,
        store_left: int,
        retrieve_left: int,
        rng: np.random.Generator,
    ) -> list[tuple[int, list[SessionPlan]]]:
        """Distribute the user's weekly file budget over their active days.

        At most a few sessions happen per day (keeping the inter-session
        interval component near the paper's one-day scale); whatever store
        budget survives to the last active day drains in one bulk
        auto-backup session, so heavy users' stretched-exponential activity
        counts are preserved.
        """
        day_plans: list[tuple[int, list[SessionPlan]]] = []
        occasional = user.user_type is UserType.OCCASIONAL
        size_cap = 450 * 1024 if occasional else None
        pc_profile = not user.mobile_devices
        days = list(user.active_days)
        max_sessions_per_day = 3
        for index, day in enumerate(days):
            plans: list[SessionPlan] = []
            last_day = index == len(days) - 1
            remaining_days = len(days) - index
            while (store_left > 0 or retrieve_left > 0) and (
                len(plans) < max_sessions_per_day
            ):
                # Reserve at least one file per remaining active day, so an
                # engaged user still has something to do when they return
                # (otherwise every later visit would be invisible in logs).
                reserve = min(remaining_days - 1, 2)
                store_today = max(0, store_left - reserve)
                retrieve_today = max(0, retrieve_left - reserve)
                if store_today <= 0 and retrieve_today <= 0:
                    if store_left > 0:
                        store_today = 1
                    else:
                        retrieve_today = 1
                plan = self._planner.plan_session(
                    rng,
                    store_budget=store_today,
                    retrieve_budget=retrieve_today,
                    pc_profile=pc_profile,
                    max_avg_size_bytes=size_cap,
                )
                store_left -= len(plan.store_sizes)
                retrieve_left -= len(plan.retrieve_sizes)
                plans.append(plan)
                if not last_day and rng.random() < 0.9:
                    break  # leave the rest for later days
            if last_day and store_left > 0:
                plans.append(
                    self._planner.plan_session(
                        rng,
                        store_budget=store_left,
                        retrieve_budget=0,
                        pc_profile=pc_profile,
                        max_avg_size_bytes=size_cap,
                        bulk_store_ops=store_left,
                    )
                )
                store_left = 0
            if last_day and retrieve_left > 0:
                plans.append(
                    self._planner.plan_session(
                        rng,
                        store_budget=0,
                        retrieve_budget=retrieve_left,
                        pc_profile=pc_profile,
                        max_avg_size_bytes=size_cap,
                        bulk_retrieve_ops=retrieve_left,
                    )
                )
                retrieve_left = 0
            if user.same_day_sync and index == 0 and plans:
                # Mixed users syncing uploads the same day: append a small
                # retrieval session mirroring part of today's upload,
                # consuming retrieve budget when available.
                first_store = next(
                    (p for p in plans if p.store_sizes), None
                )
                if first_store is not None:
                    sizes = first_store.store_sizes[
                        : max(1, len(first_store.store_sizes) // 2)
                    ]
                    retrieve_left = max(0, retrieve_left - len(sizes))
                    plans.append(
                        SessionPlan(
                            session_class=SessionClass.RETRIEVE_ONLY,
                            store_sizes=(),
                            retrieve_sizes=sizes,
                        )
                    )
            if plans:
                day_plans.append((day, plans))
        return day_plans

    def _pick_device(
        self,
        user: UserSpec,
        plan: SessionPlan,
        rng: np.random.Generator,
        session_index: int,
        used_platforms: set[bool],
    ):
        """Choose the device performing a session.

        Mobile&PC users retrieve preferentially from the PC (the paper:
        "users are more likely to sync data uploaded by mobile devices
        from PCs"), store preferentially from mobile, and touch the
        platform they have not used yet on their second session (real
        dual-platform users run the client on both machines).
        """
        mobile = user.mobile_devices
        pcs = user.pc_devices
        if not mobile:
            return pcs[0]
        if not pcs:
            return mobile[int(rng.integers(0, len(mobile)))]
        if session_index >= 1 and len(used_platforms) == 1:
            # Visit the other platform so the user shows up as mobile&PC.
            want_pc = not next(iter(used_platforms))
            return pcs[0] if want_pc else mobile[0]
        if plan.session_class is SessionClass.RETRIEVE_ONLY:
            if rng.random() < 0.6:
                return pcs[0]
        elif rng.random() < 0.55:
            return mobile[int(rng.integers(0, len(mobile)))]
        return pcs[0] if rng.random() < 0.6 else mobile[0]

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------

    def _emit_user(self, user: UserSpec, runs: _ColumnRuns) -> None:
        """Append one user's rows to ``runs``, session by session.

        Depends only on ``(self.seed, user)`` -- no generator state
        survives between users -- so any subset of the population can be
        emitted in any order (or in another process) with bit-identical
        rows.  The link constants the chunk timing needs are computed once
        per user.
        """
        rng = user_rng(self.seed, user.user_id)
        random_raw = rng.bit_generator.random_raw
        plans = self._plan_days(user, user.store_files, user.retrieve_files, rng)
        link = None
        if self.options.emit_chunks and not user.dedup_only:
            rtt = user.rtt
            link = (
                paper_rto_estimate(rtt),
                self._transfer.restart_penalty_rtts * rtt,
                self._transfer.rate(rtt, user.bandwidth, Direction.STORE),
                self._transfer.rate(
                    rtt,
                    user.bandwidth * self.config.network.downlink_factor,
                    Direction.RETRIEVE,
                ),
            )
        used_platforms: set[bool] = set()  # True = PC
        session_index = 0
        for day, day_plans in plans:
            # Days with several sessions start early enough that the chain
            # stays within the day (a midnight spill would register as a
            # spurious "return" in the engagement analyses), with gaps
            # comfortably above the one-hour session threshold.
            n_plans = len(day_plans)
            gap_hi = min(4.5, max(2.0, 14.0 / max(1, n_plans - 1)))
            base = self._diurnal.sample_timestamp(day, rng)
            latest_start = (
                (day + 1) * SECONDS_PER_DAY
                - (n_plans - 1) * gap_hi * 3600.0
                - 1800.0
            )
            base = max(day * SECONDS_PER_DAY, min(base, latest_start))
            for plan in day_plans:
                device = self._pick_device(
                    user, plan, rng, session_index, used_platforms
                )
                used_platforms.add(device.device_type is DeviceType.PC)
                session_index += 1
                self._emit_session(
                    runs, user, link, device, plan, base,
                    user.user_id * SESSION_ID_STRIDE + session_index,
                    rng, random_raw,
                )
                base += raw_uniform(random_raw, 0.5 * gap_hi, gap_hi) * 3600.0

    def _emit_session(
        self,
        runs: _ColumnRuns,
        user: UserSpec,
        link: tuple[float, float, float, float] | None,
        device: DeviceSpec,
        plan: SessionPlan,
        start: float,
        session_id: int,
        rng: np.random.Generator,
        random_raw,
    ) -> None:
        """Append one session's runs: bursty file operations (a run per
        direction), then the chunk streams that move the files (a run per
        file).

        ``link`` is the user's ``(rto, restart_penalty, store_rate,
        retrieve_rate)``, ``None`` when no chunks are emitted.  The draws
        per file are one ``random_raw()`` (the queueing jitter) then one
        ``standard_normal(2n)`` (the chunks' alternating Tsrv, Tclt), so
        the stream is consumed exactly as by drawing each file's chunks
        separately.
        """
        intervals = self.config.intervals
        store_sizes = plan.store_sizes
        retrieve_sizes = plan.retrieve_sizes
        n_store = len(store_sizes)
        n_ops = n_store + len(retrieve_sizes)

        # Large sessions are always app-batched (multi-select backup);
        # smaller multi-op sessions are batched with probability
        # p_batch_small, else the user drives them one file at a time.
        batch_mode = n_ops > intervals.batch_threshold or (
            n_ops > 1 and rng.random() < intervals.p_batch_small
        )
        mean_log10, std_log10 = (
            (intervals.batch_mean_log10, intervals.batch_std_log10)
            if batch_mode
            else (intervals.within_mean_log10, intervals.within_std_log10)
        )
        op_times = [start]
        for gap in pow10_normals(rng, mean_log10, std_log10, n_ops - 1):
            op_times.append(op_times[-1] + gap)
        tsrv_meta = float(self._server.tsrv.sample(rng)) * 0.2
        if not n_ops:
            return

        device_type = device.device_type
        device_code = DEVICE_CODE[device_type]
        device_id = device.device_id
        user_id = user.user_id
        rtt = user.rtt
        proxied = user.proxied
        fields = runs.fields
        for direction_code, n_direction in (
            (STORE_CODE, n_store),
            (RETRIEVE_CODE, n_ops - n_store),
        ):
            if n_direction:
                runs.lengths.append(n_direction)
                runs.run_fields.append(len(fields))
                fields.append((
                    device_code, device_id, user_id, FILE_OP_CODE,
                    direction_code, rtt, proxied, OK_CODE, session_id,
                ))
        runs.timestamp.extend(op_times)
        runs.volume.extend([0] * n_ops)
        runs.processing_time.extend([tsrv_meta] * n_ops)
        runs.server_time.extend([tsrv_meta] * n_ops)
        if link is None:
            return

        # Transfers share the device's link: each file's chunk stream
        # starts once the previous file finished (the app's transfer
        # queue), which is what stretches sessions far beyond the
        # operating time and produces the Fig 4 burstiness.
        rto, restart_penalty, store_rate, retrieve_rate = link
        max_chunks = self.options.max_chunks_per_file
        profile = profile_for(device_type)
        tsrv_mu, tsrv_sigma = self._server.tsrv.mu, self._server.tsrv.sigma
        exp = math.exp
        ceil = math.ceil
        standard_normal = rng.standard_normal
        add_timestamp = runs.timestamp.append
        add_volume = runs.volume.append
        add_processing_time = runs.processing_time.append
        add_server_time = runs.server_time.append
        add_length = runs.lengths.append
        add_run = runs.run_fields.append
        op_index = 0
        transfer_clock = 0.0
        for is_store, sizes in ((True, store_sizes), (False, retrieve_sizes)):
            if not sizes:
                continue
            rate = store_rate if is_store else retrieve_rate
            tclt_dist = profile.tclt(is_store)
            tclt_mu, tclt_sigma = tclt_dist.mu, tclt_dist.sigma
            run = len(fields)
            fields.append((
                device_code, device_id, user_id, CHUNK_CODE,
                STORE_CODE if is_store else RETRIEVE_CODE,
                rtt, proxied, OK_CODE, session_id,
            ))
            for size in sizes:
                clock = max(
                    op_times[op_index] + raw_uniform(random_raw, 0.05, 0.3),
                    transfer_clock,
                )
                op_index += 1
                # Capped record count; volumes sum to the exact file size.
                # Planned files hold at least one byte
                # (:func:`~repro.workload.sessions.spread_file_sizes`), so
                # every chunk moves a payload and ttran is volume / rate.
                n_records = min(max(1, ceil(size / CHUNK_SIZE)), max_chunks)
                base_volume, remainder = divmod(size, n_records)
                z = standard_normal(2 * n_records).tolist()
                add_length(n_records)
                add_run(run)
                idle = 0.0  # below the RTO: a file's first chunk never restarts
                for index in range(n_records):
                    volume = base_volume + 1 if index < remainder else base_volume
                    tsrv = exp(tsrv_mu + tsrv_sigma * z[2 * index])
                    ttran = volume / rate
                    if idle > rto:
                        ttran += restart_penalty
                    tchunk = ttran + tsrv
                    add_timestamp(clock)
                    add_volume(volume)
                    add_processing_time(tchunk)
                    add_server_time(tsrv)
                    tclt = exp(tclt_mu + tclt_sigma * z[2 * index + 1])
                    clock += tchunk + tclt
                    idle = tsrv + tclt
                transfer_clock = clock


def generate_trace(
    n_mobile_users: int,
    *,
    n_pc_only_users: int = 0,
    config: WorkloadConfig | None = None,
    options: GeneratorOptions | None = None,
    seed: int = 0,
) -> list[LogRecord]:
    """Convenience wrapper: generate and materialize a full trace."""
    generator = TraceGenerator(
        n_mobile_users,
        n_pc_only_users=n_pc_only_users,
        config=config,
        options=options,
        seed=seed,
    )
    return list(generator.generate())
