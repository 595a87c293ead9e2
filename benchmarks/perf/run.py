"""Repository benchmark: end-to-end throughput and a traced per-layer breakdown.

Run from the repository root::

    python3 benchmarks/perf/run.py --workload replay --seed 1 --seconds 50 --trace 0
    python3 benchmarks/perf/run.py --workload analysis --seed 1 --seconds 50 --trace 1

``--trace 0`` runs the workload's fixed-size batch untraced, repeatedly
for ``--seconds``, and reports the end-to-end metrics of
``BENCHMARK.json``.  ``--trace 1`` alternates untraced and traced batches
and reports the per-layer metrics plus the tracing overhead.  The last
line of standard output is the result JSON; the lines before it are the
run's stamp (machine, sizes, seeds) and its detail (per-stage rates,
output digests, model counters).  See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 5
#: Untraced runs measure at least this many batches, however long.
MIN_BATCHES = 3
#: Environment variable of the experiments' disk cache; must be unset.
CACHE_ENV = "REPRO_CACHE_DIR"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stamp(args, workload, seconds: float) -> dict:
    import numpy

    from workloads import HELD_OUT_SEED

    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": workload.seed,
        "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace,
        "seconds": seconds,
        "size": workload.size(),
        "workers": workload.workers,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(ROOT),
    }


def stage_rates(batches) -> dict:
    """Per-stage items/s over the batches (median, quartiles, count)."""
    from stats import describe

    names = batches[0].phases
    return {
        name: describe([b.phases[name][0] / b.phases[name][1] for b in batches])
        for name in names
    }


def check_digests(batches) -> None:
    from workloads import guard

    first = batches[0].digests
    for batch in batches[1:]:
        guard(batch.digests == first, f"outputs differ between batches: {batch.digests} vs {first}")


def timed_setup(workload):
    start = time.perf_counter()
    workload.setup()
    return None, time.perf_counter() - start


def measure(workload, probe, seconds: float) -> tuple[dict, dict, int]:
    """Untraced run: end-to-end metrics, detail, attempted items."""
    from stats import calibrated, describe

    setups = [calibrated(lambda: timed_setup(workload))[1] for _ in range(SETUP_REPEATS)]
    probe.sample()
    runs = []
    start = time.perf_counter()
    while len(runs) < MIN_BATCHES or time.perf_counter() - start < seconds:
        batch, cal = calibrated(lambda: _batch(workload, probe))
        runs.append((batch, cal))
    batches = [batch for batch, _ in runs]
    check_digests(batches)
    rates = [batch.items / cal.nominal_seconds for batch, cal in runs]
    setup_s = describe([cal.nominal_seconds for cal in setups])["median"]
    metrics = {
        "throughput_per_s": {"value": describe(rates)["median"], "unit": "1/s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "rss_anon_peak_mb": {"value": probe.peak_anon_mb, "unit": "MB"},
    }
    detail = {
        "throughput_per_s": describe(rates),
        "raw_throughput_per_s": describe([b.items / b.seconds for b in batches]),
        "slowdown": describe([cal.slowdown for _, cal in runs]),
        "batches": [[b.items, cal.seconds, cal.slowdown] for b, cal in runs],
        "batch_s": describe([b.seconds for b in batches]),
        "setup_s": describe([cal.seconds for cal in setups]),
        "stage_rates_per_s": stage_rates(batches),
        "digests": batches[0].digests,
        "counters": batches[0].counters,
    }
    return metrics, detail, sum(b.items for b in batches)


def _batch(workload, probe, **kwargs):
    batch = workload.batch(probe, **kwargs)
    return batch, batch.seconds


def measure_traced(workload, probe, seconds: float) -> tuple[dict, dict, int]:
    """Traced run: per-layer metrics, detail, attempted items."""
    from stats import calibrated, describe
    from tracer import Instrumentation, Tracer
    from workloads import PER_LAYER

    workload.setup()
    untraced, traced, layers, overheads = [], [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain, plain_cal = calibrated(lambda: _batch(workload, probe, trace_mode=True))
        tracer = Tracer(keep_durations=("client.store", "client.retrieve", "merge"))
        with Instrumentation(tracer, workload.points(tracer)):
            batch, cal = calibrated(
                lambda: _batch(workload, probe, tracer=tracer, trace_mode=True)
            )
        untraced.append(plain)
        traced.append(batch)
        layers.append(workload.layer_metrics(tracer, batch))
        overheads.append(cal.nominal_seconds / plain_cal.nominal_seconds)
    check_digests(untraced + traced)
    values = {name: 0.0 for name, _, _ in PER_LAYER}
    for name in layers[0]:
        values[name] = describe([layer[name] for layer in layers])["median"]
    values["trace.overhead"] = describe(overheads)["median"]
    detail = {
        "untraced_batch_s": describe([b.seconds for b in untraced]),
        "traced_batch_s": describe([b.seconds for b in traced]),
        "trace_overhead": describe(overheads),
        "span_durations_s": {
            name: describe(durations)
            for name, durations in tracer.durations.items()
            if durations
        },
        "digests": traced[0].digests,
    }
    values.update(workload.traced_extras())
    units = {name: unit for name, unit, _ in PER_LAYER}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    return metrics, detail, sum(b.items for b in untraced + traced)


def emit(line: dict) -> None:
    print(json.dumps(line, sort_keys=True), flush=True)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"benchmark: no program source under {SRC}", file=sys.stderr)
        return 2
    if os.environ.get(CACHE_ENV):
        print(
            f"benchmark: {CACHE_ENV} is set; a disk cache must not serve a "
            "timed run",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))

    from stats import RssProbe
    from workloads import DEFAULT_SEED, WORKLOADS, GuardError, default_workers

    if args.workload not in WORKLOADS:
        print(
            f"benchmark: unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    seed = DEFAULT_SEED if args.seed is None else args.seed
    work_dir = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](seed, work_dir, default_workers())
    probe = RssProbe()
    probe.sample()
    try:
        if args.trace:
            metrics, detail, attempted = measure_traced(workload, probe, args.seconds)
        else:
            metrics, detail, attempted = measure(workload, probe, args.seconds)
        served_by_memo = _memo_used()
        if served_by_memo:
            raise GuardError(f"a prepared-trace memo served the run: {served_by_memo}")
    except GuardError as exc:
        print(f"benchmark: correctness guard failed: {exc}", file=sys.stderr)
        emit({"correct": False, "attempted": 1, "failed": 1, "metrics": {}})
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass
    emit({"stamp": stamp(args, workload, args.seconds)})
    emit({"detail": detail})
    emit({"correct": True, "attempted": attempted, "failed": 0, "metrics": metrics})
    return 0


def _memo_used() -> str:
    """Non-empty when the experiments' trace memo or disk cache was used."""
    common = sys.modules.get("repro.experiments.common")
    if common is None:
        return ""
    info = common._prepared_trace.cache_info()
    if info.currsize or common.GENERATION_CALLS:
        return f"{info}, generations={common.GENERATION_CALLS}"
    return ""


if __name__ == "__main__":
    sys.exit(main())
