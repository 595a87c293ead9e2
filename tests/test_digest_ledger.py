"""The committed digest ledger, ``tests/data/digests.json``.

Each entry names one contract digest, the command that prints it and
where in that command's output it appears.  This test recomputes every
entry in-process, so a change that moves a pinned digest fails here and
has to edit the ledger, where the move shows in the diff.

* ``replay.*``: the six ``replay`` benchmark digests at seed 1
  (:data:`tests.helpers.BENCH_REPLAY_PASSES` mirrors that workload);
* ``analysis.paper-scale.*`` and ``analysis.analyze.*``: the ``analysis``
  benchmark digests at seed 1 (:func:`tests.helpers.bench_paper_scale_digests`
  and :func:`tests.helpers.bench_analyze_digest` mirror its two batches);
* ``analysis.paper-scale-smoke.digest``: the CI ``repro paper-scale
  --check`` run (:data:`tests.helpers.CI_PAPER_SCALE`);
* ``live.*.digest``: the live-path CI smoke runs, each a few users.  The
  entry's command is the recipe: its ``repro.cli`` arguments run
  in-process and the digest is read from the line its ``reads`` quotes;
* ``battery.*.json``: the md5 of one experiment's whole ``repro
  experiments NAME --json`` output, its command run in-process the same
  way;
* ``battery.tcp.json``: the md5 of the eight packet-level TCP
  experiments' ``experiments ... --json`` output.  They take ~40 s, so
  the CI ``tcp-battery`` job recomputes this entry and ``cmp``s it with
  the ledger; this module only checks the entry's shape;
* ``battery.all.json``: the md5 of the whole battery's ``experiments
  --json`` output (all 34 experiments, ~80 s), recomputed and ``cmp``ed
  by the same CI job.
"""

import contextlib
import functools
import hashlib
import io
import json
import pathlib
import shlex

import pytest

from repro.cli import main as cli_main
from tests.helpers import (
    BENCH_REPLAY_PASSES,
    CI_PAPER_SCALE,
    bench_analyze_digest,
    bench_paper_scale_digests,
    bench_replay_pass,
    paper_scale_digest,
)

LEDGER = pathlib.Path(__file__).parent / "data" / "digests.json"

ANALYSIS_ENTRIES = {
    "analysis.paper-scale.report",
    "analysis.paper-scale.check",
    "analysis.analyze.findings",
    "analysis.paper-scale-smoke.digest",
}
#: The live-path CI smoke digests and the output line each is printed on.
LIVE_ENTRIES = {
    "live.chaos-smoke.digest": "access-log digest:",
    "live.metatier-smoke.digest": "access-log digest:",
    "live.replay-smoke.digest": "access-log digest:",
    "live.autoscaler-smoke.digest": "autoscale digest:",
}
#: The battery experiments whose ``experiments --json`` output is pinned.
BATTERY_ENTRIES = {
    "battery.ablation_autoscaling.json",
    "battery.r6_autoscaler.json",
}
#: Battery entries recomputed by a CI job rather than here: entry name
#: -> the experiments its command runs.
CI_BATTERY_ENTRIES = {
    "battery.tcp.json": (
        "ablation_initial_window",
        "ablation_mitigations",
        "ablation_pacing",
        "ablation_parallel",
        "ablation_window_cost",
        "fig12_chunk_time",
        "fig13_inflight",
        "fig16_idle",
    ),
    "battery.all.json": (),
}
CLI_PREFIX = "PYTHONPATH=src python -m repro.cli "


def ledger() -> dict[str, dict]:
    return json.loads(LEDGER.read_text())["digests"]


@functools.lru_cache(maxsize=None)
def _paper_scale() -> dict[str, str]:
    return bench_paper_scale_digests()


def _recompute_analysis(label: str, part: str) -> str:
    if label == "paper-scale":
        return _paper_scale()[part]
    if label == "analyze":
        assert part == "findings", part
        return bench_analyze_digest()
    assert (label, part) == ("paper-scale-smoke", "digest"), (label, part)
    ci = dict(CI_PAPER_SCALE)
    return paper_scale_digest(ci.pop("users"), **ci)


def _run_ledger_command(name: str) -> str:
    """Run the entry's ``repro.cli`` command in-process; return stdout."""
    command = ledger()[name]["command"]
    assert command.startswith(CLI_PREFIX), command
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli_main(shlex.split(command[len(CLI_PREFIX):]))
    assert status == 0, f"{command} exited {status}"
    return out.getvalue()


def _recompute_live(name: str) -> str:
    marker = LIVE_ENTRIES[name]
    output = _run_ledger_command(name)
    lines = [line for line in output.splitlines() if marker in line]
    assert len(lines) == 1, lines
    return lines[0].split(marker)[1].strip()


def recompute(name: str) -> str:
    kind, label, part = name.split(".")
    if kind == "analysis":
        return _recompute_analysis(label, part)
    if kind == "live":
        return _recompute_live(name)
    if kind == "battery":
        assert part == "json", name
        return hashlib.md5(_run_ledger_command(name).encode()).hexdigest()
    assert kind == "replay", f"no recipe for ledger entry {name!r}"
    result, _cluster, _taken = bench_replay_pass(label)
    if part == "log":
        return result.log_digest()
    assert part == "telemetry", name
    return hashlib.md5(result.snapshot().to_json().encode()).hexdigest()


def test_ledger_covers_every_replay_pass():
    names = set(ledger())
    for label in BENCH_REPLAY_PASSES:
        assert {f"replay.{label}.log", f"replay.{label}.telemetry"} <= names
    for entry in ledger().values():
        assert set(entry) == {"command", "digest", "reads"}
        assert len(entry["digest"]) == 32


def test_ledger_covers_every_analysis_digest():
    assert ANALYSIS_ENTRIES <= set(ledger())


def test_ledger_covers_every_live_smoke_digest():
    assert set(LIVE_ENTRIES) <= set(ledger())
    for name, marker in LIVE_ENTRIES.items():
        assert marker.rstrip(":") in ledger()[name]["reads"], name


def test_ledger_covers_every_battery_digest():
    assert BATTERY_ENTRIES <= set(ledger())
    for name in BATTERY_ENTRIES:
        _, label, _ = name.split(".")
        assert ledger()[name]["command"].endswith(
            f"experiments {label} --json"
        ), name
    assert set(CI_BATTERY_ENTRIES) <= set(ledger())
    for name, experiments in CI_BATTERY_ENTRIES.items():
        assert ledger()[name]["command"] == CLI_PREFIX + " ".join(
            ("experiments", *experiments, "--json")
        ), name
        assert "CI" in ledger()[name]["reads"], name


@pytest.mark.parametrize(
    "name", sorted(set(ledger()) - set(CI_BATTERY_ENTRIES))
)
def test_pinned_digest(name):
    assert recompute(name) == ledger()[name]["digest"], (
        f"{name} moved; if intended, update tests/data/digests.json and "
        "say why in the change description"
    )
