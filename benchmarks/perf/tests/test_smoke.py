"""Every workload end to end at a tiny scale, untraced and traced.

Run from the repository root with ``python -m pytest benchmarks/perf/tests``.
"""

import json

import pytest

import run
import workloads
from conftest import ROOT

TINY = {
    workloads.ReplayClean: {"users": 12},
    workloads.ReplayChaos: {"users": 40},
    workloads.Replay: {"users": 40},
    workloads.PaperScale: {"users": 80, "check_users": 40, "block_rows": 256},
    workloads.Analyze: {"users": 120},
}


@pytest.fixture
def tiny(monkeypatch):
    for cls, sizes in TINY.items():
        for attr, value in sizes.items():
            monkeypatch.setattr(cls, attr, value)


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(capsys, workload, trace, seed=workloads.DEFAULT_SEED):
    code = run.main(
        ["--workload", workload, "--seed", str(seed), "--seconds", "0",
         "--trace", str(trace)]
    )
    lines = capsys.readouterr().out.strip().splitlines()
    return code, [json.loads(line) for line in lines]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_reports_every_metric(tiny, capsys, workload, trace):
    code, (stamp, detail, result) = run_once(capsys, workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    listed = spec()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for metric in listed:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert result["metrics"]["trace.overhead"]["value"] > 0
    assert stamp["stamp"]["workload"] == workload
    assert detail["detail"]["digests"]
    assert not (ROOT / ".perfbench").exists()


def test_digests_repeat_across_runs_and_follow_the_seed(tiny, capsys):
    first = run_once(capsys, "replay-chaos", 0)[1][1]["detail"]["digests"]
    again = run_once(capsys, "replay-chaos", 0)[1][1]["detail"]["digests"]
    other = run_once(capsys, "replay-chaos", 0, seed=workloads.HELD_OUT_SEED)
    assert first == again
    assert other[1][1]["detail"]["digests"] != first


def test_traced_layers_do_work_where_predicted(tiny, capsys):
    clean = run_once(capsys, "replay-clean", 1)[1][2]["metrics"]
    chaos = run_once(capsys, "replay-chaos", 1)[1][2]["metrics"]
    # No fault plan on the clean replay: the fault layer does nothing.
    assert clean["faults.query_calls"]["value"] == 0
    assert clean["frontend.requests_failed"]["value"] == 0
    assert chaos["faults.query_calls"]["value"] > 0
    assert chaos["client.retries"]["value"] > 0
    for name in ("client.store_calls", "frontend.chunk_calls", "metadata.calls"):
        assert clean[name]["value"] > 0


def test_cache_directory_refuses_to_run(monkeypatch, capsys):
    monkeypatch.setenv(run.CACHE_ENV, "/nonexistent")
    assert run.main(["--workload", "analyze"]) == 2
    assert capsys.readouterr().out == ""


def test_spec_lists_the_benchmark():
    benchmark = spec()
    assert {w["name"] for w in benchmark["workloads"]} == {"replay", "analysis"}
    assert {w["name"] for w in benchmark["workloads"]} <= set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in benchmark["per_layer"]] == [
        tuple(m) for m in workloads.PER_LAYER
    ]
