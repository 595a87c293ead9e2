"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.logs.anonymize import Anonymizer
from repro.logs.io import write_jsonl, write_tsv
from repro.workload import GeneratorOptions, generate_trace


def test_generate_and_analyze_roundtrip(tmp_path, capsys):
    trace = tmp_path / "trace.tsv"
    assert main(["generate", str(trace), "--users", "150",
                 "--max-chunks", "4", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "wrote" in out
    assert trace.exists()

    assert main(["analyze", str(trace), "--fast"]) == 0
    out = capsys.readouterr().out
    assert "sessions recovered" in out
    assert "[Sessions]" in out


def test_analyze_columnar_engine(tmp_path, capsys):
    trace = tmp_path / "trace.tsv"
    main(["generate", str(trace), "--users", "150",
          "--max-chunks", "4", "--seed", "3"])
    capsys.readouterr()

    assert main(["analyze", str(trace), "--fast",
                 "--engine", "columnar"]) == 0
    columnar_out = capsys.readouterr().out
    assert "sessions recovered" in columnar_out

    assert main(["analyze", str(trace), "--fast"]) == 0
    records_out = capsys.readouterr().out
    # The engines print identical findings for the same trace.
    assert columnar_out == records_out


def test_analyze_columnar_empty_trace(tmp_path):
    trace = tmp_path / "empty.tsv"
    trace.write_text("#header\n")
    assert main(["analyze", str(trace), "--engine", "columnar"]) == 1


def test_generate_jsonl_gz(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl.gz"
    assert main(["generate", str(trace), "--users", "50",
                 "--max-chunks", "2", "--anonymize"]) == 0
    assert trace.exists()


def test_generate_deterministic(tmp_path):
    a = tmp_path / "a.tsv"
    b = tmp_path / "b.tsv"
    main(["generate", str(a), "--users", "40", "--seed", "9"])
    main(["generate", str(b), "--users", "40", "--seed", "9"])
    assert a.read_text() == b.read_text()


CONTRACT_USERS, CONTRACT_PC_USERS, CONTRACT_SEED = 60, 12, 7


def serial_reference(path, *, anonymize=False):
    """What the serial generator writes, through the extension's writer."""
    records = generate_trace(
        CONTRACT_USERS,
        n_pc_only_users=CONTRACT_PC_USERS,
        options=GeneratorOptions(max_chunks_per_file=2),
        seed=CONTRACT_SEED,
    )
    if anonymize:
        records = Anonymizer().anonymize_stream(records)
    writer = write_jsonl if path.suffix == ".jsonl" else write_tsv
    writer(records, path)
    return path.read_bytes()


def cli_generate(path, workers, shards, *extra):
    assert main(["generate", str(path),
                 "--users", str(CONTRACT_USERS),
                 "--pc-users", str(CONTRACT_PC_USERS),
                 "--max-chunks", "2", "--seed", str(CONTRACT_SEED),
                 "--workers", str(workers), "--shards", str(shards),
                 *extra]) == 0
    return path.read_bytes()


@pytest.mark.parametrize(("workers", "shards"), [(1, 0), (2, 4), (1, 3)])
def test_generate_output_identical_for_any_workers_and_shards(
    tmp_path, workers, shards
):
    """`--workers`/`--shards` never change a byte of the output file."""
    want = serial_reference(tmp_path / "serial.tsv")
    got = cli_generate(tmp_path / "cli.tsv", workers, shards)
    assert got == want


def test_generate_jsonl_identical_to_serial(tmp_path):
    want = serial_reference(tmp_path / "serial.jsonl")
    assert cli_generate(tmp_path / "cli.jsonl", 2, 4) == want


def test_generate_anonymized_identical_to_serial(tmp_path):
    want = serial_reference(tmp_path / "serial.tsv", anonymize=True)
    assert cli_generate(tmp_path / "w1.tsv", 1, 0, "--anonymize") == want
    assert cli_generate(tmp_path / "w2.tsv", 2, 3, "--anonymize") == want


def test_experiments_filter(capsys):
    assert main(["experiments", "dedup"]) == 0
    out = capsys.readouterr().out
    assert "A4" in out
    assert "1/1 experiments pass" in out


def test_experiments_no_match(capsys):
    assert main(["experiments", "nonexistent-experiment"]) == 1


def test_simulate_flow(capsys):
    assert main(["simulate-flow", "--chunks", "3", "--device", "ios"]) == 0
    out = capsys.readouterr().out
    assert "chunk 0" in out
    assert "goodput" in out


def test_analyze_empty_trace(tmp_path, capsys):
    trace = tmp_path / "empty.tsv"
    trace.write_text("#header\n")
    assert main(["analyze", str(trace)]) == 1


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_experiments_json_output(capsys):
    import json

    assert main(["experiments", "dedup", "--json"]) == 0
    out = capsys.readouterr().out
    data = json.loads(out)
    assert data[0]["experiment"] == "A4"
    assert data[0]["pass"] is True
    assert all("measured" in c for c in data[0]["checks"])


def test_replay_dashboard_and_determinism(capsys):
    args = ["replay", "--users", "6", "--seed", "3", "--speedup", "2"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert "== telemetry" in first
    assert "access-log digest:" in first
    assert main(args) == 0
    second = capsys.readouterr().out
    # Same seed + schedule => the whole dashboard, digest included, is
    # byte-identical (the CI replay-smoke job cmp's the two digests).
    assert first == second


def test_replay_json_snapshot(capsys):
    import json

    assert main(["replay", "--users", "4", "--rate", "2", "--json"]) == 0
    out = capsys.readouterr().out
    body, digest_line = out.rsplit("\n", 2)[0], out.rstrip().rsplit("\n", 1)[1]
    snapshot = json.loads(body)
    assert snapshot["schema_version"] == 2
    assert "access-log digest:" in digest_line


def test_replay_slo_violation_exits_nonzero(capsys):
    assert main(["replay", "--users", "6", "--rate", "8", "--faults",
                 "--slo", "p99=0.001"]) == 1
    out = capsys.readouterr()
    assert "VIOLATED" in out.out
    assert "SLO violated" in out.err


def test_replay_rejects_bad_arguments(capsys):
    assert main(["replay", "--users", "0"]) == 2
    assert main(["replay", "--speedup", "0"]) == 2
    assert main(["replay", "--rate", "-1"]) == 2
    assert main(["replay", "--slo", "p42=1"]) == 2
    capsys.readouterr()


def test_paper_scale_streaming_pipeline(capsys):
    assert main(["paper-scale", "--users", "300", "--pc-users", "60",
                 "--shards", "3", "--seed", "5", "--check"]) == 0
    out = capsys.readouterr().out
    assert "analysis digest: " in out
    assert "check: streaming == in-memory engine" in out
    digest_a = [l for l in out.splitlines() if "analysis digest" in l]

    assert main(["paper-scale", "--users", "300", "--pc-users", "60",
                 "--shards", "3", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    digest_b = [l for l in out.splitlines() if "analysis digest" in l]
    assert digest_a == digest_b, "paper-scale digest not reproducible"


def test_paper_scale_json_output(capsys):
    import json as json_module

    assert main(["paper-scale", "--users", "200", "--pc-users", "40",
                 "--shards", "2", "--json", "--check"]) == 0
    summary = json_module.loads(capsys.readouterr().out)
    assert summary["users"] == 240
    assert summary["records"] > 0
    assert len(summary["digest"]) == 32
    assert summary["sessions"] > 0


def test_paper_scale_rejects_bad_arguments(capsys):
    assert main(["paper-scale", "--users", "0"]) == 2
    assert main(["paper-scale", "--users", "10", "--block-rows", "0"]) == 2
    capsys.readouterr()


def test_autoscale_trajectory_and_determinism(tmp_path, capsys):
    traj = tmp_path / "trajectory.json"
    args = ["autoscale", "--windows", "6", "--strategy", "fault-aware",
            "--json", str(traj)]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert "autoscale digest:" in first
    assert "server-hours=" in first
    assert traj.exists()
    doc = json.loads(traj.read_text())
    assert doc["strategy"] == "fault-aware"
    assert len(doc["windows"]) == 6
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second  # byte-identical double run


def test_autoscale_fault_free_regime(capsys):
    assert main(["autoscale", "--windows", "4", "--strategy", "reactive",
                 "--regime", "fault-free"]) == 0
    out = capsys.readouterr().out
    assert "violations=0/4" in out


def test_autoscale_rejects_bad_arguments(capsys):
    assert main(["autoscale", "--windows", "0"]) == 2
