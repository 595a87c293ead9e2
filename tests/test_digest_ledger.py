"""The committed digest ledger, ``tests/data/digests.json``.

Each entry names one contract digest, the command that prints it and
where in that command's output it appears.  This test recomputes every
entry in-process, so a change that moves a pinned digest fails here and
has to edit the ledger, where the move shows in the diff.  The
``replay.*`` entries are the six ``replay`` benchmark digests at seed 1
(:data:`tests.helpers.BENCH_REPLAY_PASSES` mirrors that workload).
"""

import hashlib
import json
import pathlib

import pytest

from tests.helpers import BENCH_REPLAY_PASSES, bench_replay_pass

LEDGER = pathlib.Path(__file__).parent / "data" / "digests.json"


def ledger() -> dict[str, dict]:
    return json.loads(LEDGER.read_text())["digests"]


def recompute(name: str) -> str:
    kind, label, part = name.split(".")
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


@pytest.mark.parametrize("name", sorted(ledger()))
def test_pinned_digest(name):
    assert recompute(name) == ledger()[name]["digest"], (
        f"{name} moved; if intended, update tests/data/digests.json and "
        "say why in the change description"
    )
