"""Golden-trace regression: pin the generator's exact output.

``tests/data/golden_trace.tsv`` is a committed fixed-seed trace.  Any
change to the generator, the per-user seed derivation, the session-id
scheme, or the TSV serialization that silently alters output makes these
tests fail loudly — if the change is intentional, regenerate the fixture:

    PYTHONPATH=src python -c "
    from repro.logs.io import write_tsv
    from repro.workload import GeneratorOptions, generate_trace
    write_tsv(generate_trace(10, n_pc_only_users=3,
                             options=GeneratorOptions(max_chunks_per_file=2),
                             seed=1234),
              'tests/data/golden_trace.tsv')"
"""

from pathlib import Path

import pytest

from tests.helpers import assert_traces_equivalent
from repro.logs.io import (
    read_jsonl,
    read_tsv,
    record_to_tsv,
    write_jsonl,
    write_tsv,
)
from repro.workload import (
    GeneratorOptions,
    generate_columnar_parallel,
    generate_trace,
)

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_trace.tsv"
GOLDEN_USERS = 10
GOLDEN_PC_USERS = 3
GOLDEN_SEED = 1234
GOLDEN_OPTIONS = GeneratorOptions(max_chunks_per_file=2)


def regenerate():
    return generate_trace(
        GOLDEN_USERS,
        n_pc_only_users=GOLDEN_PC_USERS,
        options=GOLDEN_OPTIONS,
        seed=GOLDEN_SEED,
    )


@pytest.fixture(scope="module")
def golden_lines():
    lines = GOLDEN_PATH.read_text().splitlines()
    assert lines[0].startswith("#")
    return lines[1:]


def test_generator_matches_golden_trace(golden_lines):
    regenerated = [record_to_tsv(r) for r in regenerate()]
    assert len(regenerated) == len(golden_lines)
    for index, (want, got) in enumerate(zip(golden_lines, regenerated)):
        assert want == got, f"first drift at record {index}: {want!r} != {got!r}"


def test_sharded_generator_matches_golden_trace(golden_lines):
    sharded = generate_columnar_parallel(
        GOLDEN_USERS,
        n_pc_only_users=GOLDEN_PC_USERS,
        options=GOLDEN_OPTIONS,
        seed=GOLDEN_SEED,
        n_shards=3,
        n_workers=1,
    ).to_records()
    assert [record_to_tsv(r) for r in sharded] == golden_lines


def test_golden_tsv_round_trip(tmp_path):
    """read_tsv -> write_tsv reproduces the committed file byte-for-byte."""
    out = tmp_path / "copy.tsv"
    count = write_tsv(read_tsv(GOLDEN_PATH), out)
    assert count == 649
    assert out.read_bytes() == GOLDEN_PATH.read_bytes()


def test_golden_jsonl_round_trip(tmp_path):
    """TSV -> JSONL -> records preserves every field exactly."""
    out = tmp_path / "copy.jsonl"
    originals = list(read_tsv(GOLDEN_PATH))
    write_jsonl(originals, out)
    round_tripped = list(read_jsonl(out))
    assert_traces_equivalent(originals, round_tripped, label="jsonl round-trip")
    # Field-level spot check beyond LogRecord equality (session_id is
    # excluded from __eq__, so compare it explicitly).
    assert [r.session_id for r in round_tripped] == [
        r.session_id for r in originals
    ]
    assert round_tripped == originals
