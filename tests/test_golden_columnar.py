"""Golden fixture for the columnar worker path, at full precision.

``tests/data/golden_trace.tsv`` pins the record path, and only as
``%.6f`` text.  This fixture pins what the sharded columnar workers
write: the MD5 of every column's raw bytes and of the device pool, per
part file and for the merged stream, from
:func:`~repro.workload.parallel.generate_columnar_sharded`.  A small
batch size makes each worker append several batches per part, so the
part-wide device-pool merge is pinned too.  One worker (shards run
inline) and two workers (a process pool) must both match.  Regenerate
only for an intentional behaviour change:

    PYTHONPATH=src:. python tests/test_golden_columnar.py --regenerate
"""

import hashlib
import json
import pathlib
import sys
import tempfile

import pytest

from repro.logs.columnar import COLUMNS, ColumnarTrace
from repro.workload import GeneratorOptions
from repro.workload.parallel import generate_columnar_sharded

FIXTURE = pathlib.Path(__file__).parent / "data" / "golden_columnar.json"


def column_digests(trace: ColumnarTrace) -> dict:
    digests = {
        name: hashlib.md5(getattr(trace, name).astype(dtype).tobytes()).hexdigest()
        for name, dtype in COLUMNS
    }
    digests["device_pool"] = hashlib.md5(
        json.dumps(list(trace.device_pool)).encode()
    ).hexdigest()
    digests["n_rows"] = len(trace)
    return digests


def measured_state(params: dict, part_dir, n_workers: int) -> dict:
    sharded = generate_columnar_sharded(
        params["n_mobile_users"],
        n_pc_only_users=params["n_pc_only_users"],
        options=GeneratorOptions(
            max_chunks_per_file=params["max_chunks_per_file"]
        ),
        seed=params["seed"],
        n_shards=params["n_shards"],
        n_workers=n_workers,
        part_dir=part_dir,
        batch_records=params["batch_records"],
    )
    merged = ColumnarTrace.concatenate(
        list(sharded.merged_blocks(block_rows=params["block_rows"]))
    )
    return {
        "parts": [column_digests(part) for part in sharded.open_parts()],
        "merged": column_digests(merged),
    }


@pytest.mark.parametrize("n_workers", [1, 2])
def test_columnar_parts_match_golden_fixture(tmp_path, n_workers):
    fixture = json.loads(FIXTURE.read_text())
    state = measured_state(fixture["params"], tmp_path / "parts", n_workers)
    assert state["merged"] == fixture["merged"], (
        "columnar worker output changed; if intentional, regenerate via "
        "PYTHONPATH=src:. python tests/test_golden_columnar.py --regenerate"
    )
    assert state["parts"] == fixture["parts"]


def test_fixture_exercises_batches_and_pc_only_users():
    """Every part must span several batches and the population must
    include PC-only users, or the fixture would not pin the pool merge
    and the PC emission branch."""
    fixture = json.loads(FIXTURE.read_text())
    params = fixture["params"]
    assert params["n_pc_only_users"] > 0
    assert all(
        part["n_rows"] > 2 * params["batch_records"] for part in fixture["parts"]
    )


def _regenerate() -> None:
    fixture = json.loads(FIXTURE.read_text())
    with tempfile.TemporaryDirectory() as scratch:
        fixture.update(measured_state(fixture["params"], scratch, 1))
    FIXTURE.write_text(json.dumps(fixture, indent=2, sort_keys=True) + "\n")
    print(f"rewrote {FIXTURE}")


if __name__ == "__main__":
    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
