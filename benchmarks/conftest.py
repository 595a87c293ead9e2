"""Shared benchmark helpers.

Each benchmark regenerates one of the paper's tables or figures: it times
the experiment harness with pytest-benchmark, prints the reproduced
rows/series next to the paper's reference values, and asserts the
qualitative shape (who wins, by roughly what factor).

The synthetic trace behind the behaviour experiments is memoized per
process, so the first benchmark pays generation and the rest time only the
analysis.

The throughput benchmarks record their measurements through the
:func:`emit_json` fixture, so every ``BENCH_*.json`` file is written the
same way.
"""

import json
import os

import pytest


def run_experiment(benchmark, module):
    """Benchmark an experiment module and enforce its paper checks."""
    # Warm the memoized trace outside the timed region.
    module.run()
    result = benchmark.pedantic(module.run, rounds=1, iterations=1)
    print()
    print(result.render())
    failures = result.failures()
    assert not failures, "\n" + "\n".join(c.render() for c in failures)
    return result


@pytest.fixture
def experiment(benchmark):
    def runner(module):
        return run_experiment(benchmark, module)

    return runner


def merge_json(env_var: str, update: dict) -> None:
    """Merge ``update`` into the JSON file named by ``$env_var``.

    A no-op when the variable is unset or empty.  Keys already in the
    file survive unless ``update`` overwrites them, so several tests of
    one benchmark can fill a single file.
    """
    path = os.environ.get(env_var)
    if not path:
        return
    payload = {}
    if os.path.exists(path):
        with open(path) as fh:
            payload = json.load(fh)
    payload.update(update)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)


@pytest.fixture
def emit_json():
    """:func:`merge_json`, for benchmarks that emit a ``BENCH_*.json``."""
    return merge_json
