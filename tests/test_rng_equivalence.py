"""The generator's batched and cached draws against the NumPy calls they replace.

Each helper in :mod:`repro.workload.sampling`, the scalar
:meth:`repro.tcpsim.devices.Lognormal.sample` (every front-end Tsrv,
client Tclt and ``tcpsim`` flow draw), and the per-file chunk
draws of :func:`tests.helpers.lognormal_pairs` (the oracle the generator's
chunk loop is compared with), must return bit-identical values and leave
``rng.bit_generator.state`` exactly where the scalar
:class:`numpy.random.Generator` calls would.  The golden trace fixtures
catch a drift only as a moved digest; these tests name the NumPy
definition that stopped holding.  The Python-float
:func:`repro.workload.sessions.spread_file_sizes` is held to its array
version (:func:`tests.helpers.spread_file_sizes_numpy`) and
:func:`repro.workload.sampling.pairwise_sum` to ``np.add.reduce``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tcpsim.devices import Lognormal
from repro.workload.sampling import (
    categorical,
    pairwise_sum,
    pow10_normals,
    raw_uniform,
)
from repro.workload.sessions import spread_file_sizes
from tests.helpers import lognormal_pairs, spread_file_sizes_numpy, uniform

seeds = st.integers(0, 2**32 - 1)
finite = st.floats(-5.0, 5.0, allow_nan=False)
sigmas = st.floats(0.0, 3.0, allow_nan=False)
lognormals = st.builds(Lognormal, median=st.floats(1e-3, 1e3), sigma=sigmas)


def bits(values) -> list[str]:
    """Bitwise identity of floats (``==`` would equate -0.0 and 0.0)."""
    return [float(v).hex() for v in values]


def twin(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    return np.random.default_rng(seed), np.random.default_rng(seed)


@given(seed=seeds, first=lognormals, second=lognormals, n=st.integers(0, 80))
@settings(max_examples=200)
def test_lognormal_pairs_match_alternating_scalar_samples(seed, first, second, n):
    scalar, batched = twin(seed)
    expected_first, expected_second = [], []
    for _ in range(n):
        expected_first.append(float(first.sample(scalar)))
        expected_second.append(float(second.sample(scalar)))
    got_first, got_second = lognormal_pairs(batched, first, second, n)
    assert bits(got_first) == bits(expected_first)
    assert bits(got_second) == bits(expected_second)
    assert batched.bit_generator.state == scalar.bit_generator.state


@given(seed=seeds, dist=lognormals, n=st.integers(1, 40))
@settings(max_examples=200)
def test_scalar_lognormal_sample_matches_rng_lognormal(seed, dist, n):
    scalar, ours = twin(seed)
    expected = [scalar.lognormal(dist.mu, dist.sigma) for _ in range(n)]
    got = [dist.sample(ours) for _ in range(n)]
    assert all(type(value) is float for value in got)
    assert bits(got) == bits(expected)
    assert ours.bit_generator.state == scalar.bit_generator.state


@pytest.mark.parametrize(
    "median, sigma",
    [(0.001, 0.5), (0.05, 1.2), (1.0, 0.0), (0.2, 0.0), (3.5, 0.8), (900.0, 2.5)],
)
def test_scalar_lognormal_interleaved_with_random(median, sigma):
    """Draws mixed with ``random()`` leave the stream where NumPy's do."""
    dist = Lognormal(median=median, sigma=sigma)
    scalar, ours = twin(11)
    expected, got = [], []
    for i in range(300):
        expected.append(scalar.lognormal(dist.mu, dist.sigma))
        got.append(dist.sample(ours))
        if i % 3 == 0:
            expected.append(scalar.random())
            got.append(ours.random())
    assert bits(got) == bits(expected)
    assert ours.bit_generator.state == scalar.bit_generator.state


def test_scalar_lognormal_past_the_float_range_is_inf_like_numpy():
    dist = Lognormal(median=1e308, sigma=1.0)
    scalar, ours = twin(0)
    expected = [scalar.lognormal(dist.mu, dist.sigma) for _ in range(20)]
    got = [dist.sample(ours) for _ in range(20)]
    assert math.inf in expected
    assert bits(got) == bits(expected)
    assert ours.bit_generator.state == scalar.bit_generator.state


@given(seed=seeds, mean=finite, std=sigmas, n=st.integers(-1, 80))
@settings(max_examples=200)
def test_pow10_normals_match_scalar_normal_calls(seed, mean, std, n):
    scalar, batched = twin(seed)
    expected = [10.0 ** float(scalar.normal(mean, std)) for _ in range(n)]
    assert bits(pow10_normals(batched, mean, std, n)) == bits(expected)
    assert batched.bit_generator.state == scalar.bit_generator.state


@given(
    seed=seeds,
    low=st.floats(-1e6, 1e6, allow_nan=False),
    width=st.floats(0.0, 1e6, allow_nan=False),
    n=st.integers(1, 20),
)
@settings(max_examples=200)
def test_uniform_matches_scalar_uniform(seed, low, width, n):
    high = low + width
    scalar, batched = twin(seed)
    expected = [float(scalar.uniform(low, high)) for _ in range(n)]
    assert bits(uniform(batched, low, high) for _ in range(n)) == bits(expected)
    assert batched.bit_generator.state == scalar.bit_generator.state


@given(
    seed=seeds,
    low=st.floats(-1e6, 1e6, allow_nan=False),
    width=st.floats(0.0, 1e6, allow_nan=False),
    n=st.integers(1, 20),
)
@settings(max_examples=200)
def test_raw_uniform_matches_scalar_uniform(seed, low, width, n):
    high = low + width
    scalar, raw = twin(seed)
    expected = [float(scalar.uniform(low, high)) for _ in range(n)]
    random_raw = raw.bit_generator.random_raw
    assert bits(raw_uniform(random_raw, low, high) for _ in range(n)) == bits(
        expected
    )
    assert raw.bit_generator.state == scalar.bit_generator.state


@given(seed=seeds, steps=st.lists(st.integers(0, 3), max_size=60))
@settings(max_examples=200)
def test_raw_uniform_interleaved_with_other_draws(seed, steps):
    """Mixed with normals, integers and exponentials -- whose samplers
    may take more than one word, or a buffered half-word -- the raw-bit
    uniform leaves the stream where ``uniform`` does."""
    scalar, raw = twin(seed)
    random_raw = raw.bit_generator.random_raw
    expected, got = [], []
    for step in steps:
        if step == 0:
            expected.append(float(scalar.uniform(0.05, 0.3)))
            got.append(raw_uniform(random_raw, 0.05, 0.3))
        elif step == 1:
            expected.append(float(scalar.standard_normal()))
            got.append(float(raw.standard_normal()))
        elif step == 2:
            expected.append(float(scalar.integers(0, 7, dtype=np.int32)))
            got.append(float(raw.integers(0, 7, dtype=np.int32)))
        else:
            expected.append(float(scalar.exponential(2.5)))
            got.append(float(raw.exponential(2.5)))
        assert raw.bit_generator.state == scalar.bit_generator.state
    assert bits(got) == bits(expected)


@given(seed=seeds, n=st.integers(1, 20))
def test_argless_uniform_is_random(seed, n):
    scalar, batched = twin(seed)
    expected = [float(scalar.uniform()) for _ in range(n)]
    assert bits(batched.random() for _ in range(n)) == bits(expected)
    assert batched.bit_generator.state == scalar.bit_generator.state


def normalized(weights: list[float]) -> tuple[float, ...]:
    probs = np.asarray(weights, dtype=float)
    probs /= probs.sum()
    return tuple(probs.tolist())


weight_vectors = st.lists(
    st.floats(0.0, 10.0, allow_nan=False), min_size=1, max_size=12
).filter(lambda w: sum(w) > 0)


@given(seed=seeds, weights=weight_vectors, n=st.integers(1, 30))
@settings(max_examples=300)
def test_categorical_matches_choice(seed, weights, n):
    p = normalized(weights)
    scalar, cached = twin(seed)
    expected = [int(scalar.choice(len(p), p=p)) for _ in range(n)]
    assert [categorical(cached, p) for _ in range(n)] == expected
    assert cached.bit_generator.state == scalar.bit_generator.state


@pytest.mark.parametrize(
    "p",
    [
        (0.8, 0.2),  # the multi-mobile device count, passed unnormalized
        (0.0, 1.0),  # a zero-weight head is never drawn
        (0.5, 0.5, 0.0),  # a zero-weight tail is never drawn
        (1.0,),
        (0.5, 0.5 + 1e-9),  # off by less than NumPy's tolerance
    ],
)
def test_categorical_matches_choice_on_edge_vectors(p):
    scalar, cached = twin(7)
    expected = [int(scalar.choice(len(p), p=p)) for _ in range(500)]
    assert [categorical(cached, p) for _ in range(500)] == expected
    assert cached.bit_generator.state == scalar.bit_generator.state


#: PCG64's 128-bit LCG multiplier.
PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def rng_yielding(u: float) -> np.random.Generator:
    """A PCG64 generator whose next ``random()`` is exactly ``u``.

    ``random()`` is the top 53 bits of the next output; PCG64 steps its
    state and then outputs ``rotr(hi ^ lo, hi >> 122)``, so the state
    ``(0, bits)`` outputs ``bits``.  Step back once from it.
    """
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    target = int(u * 2**53) << 11
    state["state"]["state"] = (
        (target - state["state"]["inc"]) * pow(PCG64_MULTIPLIER, -1, 2**128)
    ) % 2**128
    rng.bit_generator.state = state
    return rng


@pytest.mark.parametrize(
    "p, u",
    [
        ((0.5, 0.5), 0.5),
        ((0.25, 0.25, 0.25, 0.25), 0.25),
        ((0.25, 0.25, 0.25, 0.25), 0.75),
        ((0.0, 1.0), 0.0),
        ((0.0, 0.0, 1.0), 0.0),
    ],
)
def test_categorical_breaks_ties_like_choice(p, u):
    """A draw landing exactly on a CDF step goes right, as in ``choice``."""
    assert rng_yielding(u).random() == u
    assert categorical(rng_yielding(u), p) == int(rng_yielding(u).choice(len(p), p=p))


@pytest.mark.parametrize(
    "p",
    [
        (),
        ((0.5, 0.5),),
        (0.5, math.nan),
        (math.inf, -math.inf),  # Kahan-sums to NaN without holding one
        (1.5, -0.5),
        (-math.inf, 1.0),
        (0.5, 0.6),
        (math.inf, 0.0),
        (0.0, 0.0),
        (0.5, 0.5 + 1e-7),  # off by more than NumPy's tolerance
    ],
)
def test_categorical_rejects_what_choice_rejects(p):
    scalar, cached = twin(3)
    with pytest.raises(ValueError) as numpy_error:
        scalar.choice(len(p), p=p)
    with pytest.raises(ValueError) as ours:
        categorical(cached, p)
    assert str(ours.value) == str(numpy_error.value)
    # A rejected p consumes nothing, on either side.
    assert cached.bit_generator.state == scalar.bit_generator.state
    assert cached.bit_generator.state == np.random.default_rng(3).bit_generator.state


# ----------------------------------------------------------------------
# Pairwise sums and the per-session size spread
# ----------------------------------------------------------------------

sum_values = st.lists(
    st.floats(0.0, 1e12, allow_nan=False)
    | st.floats(-1e6, 1e6, allow_nan=False)
    | st.sampled_from([0.0, -0.0, 1e-300, 1.0, 3.0]),
    max_size=600,
)


@given(values=sum_values)
@settings(max_examples=300)
def test_pairwise_sum_matches_add_reduce(values):
    expected = np.add.reduce(np.asarray(values, dtype=np.float64))
    assert bits([pairwise_sum(values)]) == bits([expected])


@given(seed=seeds, n=st.integers(1, 1200), sigma=st.floats(0.0, 4.0))
@settings(max_examples=200)
def test_pairwise_sum_matches_ndarray_sum_of_lognormals(seed, n, sigma):
    values = np.random.default_rng(seed).lognormal(0.0, sigma, size=n)
    assert bits([pairwise_sum(values.tolist())]) == bits([values.sum()])
    assert bits([pairwise_sum(values.tolist()) / n]) == bits([values.mean()])


@pytest.mark.parametrize("n", [1, 7, 8, 9, 15, 16, 17, 127, 128, 129, 136, 255, 256, 257, 1199])
def test_pairwise_sum_block_boundaries(n):
    values = np.random.default_rng(n).lognormal(0.0, 3.0, size=n)
    assert bits([pairwise_sum(values.tolist())]) == bits([np.add.reduce(values)])
    zeros = [-0.0] * n
    assert bits([pairwise_sum(zeros)]) == bits([np.add.reduce(np.asarray(zeros))])


@given(
    seed=seeds,
    n=st.integers(1, 1200),
    slack=st.integers(0, 3) | st.integers(0, 10**9),
    sigma=st.sampled_from([0.0, 0.4, 1.5, 4.0]),
)
@settings(max_examples=300)
def test_spread_file_sizes_matches_array_version(seed, n, slack, sigma):
    """``average`` at or just above ``n`` clamps sizes to one byte and
    drifts the total, which the largest size absorbs."""
    scalar, ours = twin(seed)
    expected = spread_file_sizes_numpy(n + slack, n, scalar, sigma)
    got = spread_file_sizes(n + slack, n, ours, sigma)
    assert got == expected
    assert all(type(size) is int for size in got)
    assert sum(got) == (n + slack) * n
    assert ours.bit_generator.state == scalar.bit_generator.state


def test_spread_file_sizes_drift_matches_array_version():
    """At ``average == n`` most sizes clamp to one byte, so the drift is
    negative and lands on the largest size.  (It cannot push that size
    below one byte: the largest size is at least ``average`` and every
    size exceeds its share by less than one, so the min correction is a
    guard both versions keep.)"""
    drifted = 0
    for seed in range(300):
        n = 2 + seed % 60
        scalar, ours = twin(seed)
        expected = spread_file_sizes_numpy(n, n, scalar, 4.0)
        jitter = np.random.default_rng(seed).lognormal(0.0, 4.0, size=n)
        rounded = np.maximum(1, np.round(jitter / jitter.mean() * n))
        drifted += int(rounded.sum() != n * n)
        assert spread_file_sizes(n, n, ours, 4.0) == expected
        assert ours.bit_generator.state == scalar.bit_generator.state
    assert drifted > 100


@pytest.mark.parametrize(("average", "n"), [(100, 0), (2, 10), (5, -1)])
def test_spread_file_sizes_raises_like_array_version(average, n):
    with pytest.raises(ValueError) as expected:
        spread_file_sizes_numpy(average, n, np.random.default_rng(0))
    with pytest.raises(ValueError) as got:
        spread_file_sizes(average, n, np.random.default_rng(0))
    assert str(got.value) == str(expected.value)
