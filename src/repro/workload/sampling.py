"""Cheap draws that consume the stream exactly as NumPy's scalar calls.

The generator makes hundreds of thousands of scalar draws, and a scalar
:class:`numpy.random.Generator` call costs far more in argument handling
than in sampling.  Each helper here returns bit-identical values *and*
leaves ``rng.bit_generator.state`` where the calls it replaces would,
because it is built from NumPy's own definitions:

* ``lognormal(mu, sigma) = exp(mu + sigma * standard_normal())`` and
  ``normal(loc, scale) = loc + scale * standard_normal()``, and an array
  of standard normals fills in stream order, so a run of scalar
  lognormal/normal calls is one ``standard_normal(n)`` draw
  (:func:`pow10_normals`, and the generator's per-file chunk draws);
* ``uniform(low, high) = low + (high - low) * random()``, and for
  PCG64, the default bit generator, ``random() = (random_raw() >> 11) *
  2**-53`` (:func:`raw_uniform`);
* ``choice(k, p=p)`` validates ``p``, builds ``cdf = cumsum(p) / sum``
  and returns ``cdf.searchsorted(random(), side="right")``; the
  validation and the CDF depend only on ``p``, so :func:`categorical`
  does them once per distinct weight vector.

``ndarray.sum()`` over float64 is NumPy's pairwise sum, which
:func:`pairwise_sum` replicates on a list of Python floats (the builtin
:func:`sum` differs: it is compensated from Python 3.12 on).

Exponentials go through :func:`math.exp` on Python floats, the same libm
call NumPy's sampler makes; ``np.exp`` over an array is a SIMD kernel not
guaranteed to match it to the last ulp.  ``tests/test_rng_equivalence.py``
checks every helper against the NumPy calls it replaces.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import lru_cache

import numpy as np


#: NumPy's tolerance on ``sum(p) - 1`` for float64 probabilities.
_ATOL = float(np.sqrt(np.finfo(np.float64).eps))


def _kahan_sum(values: list[float]) -> float:
    """The compensated sum ``Generator.choice`` checks ``p`` with."""
    total = values[0]
    carry = 0.0
    for value in values[1:]:
        y = value - carry
        t = total + y
        carry = (t - total) - y
        total = t
    return total


@lru_cache(maxsize=256)
def _cdf(p: tuple[float, ...]) -> tuple[float, ...]:
    """Validate ``p`` as ``Generator.choice`` does and return its CDF."""
    if not p:
        raise ValueError("a must be a positive integer unless no samples are taken")
    probs = np.asarray(p, dtype=np.float64)
    if probs.ndim != 1:
        raise ValueError("p must be 1-dimensional")
    total = _kahan_sum(probs.tolist())
    if math.isnan(total):
        raise ValueError("Probabilities contain NaN")
    if (probs < 0).any():
        raise ValueError("Probabilities are not non-negative")
    if abs(total - 1.0) > _ATOL:
        raise ValueError(
            "Probabilities do not sum to 1. See Notes section of docstring "
            "for more information."
        )
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return tuple(cdf.tolist())


def categorical(rng: np.random.Generator, p: tuple[float, ...]) -> int:
    """``int(rng.choice(len(p), p=p))``, with ``p``'s CDF built once.

    ``p`` must be hashable (a tuple); it is validated like NumPy validates
    it, raising the same :class:`ValueError`, the first time it is seen.
    """
    return bisect_right(_cdf(p), rng.random())


def pow10_normals(
    rng: np.random.Generator, mean: float, std: float, n: int
) -> list[float]:
    """``n`` successive ``10.0 ** rng.normal(mean, std)`` draws."""
    if n <= 0:
        return []
    return [10.0 ** (mean + std * value) for value in rng.standard_normal(n).tolist()]


#: ``2**-53``: PCG64's ``next_double`` scales the top 53 bits by it.
_DOUBLE_UNIT = 2.0**-53


def raw_uniform(random_raw, low: float, high: float) -> float:
    """``rng.uniform(low, high)`` for a PCG64 ``rng``, as a Python float.

    ``random_raw`` is ``rng.bit_generator.random_raw``, bound once by the
    caller.  PCG64's ``random()`` is ``(next_uint64 >> 11) * 2**-53`` and
    ``random_raw()`` is ``next_uint64``, so the value and the stream state
    are those of ``rng.uniform(low, high)``, at a fraction of the call's
    argument handling.
    """
    return low + (high - low) * ((random_raw() >> 11) * _DOUBLE_UNIT)


#: Below this many values NumPy's pairwise sum adds sequentially; up to
#: ``_PAIRWISE_BLOCK`` it keeps 8 accumulators; beyond, it halves.
_PAIRWISE_UNROLL = 8
_PAIRWISE_BLOCK = 128


def pairwise_sum(values: list[float]) -> float:
    """``np.add.reduce`` of ``values`` as float64, bit for bit.

    The reduction starts from the identity ``0.0`` and adds NumPy's
    ``pairwise_sum`` of the values (see :func:`_pairwise`).
    """
    return 0.0 + _pairwise(values, 0, len(values))


def _pairwise(values: list[float], start: int, n: int) -> float:
    """NumPy's ``pairwise_sum`` (``loops_utils.h``) of ``n`` values.

    Fewer than 8 values are added in order from ``-0.0``; up to 128,
    eight interleaved accumulators are combined as
    ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))`` and the tail is added in
    order; beyond, the range splits at half its length rounded down to a
    multiple of 8 and the halves' sums are added.
    """
    if n < _PAIRWISE_UNROLL:
        total = -0.0
        for index in range(start, start + n):
            total += values[index]
        return total
    if n <= _PAIRWISE_BLOCK:
        r0, r1, r2, r3, r4, r5, r6, r7 = values[start:start + 8]
        end = start + n
        for index in range(start + 8, end - n % 8, 8):
            r0 += values[index]
            r1 += values[index + 1]
            r2 += values[index + 2]
            r3 += values[index + 3]
            r4 += values[index + 4]
            r5 += values[index + 5]
            r6 += values[index + 6]
            r7 += values[index + 7]
        total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for index in range(end - n % 8, end):
            total += values[index]
        return total
    half = n // 2
    half -= half % 8
    return _pairwise(values, start, half) + _pairwise(values, start + half, n - half)
