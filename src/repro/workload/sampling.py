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
* ``uniform(low, high) = low + (high - low) * random()``
  (:func:`uniform`);
* ``choice(k, p=p)`` validates ``p``, builds ``cdf = cumsum(p) / sum``
  and returns ``cdf.searchsorted(random(), side="right")``; the
  validation and the CDF depend only on ``p``, so :func:`categorical`
  does them once per distinct weight vector.

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


def uniform(rng: np.random.Generator, low: float, high: float) -> float:
    """``rng.uniform(low, high)`` as a Python float."""
    return low + (high - low) * rng.random()
