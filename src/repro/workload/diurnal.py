"""Diurnal time-of-day sampling.

Session start times follow the hourly activity profile of the paper's
Fig 1: a pronounced evening surge around 11 PM (home WiFi), and a deep
early-morning trough.  :class:`DiurnalSampler` turns the 24 hourly weights
into an inverse-CDF sampler over seconds-of-day, and exposes the peak/
off-peak structure that the upload-deferral ablation exploits.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from .config import DiurnalModel

SECONDS_PER_HOUR = 3600.0
SECONDS_PER_DAY = 24 * SECONDS_PER_HOUR


class DiurnalSampler:
    """Samples seconds-of-day according to an hourly weight profile."""

    def __init__(self, model: DiurnalModel) -> None:
        weights = np.asarray(model.hourly_weights, dtype=float)
        if weights.shape != (24,):
            raise ValueError("need exactly 24 hourly weights")
        self.model = model
        self._probs = weights / weights.sum()
        self._cum = np.concatenate(([0.0], np.cumsum(self._probs))).tolist()

    def sample_time_of_day(self, rng: np.random.Generator) -> float:
        """One start time in [0, 86400), uniform within the chosen hour."""
        hour = bisect_right(self._cum, rng.random()) - 1
        hour = min(23, max(0, hour))
        return hour * SECONDS_PER_HOUR + rng.random() * SECONDS_PER_HOUR

    def sample_timestamp(self, day: int, rng: np.random.Generator) -> float:
        """One absolute timestamp within observation day ``day``."""
        if day < 0:
            raise ValueError("day must be >= 0")
        return day * SECONDS_PER_DAY + self.sample_time_of_day(rng)

    def hourly_probabilities(self) -> np.ndarray:
        """Normalized per-hour session-start probabilities."""
        return self._probs.copy()

    def peak_hours(self, n: int = 3) -> list[int]:
        """The ``n`` busiest hours (descending)."""
        if not 1 <= n <= 24:
            raise ValueError("n must be in [1, 24]")
        order = np.argsort(self._probs)[::-1]
        return [int(h) for h in order[:n]]

    def trough_hours(self, n: int = 3) -> list[int]:
        """The ``n`` quietest hours (ascending load)."""
        if not 1 <= n <= 24:
            raise ValueError("n must be in [1, 24]")
        order = np.argsort(self._probs)
        return [int(h) for h in order[:n]]
