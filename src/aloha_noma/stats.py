"""Confidence intervals shared by the simulators: one batch-means rule."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from . import _special as special

__all__ = ["BATCH_COUNT", "batch_counts", "batch_half_width", "half_width"]

BATCH_COUNT = 20


def half_width(samples: Sequence[float]) -> float:
    """Student-t half-width of a 95% confidence interval for the sample mean.

    Returns 0.0 for fewer than two samples (no spread information).
    """
    x = np.asarray(samples, dtype=float)
    n = x.size
    if n < 2:
        return 0.0
    # the Student-t quantile without importing scipy.stats, which is slow
    # to import; stdtrit gives the bits of scipy.stats.t.ppf
    quantile = special.stdtrit(n - 1, 0.5 + 0.95 / 2.0)
    return float(quantile * x.std(ddof=1) / math.sqrt(n))


def batch_counts(times: np.ndarray, span: float) -> np.ndarray:
    """How many ``times`` in [0, span) fall in each of BATCH_COUNT equal spans."""
    # a time that rounds up to the span's end falls in the last batch
    batch_of = np.minimum((times / span * BATCH_COUNT).astype(int), BATCH_COUNT - 1)
    return np.bincount(batch_of, minlength=BATCH_COUNT)


def batch_half_width(weights, counts: np.ndarray | None = None, span: float | None = None) -> float:
    """``half_width`` over the batch means (Schmeiser 1982, "Batch size effects
    in the analysis of simulation output") of a run's ``weights``.  Given the
    ``batch_counts`` of a run over ``span``: each span valued at its count
    times the scalar ``weights`` per unit of time.  Else one weight per frame:
    min(BATCH_COUNT, frames) contiguous runs whose sizes differ by at most one,
    each valued at the mean of its frames; one frame gives 0.0."""
    if counts is None:
        frames = len(weights)
        batch_of = np.arange(frames)
        batch_of *= min(BATCH_COUNT, frames)
        batch_of //= frames
        return half_width(np.bincount(batch_of, weights) / np.bincount(batch_of))
    return half_width(counts * weights / (span / BATCH_COUNT))
