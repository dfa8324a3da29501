"""Confidence-interval helpers shared by the simulators."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from scipy import special

__all__ = ["half_width"]


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
