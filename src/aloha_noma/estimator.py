"""Active-device count estimation from the superposed dummy-packet phase.

Each of M candidate devices gets a per-device test statistic: Gaussian with
mean E_i and deviation sigma when the device transmitted a dummy packet,
zero-mean otherwise.  The gateway tests the M "device is silent" null
hypotheses at the Bonferroni-corrected level alpha / M and takes the number
of rejections as its estimate of the active count.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy import special

__all__ = [
    "EstimationOutcome",
    "HypothesisConfig",
    "MonteCarloEstimation",
    "bonferroni_threshold",
    "estimate_active_count",
    "monte_carlo_estimation",
    "p_value_from_statistic",
    "prior_config_probability",
    "simulate_estimation_round",
]


@dataclass(frozen=True)
class HypothesisConfig:
    """Test setup for one estimation round.

    ``mean_signal`` is the common per-device signal level E (linear watts);
    ``per_device_signal`` overrides it device by device when set.
    """

    m: int
    alpha: float
    mean_signal: float
    noise_sigma: float
    per_device_signal: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if operator.index(self.m) < 1:
            raise ValueError(f"m: candidate population must be >= 1, got {self.m}")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha: must be in (0, 1), got {self.alpha!r}")
        if not (0.0 < self.mean_signal < math.inf):
            raise ValueError(f"mean_signal: must be finite and > 0, got {self.mean_signal!r}")
        if not (0.0 < self.noise_sigma < math.inf):
            raise ValueError(f"noise_sigma: must be finite and > 0, got {self.noise_sigma!r}")
        if self.per_device_signal is not None:
            if len(self.per_device_signal) != self.m:
                raise ValueError(
                    f"per_device_signal: expected {self.m} entries, "
                    f"got {len(self.per_device_signal)}"
                )
            if any(not (e > 0.0) for e in self.per_device_signal):
                raise ValueError("per_device_signal: all entries must be > 0")

    def signal_means(self) -> np.ndarray:
        if self.per_device_signal is not None:
            return np.asarray(self.per_device_signal, dtype=float)
        return np.full(self.m, self.mean_signal, dtype=float)


@dataclass(frozen=True)
class EstimationOutcome:
    """Result of one multi-hypothesis test."""

    p_values: tuple[float, ...]
    rejected: frozenset[int]
    estimated_count: int

    def __post_init__(self) -> None:
        if self.estimated_count != len(self.rejected):
            raise ValueError("estimated_count must equal the number of rejections")


def prior_config_probability(active_count: int, m: int, alpha: float) -> float:
    """Prior probability (1 - alpha)^N * alpha^(M - N) of N active devices.

    The boundary levels alpha = 0 and alpha = 1 are accepted and evaluated
    as exact limits (0^0 = 1).
    """
    n = operator.index(active_count)
    m = operator.index(m)
    if m < 1:
        raise ValueError(f"candidate population must be >= 1, got {m}")
    if n < 0 or n > m:
        raise ValueError(f"active count must be in [0, {m}], got {n}")
    alpha = float(alpha)
    if not (0.0 <= alpha <= 1.0):
        raise ValueError(f"alpha must be in [0, 1], got {alpha!r}")
    return (1.0 - alpha) ** n * alpha ** (m - n)


def bonferroni_threshold(alpha: float, m: int) -> float:
    """Per-hypothesis rejection level alpha / M bounding the family-wise error."""
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must be in (0, 1), got {alpha!r}")
    if operator.index(m) < 1:
        raise ValueError(f"hypothesis count must be >= 1, got {m}")
    return alpha / m


def p_value_from_statistic(x: float, noise_sigma: float) -> float:
    """Upper-tail probability of a zero-mean Gaussian(noise_sigma) at x."""
    if not (noise_sigma > 0.0):
        raise ValueError(f"noise_sigma must be > 0, got {noise_sigma!r}")
    return 0.5 * math.erfc(x / (noise_sigma * math.sqrt(2.0)))


def estimate_active_count(
    statistics: Sequence[float], config: HypothesisConfig
) -> EstimationOutcome:
    """Test all M hypotheses and count rejections.

    Rejection is inclusive at the threshold: p_i <= alpha / M rejects.
    """
    if len(statistics) != config.m:
        raise ValueError(
            f"expected {config.m} statistics, got {len(statistics)}"
        )
    threshold = bonferroni_threshold(config.alpha, config.m)
    # the expression of p_value_from_statistic, with its scale taken once
    scale = config.noise_sigma * math.sqrt(2.0)
    p_values = tuple([0.5 * math.erfc(x / scale) for x in statistics])
    rejected = frozenset([i for i, p in enumerate(p_values) if p <= threshold])
    return EstimationOutcome(p_values, rejected, len(rejected))


def _active_mask(true_active: Iterable[int], m: int) -> np.ndarray:
    mask = np.zeros(m, dtype=bool)
    for i in true_active:
        idx = operator.index(i)
        if idx < 0 or idx >= m:
            raise ValueError(f"active index {idx} outside [0, {m})")
        mask[idx] = True
    return mask


def simulate_estimation_round(
    true_active: Iterable[int], config: HypothesisConfig, seed: int
) -> EstimationOutcome:
    """Draw one round of statistics and run the test; deterministic per seed."""
    mask = _active_mask(true_active, config.m)
    means = np.where(mask, config.signal_means(), 0.0)
    rng = np.random.default_rng(seed)
    statistics = means + config.noise_sigma * rng.standard_normal(config.m)
    return estimate_active_count(statistics.tolist(), config)


@dataclass(frozen=True)
class MonteCarloEstimation:
    """Aggregate behaviour of the estimator over repeated rounds."""

    trials: int
    fwer: float
    power: float
    mean_estimate: float
    mean_abs_error: float


def monte_carlo_estimation(
    true_active: Iterable[int], config: HypothesisConfig, trials: int, seed: int
) -> MonteCarloEstimation:
    """Repeat the estimation round ``trials`` times with one seeded stream.

    ``fwer`` is the fraction of trials with at least one false rejection;
    ``power`` the mean detection rate over truly active devices (NaN when
    none are active).  With trials = 1 the draw matches
    ``simulate_estimation_round(true_active, config, seed)`` exactly.
    """
    if operator.index(trials) < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    mask = _active_mask(true_active, config.m)
    true_count = int(mask.sum())
    means = np.where(mask, config.signal_means(), 0.0)
    rng = np.random.default_rng(seed)
    statistics = means + config.noise_sigma * rng.standard_normal((trials, config.m))
    scaled = statistics / (config.noise_sigma * math.sqrt(2.0))
    p_values = 0.5 * special.erfc(scaled)
    rejected = p_values <= bonferroni_threshold(config.alpha, config.m)
    counts = rejected.sum(axis=1)
    false_any = (rejected & ~mask).any(axis=1)
    power = float(rejected[:, mask].mean()) if true_count else math.nan
    return MonteCarloEstimation(
        trials=trials,
        fwer=float(false_any.mean()),
        power=power,
        mean_estimate=float(counts.mean()),
        mean_abs_error=float(np.abs(counts - true_count).mean()),
    )
