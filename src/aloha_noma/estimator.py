"""Active-device count estimation from the superposed dummy-packet phase.

Each of M candidate devices gets a per-device test statistic: Gaussian with
mean E_i and deviation sigma when the device transmitted a dummy packet,
zero-mean otherwise.  The gateway tests the M "device is silent" null
hypotheses at the Bonferroni-corrected level alpha / M and takes the number
of rejections as its estimate of the active count.
"""

from __future__ import annotations

import functools
import math
import operator
import struct
import threading
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import _special as special

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
    return float(_upper_tail(x / (noise_sigma * math.sqrt(2.0))))


def estimate_active_count(
    statistics: Sequence[float], config: HypothesisConfig
) -> EstimationOutcome:
    """Test all M hypotheses and count rejections.

    Rejection is inclusive at the threshold: p_i <= alpha / M rejects.
    The p-values are ``p_value_from_statistic``'s and the decisions are
    ``monte_carlo_estimation``'s rule, both with scipy's ``erfc``.
    """
    if len(statistics) != config.m:
        raise ValueError(
            f"expected {config.m} statistics, got {len(statistics)}"
        )
    return _outcome(*_decisions(statistics, config))


def _decisions(statistics, config: HypothesisConfig) -> tuple[np.ndarray, np.ndarray]:
    """The p-values of M statistics and the Bonferroni rule's flags on them."""
    p_values = _upper_tail(np.divide(statistics, config.noise_sigma * math.sqrt(2.0)))
    return p_values, _p_value_rejects(p_values, config)


def _outcome(p_values: np.ndarray, rejected: np.ndarray) -> EstimationOutcome:
    flagged = frozenset(np.flatnonzero(rejected).tolist())
    return EstimationOutcome(tuple(p_values.tolist()), flagged, len(flagged))


def _active_mask(true_active: Iterable[int], m: int) -> np.ndarray:
    mask = np.zeros(m, dtype=bool)
    for i in true_active:
        idx = operator.index(i)
        if idx < 0 or idx >= m:
            raise ValueError(f"active index {idx} outside [0, {m})")
        mask[idx] = True
    return mask


def _estimation_round(
    active: Sequence[int], config: HypothesisConfig, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """One round's M p-values and M rejection flags, for the devices at the
    positions ``active`` (each in [0, M); not checked).

    The statistics are ``means + sigma * standard_normal(M)`` on a generator
    seeded with ``seed``, with each active position's signal written into
    zeros, so the floats are those of ``np.where(mask, signal_means(), 0.0)``.
    Python work is sized by ``active``, not by M.
    """
    means = np.zeros(config.m)
    if config.per_device_signal is None:
        means[active] = config.mean_signal
    else:
        means[active] = [config.per_device_signal[i] for i in active]
    rng = np.random.default_rng(seed)
    return _decisions(means + config.noise_sigma * rng.standard_normal(config.m), config)


def simulate_estimation_round(
    true_active: Iterable[int], config: HypothesisConfig, seed: int
) -> EstimationOutcome:
    """Draw one round of statistics and run the test; deterministic per seed."""
    mask = _active_mask(true_active, config.m)
    return _outcome(*_estimation_round(np.flatnonzero(mask), config, seed))


@dataclass(frozen=True)
class MonteCarloEstimation:
    """Aggregate behaviour of the estimator over repeated rounds."""

    trials: int
    fwer: float
    power: float
    mean_estimate: float
    mean_abs_error: float


def _float_key(x: float) -> int:
    """Position of x on the ordered float64 lattice; 0.0 and -0.0 share 0."""
    key = struct.unpack("<q", struct.pack("<d", abs(x)))[0]
    return -key if x < 0.0 else key


def _key_float(key: int) -> float:
    """Inverse of ``_float_key``."""
    x = struct.unpack("<d", struct.pack("<q", abs(key)))[0]
    return -x if key < 0 else x


def _first_true(predicate: Callable[[float], bool]) -> int:
    """Key of the smallest float where a predicate that is false at -inf
    and true at inf turns true, by bisection over the float64 lattice."""
    lo, hi = _float_key(-math.inf), _float_key(math.inf)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if predicate(_key_float(mid)):
            hi = mid
        else:
            lo = mid
    return hi


def _scaled(z, mean, sigma: float):
    """The test statistic mean + sigma * z in units of sigma * sqrt(2)."""
    return (mean + sigma * z) / (sigma * math.sqrt(2.0))


def _upper_tail(x):
    """The p-value 0.5 * erfc(x) of statistics x scaled to units of
    sigma * sqrt(2), with scipy's erfc."""
    return 0.5 * special.erfc(x)


def _p_value_rejects(p_values, config: HypothesisConfig):
    """The Bonferroni rule, p <= alpha / M, of both ``estimate_active_count``
    and ``monte_carlo_estimation``."""
    return p_values <= bonferroni_threshold(config.alpha, config.m)


# floats checked on each side of the statistic where the rule turns true
_WINDOW_CHECK = 4096
# how far from that point the rule may still flip back and forth
_WINDOW_REACH = 64
# held while a level's window is looked up or bounded
_LEVEL_LOCK = threading.Lock()


def _statistic_window(config: HypothesisConfig) -> tuple[float, float]:
    """Scaled statistics ``(lower, upper)`` that bound the rule's flips.

    The p-value rule rejects no statistic x < lower and every x >= upper;
    statistics in between need the rule itself.  The window is empty
    (lower == upper) unless scipy's erfc is not monotone in its last
    bit where the rule turns, as at some levels alpha / M above about 0.16
    (statistics below 1).  The window depends on the config only through
    its level alpha / M, so it is bounded once per level (``_level_window``).
    """
    with _LEVEL_LOCK:  # two threads at one level bound it once
        window = _level_window(bonferroni_threshold(config.alpha, config.m), special.erfc)
    if window is None:
        raise RuntimeError(
            "p-value rule flips too far from its threshold for "
            f"alpha={config.alpha!r}, M={config.m}, noise_sigma={config.noise_sigma!r}"
        )
    return window


@functools.lru_cache(maxsize=256)
def _level_window(level: float, erfc) -> tuple[float, float] | None:
    """``_statistic_window`` of the rule ``0.5 * erfc(x) <= level``, which is
    ``_p_value_rejects(_upper_tail(x), config)`` for every config at this
    level, or None where the rule flips too far from where it turns.  The
    erfc is part of the key, so that a swapped ``special.erfc`` gets its own
    bound.  Bisection gives one point where the rule turns true, and every
    flip among the ``_WINDOW_CHECK`` floats on each side of it must lie
    within ``_WINDOW_REACH`` floats of it.
    """
    turn = _first_true(lambda x: 0.5 * erfc(x) <= level)
    start = turn - _WINDOW_CHECK
    # the floats of keys start.. in one array that is reused in place: a
    # float's bits are its key's magnitude, negated for a negative key
    keys = np.arange(start, turn + _WINDOW_CHECK + 1)
    floats = np.abs(keys, out=keys).view(np.float64)
    negative = floats[: max(0, -start)]
    np.negative(negative, out=negative)
    flags = 0.5 * erfc(floats) <= level
    first_hit = int(np.argmax(flags))
    last_miss = flags.size - 1 - int(np.argmax(~flags[::-1]))
    if first_hit < _WINDOW_CHECK - _WINDOW_REACH or last_miss >= _WINDOW_CHECK + _WINDOW_REACH:
        return None
    return _key_float(start + first_hit), _key_float(start + last_miss + 1)


@functools.lru_cache(maxsize=1024)
def _first_draw(x: float, mean: float, sigma: float) -> float:
    """Smallest standard-normal draw whose scaled statistic reaches x; the
    statistic is monotone in the draw, since IEEE +, * and / are.  Bisected
    once per (x, mean, sigma); 0.0 and -0.0 share a key and a draw."""
    return _key_float(_first_true(lambda z: _scaled(z, mean, sigma) >= x))


# standard-normal draws per Monte Carlo block: rows of M draws, at least one
_BLOCK_DRAWS = 2**15


def _mean_windows(means: Sequence[float], config: HypothesisConfig) -> np.ndarray:
    """Draws ``(lower, upper)`` for columns with each of the given means, one
    row per mean: a draw below lower never rejects and one at or above upper
    always does.  The statistic window maps to one window of draws per mean.
    """
    window = _statistic_window(config)
    return np.array([[_first_draw(x, mu, config.noise_sigma) for x in window] for mu in means])


def _draw_window(means: np.ndarray, config: HypothesisConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per-column draws ``(lower, upper)``, bisected once per distinct mean."""
    distinct, column = np.unique(means, return_inverse=True)
    lower, upper = _mean_windows(distinct.tolist(), config)[column].T
    return lower, upper


def _decide(draws, means, lower, upper, config: HypothesisConfig) -> np.ndarray:
    """The p-value rule on draws (rows x M) given their draw window; only
    draws inside a non-empty window need the rule itself."""
    rejected = draws >= upper
    if (lower < upper).any():
        rows, cols = np.nonzero((draws >= lower) & (draws < upper))
        statistics = _scaled(draws[rows, cols], means[cols], config.noise_sigma)
        rejected[rows, cols] = _p_value_rejects(_upper_tail(statistics), config)
    return rejected


def _rejections(draws: np.ndarray, means: np.ndarray, config: HypothesisConfig) -> np.ndarray:
    """The p-value rule on standard-normal draws (trials x M) of columns
    with the given means, as ``_p_value_rejects(_upper_tail(_scaled(...)))``
    decides them draw by draw."""
    return _decide(draws, means, *_draw_window(means, config), config)


@functools.lru_cache(maxsize=64)
def _frame_window(config: HypothesisConfig) -> tuple[float, float] | None:
    """The draws ``(silent, active)`` at which a silent and an active column
    (means 0 and ``mean_signal``) start to reject, where both draw windows
    are empty; None where a window is not empty or the statistic window
    cannot be bounded.  Computed once per config.
    """
    try:
        lower, upper = _mean_windows((0.0, config.mean_signal), config).T
    except RuntimeError:
        return None
    if (lower < upper).any():
        return None
    return float(upper[0]), float(upper[1])


def _frame_rejections(active: Sequence[int], config: HypothesisConfig, seed: int) -> np.ndarray:
    """The M rejection flags of ``_estimation_round(active, config, seed)``
    from the same draws, each compared with its column's cached bound: no
    statistic or p-value is computed.  Per-device signals (one window per
    distinct mean) and configs without empty draw windows take
    ``_estimation_round`` itself."""
    # checked first, so that no M-long signal tuple is hashed per frame
    bounds = None if config.per_device_signal is not None else _frame_window(config)
    if bounds is None:
        return _estimation_round(active, config, seed)[1]
    silent, signal = bounds
    draws = np.random.default_rng(seed).standard_normal(config.m)
    active = np.asarray(active, dtype=np.intp)  # converted once, indexed twice
    rejected = draws >= silent
    rejected[active] = draws[active] >= signal
    return rejected


def monte_carlo_estimation(
    true_active: Iterable[int], config: HypothesisConfig, trials: int, seed: int
) -> MonteCarloEstimation:
    """Repeat the estimation round ``trials`` times with one seeded stream.

    ``fwer`` is the fraction of trials with at least one false rejection;
    ``power`` the mean detection rate over truly active devices (NaN when
    none are active).  With trials = 1 the draw and every decision match
    ``simulate_estimation_round(true_active, config, seed)`` exactly: the
    tests are decided on the draws as ``_rejections`` decides them, which
    gives the decisions of ``_p_value_rejects`` on scipy's ``erfc``
    p-values, as ``estimate_active_count`` makes them.

    The stream is drawn in blocks of about ``_BLOCK_DRAWS`` normals; the
    generator's normals do not depend on how the stream is split and every
    sum is an exact integer (the float64 product of a block's flags with
    ones and the active mask sums at most M ones per trial), so the result
    has the bits of one ``trials x M`` draw while memory holds one block,
    its float64 copy in the product and a count per trial.
    """
    if operator.index(trials) < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    mask = _active_mask(true_active, config.m)
    true_count = int(mask.sum())
    means = np.where(mask, config.signal_means(), 0.0)
    lower, upper = _draw_window(means, config)
    # one product per block gives each trial's rejections and detections
    weights = np.stack((np.ones(config.m), mask), axis=1)
    counts = np.empty(trials, dtype=np.intp)
    rows = max(1, _BLOCK_DRAWS // config.m)
    rng = np.random.default_rng(seed)
    false_any = detections = 0
    for start in range(0, trials, rows):
        block = counts[start:start + rows]
        rejected = _decide(rng.standard_normal((block.size, config.m)), means, lower, upper, config)
        total, hits = (rejected @ weights).T
        block[:] = total
        false_any += int(np.count_nonzero(total != hits))
        detections += int(hits.sum())
    mean_estimate = float(counts.mean())
    counts -= true_count  # in place: no second trials-sized array
    return MonteCarloEstimation(
        trials=trials,
        fwer=false_any / trials,
        power=detections / (trials * true_count) if true_count else math.nan,
        mean_estimate=mean_estimate,
        mean_abs_error=float(np.abs(counts, out=counts).mean()),
    )
