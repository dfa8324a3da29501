"""Closed-form throughput of unslotted random access with a SIC(N) gateway.

Packet arrivals form a Poisson process with normalized offered load G
(mean arrivals per packet duration).  A gateway that can separate up to N
simultaneous signals turns every arrival with at most N - 1 neighbours in
its 2T vulnerable window into a success, giving the normalized throughput

    S(G, N) = (e^{-2G} / 2) * sum_{i=1..N} (2G)^i / (i-1)! = G * Q(N, 2G)

where Q(N, x) = P[Poisson(x) <= N - 1] is the regularized upper incomplete
gamma function (``scipy.special.gammaincc``, DLMF 8.2).  N = 1 gives the
classic G * e^{-2G}.  Q stays inside float range for large N and G
(e.g. N = 100, G = 60).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from ._special import gammaincc, xlogy

__all__ = [
    "BracketingError",
    "MaxThroughputResult",
    "ThroughputCurve",
    "ThroughputPoint",
    "max_throughput",
    "poisson_arrival_pmf",
    "throughput",
    "throughput_curve",
    "throughput_derivative",
]

class BracketingError(RuntimeError):
    """The derivative has no unique sign change on the scanned load range.

    ``degree`` is the SIC degree whose scan failed, when there is one.
    """

    def __init__(self, message: str, degree: int | None = None) -> None:
        super().__init__(message)
        self.degree = degree


@dataclass(frozen=True)
class ThroughputPoint:
    """One (offered load, normalized throughput) sample."""

    g: float
    s: float


@dataclass(frozen=True)
class ThroughputCurve:
    """Throughput samples for a fixed SIC degree, ordered by offered load."""

    degree: int
    points: tuple[ThroughputPoint, ...]

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class MaxThroughputResult:
    """Throughput-maximizing load for a SIC degree.

    ``derivative_residual`` is the closed-form derivative evaluated at the
    returned root; its magnitude is bounded by the root tolerance.
    """

    degree: int
    g_star: float
    s_max: float
    derivative_residual: float


def _validate_load(g: float) -> float:
    g = float(g)
    if not math.isfinite(g):
        raise ValueError(f"offered load must be finite, got {g!r}")
    if g < 0.0:
        raise ValueError(f"offered load must be >= 0, got {g!r}")
    return g


def _validate_degree(n: int) -> int:
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError(f"SIC degree must be an integer, got {n!r}") from None
    if n < 1:
        raise ValueError(f"SIC degree must be >= 1, got {n}")
    return n


def poisson_arrival_pmf(i: int, two_g: float) -> float:
    """Probability of exactly ``i`` arrivals in a window with mean ``two_g``.

    Evaluated in the log domain so large ``i`` or large ``two_g`` neither
    overflow nor underflow prematurely.
    """
    try:
        i = operator.index(i)
    except TypeError:
        raise ValueError(f"arrival count must be an integer, got {i!r}") from None
    if i < 0:
        raise ValueError(f"arrival count must be >= 0, got {i}")
    two_g = float(two_g)
    if not math.isfinite(two_g):
        raise ValueError(f"window mean must be finite, got {two_g!r}")
    if two_g < 0.0:
        raise ValueError(f"window mean must be >= 0, got {two_g!r}")
    # xlogy(0, 0) = 0 gives pmf(0; 0) = 1
    return math.exp(float(xlogy(i, two_g)) - two_g - math.lgamma(i + 1))


def throughput(offered_load: float, degree: int) -> float:
    """Normalized throughput S(G, N) = G * Q(N, 2G); exactly 0 at G = 0."""
    g = _validate_load(offered_load)
    n = _validate_degree(degree)
    return g * float(gammaincc(n, 2.0 * g))


def throughput_derivative(offered_load: float, degree: int) -> float:
    """Closed-form dS/dG = (1 - 2G) * Q(N, 2G) + 2G * Q(N - 1, 2G).

    This is Q(N, 2G) - 2G * pmf(N - 1; 2G) with the pmf written as
    Q(N, 2G) - Q(N - 1, 2G), and Q(0, x) = 0 for x > 0.  The two-Q form
    is exactly 0 at the pure-ALOHA optimum (G, N) = (0.5, 1).
    """
    g = _validate_load(offered_load)
    n = _validate_degree(degree)
    if g == 0.0:
        # Q(0, 0) is undefined; the slope at the origin is Q(N, 0) = 1
        return 1.0
    return float(_derivative_terms(g, n)[0])


def _derivative_terms(g, n):
    """dS/dG at loads g > 0 and degrees n (scalars or arrays), as
    ``throughput_derivative`` gives it, and the Q(N, 2G) it is built from."""
    two_g = 2.0 * g
    q = gammaincc(n, two_g)
    return (1.0 - two_g) * q + two_g * gammaincc(n - 1, two_g), q


# Each degree's scan runs from _SCAN_LO up to 10N in steps of _SCAN_STEP.
_SCAN_LO = 1e-2
_SCAN_STEP = 1.2
# The smallest normal float.  A derivative below it, zero or subnormal,
# counts as negative, so that a far-tail underflow does not masquerade as
# an extra root.
_TINY = float(np.finfo(float).tiny)
_BISECTION_STEPS = 200


def _scan_grids(lo: float, his: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The geometric scan grids lo, 1.2 lo, 1.44 lo, ... below each hi, then
    hi itself, concatenated; and the end index of each grid.

    Every grid is a prefix of one Python-float sequence, so a load has the
    same bits in every grid that holds it.
    """
    steps = [lo]
    while steps[-1] < his.max():
        steps.append(steps[-1] * _SCAN_STEP)
    below = np.searchsorted(steps, his)
    ends = np.cumsum(below + 1)
    loads = np.asarray(steps)[np.arange(ends[-1]) - np.repeat(ends - below - 1, below + 1)]
    loads[ends - 1] = his
    return loads, ends


def _sign_changes(
    values: np.ndarray, ends: np.ndarray, lo: float, his: np.ndarray, labels: Sequence[Any]
) -> np.ndarray:
    """The index k of the one sign change values[k] -> values[k + 1] inside
    each grid.  The first grid with none or several raises BracketingError,
    with that grid's label as its ``degree``."""
    positive = values >= _TINY
    changes = positive[1:] != positive[:-1]
    changes[ends[:-1] - 1] = False  # pairs that straddle two grids
    counted = np.concatenate(([0], np.cumsum(changes)))
    counts = counted[ends - 1] - counted[np.concatenate(([0], ends[:-1]))]
    bad = np.flatnonzero(counts != 1)
    if bad.size:
        i = int(bad[0])
        span = f"({lo:g}, {float(his[i]):g}]"
        if counts[i] == 0:
            message = f"no sign change found on {span}; cannot bracket the optimum"
        else:
            message = (
                f"{counts[i]} sign changes found on {span}; "
                "the derivative is not unimodal on the scan grid"
            )
        raise BracketingError(message, labels[i])
    return np.flatnonzero(changes)


def _scan_for_bracket(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """Geometric scan of [lo, hi] in steps of 1.2 expecting exactly one
    sign change of the scalar function f, as the optimizer scans.

    A second sign change (or none at all) raises BracketingError rather
    than silently picking a root.
    """
    his = np.array([float(hi)])
    loads, ends = _scan_grids(lo, his)
    (k,) = _sign_changes(np.array([f(g) for g in loads.tolist()]), ends, lo, his, [None])
    return float(loads[k]), float(loads[k + 1])


def _max_throughputs(degrees: Sequence[int], tol: float = 1e-9) -> list[MaxThroughputResult]:
    """``max_throughput`` of every degree in one pass of array code.

    The derivative is evaluated once over all degrees' scan grids, and
    the brackets are then bisected in lockstep; each degree stops by the
    rules of a scalar bisection, so its root does not depend on the other
    degrees of the call.  A degree whose scan finds no sign change or
    several raises BracketingError; with several such degrees, the first
    in ``degrees`` is reported.
    """
    ns = [_validate_degree(n) for n in degrees]
    tol = float(tol)
    if not (0.0 < tol <= 1e-3):
        raise ValueError(f"tolerance must be in (0, 1e-3], got {tol!r}")
    n = np.array(ns, dtype=float)
    his = 10.0 * n
    loads, ends = _scan_grids(_SCAN_LO, his)
    values, _ = _derivative_terms(loads, np.repeat(n, np.diff(ends, prepend=0)))
    k = _sign_changes(values, ends, _SCAN_LO, his, ns)

    # Bisect every bracket (a, b); a_positive is the sign of the derivative
    # at a, and lanes[i] is the degree index of the i-th unfinished bracket.
    a, b, a_positive = loads[k], loads[k + 1], values[k] >= _TINY
    lanes = np.arange(len(ns))
    roots = np.empty(len(ns))
    for _ in range(_BISECTION_STEPS):
        mid = 0.5 * (a + b)
        fm, q = _derivative_terms(mid, n[lanes])
        # an exact zero is a root unless both Q terms have underflowed
        done = (
            (mid == a) | (mid == b) | ((fm == 0.0) & (q != 0.0))
            | (((b - a) < tol) & (np.abs(fm) <= tol))
        )
        roots[lanes[done]] = mid[done]
        left = a_positive == (fm >= _TINY)
        a, b = np.where(left, mid, a)[~done], np.where(left, b, mid)[~done]
        a_positive, lanes = a_positive[~done], lanes[~done]
        if not lanes.size:
            break
    roots[lanes] = 0.5 * (a + b)

    residuals, q = _derivative_terms(roots, n)
    s_max = roots * q
    return [
        MaxThroughputResult(degree=d, g_star=g, s_max=s, derivative_residual=r)
        for d, g, s, r in zip(ns, roots.tolist(), s_max.tolist(), residuals.tolist())
    ]


def max_throughput(degree: int, tol: float = 1e-9) -> MaxThroughputResult:
    """Locate the unique positive root of dS/dG by bracketing and bisection.

    The scan covers G in (0, 10N] on a geometric grid; bisection stops once
    the interval is below ``tol`` and the derivative residual at the
    midpoint is too, or at an exact zero of the derivative, or where the
    midpoint meets an end of the interval.  A derivative below the smallest
    normal float counts as negative, and a zero where Q(N, 2G) has
    underflowed is not taken as a root, so large degrees keep a finite
    G* with S_max > 0.  This is the one-degree call of ``_max_throughputs``.
    """
    return _max_throughputs([degree], tol)[0]


def throughput_curve(degree: int, g_grid: Sequence[float]) -> ThroughputCurve:
    """Evaluate S over a strictly increasing grid of offered loads."""
    n = _validate_degree(degree)
    if len(g_grid) == 0:
        raise ValueError("offered-load grid must be non-empty")
    loads = [_validate_load(g) for g in g_grid]
    for prev, cur in zip(loads, loads[1:]):
        if cur <= prev:
            raise ValueError("offered-load grid must be strictly increasing")
    grid = np.asarray(loads)
    # past half the float range 2G is inf and S is 0.0, as in throughput()
    with np.errstate(over="ignore"):
        s_values = (grid * gammaincc(n, 2.0 * grid)).tolist()
    points = tuple(ThroughputPoint(g, s) for g, s in zip(loads, s_values))
    return ThroughputCurve(degree=n, points=points)
