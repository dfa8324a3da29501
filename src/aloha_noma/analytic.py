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
from typing import Callable, Sequence

import numpy as np
from scipy.special import gammaincc, xlogy

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
    """The derivative has no unique sign change on the scanned load range."""


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
    two_g = 2.0 * g
    return float((1.0 - two_g) * gammaincc(n, two_g) + two_g * gammaincc(n - 1, two_g))


def _scan_for_bracket(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """Geometric scan of [lo, hi] in steps of 1.2 expecting exactly one
    sign change of f.

    A second sign change (or none at all) raises BracketingError rather
    than silently picking a root.
    """
    grid = [lo]
    while grid[-1] < hi:
        grid.append(min(grid[-1] * 1.2, hi))
    # zero counts as negative so that a far-tail underflow to -0.0 does not
    # masquerade as an extra root
    positive = [f(g) > 0.0 for g in grid]
    brackets: list[tuple[float, float]] = []
    for k in range(len(grid) - 1):
        if positive[k] != positive[k + 1]:
            brackets.append((grid[k], grid[k + 1]))
    if not brackets:
        raise BracketingError(
            f"no sign change found on ({lo:g}, {hi:g}]; cannot bracket the optimum"
        )
    if len(brackets) > 1:
        raise BracketingError(
            f"{len(brackets)} sign changes found on ({lo:g}, {hi:g}]; "
            "the derivative is not unimodal on the scan grid"
        )
    return brackets[0]


def _bisect(f: Callable[[float], float], a: float, b: float, tol: float) -> float:
    fa = f(a)
    for _ in range(200):
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            return mid
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (b - a) < tol and abs(fm) <= tol:
            return mid
        if (fa > 0.0) == (fm > 0.0):
            a, fa = mid, fm
        else:
            b = mid
    return 0.5 * (a + b)


def max_throughput(degree: int, tol: float = 1e-9) -> MaxThroughputResult:
    """Locate the unique positive root of dS/dG by bracketing and bisection.

    The scan covers G in (0, 10N]; bisection stops once the interval is
    below ``tol`` and the derivative residual at the midpoint is too.
    """
    n = _validate_degree(degree)
    tol = float(tol)
    if not (0.0 < tol <= 1e-3):
        raise ValueError(f"tolerance must be in (0, 1e-3], got {tol!r}")

    def deriv(g: float) -> float:
        return throughput_derivative(g, n)

    a, b = _scan_for_bracket(deriv, 1e-2, 10.0 * n)
    g_star = _bisect(deriv, a, b, tol)
    return MaxThroughputResult(
        degree=n,
        g_star=g_star,
        s_max=throughput(g_star, n),
        derivative_residual=throughput_derivative(g_star, n),
    )


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
