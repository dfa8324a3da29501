"""Unslotted shared-channel simulation with a SIC gateway.

Traffic is a homogeneous Poisson process of fixed-duration packets.
Transmissions occupy half-open intervals [start, start + T), so two packets
spaced exactly one duration apart never interfere.  Reception is resolved
either power-blind (ideal: a packet survives iff at most ``degree`` packets
overlap its own interval) or power-aware (an SINR-threshold cancellation
chain inside each maximal overlap cluster).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .stats import half_width

__all__ = [
    "BATCH_COUNT",
    "SicMode",
    "SicModel",
    "SimConfig",
    "SimStats",
    "Transmission",
    "generate_traffic",
    "overlap_count",
    "resolve_sic",
    "run_simulation",
]

# batch-means estimate of the throughput confidence interval
BATCH_COUNT = 20


class SicMode(str, Enum):
    IDEAL = "ideal"
    POWER_AWARE = "power_aware"


@dataclass(slots=True)
class Transmission:
    """One packet attempt on the shared channel."""

    device_id: int
    start_time: float
    duration: float
    rx_power_dbm: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.start_time):
            raise ValueError(f"start_time must be finite, got {self.start_time!r}")
        if not (self.duration > 0.0):
            raise ValueError(f"duration must be > 0, got {self.duration!r}")

    @property
    def end_time(self) -> float:
        return self.start_time + self.duration


@dataclass(frozen=True)
class SicModel:
    """Gateway cancellation capability.

    ``capture_threshold_db`` and ``noise_floor_dbm`` only matter in
    POWER_AWARE mode.
    """

    degree: int
    mode: SicMode = SicMode.IDEAL
    capture_threshold_db: float = 6.0
    noise_floor_dbm: float = -30.0

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ValueError(f"degree: must be >= 1, got {self.degree}")
        if self.mode is SicMode.POWER_AWARE:
            if not math.isfinite(self.capture_threshold_db):
                raise ValueError("capture_threshold_db: must be finite in power_aware mode")
            if not math.isfinite(self.noise_floor_dbm):
                raise ValueError("noise_floor_dbm: must be finite in power_aware mode")


@dataclass(frozen=True)
class SimConfig:
    """One channel-simulation run.

    ``base_power_dbm`` plus optional log-normal shadowing
    (``shadowing_sigma_db`` > 0) sets each packet's received power; both
    are irrelevant in ideal mode.
    """

    offered_load_g: float
    packet_duration: float
    horizon: float
    sic: SicModel
    seed: int
    warmup: float = 0.0
    base_power_dbm: float = 0.0
    shadowing_sigma_db: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.offered_load_g) or self.offered_load_g < 0.0:
            raise ValueError(
                f"offered_load_g: must be finite and >= 0, got {self.offered_load_g!r}"
            )
        for name in (
            "packet_duration", "horizon", "warmup", "base_power_dbm", "shadowing_sigma_db"
        ):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name}: must be finite, got {value!r}")
        if not (self.packet_duration > 0.0):
            raise ValueError(f"packet_duration: must be > 0, got {self.packet_duration!r}")
        if self.warmup < 0.0:
            raise ValueError(f"warmup: must be >= 0, got {self.warmup!r}")
        if not (self.horizon > self.warmup):
            raise ValueError(
                f"horizon: must exceed warmup, got horizon={self.horizon!r} "
                f"warmup={self.warmup!r}"
            )
        if self.horizon < 100.0 * self.packet_duration:
            raise ValueError(
                "horizon: must cover at least 100 packet durations "
                f"(got {self.horizon!r} with packet_duration={self.packet_duration!r})"
            )
        if self.shadowing_sigma_db < 0.0:
            raise ValueError(
                f"shadowing_sigma_db: must be >= 0, got {self.shadowing_sigma_db!r}"
            )


@dataclass(frozen=True)
class SimStats:
    """Counts and normalized throughput over the measured span."""

    offered: int
    succeeded: int
    normalized_throughput: float
    mean_concurrency: float
    confidence_half_width: float
    degenerate: bool = False

    def __post_init__(self) -> None:
        if self.succeeded > self.offered:
            raise ValueError("succeeded cannot exceed offered")


def generate_traffic(config: SimConfig) -> list[Transmission]:
    """Poisson arrivals over [0, horizon), sorted by start time.

    Deterministic for a given config (seed included): arrival gaps are
    drawn first, then shadowing offsets (only when enabled).
    """
    rate = config.offered_load_g / config.packet_duration
    if rate == 0.0:
        return []
    rng = np.random.default_rng(config.seed)
    expected = rate * config.horizon
    chunk = int(expected + 10.0 * math.sqrt(expected) + 16.0)
    parts: list[np.ndarray] = []
    last = 0.0
    while last < config.horizon:
        cum = last + np.cumsum(rng.exponential(1.0 / rate, size=chunk))
        parts.append(cum)
        last = float(cum[-1])
    starts = np.concatenate(parts)
    starts = starts[starts < config.horizon]
    if config.shadowing_sigma_db > 0.0:
        powers = config.base_power_dbm + rng.normal(
            0.0, config.shadowing_sigma_db, size=starts.size
        )
    else:
        powers = np.full(starts.size, config.base_power_dbm)
    return [
        Transmission(i, float(s), config.packet_duration, float(p))
        for i, (s, p) in enumerate(zip(starts, powers))
    ]


def _interval_arrays(
    transmissions: list[Transmission],
) -> tuple[np.ndarray, np.ndarray]:
    starts = np.fromiter(
        (t.start_time for t in transmissions), dtype=float, count=len(transmissions)
    )
    ends = starts + np.fromiter(
        (t.duration for t in transmissions), dtype=float, count=len(transmissions)
    )
    return starts, ends


def _overlap_counts(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    # intervals [s_i, e_i) and [s_j, e_j) intersect iff s_i < e_j and e_i > s_j,
    # so the count for j is #(s_i < e_j) - #(e_i <= s_j); includes j itself
    sorted_starts = np.sort(starts)
    sorted_ends = np.sort(ends)
    before_end = np.searchsorted(sorted_starts, ends, side="left")
    done_by_start = np.searchsorted(sorted_ends, starts, side="right")
    return before_end - done_by_start


def overlap_count(tx: Transmission, transmissions: list[Transmission]) -> int:
    """Number of transmissions (tx included) intersecting tx's interval."""
    starts, ends = _interval_arrays(transmissions)
    before_end = int(np.searchsorted(np.sort(starts), tx.end_time, side="left"))
    done_by_start = int(np.searchsorted(np.sort(ends), tx.start_time, side="right"))
    return before_end - done_by_start


def _clusters(starts: np.ndarray, ends: np.ndarray) -> list[np.ndarray]:
    """Maximal transitively-overlapping groups, one sweep over start order."""
    order = np.argsort(starts, kind="stable")
    clusters: list[np.ndarray] = []
    current: list[int] = []
    reach = -math.inf
    for idx in order:
        if current and starts[idx] >= reach:
            clusters.append(np.array(current))
            current = []
            reach = -math.inf
        current.append(int(idx))
        reach = max(reach, float(ends[idx]))
    if current:
        clusters.append(np.array(current))
    return clusters


def _resolve_power_aware(
    transmissions: list[Transmission],
    starts: np.ndarray,
    ends: np.ndarray,
    sic: SicModel,
) -> list[bool]:
    powers_mw = np.fromiter(
        (10.0 ** (t.rx_power_dbm / 10.0) for t in transmissions),
        dtype=float,
        count=len(transmissions),
    )
    noise_mw = 10.0 ** (sic.noise_floor_dbm / 10.0)
    theta = 10.0 ** (sic.capture_threshold_db / 10.0)
    flags = [False] * len(transmissions)
    for cluster in _clusters(starts, ends):
        # strongest first; ties broken by start time then device id
        by_power = sorted(
            cluster,
            key=lambda i: (-powers_mw[i], starts[i], transmissions[i].device_id),
        )
        residual = float(powers_mw[cluster].sum())
        for stage, idx in enumerate(by_power):
            if stage >= sic.degree:
                break
            interference = residual - powers_mw[idx]
            if powers_mw[idx] >= theta * (interference + noise_mw):
                flags[idx] = True
                residual = interference
            else:
                break
    return flags


def resolve_sic(transmissions: list[Transmission], sic: SicModel) -> list[bool]:
    """Per-transmission success flags, aligned with the input order."""
    if not transmissions:
        return []
    starts, ends = _interval_arrays(transmissions)
    if sic.mode is SicMode.IDEAL:
        counts = _overlap_counts(starts, ends)
        return (counts <= sic.degree).tolist()
    return _resolve_power_aware(transmissions, starts, ends, sic)


def run_simulation(config: SimConfig) -> SimStats:
    """Generate traffic, resolve reception, and measure throughput.

    Packets starting before the warmup are excluded from the counts but
    still interfere.  The confidence half-width comes from batch means over
    BATCH_COUNT equal spans of the measured window.
    """
    transmissions = generate_traffic(config)
    flags = resolve_sic(transmissions, config.sic)
    span = config.horizon - config.warmup
    if not transmissions:
        return SimStats(0, 0, 0.0, 0.0, 0.0, degenerate=True)

    starts, ends = _interval_arrays(transmissions)
    ok = np.fromiter(flags, dtype=bool, count=len(flags))
    measured = starts >= config.warmup
    offered = int(measured.sum())
    busy = np.clip(ends, config.warmup, config.horizon) - np.clip(
        starts, config.warmup, config.horizon
    )
    mean_concurrency = float(busy.sum() / span)
    if offered == 0:
        return SimStats(0, 0, 0.0, mean_concurrency, 0.0, degenerate=True)

    succeeded = int((ok & measured).sum())
    throughput = succeeded * config.packet_duration / span

    batch_of = ((starts[measured] - config.warmup) / span * BATCH_COUNT).astype(int)
    np.clip(batch_of, 0, BATCH_COUNT - 1, out=batch_of)
    batch_successes = np.bincount(
        batch_of, weights=ok[measured].astype(float), minlength=BATCH_COUNT
    )
    batch_throughputs = batch_successes * config.packet_duration / (span / BATCH_COUNT)
    return SimStats(
        offered=offered,
        succeeded=succeeded,
        normalized_throughput=throughput,
        mean_concurrency=mean_concurrency,
        confidence_half_width=half_width(batch_throughputs),
    )
