"""Unslotted shared-channel simulation with a SIC gateway.

Traffic is a homogeneous Poisson process of fixed-duration packets.
Transmissions occupy half-open intervals [start, start + T), so two packets
spaced exactly one duration apart never interfere.  Reception is resolved
either power-blind (ideal: a packet survives iff at most ``degree`` packets
overlap its own interval) or power-aware (an SINR-threshold cancellation
chain inside each maximal overlap cluster, strongest first, where a packet's
interference is the sum of the weaker packets of its cluster).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from typing import Iterable, Iterator, Sequence

import numpy as np

from .stats import BATCH_COUNT, batch_half_width

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
        # a duration <= 0, or too small to move the start, leaves nothing
        if not (self.start_time + self.duration > self.start_time):
            raise ValueError(
                f"duration must give a non-empty interval, got {self.duration!r} "
                f"at start {self.start_time!r}"
            )

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
        if self.packet_duration < math.ulp(self.horizon):
            raise ValueError(
                "horizon: packet intervals [start, start + packet_duration) would round "
                f"to empty (got {self.horizon!r} with packet_duration={self.packet_duration!r})"
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


def _traffic(config: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """Start times, in increasing order, and received powers (dBm) behind
    ``generate_traffic``; without shadowing the powers are a read-only view
    of the one base power."""
    rate = config.offered_load_g / config.packet_duration
    if rate == 0.0:
        return np.empty(0), np.empty(0)
    rng = np.random.default_rng(config.seed)
    expected = rate * config.horizon
    if expected == math.inf:
        raise MemoryError("cannot allocate an infinite expected packet count")
    chunk = int(expected + 10.0 * math.sqrt(expected) + 16.0)
    parts: list[np.ndarray] = []
    last = 0.0
    while last < config.horizon:
        cum = rng.exponential(1.0 / rate, size=chunk)
        np.cumsum(cum, out=cum)
        cum += last
        parts.append(cum)
        last = float(cum[-1])
    starts = parts[0] if len(parts) == 1 else np.concatenate(parts)
    # the gaps are >= 0, so the starts before the horizon are a prefix
    starts = starts[: np.searchsorted(starts, config.horizon)]
    if config.shadowing_sigma_db > 0.0:
        powers = rng.normal(0.0, config.shadowing_sigma_db, size=starts.size)
        powers += config.base_power_dbm
    else:
        powers = np.broadcast_to(config.base_power_dbm, starts.shape)
    return starts, powers


def generate_traffic(config: SimConfig) -> list[Transmission]:
    """Poisson arrivals over [0, horizon), sorted by start time.

    Deterministic for a given config (seed included): arrival gaps are
    drawn first, then shadowing offsets (only when enabled).
    """
    starts, powers = _traffic(config)
    return [
        Transmission(i, s, config.packet_duration, p)
        for i, (s, p) in enumerate(zip(starts.tolist(), powers.tolist()))
    ]


def _overlap_counts(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """For each packet [starts[i], ends[i]), the number of packets, itself
    included, whose intervals meet it; ``starts`` must be sorted."""
    # [s_i, e_i) and [s_j, e_j) meet iff s_j < e_i and e_j > s_i, so the
    # count is #(s_j < e_i) - #(e_j <= s_i)
    before_end = np.searchsorted(starts, ends, side="left")
    # with the starts sorted, e_j <= s_i iff at most i starts lie before
    # e_j, so #(e_j <= s_i) = #(before_end_j <= i): a running sum of counts
    done_by_start = np.bincount(before_end, minlength=starts.size + 1)[:-1]
    np.cumsum(done_by_start, out=done_by_start)
    before_end -= done_by_start
    return before_end


def overlap_count(tx: Transmission, transmissions: list[Transmission]) -> int:
    """Number of transmissions (tx included) intersecting tx's interval."""
    # counted with tx appended, which adds tx itself once more; as the last
    # packet it holds the largest index, so order.argmax() is its position
    packets = [*transmissions, tx]
    starts = np.array([t.start_time for t in packets])
    order = np.argsort(starts, kind="stable")
    ends = np.array([t.end_time for t in packets])
    return int(_overlap_counts(starts[order], ends[order])[order.argmax()]) - 1


def _dbm_to_mw(dbm: Iterable[float]) -> list[float]:
    """Convert dBm to mW with Python's float pow, inf where the pow overflows.

    Not np.power, which differs in the last bit on some values and would
    move borderline SINR decisions.  The pow overflows above about
    3082.5 dBm, a level the unbounded power back-off can reach.
    """
    mw = []
    for x in dbm:
        try:
            mw.append(10.0 ** (x / 10.0))
        except OverflowError:
            mw.append(math.inf)
    return mw


def _decode_chains(
    stages: list[float],
    runs: Iterable[tuple[int, int]],
    degree: int,
    theta: float,
    noise_mw: float,
) -> Iterator[int]:
    """Yield the positions in ``stages`` that the SIC chain decodes.

    ``stages`` holds received powers (mW) in decode order, and each
    ``(first, size)`` run is one cluster, strongest first.  A stage decodes
    iff every earlier stage of its run did, it is among the first ``degree``
    and its SINR reaches ``theta``.  Its interference is the sum of the
    weaker packets of its run, added from the weakest up; subtracting
    decoded packets from the run total instead cancels catastrophically
    across a wide power spread.
    """
    for a, n in runs:
        interference = [*accumulate(stages[a + n - 1 : a : -1])][::-1]
        interference.append(0.0)
        for j in range(min(n, degree)):
            if not stages[a + j] >= theta * (interference[j] + noise_mw):
                break
            yield a + j


def _decode_relative(
    stages: list[float], degree: int, theta: float, noise_dbm: float
) -> Iterator[int]:
    """``_decode_chains`` for one cluster that holds an infinite mW power.

    ``stages`` holds the cluster's received powers in dBm, strongest
    first.  Each stage is decided on powers relative to its own packet, the
    strongest left in its cluster: it decodes iff 1 >= theta * (weaker +
    noise), both in units of its own power.  Absolute mW past about
    3082.5 dBm are infinite and ``inf >= theta * inf`` passes; relative to
    the strongest packet of the whole cluster, a spread past about 3240 dB
    rounds the noise and the weaker packets to zero and ``0 >= 0`` passes.
    Relative to the stage's own packet neither happens: each weaker packet
    counts at most 1, and a noise floor far above the packet is infinite
    and fails it, as it should.
    """
    for j in range(min(len(stages), degree)):
        x = stages[j]
        *weaker, noise = _dbm_to_mw([y - x for y in stages[j + 1 :]] + [noise_dbm - x])
        if not 1.0 >= theta * (sum(weaker[::-1]) + noise):
            break
        yield j


def _decode_cluster(
    dbm: Sequence[float], ids: Sequence[int], degree: int, sic: SicModel
) -> list[int]:
    """Positions in ``dbm`` that one cluster's power-aware SIC chain decodes.

    ``dbm`` holds the received powers of packets that all overlap one
    another; the chain runs strongest first, ties broken by ``ids``, and
    stops at ``degree`` stages.  A cluster holding a power past the mW
    overflow is ordered and decided on dBm by ``_decode_relative``.
    """
    mw = _dbm_to_mw(dbm)
    noise_mw, theta = _dbm_to_mw([sic.noise_floor_dbm, sic.capture_threshold_db])
    overflowed = math.inf in mw
    power = dbm if overflowed else mw
    order = sorted(range(len(power)), key=lambda j: (-power[j], ids[j]))
    stages = [power[j] for j in order]
    if overflowed:
        decoded = _decode_relative(stages, degree, theta, sic.noise_floor_dbm)
    else:
        decoded = _decode_chains(stages, [(0, len(order))], degree, theta, noise_mw)
    return [order[p] for p in decoded]


def _mw(dbm: np.ndarray) -> np.ndarray:
    """``_dbm_to_mw`` on an array, bit for bit.

    np.float_power calls libm pow as Python's float pow does; np.power
    takes a SIMD pow that differs in the last bit on some values.
    """
    with np.errstate(over="ignore"):
        return np.float_power(10.0, dbm / 10.0)


def _resolve(
    starts: np.ndarray, ends: np.ndarray, powers_dbm: np.ndarray, sic: SicModel
) -> np.ndarray:
    """Per-packet success flags for packets given as parallel arrays.

    The packets must be in (start, id) order: sorted by start, with tied
    starts in id order, so that positions break ties.
    """
    if sic.mode is SicMode.IDEAL:
        return _overlap_counts(starts, ends) <= sic.degree
    # maximal transitively-overlapping clusters: a packet opens a new
    # cluster iff it starts at or after every earlier end
    opens = np.empty(starts.size, dtype=bool)
    opens[0] = True
    opens[1:] = starts[1:] >= np.maximum.accumulate(ends)[:-1]
    firsts = np.flatnonzero(opens)
    sizes = np.diff(firsts, append=starts.size)

    powers_mw = _mw(powers_dbm)
    noise_mw, theta = _mw(np.array([sic.noise_floor_dbm, sic.capture_threshold_db])).tolist()
    flags = np.zeros(starts.size, dtype=bool)
    # the clusters grouped by size, each group in start order: a stable
    # sort, a radix sort on sizes that fit 16 bits, and one slice per size
    grouped = firsts[np.argsort(sizes.astype(np.min_scalar_type(sizes.max())), kind="stable")]
    per_size = np.bincount(sizes)
    present = np.flatnonzero(per_size)
    bounds = np.cumsum(per_size[present]).tolist()
    # the _decode_chains walk on all clusters of one size at once, a row
    # each; as in Python, sums past float range are inf and 0 * inf is nan
    with np.errstate(over="ignore", invalid="ignore"):
        for n, lo, hi in zip(present.tolist(), [0, *bounds], bounds):
            rows = grouped[lo:hi, None] + np.arange(n)
            mw = powers_mw[rows]
            # strongest first; the stable sort keeps ties in (start, id) order
            rank = np.argsort(-mw, axis=1, kind="stable")
            rows = np.take_along_axis(rows, rank, axis=1)
            chain = np.take_along_axis(mw, rank, axis=1)
            # weaker packets added from the weakest up, as _decode_chains does
            interference = np.zeros_like(chain)
            interference[:, :-1] = np.cumsum(chain[:, :0:-1], axis=1)[:, ::-1]
            cap = min(n, sic.degree)
            ok = chain[:, :cap] >= theta * (interference[:, :cap] + noise_mw)
            flags[rows[:, :cap]] = np.logical_and.accumulate(ok, axis=1)
    if np.isinf(powers_mw).any():
        # decide the clusters that hold an infinite power again, one by one;
        # positions break power ties
        hot = np.logical_or.reduceat(np.isinf(powers_mw), firsts)
        dbm = powers_dbm.tolist()
        for a, n in zip(firsts[hot].tolist(), sizes[hot].tolist()):
            cluster = flags[a : a + n]
            cluster[:] = False
            cluster[_decode_cluster(dbm[a : a + n], range(n), sic.degree, sic)] = True
    return flags


def resolve_sic(transmissions: list[Transmission], sic: SicModel) -> list[bool]:
    """Per-transmission success flags, aligned with the input order."""
    if not transmissions:
        return []
    starts = np.array([t.start_time for t in transmissions])
    order = np.lexsort((np.array([t.device_id for t in transmissions]), starts))
    ends = np.array([t.end_time for t in transmissions])
    powers_dbm = np.array([t.rx_power_dbm for t in transmissions])
    flags = np.empty(order.size, dtype=bool)
    flags[order] = _resolve(starts[order], ends[order], powers_dbm[order], sic)
    return flags.tolist()


def run_simulation(config: SimConfig) -> SimStats:
    """Generate traffic, resolve reception, and measure throughput.

    Packets starting before the warmup are excluded from the counts but
    still interfere.  The confidence half-width is ``batch_half_width`` over
    BATCH_COUNT equal spans of the measured window.
    """
    starts, powers_dbm = _traffic(config)
    span = config.horizon - config.warmup
    if starts.size == 0:
        return SimStats(0, 0, 0.0, 0.0, 0.0, degenerate=True)

    ends = starts + config.packet_duration
    ok = _resolve(starts, ends, powers_dbm, config.sic)
    # starts are sorted, so the measured packets are a suffix
    first = int(np.searchsorted(starts, config.warmup))
    offered = starts.size - first
    # ends is not needed past here, so it holds each packet's busy time
    busy = np.clip(ends, config.warmup, config.horizon, out=ends)
    busy -= np.clip(starts, config.warmup, config.horizon)
    mean_concurrency = float(busy.sum() / span)
    if offered == 0:
        return SimStats(0, 0, 0.0, mean_concurrency, 0.0, degenerate=True)

    # each measured success adds its duration to the batch of its start
    success_times = starts[first:][ok[first:]] - config.warmup
    succeeded = success_times.size
    throughput = succeeded * config.packet_duration / span
    return SimStats(
        offered=offered,
        succeeded=succeeded,
        normalized_throughput=throughput,
        mean_concurrency=mean_concurrency,
        confidence_half_width=batch_half_width(config.packet_duration, success_times, span),
    )
