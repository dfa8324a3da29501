"""Unslotted shared-channel simulation with a SIC gateway.

Traffic is a homogeneous Poisson process of fixed-duration packets.
Transmissions occupy half-open intervals [start, start + T), so two packets
spaced exactly one duration apart never interfere.  Reception is resolved
either power-blind (ideal: a packet survives iff at most ``degree`` packets
overlap its own interval) or power-aware (an SINR-threshold cancellation
chain inside each maximal overlap cluster, strongest first, where a packet's
interference is the sum of the weaker packets of its cluster).

``run_simulation`` walks the arrival stream in windows of at most _WINDOW
packets and gives the bits of a run over the whole stream at once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate, chain
from typing import Iterable, Iterator, Sequence

import numpy as np

from .stats import BATCH_COUNT, batch_counts, batch_half_width

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


# packets per window of the arrival stream
_WINDOW = 2**15
# packets whose starts a run keeps from counting to use, 4 MiB of float64
_KEPT = 2**19
# the largest expected packet count (rate x horizon) of one run
_MAX_PACKETS = 2**32
# the factor on the powers of a cluster whose sums pass float range: exact,
# and it brings a sum of fewer than 2**64 finite powers back into range
_SCALE = 2.0**-64


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

    @functools.cached_property
    def _levels_mw(self) -> tuple[float, float]:
        """The noise floor and the capture threshold in mW, worked out once
        per model; the floor is inf past the mW overflow."""
        noise_mw, theta = _dbm_to_mw([self.noise_floor_dbm, self.capture_threshold_db])
        return noise_mw, theta


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
        expected = self.offered_load_g / self.packet_duration * self.horizon
        if expected > _MAX_PACKETS:
            raise ValueError(
                f"horizon: expects {expected!r} packets (offered_load_g / packet_duration "
                f"* horizon), more than the {_MAX_PACKETS} one run may draw"
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


def _start_windows(rng: np.random.Generator, rate: float, horizon: float) -> Iterator[np.ndarray]:
    """Start times below ``horizon``, in increasing order, in windows of at
    most _WINDOW.

    The gaps are exponentials of mean 1 / ``rate``, drawn in chunks of the
    expected count plus ten standard deviations and 16 until a chunk ends
    past the horizon; a chunk's starts are the running sum of its gaps (inf
    past float range) plus the last start of the chunk before.  Each gap is
    a standard exponential times 1 / ``rate``, which is how numpy computes
    ``exponential(1 / rate)``, so the bits are the same.  Split draws, and a
    running sum carried from window to window, give the bits of one draw
    and one cumsum per chunk.  Once a start reaches the horizon, the rest
    of its chunk is drawn unscaled and dropped, so that ``rng`` stands where
    the shadowing normals begin.
    """
    expected = rate * horizon
    chunk = int(expected + 10.0 * math.sqrt(expected) + 16.0)
    scale = 1.0 / rate
    base = 0.0
    while True:
        drawn, total = 0, 0.0
        while drawn < chunk:
            starts = rng.standard_exponential(min(_WINDOW, chunk - drawn))
            drawn += starts.size
            with np.errstate(over="ignore"):
                starts *= scale
                starts[0] += total
                np.cumsum(starts, out=starts)
                total = float(starts[-1])
                starts += base
            # the gaps are >= 0, so the starts before the horizon are a prefix
            below = int(np.searchsorted(starts, horizon))
            if below:
                yield starts[:below]
            if below < starts.size:
                for left in range(chunk - drawn, 0, -_WINDOW):
                    rng.standard_exponential(min(_WINDOW, left))
                return
        base += total


def _traffic(
    config: SimConfig, shadowing: bool = True
) -> tuple[int, Iterator[tuple[np.ndarray, np.ndarray]]]:
    """The packet count, and the start times (in increasing order) and
    received powers (dBm) behind ``generate_traffic``, in windows of at most
    _WINDOW packets; without shadowing, or with ``shadowing`` False, the
    powers are read-only views of the one base power.  The shadowing normals
    come after every gap in the stream, so leaving them undrawn moves no
    start.

    A first pass draws every gap to count the packets, and leaves the stream
    where the shadowing normals begin.  A run of at most _KEPT packets keeps
    its windows and drops each as it is handed over; a longer one draws them
    again from a second generator on the same seed.
    """
    rate = config.offered_load_g / config.packet_duration
    if rate == 0.0:
        return 0, iter(())
    rng = np.random.default_rng(config.seed)
    count, kept = 0, []
    for starts in _start_windows(rng, rate, config.horizon):
        count += starts.size
        if count <= _KEPT:
            kept.append(starts)
    stream = map(kept.pop, [0] * len(kept))
    if count > _KEPT:
        stream = _start_windows(np.random.default_rng(config.seed), rate, config.horizon)

    def windows() -> Iterator[tuple[np.ndarray, np.ndarray]]:
        for starts in stream:
            if shadowing and config.shadowing_sigma_db > 0.0:
                powers = rng.normal(0.0, config.shadowing_sigma_db, size=starts.size)
                # levels past float range are +-inf, which the decoder handles
                with np.errstate(over="ignore"):
                    powers += config.base_power_dbm
            else:
                powers = np.broadcast_to(config.base_power_dbm, starts.shape)
            yield starts, powers

    return count, windows()


def generate_traffic(config: SimConfig) -> list[Transmission]:
    """Poisson arrivals over [0, horizon), sorted by start time.

    Deterministic for a given config (seed included): arrival gaps are
    drawn first, then shadowing offsets (only when enabled).
    """
    packets = chain.from_iterable(zip(s.tolist(), p.tolist()) for s, p in _traffic(config)[1])
    return [Transmission(i, s, config.packet_duration, p) for i, (s, p) in enumerate(packets)]


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
    """Number of ``transmissions`` intersecting tx's interval; tx counts
    itself only if it is in the list."""
    starts = np.array([t.start_time for t in transmissions])
    ends = np.array([t.end_time for t in transmissions])
    return int(np.count_nonzero((starts < tx.end_time) & (ends > tx.start_time)))


def _dbm_to_mw(dbm: Sequence[float]) -> list[float]:
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
    across a wide power spread.  A run whose interference plus noise passes
    float range is decided on its powers and the noise times _SCALE.
    """
    for a, n in runs:
        mw, noise = stages[a : a + n], noise_mw
        interference = [*accumulate(mw[:0:-1])][::-1] + [0.0]
        if interference[0] + noise == math.inf:
            mw, noise = [x * _SCALE for x in mw], noise * _SCALE
            interference = [*accumulate(mw[:0:-1])][::-1] + [0.0]
        for j in range(min(n, degree)):
            if not mw[j] >= theta * (interference[j] + noise):
                break
            yield a + j


def _decode_relative(
    stages: list[float], degree: int, theta: float, noise_dbm: float
) -> Iterator[int]:
    """``_decode_chains`` for one cluster that holds an infinite mW power or
    faces an infinite noise floor.

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

    A stage converts its weaker packets with ``_mw`` in one array and adds
    them from the weakest up, as ``_decode_chains`` does, so a cluster of n
    packets costs numpy work of n per stage, not n Python pows.
    """
    n = len(stages)
    # the noise floor, then the packets weakest first
    levels = np.array([noise_dbm, *reversed(stages)])
    for j in range(min(n, degree)):
        relative = _mw(levels[: n - j] - stages[j])
        noise, relative[0] = relative[0], 0.0
        if not 1.0 >= theta * (np.add.accumulate(relative)[-1] + noise):
            break
        yield j


def _decode_cluster(
    dbm: Sequence[float], ids: Sequence[int], degree: int, sic: SicModel
) -> list[int]:
    """Positions in ``dbm`` that one cluster's power-aware SIC chain decodes.

    ``dbm`` holds the received powers of packets that all overlap one
    another; the chain runs strongest first, ties broken by ``ids``, and
    stops at ``degree`` stages.  A cluster holding a power or facing a noise
    floor past the mW overflow is ordered and decided on dBm by
    ``_decode_relative``.
    """
    noise_mw, theta = sic._levels_mw
    mw = _dbm_to_mw(dbm)
    overflowed = noise_mw == math.inf or math.inf in mw
    power = dbm if overflowed else mw
    # strongest first, ties by id: the sort on power is stable in reverse too
    order = sorted(range(len(power)), key=ids.__getitem__)
    order.sort(key=power.__getitem__, reverse=True)
    stages = [*map(power.__getitem__, order)]
    if overflowed:
        # a dBm difference past float range is the right relative level, +-inf;
        # an inf - inf tie is nan, which fails its SINR test: not decoded
        with np.errstate(over="ignore", invalid="ignore"):
            decoded = [*_decode_relative(stages, degree, theta, sic.noise_floor_dbm)]
    else:
        decoded = _decode_chains(stages, [(0, len(order))], degree, theta, noise_mw)
    return [*map(order.__getitem__, decoded)]


def _mw(dbm: np.ndarray) -> np.ndarray:
    """``_dbm_to_mw`` on an array, bit for bit.

    np.float_power calls libm pow as Python's float pow does; np.power
    takes a SIMD pow that differs in the last bit on some values.
    """
    with np.errstate(over="ignore"):
        return np.float_power(10.0, dbm / 10.0)


def _chains_pass(chains: np.ndarray, cap: int, theta: float, noise_mw: float) -> np.ndarray:
    """The SINR test of the first ``cap`` stages of each row of ``chains``
    (mW, strongest first), as ``_decode_chains`` takes it, _SCALE included;
    as in Python, sums past float range are inf and 0 * inf is nan, so call
    it with those warnings off."""

    def test(chains: np.ndarray, noise: float) -> tuple[np.ndarray, np.ndarray]:
        interference = np.zeros_like(chains)
        # weaker packets added from the weakest up, as _decode_chains does
        interference[:, :-1] = np.cumsum(chains[:, :0:-1], axis=1)[:, ::-1]
        ok = chains[:, :cap] >= theta * (interference[:, :cap] + noise)
        return ok, interference[:, 0] + noise == math.inf

    ok, over = test(chains, noise_mw)
    if over.any():
        ok[over] = test(chains[over] * _SCALE, noise_mw * _SCALE)[0]
    return ok


def _openings(starts: np.ndarray, reach: np.ndarray) -> np.ndarray:
    """The cluster openings of sorted packets, one flag per packet and one
    for the slot past them: a packet opens a new maximal
    transitively-overlapping cluster iff it starts at or after ``reach``,
    the running maximum of the ends, of the packet before it."""
    opens = np.ones(starts.size + 1, dtype=bool)
    np.greater_equal(starts[1:], reach[:-1], out=opens[1:-1])
    return opens


def _resolve(
    starts: np.ndarray,
    ends: np.ndarray,
    powers_dbm: np.ndarray,
    sic: SicModel,
    opens: np.ndarray | None,
) -> np.ndarray:
    """Per-packet success flags for packets given as parallel arrays.

    The packets must be in (start, id) order: sorted by start, with tied
    starts in id order, so that positions break ties, and each must end
    after it starts.  ``powers_dbm`` is read only in power-aware mode, and
    ``opens``, the ``_openings`` of the packets, only outside ideal SIC above
    degree 1, which takes None.
    """
    ideal = sic.mode is SicMode.IDEAL
    if ideal and sic.degree > 1:
        # the overlap count of packet i is #(s_j < e_i) - done_i, with
        # done_i = #(e_j <= s_i); it is at most ``degree`` iff no more than
        # done_i + degree starts lie before e_i, that is iff the start at
        # position done_i + degree, if any, is at or after e_i
        n = starts.size
        # equal durations give ordered ends, which are their own sort
        done_ends = ends if (ends[1:] >= ends[:-1]).all() else np.sort(ends)
        if n and starts.dtype == ends.dtype == np.float64 and starts[0] > 0.0:
            # every start and end is then a positive float64 (+inf included),
            # and those order as their int64 bit patterns, which search faster
            done = np.searchsorted(
                done_ends.view(np.int64), starts.view(np.int64), side="right"
            )
        else:
            done = np.searchsorted(done_ends, starts, side="right")
        # a degree past the packet count decides as the count does; done is
        # nondecreasing, so the packets with no start at done_i + degree,
        # which pass, are a suffix
        done += min(sic.degree, n)
        cut = int(np.searchsorted(done, n))
        ok = np.ones(n, dtype=bool)
        np.greater_equal(starts[done[:cut]], ends[:cut], out=ok[:cut])
        return ok
    if ideal:
        # a packet is alone iff no earlier packet ends after its start (it
        # opens its cluster) and no later one starts before its end (the
        # next packet opens the next cluster): the comparisons of
        # _overlap_counts(starts, ends) <= 1
        return opens[:-1] & opens[1:]
    bounds = np.flatnonzero(opens)
    firsts, sizes = bounds[:-1], np.diff(bounds)

    # one pad slot past the packets: -inf dBm is exactly 0 mW
    pad = starts.size
    powers_mw = _mw(np.append(powers_dbm, -math.inf))
    noise_mw, theta = sic._levels_mw
    flags = np.zeros(pad + 1, dtype=bool)
    # the clusters grouped by size, each group in start order (a stable
    # sort, a radix sort on sizes that fit 16 bits), then cut into the size
    # bands 1, 2, 3-4, 5-8, ..., each with its shortest and longest size
    by_size = np.argsort(sizes.astype(np.min_scalar_type(sizes.max())), kind="stable")
    grouped = firsts[by_size]
    cumulative = np.cumsum(np.bincount(sizes))
    bands = cumulative[1 << np.arange((cumulative.size - 1).bit_length())]
    edges = sorted({0, *bands.tolist(), firsts.size})
    shortest = np.searchsorted(cumulative, edges[:-1], "right").tolist()
    longest = np.searchsorted(cumulative, edges[1:]).tolist()
    # the _decode_chains walk on all clusters of one band at once, a row
    # each; a row's columns past its packets read the pad slot, which sorts
    # after every packet under the stable sort, one at 0 mW included, and
    # adds exactly 0.0 to every sum and to the _SCALE rescale, so a row is
    # its cluster's chain followed by pads; the pad's flag is dropped
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi, short, n in zip(edges, edges[1:], shortest, longest):
            if n == 1:
                # a lone packet faces no interference: _chains_pass's test
                # of a one-column row, as 0.0 + noise == noise
                alone = grouped[lo:hi]
                flags[alone] = powers_mw[alone] >= theta * noise_mw
                continue
            firsts_b = grouped[lo:hi, None]
            rows = firsts_b + np.arange(n)
            if short < n:
                ends_b = firsts_b + sizes[by_size[lo:hi], None]
                np.putmask(rows, rows >= ends_b, pad)
            # strongest first; the stable sort keeps ties in (start, id) order
            rows = np.argsort(-powers_mw[rows], axis=1, kind="stable")
            rows += firsts_b
            if short < n:
                np.putmask(rows, rows >= ends_b, pad)
            cap = min(n, sic.degree)
            ok = _chains_pass(powers_mw[rows], cap, theta, noise_mw)
            flags[rows[:, :cap]] = np.logical_and.accumulate(ok, axis=1)
    infinite = np.isinf(powers_mw[:pad])
    if noise_mw == math.inf or infinite.any():
        # decide the clusters that hold an infinite power, or every cluster
        # under an infinite noise floor, again one by one; positions break
        # power ties
        hot = np.logical_or.reduceat(infinite, firsts) | (noise_mw == math.inf)
        dbm = powers_dbm.tolist()
        for a, n in zip(firsts[hot].tolist(), sizes[hot].tolist()):
            cluster = flags[a : a + n]
            cluster[:] = False
            cluster[_decode_cluster(dbm[a : a + n], range(n), sic.degree, sic)] = True
    return flags[:pad]


def resolve_sic(transmissions: list[Transmission], sic: SicModel) -> list[bool]:
    """Per-transmission success flags, aligned with the input order."""
    if not transmissions:
        return []
    starts = np.array([t.start_time for t in transmissions])
    order = np.lexsort((np.array([t.device_id for t in transmissions]), starts))
    starts = starts[order]
    ends = np.array([t.end_time for t in transmissions])[order]
    powers_dbm = np.array([t.rx_power_dbm for t in transmissions])
    # mixed durations leave the ends unordered: a packet opens a cluster
    # against the latest end before it
    opens = _openings(starts, np.maximum.accumulate(ends))
    flags = np.empty(order.size, dtype=bool)
    flags[order] = _resolve(starts, ends, powers_dbm[order], sic, opens)
    return flags.tolist()


def run_simulation(config: SimConfig) -> SimStats:
    """Generate traffic, resolve reception, and measure throughput.

    Packets starting before the warmup are excluded from the counts but
    still interfere.  The confidence half-width is ``batch_half_width`` over
    BATCH_COUNT equal spans of the measured window.

    The packets are decided window by window.  Ideal mode carries the
    packets within one duration of the first undecided start; power-aware
    mode carries the overlap cluster still open.  Counts and batch counts
    add up over the windows.  The mean concurrency is the busy time over the
    measured span: the duration times the count of packets wholly inside
    it, plus the clipped time of each packet that crosses its edges, added
    one at a time in packet order, so any window gives the bits of one pass.
    """
    ideal = config.sic.mode is SicMode.IDEAL
    # ideal SIC reads no power, so it draws no shadowing
    _, windows = _traffic(config, shadowing=not ideal)
    duration, warmup, horizon = config.packet_duration, config.warmup, config.horizon
    span = horizon - warmup
    # past 2**900 s the sums of durations are taken in units of 2**64 s: the
    # same bits of each ratio, in float range; an end past that range is inf
    unit = _SCALE if horizon > 2.0**900 else 1.0
    # ideal SIC above degree 1 decides by position, without cluster openings
    clustered = not ideal or config.sic.degree == 1
    offered = succeeded = inside = 0
    edge = 0.0
    batches = np.zeros(BATCH_COUNT, dtype=np.int64)
    # the carried packets, the first ``done`` of them decided already, and
    # the windows drawn since
    starts, powers, done = np.empty(0), np.empty(0), 0
    fresh: list[tuple[np.ndarray, np.ndarray]] = []
    for window in chain(windows, [None]):
        if window is not None:
            fresh.append(window)
            # decide once the new packets outnumber the carried ones, so a
            # carry longer than a window is not scanned again every window
            if sum(s.size for s, _ in fresh) < starts.size:
                continue
        starts = np.concatenate((starts, *(s for s, _ in fresh)))
        if not ideal:
            powers = np.concatenate((powers, *(p for _, p in fresh)))
        fresh = []
        with np.errstate(over="ignore"):
            ends = starts + duration
        # equal durations give ordered ends, their own running maximum
        opens = _openings(starts, ends) if clustered else None
        if window is None:
            upto = starts.size
        elif ideal:
            # no later packet reaches a packet that ends by the last start
            upto = int(np.searchsorted(ends, starts[-1], side="right"))
        else:
            # the clusters before the last one are closed; opens[0] is set
            upto = starts.size - 1 - int(np.argmax(opens[-2::-1]))
        if upto > done:
            # the decided slices cover every packet once, in order; starts and
            # ends are sorted, so the measured packets are a suffix
            decided, decided_ends = starts[done:upto], ends[done:upto]
            first = int(np.searchsorted(decided, warmup))
            late = int(np.searchsorted(decided_ends, horizon, side="right"))
            offered += decided.size - first
            # the measured packets that end by the horizon lie inside
            # [warmup, horizon); the rest, and those that start before the
            # warmup but end after it, cross an edge (a packet may cross both)
            early = int(np.searchsorted(decided_ends, warmup, side="right"))
            last = max(first, late)
            inside += last - first
            for cross in slice(early, first), slice(last, None):
                clipped = np.clip(decided_ends[cross], warmup, horizon)
                clipped -= np.clip(decided[cross], warmup, horizon)
                for busy_time in (clipped * unit).tolist():
                    edge += busy_time
            # a power-aware carry starts at a cluster opening, so done is 0
            # there, and the open last cluster is decided again once it closes
            ok = _resolve(starts, ends, powers, config.sic, opens)[done:upto]
            # each measured success adds its duration to the batch of its start
            success_times = decided[first:][ok[first:]] - warmup
            succeeded += success_times.size
            batches += batch_counts(success_times, span)
        if window is not None:
            # keep what ends after the first undecided start; a power-aware
            # window ends at a cluster opening, so there this keeps from upto
            keep = int(np.searchsorted(ends, starts[upto], side="right"))
            starts, powers, done = starts[keep:], powers[keep:], upto - keep

    duration, span = duration * unit, span * unit
    mean_concurrency = (inside * duration + edge) / span
    if offered == 0:
        return SimStats(0, 0, 0.0, mean_concurrency, 0.0, degenerate=True)
    return SimStats(
        offered=offered,
        succeeded=succeeded,
        normalized_throughput=succeeded * duration / span,
        mean_concurrency=mean_concurrency,
        confidence_half_width=batch_half_width(duration, batches, span),
    )
