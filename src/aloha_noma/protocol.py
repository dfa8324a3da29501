"""Five-phase gateway frame: beacon, estimation, broadcast, payload, ack.

Each frame, devices holding data transmit contentless dummy packets; the
gateway estimates how many are active (multi-hypothesis test over the
candidate population), broadcasts the detected IDs, receives the payload
burst through its SIC chain with the degree set from the estimate, and
acknowledges the successes.  Detected devices randomize their transmit
power by n * delta (n uniform on -N..N) before the payload phase so the
cancellation chain sees distinct levels; undetected active devices nudge
their power up for the next frame.
"""

from __future__ import annotations

import contextlib
import functools
import math
import operator
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from .estimator import HypothesisConfig, _frame_rejections
from .simcore import SicMode, SicModel, _decode_cluster
from .stats import batch_half_width

if TYPE_CHECKING:
    from numpy.random.bit_generator import ISeedSequence

__all__ = [
    "BackoffPolicy",
    "DeviceState",
    "FrameResult",
    "FrameSchedule",
    "SessionStats",
    "TraceEvent",
    "effective_throughput",
    "format_trace",
    "power_backoff",
    "run_frame",
    "run_session",
]

PHASES = ("beacon", "estimation", "broadcast", "payload", "ack")


@dataclass(frozen=True)
class FrameSchedule:
    """Durations of the five frame phases (same time unit throughout)."""

    beacon: float = 1.0
    estimation: float = 1.0
    broadcast: float = 1.0
    payload: float = 96.0
    ack: float = 1.0

    def __post_init__(self) -> None:
        for name in PHASES:
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name}: phase duration must be finite and > 0, got {value!r}")
        if math.isinf(self.total):
            # named after the longest phase, the one to shorten
            name = max(PHASES, key=self.__getattribute__)
            raise ValueError(
                f"{name}: phase durations must sum below float max, got {getattr(self, name)!r} "
                "in a frame whose phases sum to inf"
            )
        if self.overhead >= self.payload:
            warnings.warn(
                "frame overhead is not shorter than the payload phase; "
                "effective throughput will be less than half of raw",
                stacklevel=2,
            )

    @functools.cached_property
    def overhead(self) -> float:
        return self.beacon + self.estimation + self.broadcast + self.ack

    @functools.cached_property
    def total(self) -> float:
        return self.overhead + self.payload


@dataclass(slots=True)
class DeviceState:
    device_id: int
    has_data: bool = False
    tx_power_dbm: float = 0.0
    last_ack_received: bool = False


@dataclass(frozen=True)
class BackoffPolicy:
    """Randomized power step for detected devices, in dB.

    ``slight_increase_db`` is the bump an active but undetected device
    applies so it eventually rises above the estimator's threshold.
    """

    delta_db: float = 2.0
    slight_increase_db: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 < self.delta_db < math.inf):
            raise ValueError(f"delta_db: must be finite and > 0, got {self.delta_db!r}")
        if not (0.0 < self.slight_increase_db < math.inf):
            raise ValueError(
                f"slight_increase_db: must be finite and > 0, got {self.slight_increase_db!r}"
            )


@dataclass(frozen=True)
class TraceEvent:
    frame: int
    phase: str
    start: float
    end: float
    detail: dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class FrameResult:
    estimated_count: int
    true_active_count: int
    payload_successes: int
    acked_device_ids: frozenset[int]
    detected_device_ids: frozenset[int]
    effective_throughput: float
    raw_throughput: float


def power_backoff(
    current_dbm: float,
    estimated_n: int,
    policy: BackoffPolicy,
    rng: np.random.Generator,
) -> float:
    """Shift the power by n * delta with n uniform over the 2N+1 integers -N..N."""
    n_max = operator.index(estimated_n)
    if n_max < 1:
        raise ValueError(f"estimated_n must be >= 1, got {n_max}")
    n = int(rng.integers(-n_max, n_max + 1))
    return current_dbm + n * policy.delta_db


def effective_throughput(raw: float, schedule: FrameSchedule) -> float:
    """Discount raw payload-phase throughput by the frame overhead share.

    The product ``raw * payload`` comes first, as it always has, so ordinary
    values keep their bits; only where it leaves float range (a payload
    phase near float max) does the share ``payload / total`` come first."""
    if raw < 0.0:
        raise ValueError(f"raw throughput must be >= 0, got {raw!r}")
    product = raw * schedule.payload
    if math.isinf(product):
        return raw * (schedule.payload / schedule.total)
    return product / schedule.total


class _Devices:
    """A session's device states as arrays, in list order; the ids stay the
    given objects.  Building one checks the list: non-empty, at most M
    devices, unique ids.
    """

    __slots__ = ("ids", "power", "has_data", "last_ack")

    def __init__(self, devices: list[DeviceState], m: int) -> None:
        if not devices:
            raise ValueError("device list must be non-empty")
        if len(devices) > m:
            raise ValueError(f"device count {len(devices)} exceeds candidate population {m}")
        self.ids = [d.device_id for d in devices]
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("device ids must be unique")
        self.power = np.array([d.tx_power_dbm for d in devices], dtype=float)
        self.has_data = np.array([d.has_data for d in devices], dtype=bool)
        self.last_ack = np.array([d.last_ack_received for d in devices], dtype=bool)

    @classmethod
    @contextlib.contextmanager
    def of(cls, devices: list[DeviceState], m: int) -> Iterator[_Devices]:
        """The checked state of ``devices``, written back to every device on
        exit, also when the body raises.  The back-off is unbounded, so a
        power may pass float range to +-inf, which simcore decodes; the body
        runs with overflow warnings off, so a session sets that once, not
        per frame."""
        state = cls(devices, m)
        try:
            with np.errstate(over="ignore"):
                yield state
        finally:
            for d, power, has_data, ack in zip(
                devices, state.power.tolist(), state.has_data.tolist(), state.last_ack.tolist()
            ):
                d.tx_power_dbm, d.has_data, d.last_ack_received = power, has_data, ack


def run_frame(
    devices: list[DeviceState],
    schedule: FrameSchedule,
    hyp_cfg: HypothesisConfig,
    sic: SicModel,
    policy: BackoffPolicy,
    seed: int | np.ndarray | ISeedSequence,
    frame_index: int = 0,
    frame_start: float = 0.0,
    trace: list[TraceEvent] | None = None,
) -> FrameResult:
    """Run one frame, mutating device states (powers, data flags, acks).

    The payload-phase SIC degree follows the estimate, capped at the
    hardware capability ``sic.degree``; the cap event is recorded in the
    broadcast trace record.  A zero estimate with active devices is a valid
    frame with zero successes, not an error.  ``run_session`` passes its
    array state as ``devices``; a list goes through the same adapter as in
    ``run_session``, which writes every device back.  Numpy work is sized by
    the devices and M, Python work by the detected devices.

    ``seed`` is an int, its little-endian uint32 words, or the precomputed
    seed state ``run_session`` passes: ``np.random.default_rng`` builds the
    int's own stream from each.  The frame draws its estimation seed first;
    a state's estimation holder replaces that seed only if it was hashed
    from the seed drawn, and any other is ignored.
    """
    arrays = isinstance(devices, _Devices)
    with contextlib.nullcontext(devices) if arrays else _Devices.of(devices, hyp_cfg.m) as state:
        rng = np.random.default_rng(seed)
        estimation_seed = int(rng.integers(0, 2**63 - 1))
        estimation = getattr(seed, "estimation", None)
        if estimation is None or estimation.seed != estimation_seed:
            estimation = estimation_seed

        active = state.has_data.nonzero()[0]
        rejected = _frame_rejections(active, hyp_cfg, estimation)
        # a false rejection past the last device counts in the estimate only
        estimated = int(np.count_nonzero(rejected))
        # only devices that transmitted a dummy carry a decodable ID, so a
        # rejected hypothesis maps to a detected device only when it is active
        hit = rejected[active]
        detected = active[hit]
        degree_used = min(estimated, sic.degree)
        # every detected device draws from the same -N..N range, so one vector
        # draw gives the values of power_backoff called in detected order
        if detected.size:
            steps = rng.integers(-estimated, estimated + 1, size=detected.size)
            state.power[detected] += steps * policy.delta_db
        if detected.size < active.size:
            state.power[active[~hit]] += policy.slight_increase_db

        # the payload burst is one cluster: every packet spans the same interval
        ids = state.ids
        detected_ids = [*map(ids.__getitem__, detected.tolist())]
        if sic.mode is SicMode.IDEAL:
            successes = detected if detected.size <= degree_used else detected[:0]
        else:
            dbm = state.power[detected].tolist()
            successes = detected[_decode_cluster(dbm, detected_ids, degree_used, sic)]

        state.last_ack[active] = False
        state.last_ack[successes] = True
        state.has_data[successes] = False
        acked_ids = frozenset(map(ids.__getitem__, successes.tolist()))
        detected_set = frozenset(detected_ids)

    if trace is not None:
        transmitters, acked_sorted = sorted(detected_set), sorted(acked_ids)
        details = (
            {"devices": len(ids)},
            {"true_active": active.size, "estimated_count": estimated},
            {
                "detected": transmitters,
                "estimated_count": estimated,
                "capped": estimated > sic.degree,
            },
            {"transmitters": transmitters, "degree_used": degree_used, "successes": acked_sorted},
            {"acked": acked_sorted},
        )
        start = frame_start
        for phase, detail in zip(PHASES, details):
            end = start + getattr(schedule, phase)
            trace.append(TraceEvent(frame_index, phase, start, end, detail))
            start = end

    raw = float(len(acked_ids))
    return FrameResult(
        estimated_count=estimated,
        true_active_count=active.size,
        payload_successes=len(acked_ids),
        acked_device_ids=acked_ids,
        detected_device_ids=detected_set,
        effective_throughput=effective_throughput(raw, schedule),
        raw_throughput=raw,
    )


@dataclass(frozen=True)
class SessionStats:
    """Per-frame means over one session, with 95% half-widths from batch means
    over min(BATCH_COUNT, frames) contiguous runs of frames, since the state
    carries over from frame to frame; a single-frame session reports 0.0."""

    frames: int
    mean_estimated_count: float
    mean_true_active: float
    mean_abs_estimation_error: float
    mean_payload_successes: float
    mean_raw_throughput: float
    mean_effective_throughput: float
    raw_ci_half_width: float
    effective_ci_half_width: float
    error_ci_half_width: float


def run_session(
    frame_count: int,
    activation_probability: float,
    devices: list[DeviceState],
    schedule: FrameSchedule,
    hyp_cfg: HypothesisConfig,
    sic: SicModel,
    policy: BackoffPolicy,
    seed: int,
    trace: list[TraceEvent] | None = None,
) -> SessionStats:
    """Run consecutive frames with carried-over device state.

    Before each frame every idle device turns active with the given
    probability; per-frame seeds derive from the session seed, so the whole
    session is reproducible.  Per-frame rows that cannot be allocated raise
    a MemoryError naming ``frame_count``.

    The device list is checked once, before the first draw, and the frames
    run on arrays of its state; the arrays are written back to the
    ``DeviceState`` objects when the session ends, also when a frame
    raises.  Each frame still goes through the module's ``run_frame``, so
    a per-frame observer can rebind it.  Each frame is seeded from a
    precomputed seed state (``_seeds.frame_states``), which builds the frame
    seed's own generator without hashing the seed per frame.
    """
    if operator.index(frame_count) < 1:
        raise ValueError(f"frame_count must be >= 1, got {frame_count}")
    if not (0.0 <= activation_probability <= 1.0):
        raise ValueError(
            f"activation_probability must be in [0, 1], got {activation_probability!r}"
        )
    # numpy.random, which _seeds needs, loads on first use, not at start-up
    from . import _seeds

    # checked and converted once, before the first draw
    with _Devices.of(devices, hyp_cfg.m) as state:
        rng = np.random.default_rng(seed)
        try:
            frame_seeds = rng.integers(0, 2**63 - 1, size=frame_count)
            # four numbers per frame, not the FrameResults, so a session's memory
            # does not grow with its frame count beyond these rows; run_frame
            # sets raw_throughput to payload_successes, so one row holds both
            per_frame = np.empty((4, frame_count))
        except (MemoryError, ValueError):
            raise MemoryError(f"frame_count: cannot allocate {frame_count} frames") from None
        start = 0.0
        for k, frame_seed in enumerate(_seeds.frame_states(frame_seeds)):
            # one uniform per idle device, in list order
            idle = (~state.has_data).nonzero()[0]
            state.has_data[idle] = rng.random(idle.size) < activation_probability
            r = run_frame(
                state,
                schedule,
                hyp_cfg,
                sic,
                policy,
                seed=frame_seed,
                frame_index=k,
                frame_start=start,
                trace=trace,
            )
            per_frame[:, k] = (
                r.estimated_count,
                r.true_active_count,
                r.raw_throughput,
                r.effective_throughput,
            )
            start += schedule.total

    estimated, true_active, raws, effectives = per_frame
    errors = np.abs(estimated - true_active)
    mean_raw = float(np.mean(raws))
    return SessionStats(
        frames=frame_count,
        mean_estimated_count=float(np.mean(estimated)),
        mean_true_active=float(np.mean(true_active)),
        mean_abs_estimation_error=float(np.mean(errors)),
        mean_payload_successes=mean_raw,
        mean_raw_throughput=mean_raw,
        mean_effective_throughput=float(np.mean(effectives)),
        raw_ci_half_width=batch_half_width(raws),
        effective_ci_half_width=batch_half_width(effectives),
        error_ci_half_width=batch_half_width(errors),
    )


def _format_value(value: object) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.3f}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(str(v) for v in value) + "]"
    return str(value)


def format_trace(events: Iterable[TraceEvent]) -> str:
    """Stable one-line-per-event rendering, used by the golden-file tests."""
    lines = []
    for ev in events:
        detail = " ".join(f"{k}={_format_value(v)}" for k, v in sorted(ev.detail.items()))
        lines.append(
            f"frame={ev.frame} phase={ev.phase} start={ev.start:.3f} end={ev.end:.3f}"
            + (f" {detail}" if detail else "")
        )
    return "\n".join(lines) + "\n"
