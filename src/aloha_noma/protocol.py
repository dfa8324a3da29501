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

import math
import operator
import warnings
from dataclasses import dataclass, field, replace
from typing import Iterable

import numpy as np

from .estimator import HypothesisConfig, simulate_estimation_round
from .simcore import SicModel, Transmission, resolve_sic
from .stats import half_width

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
        if self.overhead >= self.payload:
            warnings.warn(
                "frame overhead is not shorter than the payload phase; "
                "effective throughput will be less than half of raw",
                stacklevel=2,
            )

    @property
    def overhead(self) -> float:
        return self.beacon + self.estimation + self.broadcast + self.ack

    @property
    def total(self) -> float:
        return self.overhead + self.payload


@dataclass(slots=True)
class DeviceState:
    device_id: int
    has_data: bool = False
    tx_power_dbm: float = 0.0
    detected_by_gateway: bool = False
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
        if not (self.delta_db > 0.0):
            raise ValueError(f"delta_db: must be > 0, got {self.delta_db!r}")
        if not (self.slight_increase_db > 0.0):
            raise ValueError(
                f"slight_increase_db: must be > 0, got {self.slight_increase_db!r}"
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
    """Discount raw payload-phase throughput by the frame overhead share."""
    if raw < 0.0:
        raise ValueError(f"raw throughput must be >= 0, got {raw!r}")
    return raw * schedule.payload / schedule.total


def _emit(
    trace: list[TraceEvent] | None,
    frame: int,
    phase: str,
    start: float,
    end: float,
    detail: dict[str, object],
) -> None:
    if trace is not None:
        trace.append(TraceEvent(frame, phase, start, end, detail))


def run_frame(
    devices: list[DeviceState],
    schedule: FrameSchedule,
    hyp_cfg: HypothesisConfig,
    sic: SicModel,
    policy: BackoffPolicy,
    seed: int,
    frame_index: int = 0,
    frame_start: float = 0.0,
    trace: list[TraceEvent] | None = None,
) -> FrameResult:
    """Run one frame, mutating device states (powers, data flags, acks).

    The payload-phase SIC degree follows the estimate, capped at the
    hardware capability ``sic.degree``; the cap event is recorded in the
    broadcast trace record.  A zero estimate with active devices is a valid
    frame with zero successes, not an error.
    """
    if not devices:
        raise ValueError("device list must be non-empty")
    if len(devices) > hyp_cfg.m:
        raise ValueError(
            f"device count {len(devices)} exceeds candidate population {hyp_cfg.m}"
        )
    if len({d.device_id for d in devices}) != len(devices):
        raise ValueError("device ids must be unique")

    rng = np.random.default_rng(seed)
    estimation_seed = int(rng.integers(0, 2**63 - 1))

    t0 = frame_start
    t1 = t0 + schedule.beacon
    t2 = t1 + schedule.estimation
    t3 = t2 + schedule.broadcast
    t4 = t3 + schedule.payload
    t5 = t4 + schedule.ack

    active = [i for i, d in enumerate(devices) if d.has_data]
    _emit(trace, frame_index, "beacon", t0, t1, {"devices": len(devices)})

    outcome = simulate_estimation_round(active, hyp_cfg, estimation_seed)
    _emit(
        trace,
        frame_index,
        "estimation",
        t1,
        t2,
        {"true_active": len(active), "estimated_count": outcome.estimated_count},
    )

    # only devices that transmitted a dummy carry a decodable ID, so a
    # rejected hypothesis maps to a detected device only when it is active
    detected_positions = [i for i in active if i in outcome.rejected]
    detected_ids = sorted(devices[i].device_id for i in detected_positions)
    capped = outcome.estimated_count > sic.degree
    degree_used = min(outcome.estimated_count, sic.degree)
    for i, d in enumerate(devices):
        d.detected_by_gateway = i in outcome.rejected and d.has_data
    for i in detected_positions:
        devices[i].tx_power_dbm = power_backoff(
            devices[i].tx_power_dbm, outcome.estimated_count, policy, rng
        )
    for i in active:
        if i not in outcome.rejected:
            devices[i].tx_power_dbm += policy.slight_increase_db
    _emit(
        trace,
        frame_index,
        "broadcast",
        t2,
        t3,
        {"detected": detected_ids, "estimated_count": outcome.estimated_count, "capped": capped},
    )

    payload_txs = [
        Transmission(
            device_id=devices[i].device_id,
            start_time=t3,
            duration=schedule.payload,
            rx_power_dbm=devices[i].tx_power_dbm,
        )
        for i in detected_positions
    ]
    if payload_txs:
        flags = resolve_sic(payload_txs, replace(sic, degree=degree_used))
    else:
        flags = []
    success_positions = [i for i, ok in zip(detected_positions, flags) if ok]
    _emit(
        trace,
        frame_index,
        "payload",
        t3,
        t4,
        {
            "transmitters": detected_ids,
            "degree_used": degree_used,
            "successes": sorted(devices[i].device_id for i in success_positions),
        },
    )

    acked_ids = frozenset(devices[i].device_id for i in success_positions)
    for i in active:
        acked = i in success_positions
        devices[i].last_ack_received = acked
        if acked:
            devices[i].has_data = False
    _emit(trace, frame_index, "ack", t4, t5, {"acked": sorted(acked_ids)})

    raw = float(len(acked_ids))
    return FrameResult(
        estimated_count=outcome.estimated_count,
        true_active_count=len(active),
        payload_successes=len(acked_ids),
        acked_device_ids=acked_ids,
        detected_device_ids=frozenset(detected_ids),
        effective_throughput=effective_throughput(raw, schedule),
        raw_throughput=raw,
    )


@dataclass(frozen=True)
class SessionStats:
    """Per-frame means (with 95% half-widths) over one session."""

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
    session is reproducible.
    """
    if operator.index(frame_count) < 1:
        raise ValueError(f"frame_count must be >= 1, got {frame_count}")
    if not (0.0 <= activation_probability <= 1.0):
        raise ValueError(
            f"activation_probability must be in [0, 1], got {activation_probability!r}"
        )
    rng = np.random.default_rng(seed)
    frame_seeds = rng.integers(0, 2**63 - 1, size=frame_count)

    results: list[FrameResult] = []
    start = 0.0
    for k in range(frame_count):
        for d in devices:
            if not d.has_data and rng.random() < activation_probability:
                d.has_data = True
        results.append(
            run_frame(
                devices,
                schedule,
                hyp_cfg,
                sic,
                policy,
                seed=int(frame_seeds[k]),
                frame_index=k,
                frame_start=start,
                trace=trace,
            )
        )
        start += schedule.total

    raws = [r.raw_throughput for r in results]
    effectives = [r.effective_throughput for r in results]
    errors = [abs(r.estimated_count - r.true_active_count) for r in results]
    return SessionStats(
        frames=frame_count,
        mean_estimated_count=float(np.mean([r.estimated_count for r in results])),
        mean_true_active=float(np.mean([r.true_active_count for r in results])),
        mean_abs_estimation_error=float(np.mean(errors)),
        mean_payload_successes=float(np.mean([r.payload_successes for r in results])),
        mean_raw_throughput=float(np.mean(raws)),
        mean_effective_throughput=float(np.mean(effectives)),
        raw_ci_half_width=half_width(raws),
        effective_ci_half_width=half_width(effectives),
        error_ci_half_width=half_width(errors),
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
