"""Experiment runner: analytic tables/curves, channel sims, frame sessions.

Every command validates its inputs before touching the output path, writes
plot-ready CSV, prints one JSON summary record to stdout, and keeps
diagnostics on stderr.  With ``--no-timestamp`` the outputs are
byte-reproducible for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from . import analytic, estimator, protocol, simcore

__all__ = ["ConfigError", "main"]

ANALYTIC_MAX_HEADER = "N,G_star,S_max,deriv_residual"
ANALYTIC_CURVE_HEADER = "G,S"
SIMULATE_HEADER = (
    "seed,offered,succeeded,normalized_throughput,ci_half_width,mean_concurrency,degenerate"
)
FRAME_SESSION_HEADER = (
    "seed,frames,mean_estimated_count,mean_true_active,mean_abs_estimation_error,"
    "mean_payload_successes,mean_raw_throughput,mean_effective_throughput"
)
ESTIMATOR_BENCH_HEADER = "M,alpha,snr,fwer,power,mean_abs_error"


class ConfigError(ValueError):
    """Invalid command arguments or config file; message names the field."""


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _check_out_path(out: Path) -> None:
    if out.is_dir():
        raise ConfigError(f"out: {out} is a directory")
    if not out.parent.is_dir():
        raise ConfigError(f"out: directory {out.parent} does not exist")


def _check_append(path: Path, header: str) -> None:
    """Refuse to append rows under an existing file's different header."""
    if not (path.exists() and path.stat().st_size > 0):
        return
    with path.open(encoding="utf-8", errors="replace") as fh:
        found = next((ln.rstrip("\r\n") for ln in fh if not ln.startswith("#")), None)
    if found != header:
        raise ConfigError(
            f"out: {path} has header {found!r}, not {header!r}; refusing to append"
        )


def _write_csv(path: Path, header: str, rows: list[str], timestamp: bool, append: bool) -> None:
    lines: list[str] = []
    exists = append and path.exists() and path.stat().st_size > 0
    if not exists:
        if timestamp:
            lines.append(f"# generated {datetime.now(timezone.utc).isoformat()}")
        lines.append(header)
    lines.extend(rows)
    mode = "a" if exists else "w"
    with path.open(mode, encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _emit_summary(record: dict[str, Any]) -> None:
    print(json.dumps(record, sort_keys=True))


def _load_config(path: str) -> dict[str, Any]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return cfg


def _get(
    cfg: dict[str, Any],
    key: str,
    kind: type,
    default: Any = None,
    required: bool = False,
) -> Any:
    if key not in cfg:
        if required:
            raise ConfigError(f"{key}: missing required field")
        return default
    value = cfg[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise ConfigError(f"{key}: expected {kind.__name__}, got {value!r}")
    return value


def _sic_from_config(cfg: dict[str, Any]) -> simcore.SicModel:
    raw = cfg.get("sic", {})
    if not isinstance(raw, dict):
        raise ConfigError("sic: expected an object")
    degree = _get(raw, "degree", int, default=1)
    mode_name = _get(raw, "mode", str, default="ideal")
    try:
        mode = simcore.SicMode(mode_name)
    except ValueError:
        raise ConfigError(
            f"sic.mode: expected 'ideal' or 'power_aware', got {mode_name!r}"
        ) from None
    try:
        return simcore.SicModel(
            degree=degree,
            mode=mode,
            capture_threshold_db=_get(raw, "capture_threshold_db", float, default=6.0),
            noise_floor_dbm=_get(raw, "noise_floor_dbm", float, default=-30.0),
        )
    except ValueError as exc:
        raise ConfigError(f"sic.{exc}") from exc


def _seeds(args: argparse.Namespace, cfg_seed: int) -> list[int]:
    base = args.seed if args.seed is not None else cfg_seed
    if args.replications < 1:
        raise ConfigError(f"replications: must be >= 1, got {args.replications}")
    return [base + k for k in range(args.replications)]


def _single_replication(args: argparse.Namespace, command: str) -> None:
    if args.replications != 1:
        raise ConfigError(f"replications: {command} supports a single replication only")


def cmd_analytic_max(args: argparse.Namespace) -> int:
    if args.n_max < 1:
        raise ConfigError(f"n_max: must be >= 1, got {args.n_max}")
    if not (0.0 < args.tol <= 1e-3):
        raise ConfigError(f"--tol: must be in (0, 1e-3], got {args.tol}")
    _single_replication(args, "analytic-max")
    out = Path(args.out)
    rows = []
    results = []
    for n in range(1, args.n_max + 1):
        try:
            res = analytic.max_throughput(n, tol=args.tol)
        except analytic.BracketingError as exc:
            print(f"error: optimizer failed at N={n}: {exc}", file=sys.stderr)
            return 1
        results.append(res)
        rows.append(
            f"{n},{_fmt(res.g_star)},{_fmt(res.s_max)},{_fmt(res.derivative_residual)}"
        )
    _write_csv(out, ANALYTIC_MAX_HEADER, rows, timestamp=not args.no_timestamp, append=False)
    last = results[-1]
    _emit_summary(
        {
            "command": "analytic-max",
            "n_max": args.n_max,
            "out": str(out),
            "rows": len(rows),
            "last": {"N": last.degree, "G_star": last.g_star, "S_max": last.s_max},
        }
    )
    return 0


def cmd_analytic_curve(args: argparse.Namespace) -> int:
    for flag, value in (("--g-min", args.g_min), ("--g-max", args.g_max)):
        if not math.isfinite(value):
            raise ConfigError(f"{flag}: must be finite, got {value}")
    if args.points < 2:
        raise ConfigError(f"points: must be >= 2, got {args.points}")
    if not args.g_min < args.g_max:
        raise ConfigError(
            f"g_min/g_max: need g_min < g_max, got {args.g_min} and {args.g_max}"
        )
    if args.g_min < 0:
        raise ConfigError(f"g_min: must be >= 0, got {args.g_min}")
    _single_replication(args, "analytic-curve")
    grid = np.linspace(args.g_min, args.g_max, args.points)
    curve = analytic.throughput_curve(args.degree, grid.tolist())
    rows = [f"{_fmt(p.g)},{_fmt(p.s)}" for p in curve.points]
    out = Path(args.out)
    _write_csv(out, ANALYTIC_CURVE_HEADER, rows, timestamp=not args.no_timestamp, append=False)
    peak = max(curve.points, key=lambda p: p.s)
    _emit_summary(
        {
            "command": "analytic-curve",
            "N": args.degree,
            "out": str(out),
            "points": len(curve.points),
            "peak": {"G": peak.g, "S": peak.s},
        }
    )
    return 0


def _sim_config_from_file(cfg: dict[str, Any], seed: int) -> simcore.SimConfig:
    try:
        return simcore.SimConfig(
            offered_load_g=_get(cfg, "offered_load_g", float, required=True),
            packet_duration=_get(cfg, "packet_duration_s", float, default=1.0),
            horizon=_get(cfg, "horizon_s", float, required=True),
            sic=_sic_from_config(cfg),
            seed=seed,
            warmup=_get(cfg, "warmup_s", float, default=0.0),
            base_power_dbm=_get(cfg, "base_power_dbm", float, default=0.0),
            shadowing_sigma_db=_get(cfg, "shadowing_sigma_db", float, default=0.0),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    seeds = _seeds(args, _get(cfg, "seed", int, default=0))
    configs = [_sim_config_from_file(cfg, seed) for seed in seeds]
    out = Path(args.out)
    _check_append(out, SIMULATE_HEADER)

    rows = []
    records = []
    for config in configs:
        print(f"simulate: seed={config.seed}", file=sys.stderr)
        stats = simcore.run_simulation(config)
        rows.append(
            f"{config.seed},{stats.offered},{stats.succeeded},"
            f"{_fmt(stats.normalized_throughput)},{_fmt(stats.confidence_half_width)},"
            f"{_fmt(stats.mean_concurrency)},{int(stats.degenerate)}"
        )
        records.append(
            {
                "seed": config.seed,
                "offered": stats.offered,
                "succeeded": stats.succeeded,
                "normalized_throughput": stats.normalized_throughput,
                "ci_half_width": stats.confidence_half_width,
                "mean_concurrency": stats.mean_concurrency,
                "degenerate": stats.degenerate,
            }
        )
    _write_csv(out, SIMULATE_HEADER, rows, timestamp=not args.no_timestamp, append=True)

    summary: dict[str, Any] = {
        "command": "simulate",
        "out": str(out),
        "replications": args.replications,
        "seeds": seeds,
        "records": records,
        "mean_throughput": float(
            np.mean([r["normalized_throughput"] for r in records])
        ),
    }
    first = configs[0]
    if first.sic.mode is simcore.SicMode.IDEAL:
        reference = analytic.throughput(first.offered_load_g, first.sic.degree)
        summary["analytic_throughput"] = reference
        summary["ratio_to_analytic"] = (
            summary["mean_throughput"] / reference if reference > 0 else None
        )
    _emit_summary(summary)
    return 0


def _frame_session_inputs(
    cfg: dict[str, Any],
) -> tuple[int, int, float, protocol.FrameSchedule, estimator.HypothesisConfig, simcore.SicModel, protocol.BackoffPolicy, float]:
    frames = _get(cfg, "frames", int, required=True)
    if frames < 1:
        raise ConfigError(f"frames: must be >= 1, got {frames}")
    device_count = _get(cfg, "devices", int, required=True)
    if device_count < 1:
        raise ConfigError(f"devices: must be >= 1, got {device_count}")
    activation = _get(cfg, "activation_probability", float, required=True)
    if not (0.0 <= activation <= 1.0):
        raise ConfigError(f"activation_probability: must be in [0, 1], got {activation}")

    sched_raw = cfg.get("schedule", {})
    if not isinstance(sched_raw, dict):
        raise ConfigError("schedule: expected an object")
    try:
        schedule = protocol.FrameSchedule(
            beacon=_get(sched_raw, "beacon_s", float, default=1.0),
            estimation=_get(sched_raw, "estimation_s", float, default=1.0),
            broadcast=_get(sched_raw, "broadcast_s", float, default=1.0),
            payload=_get(sched_raw, "payload_s", float, default=96.0),
            ack=_get(sched_raw, "ack_s", float, default=1.0),
        )
    except ValueError as exc:
        raise ConfigError(f"schedule.{exc}") from exc

    hyp_raw = cfg.get("hypothesis", {})
    if not isinstance(hyp_raw, dict):
        raise ConfigError("hypothesis: expected an object")
    try:
        hyp = estimator.HypothesisConfig(
            m=_get(hyp_raw, "m", int, default=max(device_count, 1)),
            alpha=_get(hyp_raw, "alpha", float, default=0.05),
            mean_signal=_get(hyp_raw, "mean_signal", float, default=5.0),
            noise_sigma=_get(hyp_raw, "noise_sigma", float, default=1.0),
        )
    except ValueError as exc:
        raise ConfigError(f"hypothesis.{exc}") from exc
    if device_count > hyp.m:
        raise ConfigError(
            f"devices: count {device_count} exceeds hypothesis.m = {hyp.m}"
        )

    back_raw = cfg.get("backoff", {})
    if not isinstance(back_raw, dict):
        raise ConfigError("backoff: expected an object")
    try:
        policy = protocol.BackoffPolicy(
            delta_db=_get(back_raw, "delta_db", float, default=2.0),
            slight_increase_db=_get(back_raw, "slight_increase_db", float, default=1.0),
        )
    except ValueError as exc:
        raise ConfigError(f"backoff.{exc}") from exc

    initial_power = _get(cfg, "initial_power_dbm", float, default=0.0)
    if not math.isfinite(initial_power):
        raise ConfigError(f"initial_power_dbm: must be finite, got {initial_power}")
    return frames, device_count, activation, schedule, hyp, _sic_from_config(cfg), policy, initial_power


def cmd_frame_session(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    frames, device_count, activation, schedule, hyp, sic, policy, power0 = (
        _frame_session_inputs(cfg)
    )
    seeds = _seeds(args, _get(cfg, "seed", int, default=0))
    out = Path(args.out)
    _check_append(out, FRAME_SESSION_HEADER)

    rows = []
    records = []
    for seed in seeds:
        print(f"frame-session: seed={seed}", file=sys.stderr)
        devices = [
            protocol.DeviceState(device_id=i, tx_power_dbm=power0)
            for i in range(device_count)
        ]
        stats = protocol.run_session(
            frames, activation, devices, schedule, hyp, sic, policy, seed
        )
        rows.append(
            f"{seed},{stats.frames},{_fmt(stats.mean_estimated_count)},"
            f"{_fmt(stats.mean_true_active)},{_fmt(stats.mean_abs_estimation_error)},"
            f"{_fmt(stats.mean_payload_successes)},{_fmt(stats.mean_raw_throughput)},"
            f"{_fmt(stats.mean_effective_throughput)}"
        )
        records.append(
            {
                "seed": seed,
                "frames": stats.frames,
                "mean_estimated_count": stats.mean_estimated_count,
                "mean_true_active": stats.mean_true_active,
                "mean_abs_estimation_error": stats.mean_abs_estimation_error,
                "mean_payload_successes": stats.mean_payload_successes,
                "mean_raw_throughput": stats.mean_raw_throughput,
                "mean_effective_throughput": stats.mean_effective_throughput,
            }
        )
    _write_csv(out, FRAME_SESSION_HEADER, rows, timestamp=not args.no_timestamp, append=True)
    if schedule.overhead >= schedule.payload:
        print(
            "warning: overhead-dominated schedule; effective throughput is "
            "less than half of raw",
            file=sys.stderr,
        )
    _emit_summary(
        {
            "command": "frame-session",
            "out": str(out),
            "replications": args.replications,
            "seeds": seeds,
            "records": records,
            "efficiency": schedule.payload / schedule.total,
        }
    )
    return 0


def cmd_estimator_bench(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    _single_replication(args, "estimator-bench")
    m_values = _get(cfg, "m_values", list, required=True)
    alphas = _get(cfg, "alphas", list, required=True)
    snrs = _get(cfg, "snrs", list, required=True)
    trials = _get(cfg, "trials", int, default=20000)
    if trials < 1:
        raise ConfigError(f"trials: must be >= 1, got {trials}")
    noise_sigma = _get(cfg, "noise_sigma", float, default=1.0)
    active_fraction = _get(cfg, "active_fraction", float, default=0.2)
    if not (0.0 < active_fraction <= 1.0):
        raise ConfigError(f"active_fraction: must be in (0, 1], got {active_fraction}")
    base_seed = args.seed if args.seed is not None else _get(cfg, "seed", int, default=0)

    rows = []
    row_index = 0
    for m in m_values:
        if not isinstance(m, int) or m < 1:
            raise ConfigError(f"m_values: entries must be integers >= 1, got {m!r}")
        for alpha in alphas:
            for snr in snrs:
                if not (float(snr) > 0.0):
                    raise ConfigError(f"snrs: entries must be > 0, got {snr!r}")
                hyp = estimator.HypothesisConfig(
                    m=m,
                    alpha=float(alpha),
                    mean_signal=float(snr) * noise_sigma,
                    noise_sigma=noise_sigma,
                )
                active_count = max(1, round(active_fraction * m))
                null_run = estimator.monte_carlo_estimation(
                    [], hyp, trials, seed=base_seed + 2 * row_index
                )
                active_run = estimator.monte_carlo_estimation(
                    range(active_count), hyp, trials, seed=base_seed + 2 * row_index + 1
                )
                rows.append(
                    f"{m},{_fmt(alpha)},{_fmt(snr)},{_fmt(null_run.fwer)},"
                    f"{_fmt(active_run.power)},{_fmt(active_run.mean_abs_error)}"
                )
                row_index += 1
    out = Path(args.out)
    _write_csv(out, ESTIMATOR_BENCH_HEADER, rows, timestamp=not args.no_timestamp, append=False)
    _emit_summary(
        {
            "command": "estimator-bench",
            "out": str(out),
            "rows": len(rows),
            "trials": trials,
            "seed": base_seed,
        }
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aloha-noma",
        description="Random-access MAC throughput experiments with a SIC gateway",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="base random seed")
    common.add_argument("--out", required=True, help="output CSV path")
    common.add_argument(
        "--replications",
        type=int,
        default=1,
        help="independent runs with seeds base, base+1, ...",
    )
    common.add_argument(
        "--no-timestamp",
        action="store_true",
        help="omit the timestamped CSV header line (reproducible output)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "analytic-max", parents=[common], help="table of (N, G*, S*) maxima"
    )
    p.add_argument("n_max", type=int, help="largest SIC degree to tabulate")
    p.add_argument("--tol", type=float, default=1e-9, help="root-interval tolerance")
    p.set_defaults(func=cmd_analytic_max)

    p = sub.add_parser(
        "analytic-curve", parents=[common], help="throughput curve S(G) for one degree"
    )
    p.add_argument("degree", type=int, help="SIC degree N")
    p.add_argument("--g-min", type=float, required=True)
    p.add_argument("--g-max", type=float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.set_defaults(func=cmd_analytic_curve)

    p = sub.add_parser(
        "simulate", parents=[common], help="channel simulation from a JSON config"
    )
    p.add_argument("config", help="JSON config file path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "frame-session", parents=[common], help="multi-frame protocol session"
    )
    p.add_argument("config", help="JSON config file path")
    p.set_defaults(func=cmd_frame_session)

    p = sub.add_parser(
        "estimator-bench", parents=[common], help="FWER/power sweep of the estimator"
    )
    p.add_argument("config", help="JSON config file path")
    p.set_defaults(func=cmd_estimator_bench)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    func: Callable[[argparse.Namespace], int] = args.func
    try:
        _check_out_path(Path(args.out))
        return func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
