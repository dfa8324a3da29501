"""Experiment runner: analytic tables/curves, channel sims, frame sessions.

Every command validates its inputs before touching the output path, writes
plot-ready CSV, prints one JSON summary record to stdout, and keeps
diagnostics on stderr.  With ``--no-timestamp`` the outputs are
byte-reproducible for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import warnings
from contextlib import contextmanager
from dataclasses import replace
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from . import analytic, estimator, protocol, simcore

__all__ = ["ConfigError", "main"]

ANALYTIC_MAX_HEADER = "N,G_star,S_max,deriv_residual"
# analytic-max scans all degrees in one pass: about 85 loads per degree at
# N = 1e4, so 1..1e4 takes about 0.1 GB and 1..1e5 about 0.65 GB
ANALYTIC_MAX_N_MAX = 10_000
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


# A config field is (JSON key, constructor argument, type, default); the
# _REQUIRED default makes the key mandatory, and an absent _LIBRARY key is
# left to the constructor's own default.
_REQUIRED = object()
_LIBRARY = object()
SIC_FIELDS = (
    ("degree", "degree", int, 1),
    ("mode", "mode", simcore.SicMode, _LIBRARY),
    ("capture_threshold_db", "capture_threshold_db", float, _LIBRARY),
    ("noise_floor_dbm", "noise_floor_dbm", float, _LIBRARY),
)
SIM_FIELDS = (
    ("offered_load_g", "offered_load_g", float, _REQUIRED),
    ("packet_duration_s", "packet_duration", float, 1.0),
    ("horizon_s", "horizon", float, _REQUIRED),
    ("warmup_s", "warmup", float, _LIBRARY),
    ("base_power_dbm", "base_power_dbm", float, _LIBRARY),
    ("shadowing_sigma_db", "shadowing_sigma_db", float, _LIBRARY),
)
SCHEDULE_FIELDS = tuple((f"{phase}_s", phase, float, _LIBRARY) for phase in protocol.PHASES)
# the candidate count "m" defaults to the device count, so each session adds it
HYPOTHESIS_FIELDS = (
    ("alpha", "alpha", float, 0.05),
    ("mean_signal", "mean_signal", float, 5.0),
    ("noise_sigma", "noise_sigma", float, 1.0),
)
BACKOFF_FIELDS = (
    ("delta_db", "delta_db", float, _LIBRARY),
    ("slight_increase_db", "slight_increase_db", float, _LIBRARY),
)
# one estimator-bench cell, read from a copy of the config holding one entry
# of each list; the snr is the mean signal in units of noise_sigma
BENCH_CELL_FIELDS = (
    ("m_values", "m", int, _REQUIRED),
    ("alphas", "alpha", float, _REQUIRED),
    ("snrs", "mean_signal", float, _REQUIRED),
)
# the top-level keys each command reads; any other key is an error
SIMULATE_KEYS = ("seed", "sic", *(key for key, *_ in SIM_FIELDS))
FRAME_SESSION_KEYS = (
    "frames", "devices", "activation_probability", "initial_power_dbm", "seed",
    "schedule", "hypothesis", "backoff", "sic",
)
ESTIMATOR_BENCH_KEYS = (
    "m_values", "alphas", "snrs", "trials", "noise_sigma", "active_fraction", "seed",
)


def _cell(value: Any) -> str:
    """One CSV cell: ints and bools as integers, floats to 12 significant digits."""
    return str(int(value)) if isinstance(value, int) else format(float(value), ".12g")


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


def _write_csv(
    args: argparse.Namespace, header: str, records: list[dict[str, Any]], append: bool = False
) -> None:
    """Write one row per record, its cells in the header's column order."""
    path = args.out
    lines: list[str] = []
    exists = append and path.exists() and path.stat().st_size > 0
    if exists:
        # a last row without its newline would be glued to the first new one
        with path.open("rb") as fh:
            fh.seek(-1, os.SEEK_END)
            if fh.read(1) != b"\n":
                lines.append("")
    else:
        if not args.no_timestamp:
            lines.append(f"# generated {datetime.now(timezone.utc).isoformat()}")
        lines.append(header)
    columns = header.split(",")
    lines.extend(",".join([_cell(record[c]) for c in columns]) for record in records)
    with path.open("a" if exists else "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


@contextmanager
def _undisplayed_warnings() -> Iterator[None]:
    """Issue warnings as usual, so filters and recorders still see them,
    but print none: the CLI reports them on stderr as its own lines."""
    formatwarning = warnings.formatwarning
    warnings.formatwarning = lambda *args, **kwargs: ""
    try:
        yield
    finally:
        warnings.formatwarning = formatwarning


def _emit_summary(record: dict[str, Any]) -> None:
    print(json.dumps(record, sort_keys=True))


def _load_config(path: str, keys: tuple[str, ...]) -> dict[str, Any]:
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
    _reject_unknown(cfg, keys)
    return cfg


def _reject_unknown(raw: dict[str, Any], keys: Sequence[str], prefix: str = "") -> None:
    """Refuse a key that is not in ``keys``, so that a misspelled key is
    not silently replaced by its default."""
    for key in raw:
        if key not in keys:
            raise ConfigError(f"{prefix}{key}: unknown field")


def _get(
    raw: dict[str, Any], key: str, kind: type, default: Any = _REQUIRED, prefix: str = ""
) -> Any:
    """``raw[key]`` checked against ``kind``; errors name ``prefix + key``."""
    if key not in raw:
        if default is _REQUIRED:
            raise ConfigError(f"{prefix}{key}: missing required field")
        return default
    value = raw[key]
    if kind is float and type(value) is int:
        try:
            value = float(value)
        except OverflowError:  # past float range: non-finite, as a finiteness check expects
            value = math.inf if value > 0 else -math.inf
    if issubclass(kind, Enum):
        try:
            return kind(value)
        except ValueError:
            names = " or ".join(repr(member.value) for member in kind)
            raise ConfigError(f"{prefix}{key}: expected {names}, got {value!r}") from None
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ConfigError(f"{prefix}{key}: expected {kind.__name__}, got {value!r}")
    return value


def _build(
    ctor: Callable[..., Any],
    cfg: dict[str, Any],
    section: str,
    fields: tuple[tuple[str, str, type, Any], ...],
    **fixed: Any,
) -> Any:
    """``ctor`` called with the fields read from ``cfg[section]`` (``cfg``
    itself for section ""), less the absent _LIBRARY ones, plus ``fixed``;
    its ValueError becomes a ConfigError under the section prefix, naming
    the JSON key where the message starts with a field's argument.  A
    section may hold only its fields' keys; the top level is checked by
    ``_load_config``."""
    raw = cfg.get(section, {}) if section else cfg
    if not isinstance(raw, dict):
        raise ConfigError(f"{section}: expected an object")
    prefix = f"{section}." if section else ""
    if section:
        _reject_unknown(raw, [key for key, *_ in fields], prefix)
    kwargs = {arg: _get(raw, key, kind, default, prefix) for key, arg, kind, default in fields
              if default is not _LIBRARY or key in raw}
    try:
        return ctor(**kwargs, **fixed)
    except ValueError as exc:
        keys = {arg: key for key, arg, _, _ in fields}
        name, colon, rest = str(exc).partition(":")
        message = f"{keys[name]}:{rest}" if colon and name in keys else str(exc)
        raise ConfigError(f"{prefix}{message}") from exc


def _seeds(args: argparse.Namespace, cfg: dict[str, Any]) -> list[int]:
    cfg_seed = _get(cfg, "seed", int, 0)
    base = args.seed if args.seed is not None else cfg_seed
    if base < 0:
        raise ConfigError(f"seed: must be >= 0, got {base}")
    if args.replications < 1:
        raise ConfigError(f"replications: must be >= 1, got {args.replications}")
    try:
        return list(range(base, base + args.replications))
    # OverflowError: a count past Py_ssize_t cannot size a list
    except (MemoryError, OverflowError):
        raise ConfigError(f"replications: cannot allocate {args.replications} seeds") from None


# the stats field behind each result column named differently
_STATS_FIELDS = {"ci_half_width": "confidence_half_width"}


def _replicate(
    args: argparse.Namespace, header: str, seeds: list[int], run: Callable[[int], Any]
) -> dict[str, Any]:
    """Run each seed, append one row per run and return the summary fields
    that ``simulate`` and ``frame-session`` share.  A row is the seed and
    the fields of the run's stats that the header's other columns name."""
    columns = header.split(",")
    records = []
    for seed in seeds:
        stats = run(seed)
        # printed after the run, so that an allocation error is the first line
        print(f"{args.command}: seed={seed}", file=sys.stderr)
        records.append(
            {c: seed if c == "seed" else getattr(stats, _STATS_FIELDS.get(c, c)) for c in columns}
        )
    _write_csv(args, header, records, append=True)
    return {"command": args.command, "out": str(args.out), "replications": args.replications,
            "seeds": seeds, "records": records}


def _single_replication(args: argparse.Namespace, command: str) -> None:
    if args.replications != 1:
        raise ConfigError(f"replications: {command} supports a single replication only")


def cmd_analytic_max(args: argparse.Namespace) -> int:
    if not (1 <= args.n_max <= ANALYTIC_MAX_N_MAX):
        raise ConfigError(f"n_max: must be in [1, {ANALYTIC_MAX_N_MAX}], got {args.n_max}")
    if not (0.0 < args.tol <= 1e-3):
        raise ConfigError(f"--tol: must be in (0, 1e-3], got {args.tol}")
    _single_replication(args, "analytic-max")
    try:
        results = analytic._max_throughputs(range(1, args.n_max + 1), tol=args.tol)
    except analytic.BracketingError as exc:
        print(f"error: optimizer failed at N={exc.degree}: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        raise ConfigError(f"n_max: cannot allocate the scan of {args.n_max} degrees") from None
    records = [
        {"N": res.degree, "G_star": res.g_star, "S_max": res.s_max,
         "deriv_residual": res.derivative_residual}
        for res in results
    ]
    _write_csv(args, ANALYTIC_MAX_HEADER, records)
    last = records[-1]
    _emit_summary(
        {
            "command": "analytic-max",
            "n_max": args.n_max,
            "out": str(args.out),
            "rows": len(records),
            "last": {"N": last["N"], "G_star": last["G_star"], "S_max": last["S_max"]},
        }
    )
    return 0


def cmd_analytic_curve(args: argparse.Namespace) -> int:
    if args.degree < 1:
        raise ConfigError(f"degree: must be >= 1, got {args.degree}")
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
    try:
        grid = np.linspace(args.g_min, args.g_max, args.points)
    # numpy raises ValueError for a size past its index range
    except (MemoryError, ValueError):
        raise ConfigError(f"points: cannot allocate {args.points} loads") from None
    if not (grid[1:] > grid[:-1]).all():
        raise ConfigError(
            f"g_min/g_max: {args.points} points from {args.g_min} to {args.g_max} "
            "round to repeated loads"
        )
    try:
        curve = analytic.throughput_curve(args.degree, grid.tolist())
        rows = [{"G": p.g, "S": p.s} for p in curve.points]
    except MemoryError:
        raise ConfigError(f"points: cannot allocate {args.points} loads") from None
    _write_csv(args, ANALYTIC_CURVE_HEADER, rows)
    peak = max(curve.points, key=lambda p: p.s)
    _emit_summary(
        {
            "command": "analytic-curve",
            "N": args.degree,
            "out": str(args.out),
            "points": len(curve.points),
            "peak": {"G": peak.g, "S": peak.s},
        }
    )
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config, SIMULATE_KEYS)
    seeds = _seeds(args, cfg)
    sic = _build(simcore.SicModel, cfg, "sic", SIC_FIELDS)
    config = _build(simcore.SimConfig, cfg, "", SIM_FIELDS, sic=sic, seed=seeds[0])
    _check_append(args.out, SIMULATE_HEADER)

    def run(seed: int) -> simcore.SimStats:
        try:
            return simcore.run_simulation(replace(config, seed=seed))
        # a power-aware overlap cluster is held whole, however long it grows
        except MemoryError:
            raise ConfigError(
                f"horizon_s: cannot allocate the packets of {config.horizon!r} s "
                f"at offered_load_g {config.offered_load_g!r}"
            ) from None

    summary = _replicate(args, SIMULATE_HEADER, seeds, run)
    summary["mean_throughput"] = float(
        np.mean([r["normalized_throughput"] for r in summary["records"]])
    )
    if sic.mode is simcore.SicMode.IDEAL:
        reference = analytic.throughput(config.offered_load_g, sic.degree)
        summary["analytic_throughput"] = reference
        summary["ratio_to_analytic"] = (
            summary["mean_throughput"] / reference if reference > 0 else None
        )
    _emit_summary(summary)
    return 0


def cmd_frame_session(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config, FRAME_SESSION_KEYS)
    frames = _get(cfg, "frames", int)
    if frames < 1:
        raise ConfigError(f"frames: must be >= 1, got {frames}")
    device_count = _get(cfg, "devices", int)
    if device_count < 1:
        raise ConfigError(f"devices: must be >= 1, got {device_count}")
    activation = _get(cfg, "activation_probability", float)
    if not (0.0 <= activation <= 1.0):
        raise ConfigError(f"activation_probability: must be in [0, 1], got {activation}")
    # an overhead-dominated schedule gets one "warning:" line below, not
    # also the library's source-located UserWarning
    with _undisplayed_warnings():
        schedule = _build(protocol.FrameSchedule, cfg, "schedule", SCHEDULE_FIELDS)
    hyp = _build(
        estimator.HypothesisConfig, cfg, "hypothesis",
        (("m", "m", int, device_count), *HYPOTHESIS_FIELDS),
    )
    if device_count > hyp.m:
        raise ConfigError(
            f"devices: count {device_count} exceeds hypothesis.m = {hyp.m}"
        )
    policy = _build(protocol.BackoffPolicy, cfg, "backoff", BACKOFF_FIELDS)
    power0 = _get(cfg, "initial_power_dbm", float, 0.0)
    if not math.isfinite(power0):
        raise ConfigError(f"initial_power_dbm: must be finite, got {power0}")
    sic = _build(simcore.SicModel, cfg, "sic", SIC_FIELDS)
    seeds = _seeds(args, cfg)
    _check_append(args.out, FRAME_SESSION_HEADER)

    def run(seed: int) -> protocol.SessionStats:
        try:
            devices = [
                protocol.DeviceState(device_id=i, tx_power_dbm=power0)
                for i in range(device_count)
            ]
        except MemoryError:
            raise ConfigError(f"devices: cannot allocate {device_count} devices") from None
        try:
            return protocol.run_session(
                frames, activation, devices, schedule, hyp, sic, policy, seed
            )
        except (MemoryError, ValueError) as exc:
            # run_session names frame_count where its per-frame rows fail; any
            # other allocation is one of a frame's M-sized arrays
            if str(exc).startswith("frame_count:"):
                raise ConfigError(f"frames: cannot allocate {frames} frames") from None
            raise ConfigError(
                f"hypothesis.m: cannot allocate a frame's arrays of M = {hyp.m}"
            ) from None

    summary = _replicate(args, FRAME_SESSION_HEADER, seeds, run)
    if schedule.overhead >= schedule.payload:
        print(
            "warning: overhead-dominated schedule; effective throughput is "
            "less than half of raw",
            file=sys.stderr,
        )
    summary["efficiency"] = schedule.payload / schedule.total
    _emit_summary(summary)
    return 0


def _bench_cell(
    m: int, alpha: float, mean_signal: float, noise_sigma: float
) -> tuple[float, estimator.HypothesisConfig]:
    """The snr and hypothesis setup of one estimator-bench cell, whose mean
    signal is given in units of ``noise_sigma``: that is its snr.  A valid
    snr whose product with ``noise_sigma`` leaves float range is rejected
    naming both."""
    signal = mean_signal * noise_sigma
    if 0.0 < mean_signal < math.inf and not 0.0 < signal < math.inf:
        raise ValueError(
            f"mean_signal: {mean_signal!r} times noise_sigma {noise_sigma!r} leaves float range"
        )
    return mean_signal, estimator.HypothesisConfig(m, alpha, signal, noise_sigma)


def _usable_cpus() -> int:
    """CPUs this process may run on (all CPUs where affinity is unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cmd_estimator_bench(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config, ESTIMATOR_BENCH_KEYS)
    _single_replication(args, "estimator-bench")
    m_values, alphas, snrs = (_get(cfg, key, list) for key in ("m_values", "alphas", "snrs"))
    for key, values in zip(("m_values", "alphas", "snrs"), (m_values, alphas, snrs)):
        if not values:
            raise ConfigError(f"{key}: must hold at least one entry")
    trials = _get(cfg, "trials", int, 20000)
    if trials < 1:
        raise ConfigError(f"trials: must be >= 1, got {trials}")
    noise_sigma = _get(cfg, "noise_sigma", float, 1.0)
    if not (0.0 < noise_sigma < math.inf):
        raise ConfigError(f"noise_sigma: must be finite and > 0, got {noise_sigma}")
    active_fraction = _get(cfg, "active_fraction", float, 0.2)
    if not (0.0 < active_fraction <= 1.0):
        raise ConfigError(f"active_fraction: must be in (0, 1], got {active_fraction}")
    base_seed = _seeds(args, cfg)[0]
    cells = [
        _build(_bench_cell, {"m_values": m, "alphas": alpha, "snrs": snr}, "",
               BENCH_CELL_FIELDS, noise_sigma=noise_sigma)
        for m in m_values for alpha in alphas for snr in snrs
    ]

    def run_cell(row_index: int, cell: tuple[float, estimator.HypothesisConfig]) -> dict:
        snr, hyp = cell
        active = range(max(1, round(active_fraction * hyp.m)))
        seed = base_seed + 2 * row_index
        try:
            null_run = estimator.monte_carlo_estimation([], hyp, trials, seed=seed)
            active_run = estimator.monte_carlo_estimation(active, hyp, trials, seed=seed + 1)
        except (MemoryError, ValueError):
            raise ConfigError(
                f"trials/m_values: cannot allocate {trials} trials of M = {hyp.m}"
            ) from None
        return {"M": hyp.m, "alpha": hyp.alpha, "snr": snr, "fwer": null_run.fwer,
                "power": active_run.power, "mean_abs_error": active_run.mean_abs_error}

    # Each cell seeds its own streams and numpy fills normals without the
    # GIL, so the cells run on every usable CPU; map keeps the row order.
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(max(1, min(len(cells), _usable_cpus())))
    try:
        records = list(pool.map(run_cell, range(len(cells)), cells))
    finally:
        pool.shutdown(cancel_futures=True)
    _write_csv(args, ESTIMATOR_BENCH_HEADER, records)
    _emit_summary(
        {
            "command": "estimator-bench",
            "out": str(args.out),
            "rows": len(records),
            "trials": trials,
            "seed": base_seed,
        }
    )
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one in the process; parsing leaves no state on it."""
    parser = argparse.ArgumentParser(
        prog="aloha-noma",
        description="Random-access MAC throughput experiments with a SIC gateway",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="base random seed")
    common.add_argument("--out", type=Path, required=True, help="output CSV path")
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
    args = build_parser().parse_args(argv)
    try:
        _check_out_path(args.out)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
