"""The three benchmark workloads: their CLI steps and generated configs.

A workload is a fixed sequence of ``aloha_noma.cli.main`` steps.  The
workload seed only picks the random streams (and, for the curve, a shift of
the load grid), never a problem size, so every seed costs the same work and
run-to-run spread measures the machine rather than the input.

This module imports nothing from ``aloha_noma``: the parent process uses it
to validate workload names without paying the package's import cost.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

# Same values as the shipped configs/estimator_bench.json, copied so that a
# later edit of the shipped file cannot silently change the benchmark.
ESTIMATOR_BENCH = {
    "m_values": [1, 10, 50],
    "alphas": [0.01, 0.05],
    "snrs": [3.0, 5.0, 10.0],
    "trials": 20000,
    "active_fraction": 0.2,
    "noise_sigma": 1.0,
}

# Same values as the shipped configs/frame_session.json (ideal SIC, 20 devices).
FRAME_SESSION = {
    "devices": 20,
    "activation_probability": 0.25,
    "initial_power_dbm": 0.0,
    "schedule": {"beacon_s": 1.0, "estimation_s": 1.0, "broadcast_s": 1.0, "payload_s": 96.0, "ack_s": 1.0},
    "hypothesis": {"m": 20, "alpha": 0.05, "mean_signal": 8.0, "noise_sigma": 1.0},
    "sic": {"degree": 32, "mode": "ideal"},
    "backoff": {"delta_db": 2.0, "slight_increase_db": 1.0},
}

ANALYTIC_MAX_DEGREE = 200
CURVE_DEGREE = 100
CURVE_POINTS = 2000
CURVE_SPAN = 150.0

# (step name, G, N, SIC mode, horizon); about 1e5 packets each, 4e5 at G = 20
SIMULATIONS = (
    ("simulate.ideal_low_load", 0.5, 1, "ideal", 200_000.0),
    ("simulate.ideal_high_concurrency", 20.0, 32, "ideal", 20_000.0),
    ("simulate.power_low_load", 0.5, 2, "power_aware", 200_000.0),
    ("simulate.power_mid_load", 2.0, 8, "power_aware", 50_000.0),
)
SHADOWING_SIGMA_DB = 6.0
CAPTURE_THRESHOLD_DB = 6.0
NOISE_FLOOR_DBM = -30.0
WARMUP_S = 10.0

WHY = {
    "tables": "analytic G*/S* sweep to N=200 and the vectorized estimator Monte Carlo do the work; simcore and protocol sit idle",
    "channel": "simcore on 1e5-4e5 packet arrays in ideal and power-aware mode; analytic runs one reference call per step",
    "gateway": "simcore and estimator through thousands of tiny per-frame calls plus protocol bookkeeping",
}
WORKLOADS = tuple(WHY)
# end-to-end step rates; each exists only on the workload whose steps feed it
RATES = ("analytic_degrees_per_s", "estimator_tests_per_s", "sim_ideal_packets_per_s",
         "sim_power_packets_per_s", "frames_per_s")


@dataclass
class Step:
    """One CLI invocation; ``argv`` lacks ``--out`` and ``--no-timestamp``.

    ``rate`` names the end-to-end rate the step feeds and ``units`` is its
    work in that rate's unit; ``None`` units are read from the output CSV
    (offered packets of a simulation).
    """

    name: str
    argv: list[str]
    out: str
    rate: str | None = None
    units: float | None = None
    config: dict = field(default_factory=dict)


def _write_config(name: str, cfg: dict) -> str:
    path = f"{name}.json"
    Path(path).write_text(json.dumps(cfg, sort_keys=True), encoding="utf-8")
    return path


def _seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


def _tables(rng: random.Random) -> list[Step]:
    g_min = round(rng.uniform(0.0, 1.0), 6)
    bench_cfg = dict(ESTIMATOR_BENCH, seed=_seed(rng))
    cells = len(bench_cfg["alphas"]) * len(bench_cfg["snrs"])
    tests = 2 * bench_cfg["trials"] * cells * sum(bench_cfg["m_values"])
    return [
        Step(
            "analytic-max",
            ["analytic-max", str(ANALYTIC_MAX_DEGREE)],
            "analytic_max.csv",
            rate="analytic_degrees_per_s",
            units=float(ANALYTIC_MAX_DEGREE),
            config={"n_max": ANALYTIC_MAX_DEGREE},
        ),
        Step(
            "analytic-curve",
            [
                "analytic-curve", str(CURVE_DEGREE),
                "--g-min", repr(g_min),
                "--g-max", repr(g_min + CURVE_SPAN),
                "--points", str(CURVE_POINTS),
            ],
            "analytic_curve.csv",
            config={"degree": CURVE_DEGREE, "g_min": g_min, "g_max": g_min + CURVE_SPAN,
                    "points": CURVE_POINTS},
        ),
        Step(
            "estimator-bench",
            ["estimator-bench", _write_config("estimator_bench", bench_cfg)],
            "estimator_bench.csv",
            rate="estimator_tests_per_s",
            units=float(tests),
            config=bench_cfg,
        ),
    ]


def _channel(rng: random.Random) -> list[Step]:
    steps = []
    for name, g, n, mode, horizon in SIMULATIONS:
        cfg = {
            "offered_load_g": g,
            "packet_duration_s": 1.0,
            "horizon_s": horizon,
            "warmup_s": WARMUP_S,
            "seed": _seed(rng),
            "sic": {"degree": n, "mode": mode, "capture_threshold_db": CAPTURE_THRESHOLD_DB,
                    "noise_floor_dbm": NOISE_FLOOR_DBM},
            "base_power_dbm": 0.0,
            "shadowing_sigma_db": SHADOWING_SIGMA_DB if mode == "power_aware" else 0.0,
        }
        rate = "sim_ideal_packets_per_s" if mode == "ideal" else "sim_power_packets_per_s"
        steps.append(
            Step(name, ["simulate", _write_config(name, cfg)], f"{name}.csv", rate=rate, config=cfg)
        )
    return steps


def _gateway(rng: random.Random) -> list[Step]:
    ideal = dict(FRAME_SESSION, frames=5000, seed=_seed(rng))
    power = dict(
        FRAME_SESSION,
        frames=3000,
        devices=50,
        activation_probability=0.1,
        hypothesis={"m": 50, "alpha": 0.05, "mean_signal": 8.0, "noise_sigma": 1.0},
        sic={"degree": 8, "mode": "power_aware"},
        seed=_seed(rng),
    )
    steps = []
    for name, cfg in (("frame-session.ideal", ideal), ("frame-session.power", power)):
        steps.append(
            Step(
                name,
                ["frame-session", _write_config(name, cfg)],
                f"{name}.csv",
                rate="frames_per_s",
                units=float(cfg["frames"]),
                config=cfg,
            )
        )
    return steps


def build(workload: str, seed: int) -> list[Step]:
    """Write the workload's config files into the current directory and
    return its steps; the same (workload, seed) always gives the same files."""
    rng = random.Random(f"{workload}:{seed}")
    return {"tables": _tables, "channel": _channel, "gateway": _gateway}[workload](rng)
