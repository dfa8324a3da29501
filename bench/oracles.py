"""Correctness oracles for each step's output, independent of the code under test.

Every check returns a list of problem strings; an empty list means the
step's output is correct.  The closed forms come from ``scipy.special``:

* S(G, N) = G * Q(N, 2G), with Q the regularized upper incomplete gamma
  function, and at the optimum G* the stationarity condition
  Q(N, 2G) = (2G)^N e^{-2G} / (N-1)!.
* Bonferroni power Phi(E/sigma - z_{alpha/M}) and family-wise error
  exactly 1 - (1 - alpha/M)^M, both within Monte-Carlo tolerance.

The power-aware channel is checked against a small SINR cancellation chain
written here and run on the same packets ``generate_traffic`` produced.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np
from scipy import special

# Monte-Carlo checks allow this many standard errors (a false alarm is
# then rarer than 1e-5 per run over all cells).
MC_SIGMAS = 5.0
# ideal-mode simulation may sit this many batch-means half-widths off theory
CI_WIDTHS = 3.0


def _rows(csv_bytes: bytes) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(csv_bytes.decode("utf-8"))))


def _close(a: float, b: float, rel: float, abs_tol: float = 0.0) -> bool:
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_tol)


def _s_closed_form(g: float, n: int) -> float:
    return g * float(special.gammaincc(n, 2.0 * g))


def check_analytic_max(step, stdout: str, csv_bytes: bytes) -> list[str]:
    rows = _rows(csv_bytes)
    n_max = step.config["n_max"]
    if [int(r["N"]) for r in rows] != list(range(1, n_max + 1)):
        return [f"expected rows N = 1..{n_max}"]
    problems = []
    for r in rows:
        n, g, s = int(r["N"]), float(r["G_star"]), float(r["S_max"])
        if not _close(s, _s_closed_form(g, n), 1e-10):
            problems.append(f"N={n}: S_max {s!r} != G*Q(N,2G) {_s_closed_form(g, n)!r}")
        q = float(special.gammaincc(n, 2.0 * g))
        slope_term = math.exp(n * math.log(2.0 * g) - 2.0 * g - math.lgamma(n))
        if not _close(q, slope_term, 1e-6):
            problems.append(f"N={n}: G*={g!r} is not stationary ({q!r} vs {slope_term!r})")
    return problems


def check_analytic_curve(step, stdout: str, csv_bytes: bytes) -> list[str]:
    cfg = step.config
    rows = _rows(csv_bytes)
    grid = np.linspace(cfg["g_min"], cfg["g_max"], cfg["points"])
    if len(rows) != grid.size:
        return [f"expected {grid.size} rows, got {len(rows)}"]
    problems = []
    for r, g in zip(rows, grid.tolist()):
        if not _close(float(r["G"]), g, 1e-11, 1e-300):
            problems.append(f"grid point {r['G']} != {g!r}")
        expected = _s_closed_form(g, cfg["degree"])
        if not _close(float(r["S"]), expected, 1e-10, 1e-300):
            problems.append(f"G={g!r}: S {r['S']} != G*Q(N,2G) {expected!r}")
    return problems


def check_estimator_bench(step, stdout: str, csv_bytes: bytes) -> list[str]:
    cfg = step.config
    trials = cfg["trials"]
    rows = _rows(csv_bytes)
    expected_cells = len(cfg["m_values"]) * len(cfg["alphas"]) * len(cfg["snrs"])
    if len(rows) != expected_cells:
        return [f"expected {expected_cells} rows, got {len(rows)}"]
    problems = []
    for r in rows:
        m, alpha, snr = int(r["M"]), float(r["alpha"]), float(r["snr"])
        level = alpha / m
        fwer = 1.0 - (1.0 - level) ** m
        se = math.sqrt(fwer * (1.0 - fwer) / trials)
        if abs(float(r["fwer"]) - fwer) > MC_SIGMAS * se + 1e-12:
            problems.append(f"M={m} alpha={alpha}: fwer {r['fwer']} vs exact {fwer:.6g}")
        active = max(1, round(cfg["active_fraction"] * m))
        power = float(special.ndtr(snr - special.ndtri(1.0 - level)))
        se = math.sqrt(power * (1.0 - power) / (trials * active))
        if abs(float(r["power"]) - power) > MC_SIGMAS * se + 1e-12:
            problems.append(f"M={m} alpha={alpha} snr={snr}: power {r['power']} vs {power:.6g}")
    return problems


def _check_offered(cfg: dict, row: dict[str, str]) -> list[str]:
    offered, succeeded = int(row["offered"]), int(row["succeeded"])
    mean = cfg["offered_load_g"] * (cfg["horizon_s"] - cfg["warmup_s"]) / cfg["packet_duration_s"]
    problems = []
    if abs(offered - mean) > 6.0 * math.sqrt(mean):
        problems.append(f"offered {offered} is not Poisson with mean {mean:g}")
    if not 0 <= succeeded <= offered or row["degenerate"] != "0":
        problems.append(f"bad counts: succeeded {succeeded}, offered {offered}")
    return problems


def check_simulate_ideal(step, stdout: str, csv_bytes: bytes) -> list[str]:
    cfg = step.config
    (row,) = _rows(csv_bytes)
    problems = _check_offered(cfg, row)
    theory = _s_closed_form(cfg["offered_load_g"], cfg["sic"]["degree"])
    measured, half = float(row["normalized_throughput"]), float(row["ci_half_width"])
    if not (half > 0.0 and abs(measured - theory) <= CI_WIDTHS * half):
        problems.append(f"throughput {measured!r} +- {half!r} vs theory {theory!r}")
    reported = json.loads(stdout)["analytic_throughput"]
    if not _close(reported, theory, 1e-10):
        problems.append(f"reported analytic_throughput {reported!r} vs {theory!r}")
    return problems


def reference_power_successes(
    starts: np.ndarray,
    powers_dbm: np.ndarray,
    duration: float,
    degree: int,
    threshold_db: float,
    noise_dbm: float,
) -> tuple[np.ndarray, int]:
    """Success flags of a strongest-first SINR cancellation chain.

    Packets that overlap transitively form one cluster.  Inside it the
    strongest remaining packet is decoded when its power reaches
    threshold * (power of all other remaining packets + noise); the chain
    stops at the first failure or after ``degree`` decodes.  Ties in power
    go to the earlier start, then to the lower index.  Returns the flags
    and the number of decisions whose margin was within 1e-9 of the
    threshold, where summation order may legitimately flip the outcome.
    """
    order = np.lexsort((np.arange(starts.size), starts))
    s = starts[order]
    p = 10.0 ** (powers_dbm[order] / 10.0)
    reach = np.maximum.accumulate(s + duration)
    new_cluster = np.ones(s.size, dtype=bool)
    new_cluster[1:] = s[1:] >= reach[:-1]
    bounds = np.append(np.flatnonzero(new_cluster), s.size)
    noise = 10.0 ** (noise_dbm / 10.0)
    theta = 10.0 ** (threshold_db / 10.0)
    ok = np.zeros(s.size, dtype=bool)
    borderline = 0
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        members = sorted(range(lo, hi), key=lambda i: (-p[i], s[i], i))
        for stage, i in enumerate(members[:degree]):
            others = math.fsum(p[j] for j in members[stage + 1:])
            need = theta * (others + noise)
            if abs(p[i] - need) <= 1e-9 * p[i]:
                borderline += 1
            if p[i] < need:
                break
            ok[i] = True
    flags = np.zeros(s.size, dtype=bool)
    flags[order] = ok
    return flags, borderline


def check_simulate_power(step, stdout: str, csv_bytes: bytes) -> list[str]:
    from aloha_noma import simcore

    cfg = step.config
    (row,) = _rows(csv_bytes)
    problems = _check_offered(cfg, row)
    sic = cfg["sic"]
    config = simcore.SimConfig(
        offered_load_g=cfg["offered_load_g"],
        packet_duration=cfg["packet_duration_s"],
        horizon=cfg["horizon_s"],
        sic=simcore.SicModel(degree=sic["degree"], mode=simcore.SicMode(sic["mode"])),
        seed=cfg["seed"],
        warmup=cfg["warmup_s"],
        base_power_dbm=cfg["base_power_dbm"],
        shadowing_sigma_db=cfg["shadowing_sigma_db"],
    )
    packets = simcore.generate_traffic(config)
    starts = np.array([t.start_time for t in packets])
    powers = np.array([t.rx_power_dbm for t in packets])
    flags, borderline = reference_power_successes(
        starts, powers, cfg["packet_duration_s"], sic["degree"],
        sic["capture_threshold_db"], sic["noise_floor_dbm"],
    )
    measured = starts >= cfg["warmup_s"]
    expected = int((flags & measured).sum())
    succeeded = int(row["succeeded"])
    if int(measured.sum()) != int(row["offered"]):
        problems.append(f"offered {row['offered']} != {int(measured.sum())} generated")
    if abs(succeeded - expected) > borderline * sic["degree"]:
        problems.append(f"succeeded {succeeded} != reference SINR chain {expected}")
    return problems


def check_frame_session(step, stdout: str, csv_bytes: bytes) -> list[str]:
    cfg = step.config
    (row,) = _rows(csv_bytes)
    sched = cfg["schedule"]
    share = sched["payload_s"] / sum(sched.values())
    raw, eff = float(row["mean_raw_throughput"]), float(row["mean_effective_throughput"])
    est, true = float(row["mean_estimated_count"]), float(row["mean_true_active"])
    problems = []
    if int(row["frames"]) != cfg["frames"] or int(row["seed"]) != cfg["seed"]:
        problems.append("frames or seed column does not match the config")
    if not _close(eff, raw * share, 1e-9):
        problems.append(f"mean effective {eff!r} != raw * payload / total {raw * share!r}")
    if not _close(raw, float(row["mean_payload_successes"]), 1e-12):
        problems.append("mean raw throughput != mean payload successes")
    if raw > est + 1e-9:
        problems.append(f"mean acked {raw!r} exceeds mean estimate {est!r}")
    if float(row["mean_abs_estimation_error"]) + 1e-9 < abs(est - true):
        problems.append("mean absolute error below |mean estimate - mean true|")
    return problems


class FrameChecker:
    """Per-frame invariants, observed by wrapping ``run_frame`` from outside:
    acked <= detected <= estimated <= M, detected <= true active, and
    effective = raw * payload / total."""

    def __init__(self) -> None:
        self.problems: list[str] = []

    def wrap(self, run_frame):
        def checked(devices, schedule, hyp_cfg, *args, **kwargs):
            result = run_frame(devices, schedule, hyp_cfg, *args, **kwargs)
            acked, detected = result.acked_device_ids, result.detected_device_ids
            total = (schedule.beacon + schedule.estimation + schedule.broadcast
                     + schedule.payload + schedule.ack)
            if not (acked <= detected and len(detected) <= result.estimated_count <= hyp_cfg.m
                    and len(detected) <= result.true_active_count
                    and result.raw_throughput == len(acked) == result.payload_successes
                    and _close(result.effective_throughput,
                               result.raw_throughput * schedule.payload / total, 1e-12)):
                self.problems.append(f"frame invariant broken: {result!r}")
            return result

        return checked


def check(step, stdout: str, csv_bytes: bytes) -> list[str]:
    """Dispatch to the oracle for the step's command."""
    kind = step.argv[0]
    if kind == "simulate":
        mode = step.config["sic"]["mode"]
        return (check_simulate_ideal if mode == "ideal" else check_simulate_power)(
            step, stdout, csv_bytes
        )
    return {
        "analytic-max": check_analytic_max,
        "analytic-curve": check_analytic_curve,
        "estimator-bench": check_estimator_bench,
        "frame-session": check_frame_session,
    }[kind](step, stdout, csv_bytes)
