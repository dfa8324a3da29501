import dataclasses
import json
import math
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from enum import Enum
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from aloha_noma import analytic, cli, estimator, protocol, simcore

DATA_DIR = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(path):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    body = [ln for ln in lines if not ln.startswith("#")]
    return body[0], body[1:]


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@contextmanager
def address_space_to_spare(nbytes):
    """Limit this process's address space to its current size plus
    ``nbytes``, so that a larger allocation fails at once."""
    resource = pytest.importorskip("resource")
    status = Path("/proc/self/status")
    if not status.exists():
        pytest.skip("needs /proc/self/status for the process's address-space size")
    with status.open(encoding="ascii") as fh:
        size = next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmSize:"))
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = size + nbytes if hard == resource.RLIM_INFINITY else min(size + nbytes, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def run_python(*argv):
    """Run a fresh interpreter on this source tree, with Python's default
    warning display rather than pytest's capture."""
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, check=True
    )


SIM_CONFIG = {
    "offered_load_g": 0.5,
    "packet_duration_s": 1.0,
    "horizon_s": 50_000.0,
    "warmup_s": 10.0,
    "seed": 5,
    "sic": {"degree": 1, "mode": "ideal"},
}

SESSION_CONFIG = {
    "frames": 60,
    "devices": 5,
    "activation_probability": 0.4,
    "seed": 9,
    "schedule": {"payload_s": 96.0},
    "hypothesis": {"m": 10, "alpha": 0.05, "mean_signal": 20.0, "noise_sigma": 1.0},
    "sic": {"degree": 8},
    "backoff": {"delta_db": 2.0, "slight_increase_db": 1.0},
}

BENCH_CONFIG = {
    "m_values": [1, 10, 50],
    "alphas": [0.05],
    "snrs": [5.0, 10.0],
    "trials": 5000,
    "active_fraction": 0.2,
    "seed": 2,
}


class TestAnalyticMax:
    def test_table_values(self, capsys, tmp_path):
        out = tmp_path / "max.csv"
        code, stdout, _ = run_cli(
            capsys, "analytic-max", "5", "--out", str(out), "--no-timestamp"
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == cli.ANALYTIC_MAX_HEADER
        assert len(rows) == 5
        table = {int(r.split(",")[0]): [float(x) for x in r.split(",")[1:]] for r in rows}
        assert table[1][0] == pytest.approx(0.5, abs=1e-6)
        assert table[2][0] == pytest.approx(0.809, abs=1e-3)
        assert table[3][1] == pytest.approx(0.6856, abs=1e-3)
        assert table[5][1] == pytest.approx(1.27, abs=1e-2)
        summary = json.loads(stdout)
        assert summary["command"] == "analytic-max"
        assert summary["last"]["S_max"] == pytest.approx(1.2718, abs=1e-3)

    def test_timestamp_header_present_by_default(self, capsys, tmp_path):
        out = tmp_path / "max.csv"
        code, _, _ = run_cli(capsys, "analytic-max", "2", "--out", str(out))
        assert code == 0
        first = out.read_text(encoding="utf-8").splitlines()[0]
        assert first.startswith("# generated ")

    def test_rejects_bad_n_max(self, capsys, tmp_path):
        out = tmp_path / "max.csv"
        code, _, err = run_cli(capsys, "analytic-max", "0", "--out", str(out))
        assert code == 2
        assert "n_max" in err
        assert not out.exists()


    @pytest.mark.parametrize("tol", ["0.1", "nan", "inf", "0"])
    def test_rejects_bad_tolerance(self, capsys, tmp_path, tol):
        out = tmp_path / "max.csv"
        code, _, err = run_cli(capsys, "analytic-max", "2", "--tol", tol, "--out", str(out))
        assert code == 2
        assert err.startswith("error: --tol: must be in (0, 1e-3]")
        assert not out.exists()

    def test_rejects_n_max_above_the_bound(self, capsys, tmp_path):
        out = tmp_path / "max.csv"
        n_max = cli.ANALYTIC_MAX_N_MAX + 1
        code, stdout, err = run_cli(capsys, "analytic-max", str(n_max), "--out", str(out))
        assert code == 2
        assert err == f"error: n_max: must be in [1, {cli.ANALYTIC_MAX_N_MAX}], got {n_max}\n"
        assert stdout == ""
        assert not out.exists()

    def test_unallocatable_scan_grids_exit_2(self, capsys, tmp_path, monkeypatch):
        def no_memory(lo, his):
            raise MemoryError

        monkeypatch.setattr(analytic, "_scan_grids", no_memory)
        out = tmp_path / "max.csv"
        code, stdout, err = run_cli(capsys, "analytic-max", "50", "--out", str(out))
        assert code == 2
        assert err.startswith("error: n_max: cannot allocate")
        assert stdout == ""
        assert not out.exists()

    def test_optimizer_failure_names_the_smallest_degree(self, capsys, tmp_path, monkeypatch):
        terms = analytic._derivative_terms

        def corrupted(g, n):
            values, q = terms(g, n)
            values = np.where(np.equal(n, 11), np.cos(g), values)
            return np.where(np.equal(n, 4), -1.0, values), q

        monkeypatch.setattr(analytic, "_derivative_terms", corrupted)
        out = tmp_path / "max.csv"
        code, stdout, err = run_cli(capsys, "analytic-max", "20", "--out", str(out))
        assert code == 1
        assert err == (
            "error: optimizer failed at N=4: no sign change found on (0.01, 40]; "
            "cannot bracket the optimum\n"
        )
        assert stdout == ""
        assert not out.exists()

    def test_outputs_match_pinned_bytes_at_200(self, capsys, tmp_path):
        out = tmp_path / "max.csv"
        code, stdout, err = run_cli(
            capsys, "analytic-max", "200", "--out", str(out), "--no-timestamp"
        )
        assert code == 0, err
        assert out.read_bytes() == (DATA_DIR / "analytic_max_200.csv").read_bytes()
        pinned_stdout = (DATA_DIR / "analytic_max_200.stdout").read_text(encoding="utf-8")
        assert stdout.replace(str(out), "OUT") == pinned_stdout

    def test_every_shorter_table_is_a_prefix_of_the_pinned_one(self, capsys, tmp_path):
        lines = (DATA_DIR / "analytic_max_200.csv").read_text(encoding="utf-8").splitlines()
        out = tmp_path / "max.csv"
        for n_max in range(1, 200):
            code, _, err = run_cli(
                capsys, "analytic-max", str(n_max), "--out", str(out), "--no-timestamp"
            )
            assert code == 0, err
            assert out.read_text(encoding="utf-8").splitlines() == lines[: n_max + 1]


class TestAnalyticCurve:
    def test_peak_location(self, capsys, tmp_path):
        out = tmp_path / "curve.csv"
        code, stdout, _ = run_cli(
            capsys,
            "analytic-curve", "1", "--g-min", "0", "--g-max", "3",
            "--points", "301", "--out", str(out), "--no-timestamp",
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == cli.ANALYTIC_CURVE_HEADER
        assert len(rows) == 301
        parsed = [tuple(map(float, r.split(","))) for r in rows]
        peak = max(parsed, key=lambda gs: gs[1])
        assert peak[0] == pytest.approx(0.5, abs=1e-9)
        summary = json.loads(stdout)
        assert summary["peak"]["G"] == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize(
        "argv",
        [
            ("analytic-curve", "2", "--g-min", "0.809", "--g-max", "0.809", "--points", "2"),
            ("analytic-curve", "2", "--g-min", "0", "--g-max", "1", "--points", "1"),
            ("analytic-curve", "2", "--g-min", "-1", "--g-max", "1", "--points", "5"),
        ],
    )
    def test_validation_precedes_output(self, capsys, tmp_path, argv):
        out = tmp_path / "curve.csv"
        code, _, err = run_cli(capsys, *argv, "--out", str(out))
        assert code == 2
        assert err.startswith("error:")
        assert not out.exists()


    @pytest.mark.parametrize(
        "g_min, g_max, flag",
        [("0", "inf", "--g-max"), ("nan", "1", "--g-min"), ("-inf", "1", "--g-min")],
    )
    def test_non_finite_grid_bound_is_rejected(self, capsys, tmp_path, g_min, g_max, flag):
        out = tmp_path / "curve.csv"
        code, _, err = run_cli(
            capsys, "analytic-curve", "2", f"--g-min={g_min}", f"--g-max={g_max}",
            "--points", "5", "--out", str(out),
        )
        assert code == 2
        assert err.startswith(f"error: {flag}: must be finite")
        assert not out.exists()

    def test_unallocatable_curve_exits_2(self, capsys, tmp_path, monkeypatch):
        def no_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli.analytic, "throughput_curve", no_memory)
        out = tmp_path / "curve.csv"
        code, stdout, err = run_cli(
            capsys, "analytic-curve", "5", "--g-min", "0", "--g-max", "10",
            "--points", "50", "--out", str(out),
        )
        assert code == 2
        assert err == "error: points: cannot allocate 50 loads\n"
        assert stdout == ""
        assert not out.exists()


class TestSimulate:
    def test_matches_classic_aloha(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "sim.json", SIM_CONFIG)
        out = tmp_path / "sim.csv"
        code, stdout, err = run_cli(
            capsys, "simulate", cfg, "--out", str(out), "--no-timestamp"
        )
        assert code == 0
        summary = json.loads(stdout)
        assert summary["mean_throughput"] == pytest.approx(0.18394, abs=0.01)
        assert summary["analytic_throughput"] == pytest.approx(0.18394, abs=1e-4)
        assert 0.9 <= summary["ratio_to_analytic"] <= 1.1
        header, rows = read_csv(out)
        assert header == cli.SIMULATE_HEADER
        assert len(rows) == 1
        assert "seed=5" in err

    def test_power_past_float_overflow_runs(self, capsys, tmp_path):
        loud = dict(SIM_CONFIG, base_power_dbm=4000.0, sic={"degree": 2, "mode": "power_aware"})
        cfg = write_config(tmp_path, "loud.json", loud)
        out = tmp_path / "sim.csv"
        code, stdout, _ = run_cli(capsys, "simulate", cfg, "--out", str(out), "--no-timestamp")
        assert code == 0
        _, rows = read_csv(out)
        assert len(rows) == 1
        assert 0.0 < json.loads(stdout)["mean_throughput"] < 1.0

    @pytest.mark.parametrize(
        "config",
        [
            {"offered_load_g": 1.0, "horizon_s": 1e308, "packet_duration_s": 1e306},
            {"offered_load_g": 1.0, "horizon_s": 1.79e308, "packet_duration_s": 1.7e306},
            {"offered_load_g": 1.0, "horizon_s": 1.79e308, "packet_duration_s": 1.7e306,
             "sic": {"degree": 2, "mode": "power_aware"}},
        ],
        ids=["1e308", "1.79e308-ideal", "1.79e308-power-aware"],
    )
    def test_horizon_near_float_max_runs(self, capsys, tmp_path, config):
        # the gaps of a chunk sum past float range; numpy's overflow warning,
        # an error here, once ended these runs
        cfg = write_config(tmp_path, "max.json", config)
        out = tmp_path / "max.csv"
        code, _, err = run_cli(capsys, "simulate", cfg, "--out", str(out), "--no-timestamp")
        assert code == 0, err
        _, rows = read_csv(out)
        assert all(math.isfinite(float(x)) for x in rows[0].split(","))

    def test_degree_past_int64_runs(self, capsys, tmp_path):
        # a degree above every overlap count decodes every packet; 10**20
        # does not fit int64, so it must be clamped before numpy adds it
        rows = []
        for degree in (10**20, 10**6):
            cfg = write_config(tmp_path, f"deg{degree}.json",
                               dict(SIM_CONFIG, offered_load_g=5.0, horizon_s=2000.0,
                                    sic={"degree": degree, "mode": "ideal"}))
            out = tmp_path / f"deg{degree}.csv"
            code, _, err = run_cli(capsys, "simulate", cfg, "--out", str(out), "--no-timestamp")
            assert code == 0, err
            rows.append(read_csv(out)[1])
        assert rows[0] == rows[1]
        _, offered, succeeded, *_ = rows[0][0].split(",")
        assert offered == succeeded

    def test_validation_error_names_field(self, capsys, tmp_path):
        bad = dict(SIM_CONFIG, offered_load_g=-2.0)
        cfg = write_config(tmp_path, "bad.json", bad)
        out = tmp_path / "sim.csv"
        code, _, err = run_cli(capsys, "simulate", cfg, "--out", str(out))
        assert code == 2
        assert "offered_load_g" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value, field",
        [
            ("horizon_s", math.inf, "horizon_s"),
            ("warmup_s", math.nan, "warmup_s"),
            ("packet_duration_s", math.inf, "packet_duration_s"),
            ("base_power_dbm", math.inf, "base_power_dbm"),
            ("shadowing_sigma_db", math.inf, "shadowing_sigma_db"),
        ],
    )
    def test_non_finite_field_is_rejected(self, capsys, tmp_path, key, value, field):
        bad = dict(SIM_CONFIG, sic={"degree": 2, "mode": "power_aware"}, **{key: value})
        cfg = write_config(tmp_path, "bad.json", bad)
        out = tmp_path / "sim.csv"
        code, _, err = run_cli(capsys, "simulate", cfg, "--out", str(out))
        assert code == 2
        assert err.startswith(f"error: {field}: must be finite")
        assert not out.exists()

    def test_horizon_where_packets_round_to_empty_is_rejected(self, capsys, tmp_path):
        # at 1e17 s the float spacing is 16 s, so a 1 s packet would span nothing
        bad = {"offered_load_g": 1e-15, "horizon_s": 1e17}
        cfg = write_config(tmp_path, "bad.json", bad)
        out = tmp_path / "sim.csv"
        code, _, err = run_cli(capsys, "simulate", cfg, "--out", str(out))
        assert code == 2
        assert err.startswith("error: horizon_s: ")
        assert not out.exists()

    def test_expected_count_past_the_cap_exits_2_before_drawing(self, capsys, tmp_path):
        cap = cli.simcore._MAX_PACKETS
        cfg = write_config(tmp_path, "big.json", {"offered_load_g": 1.0, "horizon_s": cap * 1.001})
        out = tmp_path / "sim.csv"
        start = time.perf_counter()
        code, stdout, err = run_cli(capsys, "simulate", cfg, "--out", str(out))
        assert time.perf_counter() - start < 0.5
        assert code == 2
        assert err.startswith("error: horizon_s: expects ")
        assert stdout == ""
        assert not out.exists()

    def test_expected_count_below_the_cap_passes_validation(self):
        cap = cli.simcore._MAX_PACKETS
        sic = cli._build(cli.simcore.SicModel, {}, "sic", cli.SIC_FIELDS)
        raw = {"offered_load_g": 1.0, "horizon_s": cap * 0.999}
        config = cli._build(cli.simcore.SimConfig, raw, "", cli.SIM_FIELDS, sic=sic, seed=0)
        assert config.horizon == cap * 0.999

    def test_missing_field_diagnostic(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "bad.json", {"offered_load_g": 0.5})
        code, _, err = run_cli(capsys, "simulate", cfg, "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "horizon_s" in err

    def test_replication_seeds_are_documented(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "sim.json", dict(SIM_CONFIG, horizon_s=2000.0))
        out = tmp_path / "sim.csv"
        code, stdout, _ = run_cli(
            capsys, "simulate", cfg, "--out", str(out),
            "--seed", "7", "--replications", "8", "--no-timestamp",
        )
        assert code == 0
        summary = json.loads(stdout)
        assert summary["seeds"] == list(range(7, 15))
        _, rows = read_csv(out)
        assert [int(r.split(",")[0]) for r in rows] == list(range(7, 15))

    def test_appends_to_existing_csv(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "sim.json", dict(SIM_CONFIG, horizon_s=2000.0))
        out = tmp_path / "sim.csv"
        run_cli(capsys, "simulate", cfg, "--out", str(out), "--no-timestamp")
        run_cli(capsys, "simulate", cfg, "--out", str(out), "--seed", "6", "--no-timestamp")
        text = out.read_text(encoding="utf-8")
        assert text.count(cli.SIMULATE_HEADER) == 1
        _, rows = read_csv(out)
        assert len(rows) == 2

    def test_append_after_a_row_without_newline(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "sim.json", dict(SIM_CONFIG, horizon_s=2000.0))
        fresh = tmp_path / "fresh.csv"
        run_cli(capsys, "simulate", cfg, "--out", str(fresh), "--no-timestamp")
        _, [row] = read_csv(fresh)
        out = tmp_path / "app.csv"
        out.write_text(f"{cli.SIMULATE_HEADER}\n1,2,3,4,5,6,0", encoding="utf-8")
        code, _, _ = run_cli(capsys, "simulate", cfg, "--out", str(out), "--no-timestamp")
        assert code == 0
        assert out.read_text(encoding="utf-8") == f"{cli.SIMULATE_HEADER}\n1,2,3,4,5,6,0\n{row}\n"

    def test_refuses_append_under_foreign_header(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "sim.json", dict(SIM_CONFIG, horizon_s=2000.0))
        out = tmp_path / "f.csv"
        assert run_cli(capsys, "analytic-max", "2", "--out", str(out))[0] == 0
        before = out.read_bytes()
        code, _, err = run_cli(capsys, "simulate", cfg, "--out", str(out), "--no-timestamp")
        assert code == 2
        assert err.startswith("error:")
        assert str(out) in err
        assert "seed=" not in err
        assert out.read_bytes() == before


class TestFrameSession:
    def test_all_idle_session(self, capsys, tmp_path):
        idle = dict(SESSION_CONFIG, activation_probability=0.0, frames=50)
        idle["hypothesis"] = dict(idle["hypothesis"], alpha=0.0005)
        cfg = write_config(tmp_path, "idle.json", idle)
        out = tmp_path / "sess.csv"
        code, stdout, _ = run_cli(
            capsys, "frame-session", cfg, "--out", str(out), "--no-timestamp"
        )
        assert code == 0
        record = json.loads(stdout)["records"][0]
        assert record["mean_raw_throughput"] == 0.0
        assert record["mean_effective_throughput"] == 0.0
        assert record["mean_abs_estimation_error"] == 0.0

    def test_high_snr_session_delivers_everyone(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "sess.json", SESSION_CONFIG)
        out = tmp_path / "sess.csv"
        code, stdout, _ = run_cli(
            capsys, "frame-session", cfg, "--out", str(out), "--no-timestamp"
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == cli.FRAME_SESSION_HEADER
        record = json.loads(stdout)["records"][0]
        assert record["mean_abs_estimation_error"] <= 0.1
        assert record["mean_payload_successes"] == pytest.approx(
            record["mean_true_active"], abs=0.05
        )
        assert record["mean_effective_throughput"] == pytest.approx(
            0.96 * record["mean_raw_throughput"], rel=1e-9
        )

    def test_power_past_float_overflow_runs(self, capsys, tmp_path):
        loud = dict(SESSION_CONFIG, initial_power_dbm=4000.0)
        loud["sic"] = {"degree": 8, "mode": "power_aware"}
        cfg = write_config(tmp_path, "loud.json", loud)
        out = tmp_path / "sess.csv"
        code, stdout, _ = run_cli(
            capsys, "frame-session", cfg, "--out", str(out), "--no-timestamp"
        )
        assert code == 0
        record = json.loads(stdout)["records"][0]
        assert record["mean_payload_successes"] <= record["mean_true_active"]

    def test_overhead_dominated_schedule_warns(self, capsys, tmp_path):
        heavy = dict(SESSION_CONFIG, frames=10)
        heavy["schedule"] = {"payload_s": 2.0}
        cfg = write_config(tmp_path, "heavy.json", heavy)
        out = tmp_path / "sess.csv"
        with pytest.warns(UserWarning):
            code = cli.main(
                ["frame-session", cfg, "--out", str(out), "--no-timestamp"]
            )
        captured = capsys.readouterr()
        assert code == 0
        assert "overhead-dominated" in captured.err
        record = json.loads(captured.out)["records"][0]
        assert record["mean_effective_throughput"] <= 0.5 * max(
            record["mean_raw_throughput"], 1e-12
        )

    def test_overhead_warning_is_printed_once(self, tmp_path):
        heavy = {"frames": 3, "devices": 3, "activation_probability": 0.3,
                 "schedule": {"payload_s": 2.0}}
        cfg = write_config(tmp_path, "heavy.json", heavy)
        out = tmp_path / "sess.csv"
        done = run_python("-m", "aloha_noma", "frame-session", cfg, "--out", str(out),
                          "--no-timestamp")
        warned = [ln for ln in done.stderr.splitlines() if "warning" in ln.lower()]
        assert warned == [
            "warning: overhead-dominated schedule; effective throughput is less than half of raw"
        ]

    @pytest.mark.parametrize(
        "key, value, field",
        [("payload_s", math.inf, "payload_s"), ("beacon_s", math.inf, "beacon_s")],
    )
    def test_non_finite_phase_is_rejected(self, capsys, tmp_path, key, value, field):
        bad = dict(SESSION_CONFIG, schedule={key: value})
        cfg = write_config(tmp_path, "bad.json", bad)
        out = tmp_path / "sess.csv"
        code, _, err = run_cli(capsys, "frame-session", cfg, "--out", str(out))
        assert code == 2
        assert err.startswith(f"error: schedule.{field}: phase duration must be finite")
        assert not out.exists()

    def test_payload_near_float_max_gives_finite_throughput(self, capsys, tmp_path):
        # two successes times payload_s leave float range; the share the
        # payload phase takes of the frame does not
        cfg = write_config(tmp_path, "long.json", dict(SESSION_CONFIG, schedule={"payload_s": 1e308}))
        out = tmp_path / "sess.csv"
        code, stdout, _ = run_cli(capsys, "frame-session", cfg, "--out", str(out), "--no-timestamp")
        assert code == 0
        header, rows = read_csv(out)
        column = header.split(",").index("mean_effective_throughput")
        assert rows and all(math.isfinite(float(row.split(",")[column])) for row in rows)

        def refuse(token):
            raise ValueError(f"non-finite JSON constant {token}")

        record = json.loads(stdout, parse_constant=refuse)["records"][0]
        assert record["mean_raw_throughput"] > 0.0
        assert record["mean_effective_throughput"] == record["mean_raw_throughput"]

    def test_phases_summing_past_float_range_are_rejected(self, capsys, tmp_path):
        # the shipped session with two finite phases whose sum is not
        shipped = json.loads((Path(__file__).parents[1] / "configs" / "frame_session.json").read_text())
        shipped["schedule"].update(payload_s=1.7e308, beacon_s=1e308)
        cfg = write_config(tmp_path, "sum.json", shipped)
        out = tmp_path / "sess.csv"
        code, stdout, err = run_cli(capsys, "frame-session", cfg, "--out", str(out))
        assert (code, stdout) == (2, "")
        assert err.splitlines() == [
            "error: schedule.payload_s: phase durations must sum below float max, "
            "got 1.7e+308 in a frame whose phases sum to inf"
        ]
        assert not out.exists()

    def test_refuses_append_under_foreign_header(self, capsys, tmp_path):
        sim_cfg = write_config(tmp_path, "sim.json", dict(SIM_CONFIG, horizon_s=2000.0))
        cfg = write_config(tmp_path, "sess.json", dict(SESSION_CONFIG, frames=5))
        out = tmp_path / "f.csv"
        assert run_cli(capsys, "simulate", sim_cfg, "--out", str(out))[0] == 0
        before = out.read_bytes()
        code, _, err = run_cli(capsys, "frame-session", cfg, "--out", str(out))
        assert code == 2
        assert str(out) in err
        assert "seed=" not in err
        assert out.read_bytes() == before

    def test_rejects_device_overflow(self, capsys, tmp_path):
        bad = dict(SESSION_CONFIG, devices=11)
        cfg = write_config(tmp_path, "bad.json", bad)
        code, _, err = run_cli(capsys, "frame-session", cfg, "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "devices" in err

    def test_unallocatable_device_list_exits_2(self, capsys, tmp_path, monkeypatch):
        def no_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(protocol, "DeviceState", no_memory)
        cfg = write_config(tmp_path, "sess.json", SESSION_CONFIG)
        out = tmp_path / "sess.csv"
        code, stdout, err = run_cli(capsys, "frame-session", cfg, "--out", str(out))
        assert code == 2
        assert err == "error: devices: cannot allocate 5 devices\n"
        assert stdout == ""
        assert not out.exists()


    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("hypothesis", "mean_signal", math.inf),
            ("hypothesis", "noise_sigma", math.inf),
            ("backoff", "delta_db", math.inf),
            ("backoff", "slight_increase_db", math.inf),
            (None, "initial_power_dbm", math.inf),
            (None, "initial_power_dbm", math.nan),
        ],
    )
    def test_non_finite_config_float_is_rejected(self, capsys, tmp_path, section, key, value):
        bad = dict(SESSION_CONFIG, frames=5)
        if section is None:
            bad[key] = value
        else:
            bad[section] = dict(bad[section], **{key: value})
        cfg = write_config(tmp_path, "bad.json", bad)
        out = tmp_path / "sess.csv"
        code, _, err = run_cli(capsys, "frame-session", cfg, "--out", str(out))
        assert code == 2
        field = key if section is None else f"{section}.{key}"
        assert err.startswith(f"error: {field}: must be finite")
        assert not out.exists()


class TestEstimatorBench:
    def test_sweep_schema_and_bounds(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "bench.json", BENCH_CONFIG)
        out = tmp_path / "bench.csv"
        code, stdout, _ = run_cli(
            capsys, "estimator-bench", cfg, "--out", str(out), "--no-timestamp"
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == cli.ESTIMATOR_BENCH_HEADER
        assert len(rows) == 6
        trials = BENCH_CONFIG["trials"]
        for row in rows:
            m, alpha, snr, fwer, power, err_ = row.split(",")
            alpha = float(alpha)
            bound = alpha + 3.0 * math.sqrt(alpha * (1 - alpha) / trials)
            assert float(fwer) <= bound
            if float(snr) >= 10.0:
                assert float(power) >= 0.999
        summary = json.loads(stdout)
        assert summary["rows"] == 6

    def test_bounds_one_window_per_level(self, capsys, tmp_path, monkeypatch):
        # the shipped sweep runs 36 Monte Carlo calls at 5 levels alpha / M:
        # of its 3 M x 2 alpha, 0.01 / 10 and 0.05 / 50 are one float. Each
        # level's window is bounded once, by one erfc over the floats around
        # its threshold. A fresh erfc object keys fresh windows, so none is
        # left over from an earlier test
        shipped = json.loads((Path(__file__).parents[1] / "configs" / "estimator_bench.json").read_text())
        checked = []

        def counting_erfc(x):
            if np.size(x) == 2 * estimator._WINDOW_CHECK + 1:
                checked.append(np.size(x))
            return estimator_special.erfc(x)

        estimator_special = estimator.special
        monkeypatch.setattr(estimator, "special", SimpleNamespace(erfc=counting_erfc))
        code, _, _ = run_cli(
            capsys, "estimator-bench", write_config(tmp_path, "bench.json", shipped),
            "--out", str(tmp_path / "bench.csv"), "--no-timestamp",
        )
        assert code == 0
        levels = {alpha / m for m in shipped["m_values"] for alpha in shipped["alphas"]}
        assert len(checked) == len(levels) == 5

    def test_rejects_bad_snr(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "bench.json", dict(BENCH_CONFIG, snrs=[-1.0]))
        code, _, err = run_cli(capsys, "estimator-bench", cfg, "--out", str(tmp_path / "b.csv"))
        assert code == 2
        assert "snrs" in err

    def test_noise_sigma_past_the_signal_range_is_named(self, capsys, tmp_path):
        # the mean signal is snr * noise_sigma; the user wrote neither inf nor
        # a mean signal, so the message names the two values they wrote
        cfg = write_config(tmp_path, "bench.json", dict(BENCH_CONFIG, noise_sigma=1e308))
        out = tmp_path / "b.csv"
        code, stdout, err = run_cli(capsys, "estimator-bench", cfg, "--out", str(out))
        assert (code, stdout) == (2, "")
        assert err == "error: snrs: 5.0 times noise_sigma 1e+308 leaves float range\n"
        assert not out.exists()


class TestCommonBehaviour:
    def test_unreadable_config(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "simulate", str(tmp_path / "missing.json"),
            "--out", str(tmp_path / "o.csv"),
        )
        assert code == 2
        assert "cannot read config" in err

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, err = run_cli(
            capsys, "simulate", str(path), "--out", str(tmp_path / "o.csv")
        )
        assert code == 2
        assert "not valid JSON" in err

    def test_analytic_commands_refuse_replications(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "analytic-max", "3", "--out", str(tmp_path / "m.csv"),
            "--replications", "2",
        )
        assert code == 2
        assert "replications" in err

    # under 256 MiB of address space to spare, a list of 10**8 or 10**16 seeds
    # fails to allocate at once, and one of 10**19 cannot be sized
    @pytest.mark.parametrize("replications", [10**8, 10**16, 10**19])
    @pytest.mark.parametrize("command", ["simulate", "frame-session"])
    def test_unallocatable_replications_exit_2(self, capsys, tmp_path, command, replications):
        config = SIM_CONFIG if command == "simulate" else SESSION_CONFIG
        out = tmp_path / "r.csv"
        argv = [command, write_config(tmp_path, "r.json", config), "--out", str(out),
                "--replications", str(replications)]
        with address_space_to_spare(256 * 2**20):
            code, stdout, err = run_cli(capsys, *argv)
        assert (code, stdout) == (2, "")
        assert err == f"error: replications: cannot allocate {replications} seeds\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command", ["analytic-max", "analytic-curve", "simulate", "frame-session", "estimator-bench"]
    )
    def test_missing_out_directory_is_rejected(self, capsys, tmp_path, command):
        inputs = {
            "analytic-max": ["3"],
            "analytic-curve": ["2", "--g-min", "0", "--g-max", "1", "--points", "5"],
            "simulate": [write_config(tmp_path, "sim.json", SIM_CONFIG)],
            "frame-session": [write_config(tmp_path, "sess.json", SESSION_CONFIG)],
            "estimator-bench": [write_config(tmp_path, "bench.json", BENCH_CONFIG)],
        }
        missing = tmp_path / "nodir"
        code, stdout, err = run_cli(
            capsys, command, *inputs[command], "--out", str(missing / "x.csv")
        )
        assert code == 2
        assert err.startswith("error:")
        assert str(missing) in err
        assert stdout == ""
        assert not missing.exists()

    def test_one_parser_serves_every_call_of_a_process(self, capsys, tmp_path):
        # a failed parse and a --replications flag leave nothing on the shared
        # parser: each call's CSV and stdout are those of a fresh process
        assert cli.build_parser() is cli.build_parser()
        cfg = write_config(tmp_path, "sim.json", dict(SIM_CONFIG, horizon_s=2000.0))
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", cfg, "--out", str(tmp_path / "x.csv"), "--no-such-flag"])
        assert exc.value.code == 2
        capsys.readouterr()
        runs = {"three.csv": ["--replications", "3"], "one.csv": []}
        in_process = {}
        for name, flags in runs.items():
            out = tmp_path / name
            code, stdout, _ = run_cli(capsys, "simulate", cfg, "--out", str(out), "--no-timestamp",
                                      *flags)
            assert code == 0
            in_process[name] = out.read_bytes(), stdout
            out.unlink()
        for name, flags in runs.items():
            out = tmp_path / name
            fresh = run_python("-m", "aloha_noma", "simulate", cfg, "--out", str(out),
                               "--no-timestamp", *flags)
            assert (out.read_bytes(), fresh.stdout) == in_process[name]
        assert json.loads(in_process["one.csv"][1])["replications"] == 1

    def test_out_path_that_is_a_directory_is_rejected(self, capsys, tmp_path):
        code, stdout, err = run_cli(capsys, "analytic-max", "3", "--out", str(tmp_path))
        assert code == 2
        assert err.startswith("error: out:")
        assert str(tmp_path) in err
        assert stdout == ""


# runs the CLI in a fresh interpreter and prints its peak resident set (KiB)
PEAK_RSS_PROBE = (
    "import resource, sys\n"
    "from aloha_noma import cli\n"
    "code = cli.main(sys.argv[1:])\n"
    "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
)


@pytest.mark.parametrize(
    "config, small, large",
    [
        ({"offered_load_g": 1.0, "seed": 3}, 1e4, 4e6),
        (
            {"offered_load_g": 2.0, "seed": 3, "shadowing_sigma_db": 6.0,
             "sic": {"degree": 8, "mode": "power_aware"}},
            5e3,
            1e6,
        ),
    ],
    ids=["ideal-4e6-packets", "power-aware-2e6-packets"],
)
def test_simulate_memory_stays_flat_as_the_horizon_grows(tmp_path, config, small, large):
    # holding every packet at once would take about 150 MB (ideal) and
    # 85 MB (power-aware) more at the large horizon
    def peak_kib(horizon):
        path = write_config(tmp_path, f"sim-{horizon:g}.json", dict(config, horizon_s=horizon))
        argv = ["simulate", path, "--out", str(tmp_path / f"sim-{horizon:g}.csv")]
        code, peak = run_python("-c", PEAK_RSS_PROBE, *argv).stdout.splitlines()[-1].split()
        assert code == "0"
        return int(peak)

    assert peak_kib(large) - peak_kib(small) < 24 * 1024


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats takes about a second to import; nothing at start-up needs it
    code = "import sys, aloha_noma.cli; print('scipy.stats' in sys.modules)"
    assert run_python("-c", code).stdout.strip() == "False"


def test_import_leaves_numpy_random_unloaded():
    # numpy loads numpy.random on first use, and its import (hashlib and
    # secrets among them) takes about 20 ms that no start-up path needs
    code = "import sys, aloha_noma.cli; print('numpy.random' in sys.modules)"
    assert run_python("-c", code).stdout.strip() == "False"


# These run in fresh interpreters: the test modules have imported
# scipy.special already, so in-process aloha_noma._special took its fallback.
SPECIAL_CHECK = (
    "import scipy.special\n"
    "from aloha_noma import _special, estimator, stats\n"
    "names = ['erfc', 'gammaincc', 'stdtrit', 'xlogy']\n"
    "print(all(getattr(_special, n) is getattr(scipy.special, n) for n in names),\n"
    "      estimator.special is stats.special is _special,\n"
    "      float(scipy.special.gamma(5.0)))\n"
)

# fails the import of scipy.special._ufuncs, only the first time if ONCE
BLOCK_UFUNCS = (
    "import sys\n"
    "class Block:\n"
    "    def find_spec(self, name, path=None, target=None):\n"
    "        if name == 'scipy.special._ufuncs':\n"
    "            if ONCE:\n"
    "                sys.meta_path.remove(self)\n"
    "            raise ImportError(name)\n"
    "sys.meta_path.insert(0, Block())\n"
)


def test_import_leaves_scipy_special_unloaded():
    # scipy.special's array-API layer takes about half of the start-up
    code = (
        "import sys, aloha_noma.cli\n"
        "heavy = ['scipy._lib.array_api_compat', 'scipy.special', 'scipy.stats']\n"
        "print([m for m in heavy if m in sys.modules], 'special' in vars(sys.modules['scipy']))\n"
    )
    assert run_python("-c", code).stdout.strip() == "[] False"


@pytest.mark.parametrize(
    "prelude",
    [
        "import aloha_noma.cli\n",
        # the fallback: no bare package is built once scipy.special is loaded
        "import importlib.util, scipy.special\nimportlib.util.find_spec = None\n",
        # the fallback on an ImportError from the private layout
        "ONCE = True\n" + BLOCK_UFUNCS + "import aloha_noma.cli\n"
        "assert not any(isinstance(f, Block) for f in sys.meta_path)\n",
    ],
    ids=["scipy-special-later", "scipy-special-first", "private-layout-fails"],
)
def test_special_names_are_scipy_specials(prelude):
    assert run_python("-c", prelude + SPECIAL_CHECK).stdout.split() == ["True", "True", "24.0"]


def test_failed_ufuncs_import_leaves_no_bare_scipy_special():
    code = (
        "ONCE = False\n" + BLOCK_UFUNCS + "try:\n"
        "    import aloha_noma._special\n"
        "except ImportError:\n"
        "    print('scipy.special' in sys.modules)\n"
    )
    assert run_python("-c", code).stdout.strip() == "False"


def test_estimator_bench_where_erfc_is_not_monotone(capsys, tmp_path):
    # at alpha / M = 0.19227... scipy's erfc flips the rule back and forth
    # over neighbouring statistics; the run must still decide every test
    cfg = dict(BENCH_CONFIG, m_values=[1], alphas=[0.1922709564203602], snrs=[1.0])
    out = tmp_path / "bench.csv"
    code, _, err = run_cli(
        capsys, "estimator-bench", write_config(tmp_path, "bench.json", cfg), "--out", str(out)
    )
    assert code == 0, err
    assert len(read_csv(out)[1]) == 1


# Small runs of every command whose --no-timestamp CSV bytes and stdout
# (output path written as OUT) are pinned in tests/data/cli_outputs.json.
PINNED_RUNS = {
    "analytic-max": (["analytic-max", "6"], None),
    "analytic-curve": (
        ["analytic-curve", "3", "--g-min", "0.25", "--g-max", "4.25", "--points", "17"], None
    ),
    "simulate-ideal": (
        ["simulate", "--replications", "2"],
        {"offered_load_g": 0.8, "horizon_s": 3000.0, "warmup_s": 10.0, "seed": 4,
         "sic": {"degree": 2}},
    ),
    "simulate-power": (
        ["simulate"],
        {"offered_load_g": 1.5, "horizon_s": 3000.0, "seed": 11, "base_power_dbm": 10.0,
         "shadowing_sigma_db": 6.0,
         "sic": {"degree": 4, "mode": "power_aware", "capture_threshold_db": 3.0,
                 "noise_floor_dbm": -40.0}},
    ),
    "frame-session-ideal": (
        ["frame-session"],
        {"frames": 40, "devices": 8, "activation_probability": 0.3, "seed": 5,
         "hypothesis": {"m": 8, "mean_signal": 6.0}, "sic": {"degree": 3}},
    ),
    "frame-session-power": (
        ["frame-session", "--replications", "2"],
        {"frames": 40, "devices": 8, "activation_probability": 0.3, "seed": 5,
         "initial_power_dbm": 3.0, "hypothesis": {"m": 8, "mean_signal": 6.0},
         "sic": {"degree": 3, "mode": "power_aware"}, "backoff": {"delta_db": 1.5}},
    ),
    # the integer snr 10**13 pins the .12g cell format (1e+13)
    "estimator-bench": (
        ["estimator-bench"],
        {"m_values": [1, 6], "alphas": [0.05, 0.2], "snrs": [3, 10000000000000],
         "trials": 300, "active_fraction": 0.5, "noise_sigma": 0.5, "seed": 8},
    ),
}


def run_pinned(capsys, tmp_path, name):
    argv, config = PINNED_RUNS[name]
    if config is not None:
        argv = [argv[0], write_config(tmp_path, "pinned.json", config), *argv[1:]]
    out = tmp_path / "pinned.csv"
    code, stdout, err = run_cli(capsys, *argv, "--out", str(out), "--no-timestamp")
    assert code == 0, err
    return out.read_bytes().decode("utf-8"), stdout.replace(str(out), "OUT")


@pytest.mark.parametrize("name", sorted(PINNED_RUNS))
def test_outputs_match_pinned_bytes(capsys, tmp_path, name):
    pinned = json.loads(
        (Path(__file__).parent / "data" / "cli_outputs.json").read_text(encoding="utf-8")
    )
    assert run_pinned(capsys, tmp_path, name) == (pinned[name]["csv"], pinned[name]["stdout"])


class _RecordingPool:
    """ThreadPoolExecutor stand-in that records each pool's worker count."""

    def __init__(self, pool_class):
        self.pool_class, self.workers = pool_class, []

    def __call__(self, max_workers):
        self.workers.append(max_workers)
        return self.pool_class(max_workers)


@pytest.mark.parametrize("cpus", [{0}, None], ids=["one-cpu", "all-cpus"])
def test_estimator_bench_bytes_do_not_depend_on_worker_count(capsys, tmp_path, monkeypatch, cpus):
    import concurrent.futures

    pinned = json.loads((DATA_DIR / "cli_outputs.json").read_text(encoding="utf-8"))
    recorder = _RecordingPool(concurrent.futures.ThreadPoolExecutor)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", recorder)
    if cpus is not None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    entry = pinned["estimator-bench"]
    assert run_pinned(capsys, tmp_path, "estimator-bench") == (entry["csv"], entry["stdout"])
    # the pinned run has 4 cells
    assert recorder.workers == [1 if cpus is not None else min(4, cli._usable_cpus())]


def test_estimator_bench_names_the_failing_cell(capsys, tmp_path):
    cfg = write_config(tmp_path, "bench.json", dict(BENCH_CONFIG, m_values=[1, 10**16]))
    out = tmp_path / "bench.csv"
    code, stdout, err = run_cli(capsys, "estimator-bench", cfg, "--out", str(out))
    assert code == 2
    assert err == f"error: trials/m_values: cannot allocate 5000 trials of M = {10**16}\n"
    assert stdout == "" and not out.exists()


# Base configs for the odd-value sweep: small runs that touch every key,
# power-aware so the SINR fields are checked too.
ODD_VALUE_BASES = {
    "simulate": {
        "offered_load_g": 0.5, "packet_duration_s": 1.0, "horizon_s": 2000.0, "warmup_s": 10.0,
        "seed": 1, "base_power_dbm": 0.0, "shadowing_sigma_db": 3.0,
        "sic": {"degree": 2, "mode": "power_aware", "capture_threshold_db": 6.0,
                "noise_floor_dbm": -30.0},
    },
    "frame-session": {
        "frames": 5, "devices": 4, "activation_probability": 0.5, "seed": 1,
        "initial_power_dbm": 0.0,
        "schedule": {"beacon_s": 1.0, "estimation_s": 1.0, "broadcast_s": 1.0,
                     "payload_s": 96.0, "ack_s": 1.0},
        "hypothesis": {"m": 4, "alpha": 0.05, "mean_signal": 5.0, "noise_sigma": 1.0},
        "sic": {"degree": 2, "mode": "power_aware", "capture_threshold_db": 6.0,
                "noise_floor_dbm": -30.0},
        "backoff": {"delta_db": 2.0, "slight_increase_db": 1.0},
    },
    "estimator-bench": {
        "m_values": [1, 3], "alphas": [0.05], "snrs": [3.0], "trials": 50,
        "active_fraction": 0.2, "noise_sigma": 1.0, "seed": 1,
    },
}
# Large valid values (horizon_s 1e12, frames 1e7, ...) are left out on
# purpose: they pass validation but need unbounded memory or time.
ODD_VALUES = [True, "x", None, [], -1, math.nan, -math.inf]


def config_paths(config):
    """Every key path of a config: top-level keys, section keys, list entries."""
    for key, value in config.items():
        yield (key,)
        if isinstance(value, dict):
            yield from ((key, sub) for sub in value)
        elif isinstance(value, list):
            yield (key, 0)


def substituted(config, path, value):
    copy = json.loads(json.dumps(config))
    target = copy
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    return copy


@pytest.mark.parametrize(
    "command, path, value",
    [
        pytest.param(
            command, path, value, id=f"{command}-{'.'.join(map(str, path))}={json.dumps(value)}"
        )
        for command, base in ODD_VALUE_BASES.items()
        for path in config_paths(base)
        for value in ODD_VALUES
    ],
)
def test_every_config_value_runs_or_exits_2(capsys, tmp_path, command, path, value):
    cfg = write_config(tmp_path, "odd.json", substituted(ODD_VALUE_BASES[command], path, value))
    out = tmp_path / "odd.csv"
    code, _, err = run_cli(capsys, command, cfg, "--out", str(out), "--no-timestamp")
    assert code in (0, 2), err
    if code == 2:
        field = next(p for p in reversed(path) if isinstance(p, str)).removesuffix("_s")
        assert err.startswith("error: ") and field in err.splitlines()[0], err
        assert not out.exists()


@pytest.mark.parametrize(
    "command, section",
    [
        pytest.param(command, section, id=f"{command}-{section or 'top'}")
        for command, base in ODD_VALUE_BASES.items()
        for section in ["", *(key for key, value in base.items() if isinstance(value, dict))]
    ],
)
def test_unknown_config_key_exits_2(capsys, tmp_path, command, section):
    config = json.loads(json.dumps(ODD_VALUE_BASES[command]))
    (config[section] if section else config)["unread"] = 1
    cfg = write_config(tmp_path, "unknown.json", config)
    out = tmp_path / "unknown.csv"
    code, stdout, err = run_cli(capsys, command, cfg, "--out", str(out))
    prefix = f"{section}." if section else ""
    assert (code, stdout, err) == (2, "", f"error: {prefix}unread: unknown field\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "extra, field",
    [
        ({"framez": 3}, "framez"),
        ({"hypothesis": {"m": 4, "alpah": 0.9}}, "hypothesis.alpah"),
        # HypothesisConfig takes per-device signals; the CLI never read them
        ({"hypothesis": {"per_device_signal": [1.0, 2.0, 3.0, 4.0]}}, "hypothesis.per_device_signal"),
    ],
    ids=["top-level-typo", "section-typo", "per-device-signal"],
)
def test_misspelled_frame_session_key_is_not_dropped(capsys, tmp_path, extra, field):
    cfg = write_config(tmp_path, "typo.json", dict(ODD_VALUE_BASES["frame-session"], **extra))
    code, stdout, err = run_cli(capsys, "frame-session", cfg, "--out", str(tmp_path / "t.csv"))
    assert (code, stdout, err) == (2, "", f"error: {field}: unknown field\n")


BIG_INT = "1" + "0" * 400


@pytest.mark.parametrize(
    "argv, config, field",
    [
        (["simulate", "--seed", "-1"], ODD_VALUE_BASES["simulate"], "seed"),
        (["simulate"], dict(ODD_VALUE_BASES["simulate"], seed=-1), "seed"),
        (["frame-session", "--seed", "-1"], ODD_VALUE_BASES["frame-session"], "seed"),
        (["estimator-bench", "--seed", "-1"], ODD_VALUE_BASES["estimator-bench"], "seed"),
        (["estimator-bench"], dict(BENCH_CONFIG, alphas=[2.0]), "alphas"),
        (["estimator-bench"], dict(BENCH_CONFIG, alphas=["a"]), "alphas"),
        (["estimator-bench"], dict(BENCH_CONFIG, snrs=["x"]), "snrs"),
        (["estimator-bench"], dict(BENCH_CONFIG, noise_sigma=math.inf), "noise_sigma"),
        (["estimator-bench"], dict(BENCH_CONFIG, snrs=[1e308], noise_sigma=10), "snrs"),
        (["estimator-bench"], dict(BENCH_CONFIG, m_values=[True]), "m_values"),
        (["estimator-bench"], dict(BENCH_CONFIG, alphas=[]), "alphas"),
        (["analytic-curve", "0", "--g-min", "0", "--g-max", "1", "--points", "3"], None, "degree"),
        (["simulate"], f'{{"offered_load_g": 0.5, "horizon_s": {BIG_INT}}}', "horizon_s"),
        (
            ["analytic-curve", "5", "--g-min", "1e16", "--g-max", "1.0000000000000004e16",
             "--points", "100"],
            None,
            "g_min/g_max",
        ),
        # past the 47-bit address space, so each allocation fails at once
        (["frame-session"], dict(ODD_VALUE_BASES["frame-session"], frames=10**16), "frames"),
        (["analytic-curve", "5", "--g-min", "0", "--g-max", "1", "--points", str(10**16)],
         None, "points"),
        (["estimator-bench"], dict(BENCH_CONFIG, trials=10**16), "trials/m_values"),
        (["estimator-bench"], dict(BENCH_CONFIG, m_values=[10**16]), "trials/m_values"),
        (["simulate"], {"offered_load_g": 1000.0, "horizon_s": 1e12}, "horizon_s"),
        (
            ["frame-session"],
            dict(ODD_VALUE_BASES["frame-session"], frames=3,
                 hypothesis=dict(ODD_VALUE_BASES["frame-session"]["hypothesis"], m=10**16)),
            "hypothesis.m",
        ),
        # past 2**63, where numpy rejects the size with a ValueError
        (["frame-session"], dict(ODD_VALUE_BASES["frame-session"], frames=10**19), "frames"),
        (["analytic-curve", "5", "--g-min", "0", "--g-max", "1", "--points", str(10**19)],
         None, "points"),
        (["estimator-bench"], dict(BENCH_CONFIG, trials=10**19), "trials/m_values"),
        (["estimator-bench"], dict(BENCH_CONFIG, m_values=[10**19]), "trials/m_values"),
        (
            ["frame-session"],
            dict(ODD_VALUE_BASES["frame-session"], frames=3,
                 hypothesis=dict(ODD_VALUE_BASES["frame-session"]["hypothesis"], m=10**19)),
            "hypothesis.m",
        ),
        # about 1e19 expected packets, and an infinite expected count
        (["simulate"], {"offered_load_g": 1e16, "horizon_s": 1000}, "horizon_s"),
        (["simulate"], {"offered_load_g": 1e308, "horizon_s": 1e10}, "horizon_s"),
    ],
    ids=[
        "simulate-flag-seed", "simulate-config-seed", "frame-session-seed",
        "estimator-bench-seed", "alpha-above-1", "alpha-string", "snr-string",
        "noise-sigma-infinite", "mean-signal-overflow", "m-bool", "alphas-empty",
        "curve-degree-0",
        "horizon-past-float-range", "curve-grid-rounds-to-repeats", "frames-unallocatable",
        "points-unallocatable", "trials-unallocatable", "m-values-unallocatable",
        "horizon-unallocatable", "hypothesis-m-unallocatable", "frames-past-int64",
        "points-past-int64", "trials-past-int64", "m-values-past-int64",
        "hypothesis-m-past-int64", "load-past-int64-packets", "load-infinite-packets",
    ],
)
def test_former_tracebacks_exit_2(capsys, tmp_path, argv, config, field):
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(config if isinstance(config, str) else json.dumps(config), "utf-8")
        argv = [argv[0], str(path), *argv[1:]]
    out = tmp_path / "out.csv"
    code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
    assert code == 2
    assert err.startswith(f"error: {field}: ")
    assert stdout == ""
    assert not out.exists()


# Per command, each config section with _LIBRARY fields and the constructor
# that owns their defaults; "" is the top level.
LIBRARY_SECTIONS = {
    "simulate": [("", cli.SIM_FIELDS, simcore.SimConfig), ("sic", cli.SIC_FIELDS, simcore.SicModel)],
    "frame-session": [
        ("schedule", cli.SCHEDULE_FIELDS, protocol.FrameSchedule),
        ("backoff", cli.BACKOFF_FIELDS, protocol.BackoffPolicy),
        ("sic", cli.SIC_FIELDS, simcore.SicModel),
    ],
}
# configs that omit every _LIBRARY key
SPARSE_CONFIGS = {
    "simulate": {"offered_load_g": 0.7, "horizon_s": 3000.0, "seed": 2, "sic": {"degree": 2}},
    "frame-session": {
        "frames": 40, "devices": 6, "activation_probability": 0.4, "seed": 1,
        "sic": {"degree": 3},
    },
}


def spelled_out(command, sparse):
    """``sparse`` with each absent key whose constructor argument has a
    default set to that default; every _LIBRARY key is among them."""
    full = json.loads(json.dumps(sparse))
    for section, fields, ctor in LIBRARY_SECTIONS[command]:
        defaults = {f.name: f.default for f in dataclasses.fields(ctor)}
        target = full.setdefault(section, {}) if section else full
        for key, arg, _, default in fields:
            value = defaults.get(arg, dataclasses.MISSING)
            if value is dataclasses.MISSING:
                assert default is not cli._LIBRARY, f"{ctor.__name__}.{arg} has no default"
            else:
                target.setdefault(key, value.value if isinstance(value, Enum) else value)
    return full


@pytest.mark.parametrize("mode", ["default", "power_aware"])
@pytest.mark.parametrize("command", sorted(SPARSE_CONFIGS))
def test_absent_library_keys_take_the_constructor_defaults(capsys, tmp_path, command, mode):
    sparse = json.loads(json.dumps(SPARSE_CONFIGS[command]))
    if mode != "default":
        sparse["sic"]["mode"] = mode
    full = spelled_out(command, sparse)
    assert full != sparse
    outputs = []
    for name, config in (("sparse", sparse), ("full", full)):
        out = tmp_path / f"{name}.csv"
        code, stdout, err = run_cli(
            capsys, command, write_config(tmp_path, f"{name}.json", config), "--out", str(out),
            "--replications", "2", "--no-timestamp",
        )
        assert code == 0, err
        outputs.append((out.read_bytes(), stdout.replace(str(out), "OUT"), err))
    assert outputs[0] == outputs[1]


def test_schedule_keys_are_the_frame_phases():
    assert [key for key, *_ in cli.SCHEDULE_FIELDS] == [f"{phase}_s" for phase in protocol.PHASES]
