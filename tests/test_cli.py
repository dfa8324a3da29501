import json
import math
from pathlib import Path

import pytest

from aloha_noma import cli


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
            ("horizon_s", math.inf, "horizon"),
            ("warmup_s", math.nan, "warmup"),
            ("packet_duration_s", math.inf, "packet_duration"),
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

    @pytest.mark.parametrize(
        "key, value, field",
        [("payload_s", math.inf, "payload"), ("beacon_s", math.inf, "beacon")],
    )
    def test_non_finite_phase_is_rejected(self, capsys, tmp_path, key, value, field):
        bad = dict(SESSION_CONFIG, schedule={key: value})
        cfg = write_config(tmp_path, "bad.json", bad)
        out = tmp_path / "sess.csv"
        code, _, err = run_cli(capsys, "frame-session", cfg, "--out", str(out))
        assert code == 2
        assert err.startswith(f"error: schedule.{field}: phase duration must be finite")
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

    def test_rejects_bad_snr(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "bench.json", dict(BENCH_CONFIG, snrs=[-1.0]))
        code, _, err = run_cli(capsys, "estimator-bench", cfg, "--out", str(tmp_path / "b.csv"))
        assert code == 2
        assert "snrs" in err


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

    def test_out_path_that_is_a_directory_is_rejected(self, capsys, tmp_path):
        code, stdout, err = run_cli(capsys, "analytic-max", "3", "--out", str(tmp_path))
        assert code == 2
        assert err.startswith("error: out:")
        assert str(tmp_path) in err
        assert stdout == ""
