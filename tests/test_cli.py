import json
import subprocess
import sys
from pathlib import Path

import pytest

from xsplice.cli import main
from xsplice.config import load_config
from xsplice.counts import effective_state_at_power

REPO = Path(__file__).resolve().parents[1]
PAPER_INI = REPO / "configs" / "paper.ini"


def run_cli(*args, **kwargs):
    return subprocess.run([sys.executable, "-m", "xsplice", *args],
                          capture_output=True, text=True, **kwargs)


SUBCOMMANDS = ("calibrate", "tuning-curve", "phase-map", "optimize-compensators",
               "state", "power-sweep", "tomography-demo")


class TestUsage:
    def test_top_level_help(self):
        assert run_cli("--help").returncode == 0

    @pytest.mark.parametrize("cmd", SUBCOMMANDS)
    def test_subcommand_help(self, cmd):
        assert run_cli(cmd, "--help").returncode == 0

    def test_unknown_flag_exits_64(self):
        res = run_cli("calibrate", "--frequency", "100")
        assert res.returncode == 64

    def test_unknown_subcommand_exits_64(self):
        assert run_cli("frobnicate").returncode == 64

    def test_missing_config_exits_2(self):
        res = run_cli("--config", "/nonexistent/config.ini", "calibrate")
        assert res.returncode == 2
        assert "config error" in res.stderr

    def test_bad_config_value_exits_2(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[fiber]\nlength_m = -1\n")
        res = run_cli("--config", str(bad), "calibrate")
        assert res.returncode == 2

    def test_numerical_failure_exits_3(self):
        res = run_cli("calibrate", "--pump", "771", "--signal", "771")
        assert res.returncode == 3
        assert "numerical failure" in res.stderr


class TestCalibrate:
    def test_json_output(self):
        res = run_cli("calibrate", "--pump", "771", "--signal", "670")
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert 2e-4 <= payload["birefringence"] <= 6e-4


class TestTuningCurve:
    def test_row_count(self):
        res = run_cli("tuning-curve", "--from", "769", "--to", "773", "--steps", "5")
        assert res.returncode == 0
        lines = res.stdout.strip().splitlines()
        assert lines[0] == "lambda_p_nm,lambda_s_nm,lambda_i_nm,residual_mismatch"
        assert len(lines) == 1 + 5


class TestPhaseMap:
    def test_compensated_output(self, tmp_path):
        res = run_cli("--config", str(PAPER_INI), "phase-map", "--compensated",
                      "--points", "41", "--out", str(tmp_path))
        assert res.returncode == 0
        meta = json.loads((tmp_path / "phase_map.json").read_text())
        assert meta["compensated"] is True
        assert meta["peak_to_peak_deg"] <= 10.0
        csv_lines = (tmp_path / "phase_map.csv").read_text().splitlines()
        assert csv_lines[0] == "lambda_s,lambda_p,phase_deg"
        assert len(csv_lines) == 1 + 41 * 41

    def test_uncompensated_swing(self, tmp_path):
        res = run_cli("phase-map", "--points", "41", "--out", str(tmp_path))
        assert res.returncode == 0
        meta = json.loads((tmp_path / "phase_map.json").read_text())
        assert 600.0 <= meta["peak_to_peak_deg"] <= 1000.0


class TestOptimize:
    def test_json_fields(self):
        res = run_cli("optimize-compensators")
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["signal_mm"] == pytest.approx(67.3, rel=0.15)
        assert payload["idler_mm"] == pytest.approx(47.6, rel=0.15)
        assert payload["signal_orientation"] == 1
        assert payload["idler_orientation"] == -1
        assert payload["residual_deg"] <= 10.0


class TestState:
    def test_metrics(self):
        res = run_cli("state", "--power", "30")
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["metrics"]["best_bell_fidelity"] == pytest.approx(0.922, abs=1e-6)
        basis = payload["state"]["basis"]
        assert basis == ["HH", "HV", "VH", "VV"]

    def test_uncompensated_honours_power(self, capsys, paper_config):
        def uncompensated(power):
            assert main(["state", "--uncompensated", "--power", power]) == 0
            return json.loads(capsys.readouterr().out)["state"]

        assert uncompensated("10") != uncompensated("50")
        cfg = paper_config
        expected = effective_state_at_power(cfg.noise, cfg.fiber, None, cfg.signal,
                                            cfg.pump, 30.0,
                                            baseline_noise=cfg.baseline_noise)
        assert uncompensated("30") == expected.to_json_dict()


class TestPowerSweep:
    def test_columns(self, tmp_path):
        res = run_cli("power-sweep", "--min", "10", "--max", "50", "--steps", "3",
                      "--seed", "9", "--out", str(tmp_path))
        assert res.returncode == 0
        lines = (tmp_path / "power_sweep.csv").read_text().splitlines()
        assert lines[0] == ("power_mW,singles_s,singles_i,coincidences,"
                            "accidentals,car,v_rect,v_diag")
        assert len(lines) == 1 + 3


class TestTomographyDemo:
    def test_outputs(self, tmp_path):
        res = run_cli("tomography-demo", "--counts-per-setting", "1000",
                      "--seed", "3", "--out", str(tmp_path))
        assert res.returncode == 0
        metrics = json.loads((tmp_path / "tomography_metrics.json").read_text())
        assert metrics["best_bell_state"] == "psi-"
        assert metrics["fidelity_to_truth"] > 0.95
        counts = (tmp_path / "tomography_counts.csv").read_text().splitlines()
        assert counts[0] == "setting_label,count"
        assert len(counts) == 1 + 36

    def test_state_file_input(self, tmp_path):
        run_cli("state", "--power", "30", "--out", str(tmp_path))
        state_file = tmp_path / "state.json"
        payload = json.loads(state_file.read_text())
        (tmp_path / "just_state.json").write_text(json.dumps(payload["state"]))
        res = run_cli("tomography-demo", "--state", str(tmp_path / "just_state.json"),
                      "--counts-per-setting", "1000", "--seed", "4")
        assert res.returncode == 0

    def test_missing_state_file_exits_2(self):
        res = run_cli("tomography-demo", "--state", "/nonexistent/state.json")
        assert res.returncode == 2


class TestMaterialsOverride:
    def test_materials_flag(self, tmp_path):
        import shutil
        src = REPO / "src" / "xsplice" / "data" / "materials.json"
        dst = tmp_path / "db.json"
        shutil.copy(src, dst)
        res = run_cli("--materials", str(dst), "calibrate")
        assert res.returncode == 0

    def test_env_var(self, tmp_path):
        import os
        import shutil
        src = REPO / "src" / "xsplice" / "data" / "materials.json"
        dst = tmp_path / "db.json"
        shutil.copy(src, dst)
        env = dict(os.environ, XSPLICE_MATERIALS=str(dst))
        res = subprocess.run([sys.executable, "-m", "xsplice", "calibrate"],
                             capture_output=True, text=True, env=env)
        assert res.returncode == 0


def test_defaults_mirror_paper_ini():
    assert load_config() == load_config(str(PAPER_INI))
