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


@pytest.fixture
def run_cli(capsys):
    """Run ``main`` in this process; argparse's exit code counts as the return code."""
    def run(*args):
        try:
            code = main(list(args))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return subprocess.CompletedProcess(list(args), code, out, err)
    return run


SUBCOMMANDS = ("calibrate", "tuning-curve", "phase-map", "optimize-compensators",
               "state", "power-sweep", "tomography-demo")


class TestUsage:
    def test_top_level_help(self):
        # the one run through the package entry point
        res = subprocess.run([sys.executable, "-m", "xsplice", "--help"],
                             capture_output=True, text=True)
        assert res.returncode == 0
        assert "usage: xsplice" in res.stdout

    @pytest.mark.parametrize("cmd", SUBCOMMANDS)
    def test_subcommand_help(self, run_cli, cmd):
        assert run_cli(cmd, "--help").returncode == 0

    def test_unknown_flag_exits_64(self, run_cli):
        res = run_cli("calibrate", "--frequency", "100")
        assert res.returncode == 64

    def test_unknown_subcommand_exits_64(self, run_cli):
        assert run_cli("frobnicate").returncode == 64

    def test_missing_config_exits_2(self, run_cli):
        res = run_cli("--config", "/nonexistent/config.ini", "calibrate")
        assert res.returncode == 2
        assert "config error" in res.stderr

    def test_bad_config_value_exits_2(self, run_cli, tmp_path):
        bad = tmp_path / "bad.ini"
        for ini, cmd in (("[fiber]\nlength_m = -1\n", "calibrate"),
                         ("[fiber]\nlength_m = nan\n", "optimize-compensators"),
                         ("[noise]\neta_signal = nan\n", "state"),
                         ("[fiber]\ngamma_per_w_m = inf\n", "state"),
                         ("[spectra]\npump_center_nm = nan\n", "optimize-compensators")):
            bad.write_text(ini)
            res = run_cli("--config", str(bad), cmd)
            assert res.returncode == 2, ini
            assert "config error" in res.stderr, ini

    def test_non_finite_option_exits_64(self, run_cli):
        res = run_cli("state", "--power", "nan")
        assert res.returncode == 64
        assert "finite" in res.stderr

    @pytest.mark.parametrize("args, option", [
        (("calibrate", "--pump", "-5"), "--pump"),
        (("calibrate", "--signal", "0"), "--signal"),
        (("tuning-curve", "--from", "769", "--to", "773", "--steps", "1"), "--steps"),
        (("tuning-curve", "--from", "-1", "--to", "5", "--steps", "3"), "--from"),
        (("phase-map", "--points", "0"), "--points"),
        (("phase-map", "--points", "-3"), "--points"),
        (("state", "--power", "-5"), "--power"),
        (("power-sweep", "--min", "0", "--max", "5", "--steps", "3"), "--min"),
        (("power-sweep", "--min", "1", "--max", "-5", "--steps", "3"), "--max"),
        (("power-sweep", "--min", "1", "--max", "5", "--steps", "0"), "--steps"),
        (("power-sweep", "--min", "1", "--max", "5", "--steps", "-1"), "--steps"),
        (("power-sweep", "--min", "1", "--max", "5", "--steps", "2", "--duration", "-1"),
         "--duration"),
        (("power-sweep", "--min", "1", "--max", "5", "--steps", "2", "--seed", "-1"), "--seed"),
        (("tomography-demo", "--seed", "-1"), "--seed"),
        (("tomography-demo", "--bootstrap", "-1"), "--bootstrap"),
        (("tomography-demo", "--counts-per-setting", "-5"), "--counts-per-setting"),
        (("tomography-demo", "--counts-per-setting", "0"), "--counts-per-setting"),
        (("tomography-demo", "--counts-per-setting", "1e20"), "--counts-per-setting"),
    ])
    def test_out_of_range_option_exits_64(self, run_cli, args, option):
        res = run_cli(*args)
        assert res.returncode == 64
        assert f"argument {option}:" in res.stderr

    @pytest.mark.parametrize("args", [("state", "--power", "0"),
                                      ("tomography-demo", "--counts-per-setting", "1000",
                                       "--bootstrap", "0"),
                                      ("phase-map", "--points", "1")])
    def test_edge_option_values_run(self, run_cli, args):
        assert run_cli(*args).returncode == 0

    def test_numerical_failure_exits_3(self, run_cli):
        res = run_cli("calibrate", "--pump", "771", "--signal", "771")
        assert res.returncode == 3
        assert "numerical failure" in res.stderr


class TestCalibrate:
    def test_json_output(self, run_cli):
        res = run_cli("calibrate", "--pump", "771", "--signal", "670")
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert 2e-4 <= payload["birefringence"] <= 6e-4


class TestTuningCurve:
    def test_row_count(self, run_cli):
        res = run_cli("tuning-curve", "--from", "769", "--to", "773", "--steps", "5")
        assert res.returncode == 0
        lines = res.stdout.strip().splitlines()
        assert lines[0] == "lambda_p_nm,lambda_s_nm,lambda_i_nm,residual_mismatch"
        assert len(lines) == 1 + 5


class TestPhaseMap:
    def test_compensated_output(self, run_cli, tmp_path):
        res = run_cli("--config", str(PAPER_INI), "phase-map", "--compensated",
                      "--points", "41", "--out", str(tmp_path))
        assert res.returncode == 0
        meta = json.loads((tmp_path / "phase_map.json").read_text())
        assert meta["compensated"] is True
        assert meta["peak_to_peak_deg"] <= 10.0
        csv_lines = (tmp_path / "phase_map.csv").read_text().splitlines()
        assert csv_lines[0] == "lambda_s,lambda_p,phase_deg"
        assert len(csv_lines) == 1 + 41 * 41

    def test_one_point_sits_at_the_centres(self, run_cli):
        cfg = load_config(None)
        res = run_cli("phase-map", "--points", "1")
        assert res.returncode == 0
        assert res.stdout.splitlines() == [
            "lambda_s,lambda_p,phase_deg",
            f"{cfg.signal.center_nm!r},{cfg.pump.center_nm!r},0.0"]

    def test_uncompensated_swing(self, run_cli, tmp_path):
        res = run_cli("phase-map", "--points", "41", "--out", str(tmp_path))
        assert res.returncode == 0
        meta = json.loads((tmp_path / "phase_map.json").read_text())
        assert 600.0 <= meta["peak_to_peak_deg"] <= 1000.0


class TestOptimize:
    def test_json_fields(self, run_cli):
        res = run_cli("optimize-compensators")
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["signal_mm"] == pytest.approx(67.3, rel=0.15)
        assert payload["idler_mm"] == pytest.approx(47.6, rel=0.15)
        assert payload["signal_orientation"] == 1
        assert payload["idler_orientation"] == -1
        assert payload["residual_deg"] <= 10.0


class TestState:
    def test_metrics(self, run_cli):
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
    def test_columns(self, run_cli, tmp_path):
        res = run_cli("power-sweep", "--min", "10", "--max", "50", "--steps", "3",
                      "--seed", "9", "--out", str(tmp_path))
        assert res.returncode == 0
        lines = (tmp_path / "power_sweep.csv").read_text().splitlines()
        assert lines[0] == ("power_mW,singles_s,singles_i,coincidences,"
                            "accidentals,car,v_rect,v_diag")
        assert len(lines) == 1 + 3


class TestTomographyDemo:
    def test_outputs(self, run_cli, tmp_path):
        res = run_cli("tomography-demo", "--counts-per-setting", "1000",
                      "--seed", "3", "--out", str(tmp_path))
        assert res.returncode == 0
        metrics = json.loads((tmp_path / "tomography_metrics.json").read_text())
        assert metrics["best_bell_state"] == "psi-"
        assert metrics["fidelity_to_truth"] > 0.95
        counts = (tmp_path / "tomography_counts.csv").read_text().splitlines()
        assert counts[0] == "setting_label,count"
        assert len(counts) == 1 + 36

    def test_state_file_input(self, run_cli, tmp_path):
        run_cli("state", "--power", "30", "--out", str(tmp_path))
        state_file = tmp_path / "state.json"
        payload = json.loads(state_file.read_text())
        (tmp_path / "just_state.json").write_text(json.dumps(payload["state"]))
        res = run_cli("tomography-demo", "--state", str(tmp_path / "just_state.json"),
                      "--counts-per-setting", "1000", "--seed", "4")
        assert res.returncode == 0

    def test_missing_state_file_exits_2(self, run_cli):
        res = run_cli("tomography-demo", "--state", "/nonexistent/state.json")
        assert res.returncode == 2

    @pytest.mark.parametrize("content", ["{}", '{"matrix": [[1, 2]]}'])
    def test_malformed_state_file_exits_2(self, run_cli, tmp_path, content):
        state_file = tmp_path / "state.json"
        state_file.write_text(content)
        res = run_cli("tomography-demo", "--state", str(state_file))
        assert res.returncode == 2
        assert f"config error: state file {state_file}" in res.stderr


class TestMaterialsOverride:
    def test_materials_flag(self, run_cli, tmp_path):
        import shutil
        src = REPO / "src" / "xsplice" / "data" / "materials.json"
        dst = tmp_path / "db.json"
        shutil.copy(src, dst)
        res = run_cli("--materials", str(dst), "calibrate")
        assert res.returncode == 0

    def test_env_var(self, run_cli, tmp_path, monkeypatch):
        import shutil
        src = REPO / "src" / "xsplice" / "data" / "materials.json"
        dst = tmp_path / "db.json"
        shutil.copy(src, dst)
        monkeypatch.setenv("XSPLICE_MATERIALS", str(dst))
        res = run_cli("calibrate")
        assert res.returncode == 0


def test_defaults_mirror_paper_ini():
    assert load_config() == load_config(str(PAPER_INI))
