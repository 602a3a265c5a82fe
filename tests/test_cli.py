import configparser
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from xsplice.cli import _write_csv, main
from xsplice.config import DEFAULTS, load_config
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
#: the smallest runs of the two commands that read every ``[noise]`` key
NOISE_COMMANDS = (("state",), ("power-sweep", "--min", "1", "--max", "2", "--steps", "2"))


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

    @pytest.mark.parametrize("ini, message", [
        ("[compensators]\nsignal_orientation = 2\n",
         "invalid configuration: orientation_sign must be +1 or -1, got 2"),
        ("[compensators]\nsignal_orientation = x\n", "orientation must be +1 or -1, got 'x'"),
        ("[fiber]\ncore = nope\n", "unknown core material 'nope'"),
        ("[compensators]\nmaterial = fused_silica\n",
         "material database lacks 'fused_silica_o'/'fused_silica_e'"),
        ("[noise]\nbaseline_noise = 1\n", "baseline_noise must be in [0, 1), got 1.0"),
    ], ids=["orientation-2", "orientation-x", "core", "no-rays", "baseline-1"])
    def test_invalid_config_key_exits_2(self, run_cli, tmp_path, ini, message):
        bad = tmp_path / "bad.ini"
        bad.write_text(ini)
        res = run_cli("--config", str(bad), "calibrate")
        assert res.returncode == 2
        assert res.stderr == f"config error: {message}\n"

    @pytest.mark.parametrize("cmd", NOISE_COMMANDS, ids=["state", "power-sweep"])
    def test_zero_rep_rate_exits_2(self, run_cli, tmp_path, cmd):
        # the accidentals divide by the pulse rate
        bad = tmp_path / "bad.ini"
        bad.write_text("[noise]\nrep_rate_hz = 0\n")
        res = run_cli("--config", str(bad), *cmd)
        assert res.returncode == 2
        assert res.stderr == "config error: invalid configuration: rep_rate_hz must be > 0\n"

    @pytest.mark.parametrize("key", DEFAULTS["noise"])
    def test_zero_noise_key_ends_with_a_documented_exit(self, run_cli, tmp_path, key):
        ini = tmp_path / "zero.ini"
        ini.write_text(f"[noise]\n{key} = 0\n")
        for cmd in NOISE_COMMANDS:
            assert run_cli("--config", str(ini), *cmd).returncode in (0, 2, 3), cmd

    @pytest.mark.parametrize("content", [b"length_m = 0.2\n",
                                         b"[fiber]\nlength_m = 0.2\nlength_m = 0.3\n",
                                         b"[fiber]\nlength_m\n",
                                         b"[fiber]\ncore = s\xe9lica\n"],
                             ids=["no-section", "duplicate", "no-value", "not-utf8"])
    def test_unparsable_config_exits_2(self, run_cli, tmp_path, content):
        bad = tmp_path / "bad.ini"
        bad.write_bytes(content)
        res = run_cli("--config", str(bad), "calibrate")
        assert res.returncode == 2
        assert f"config error: cannot parse config file {bad}" in res.stderr

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
        (("tomography-demo", "--bootstrap", "1"), "--bootstrap"),
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

    def test_pump_window_past_the_model_exits_3(self, run_cli, tmp_path):
        # the broadened pump window leaves the Sellmeier range at 5000 mW and
        # reaches non-positive wavelengths at 7000 mW or a 200 nm FWHM: the
        # same model failure either way
        wide = tmp_path / "wide.ini"
        wide.write_text("[spectra]\npump_fwhm_nm = 200\n")
        for args in (("state", "--power", "5000"), ("state", "--power", "7000"),
                     ("--config", str(wide), "state")):
            res = run_cli(*args)
            assert res.returncode == 3, args
            assert "numerical failure: wavelength" in res.stderr, args


#: subcommand -> (arguments, the artefacts it writes into ``--out``); the first
#: one holds what the command prints to stdout without ``--out``
OUT_RUNS = {
    "calibrate": ((), ("calibration.json",)),
    "tuning-curve": (("--from", "769", "--to", "773", "--steps", "3"), ("tuning_curve.csv",)),
    "phase-map": (("--points", "5"), ("phase_map.csv", "phase_map.json")),
    "optimize-compensators": ((), ("compensators.json",)),
    "state": ((), ("state.json",)),
    "power-sweep": (("--min", "1", "--max", "2", "--steps", "2"), ("power_sweep.csv",)),
    "tomography-demo": (("--counts-per-setting", "1000"),
                        ("tomography_metrics.json", "tomography_counts.csv",
                         "tomography_state.json")),
}


@pytest.mark.parametrize("cmd", SUBCOMMANDS)
def test_out_writes_the_artefacts_and_prints_nothing(run_cli, tmp_path, cmd):
    args, files = OUT_RUNS[cmd]
    res = run_cli(cmd, *args, "--out", str(tmp_path / "out"))
    assert res.returncode == 0
    assert res.stdout == ""
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == sorted(files)
    assert (tmp_path / "out" / files[0]).read_text() == run_cli(cmd, *args).stdout


class TestCalibrate:
    def test_json_output(self, run_cli):
        res = run_cli("calibrate", "--pump", "771", "--signal", "670")
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert 2e-4 <= payload["birefringence"] <= 6e-4

    def test_defaults_to_the_config_centres(self, run_cli, tmp_path):
        golden = (REPO / "tests" / "golden" / "calibrate" / "stdout").read_text()
        assert run_cli("calibrate").stdout == golden
        shifted = tmp_path / "shifted.ini"
        shifted.write_text("[spectra]\npump_center_nm = 775\n")
        res = run_cli("--config", str(shifted), "calibrate")
        assert res.returncode == 0
        assert res.stdout == run_cli("calibrate", "--pump", "775", "--signal", "670").stdout
        assert json.loads(res.stdout)["pump_nm"] == 775.0

    def test_target_at_the_pump_needs_b_zero(self, run_cli):
        res = run_cli("calibrate", "--pump", "771", "--signal", "771")
        assert res.returncode == 3
        assert res.stderr == ("numerical failure: target 771 nm needs B = 0, outside "
                              "[1e-05, 0.001]; widen the range\n")


class TestTuningCurve:
    def test_row_count(self, run_cli):
        res = run_cli("tuning-curve", "--from", "769", "--to", "773", "--steps", "5")
        assert res.returncode == 0
        lines = res.stdout.strip().splitlines()
        assert lines[0] == "lambda_p_nm,lambda_s_nm,lambda_i_nm,residual_mismatch"
        assert len(lines) == 1 + 5

    def test_unsolvable_pumps_are_named(self, run_cli):
        # no phase-matched signal at 7420 nm: both pumps are skipped and named
        res = run_cli("tuning-curve", "--from", "7420", "--to", "7420", "--steps", "2")
        assert res.returncode == 0
        assert res.stdout == "lambda_p_nm,lambda_s_nm,lambda_i_nm,residual_mismatch\n"
        assert res.stderr == "no solution for pump values: 7420, 7420\n"


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

    def test_oversized_counts_exit_2(self, run_cli, tmp_path):
        # numpy's sampler itself says only "lam value too large"
        res = run_cli("power-sweep", "--min", "1", "--max", "2", "--steps", "2",
                      "--duration", "1e300", "--out", str(tmp_path))
        assert res.returncode == 2
        assert res.stderr.startswith("config error: expected count ")
        assert "exceeds the largest Poisson mean the sampler accepts" in res.stderr


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

    def test_env_var(self, run_cli, monkeypatch):
        # no environment variable picks the database: a path that does not
        # exist in the old override's variable leaves the output unchanged
        monkeypatch.setenv("XSPLICE_MATERIALS", "/nonexistent")
        res = run_cli("calibrate")
        assert res.returncode == 0
        assert res.stdout == (REPO / "tests" / "golden" / "calibrate" / "stdout").read_text()

    @pytest.mark.parametrize("content", ["[]", '"x"'])
    def test_non_object_database_exits_2(self, run_cli, tmp_path, content):
        db = tmp_path / "db.json"
        db.write_text(content)
        res = run_cli("--materials", str(db), "calibrate")
        assert res.returncode == 2
        assert "config error: cannot load material database: the top level must be" in res.stderr


def test_defaults_mirror_paper_ini():
    # the fixture sets no key, so it loads the packaged configuration unchanged
    parser = configparser.ConfigParser()
    assert parser.read(PAPER_INI, encoding="utf-8") == [str(PAPER_INI)]
    assert parser.sections() == []
    assert load_config() == load_config(str(PAPER_INI))


def test_zero_baseline_noise_loads(tmp_path):
    # its range is [0, 1): a source with no depolarization beyond the background
    ini = tmp_path / "zero.ini"
    ini.write_text("[noise]\nbaseline_noise = 0\n")
    assert load_config(str(ini)).baseline_noise == 0.0


def test_csv_writes_numpy_scalars_as_numbers():
    # str of a numpy scalar is its number; numpy 2's repr would add the type name
    assert _write_csv(("a", "b"), [(np.float64(0.1), np.int64(3))]) == "a,b\n0.1,3\n"
    assert _write_csv(("a",), [(0.1 + 0.2,)]) == "a\n0.30000000000000004\n"
