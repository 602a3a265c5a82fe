"""Acceptance gate: every shipped capability at its stated tolerance.

Each test prints one PASS line (with the measured runtime where the
criterion bounds it) after its assertions hold.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from xsplice import (
    CompensatorSpec,
    FiberSpec,
    TwoQubitState,
    bell_state,
    best_bell_fidelity,
    calibrate_baseline_noise,
    calibrate_birefringence,
    car,
    compensated_phase,
    effective_state_at_power,
    expected_rates,
    fidelity,
    fit_params,
    heralding_efficiencies,
    idler_wavelength,
    mixed_state_over_spectra,
    optimize_compensators,
    phase_map,
    pure_phi_state,
    born_probabilities,
    reconstruct_mle,
    simulate_counts,
    solve_signal_idler,
    spectral_mean_phase,
    standard_settings,
    state_fidelity,
    tangle,
    total_phase,
    tuning_curve,
    visibility_vs_power,
    error_bars,
    weighted_phase_std,
    werner_state,
)
from xsplice.counts import CountRecord, NoiseParams
from xsplice.states import bandwidth_grid

def report(number, runtime=None, detail=""):
    stamp = f" [{runtime:.3f} s]" if runtime is not None else ""
    print(f"ACCEPTANCE {number}: PASS{stamp} {detail}")


def test_criterion_01_energy_conservation():
    idler_wavelength(670.0, 771.0)  # warm-up
    t0 = time.perf_counter()
    value = idler_wavelength(670.0, 771.0)
    per_call = time.perf_counter() - t0
    assert value == pytest.approx(907.86, abs=0.01)
    for ls in (620.0, 670.0, 700.0, 769.0):
        back = idler_wavelength(idler_wavelength(ls, 771.0), 771.0)
        assert back == pytest.approx(ls, rel=1e-12)
    assert per_call < 1e-3
    report(1, per_call, f"idler(670, 771) = {value:.5f} nm")


def test_criterion_02_phase_matching(silica):
    t0 = time.perf_counter()
    b = calibrate_birefringence(silica, 771.0, 670.0)
    fiber = FiberSpec(0.13, b, 0.01, silica)
    point = solve_signal_idler(fiber, 771.0)
    points, skipped = tuning_curve(fiber, (760.0, 790.0), 31)
    elapsed = time.perf_counter() - t0
    assert point.lambda_s_nm == pytest.approx(670.0, abs=0.1)
    assert point.lambda_i_nm == pytest.approx(905.0, abs=5.0)
    assert not skipped
    ls = [p.lambda_s_nm for p in points]
    li = [p.lambda_i_nm for p in points]
    assert all(a < b2 for a, b2 in zip(ls, ls[1:]))
    assert all(a < b2 for a, b2 in zip(li, li[1:]))
    assert elapsed < 1.0
    report(2, elapsed,
           f"B = {b:.3e}, signal {point.lambda_s_nm:.2f} nm, idler {point.lambda_i_nm:.2f} nm")


def test_criterion_03_phase_map(paper_fiber, paper_compensators):
    s_ax = bandwidth_grid(670.0, 0.23, 101)
    p_ax = bandwidth_grid(771.0, 0.3, 101)
    t0 = time.perf_counter()
    raw = phase_map(paper_fiber, None, s_ax, p_ax)
    fixed = phase_map(paper_fiber, paper_compensators, s_ax, p_ax)
    elapsed = time.perf_counter() - t0
    assert 600.0 <= raw.peak_to_peak_deg <= 1000.0
    assert fixed.peak_to_peak_deg <= 10.0
    assert elapsed < 5.0
    report(3, elapsed,
           f"uncompensated {raw.peak_to_peak_deg:.0f} deg, "
           f"compensated {fixed.peak_to_peak_deg:.2f} deg")


def test_criterion_04_compensator_optimization(paper_fiber, quartz_material,
                                               pump_spectrum, signal_spectrum):
    t0 = time.perf_counter()
    sig, idl, residual = optimize_compensators(paper_fiber, quartz_material,
                                               pump_spectrum, signal_spectrum)
    elapsed = time.perf_counter() - t0
    assert sig.length_mm == pytest.approx(67.3, rel=0.15)
    assert idl.length_mm == pytest.approx(47.6, rel=0.15)
    assert sig.orientation_sign == +1
    assert idl.orientation_sign == -1
    for ds, di in ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)):
        probed = (
            CompensatorSpec(sig.length_mm + ds, quartz_material, sig.orientation_sign,
                            "signal"),
            CompensatorSpec(idl.length_mm + di, quartz_material, idl.orientation_sign,
                            "idler"),
        )
        assert weighted_phase_std(paper_fiber, probed, pump_spectrum,
                                  signal_spectrum) > residual
    assert elapsed < 60.0
    report(4, elapsed, f"signal {sig.length_mm:.2f} mm, idler {idl.length_mm:.2f} mm")


def test_criterion_05_state_model(paper_fiber, paper_compensators,
                                  signal_spectrum, pump_spectrum):
    # constant phase: the mixture collapses to the pure state exactly
    for phi0 in (0.0, 0.9):
        mixed = mixed_state_over_spectra(lambda s, p: np.full_like(s, phi0),
                                         signal_spectrum, pump_spectrum)
        assert np.allclose(mixed.matrix, pure_phi_state(phi0).matrix, atol=1e-13)

    # linear phase: Gaussian characteristic function to 1e-6, with a
    # pump slope b adding the factor e^{-b^2 s_p^2/2}
    for slope, pump_slope in ((1.0, 0.0), (5.0, 0.0), (10.0, 0.0), (5.0, 8.0)):
        mixed = mixed_state_over_spectra(
            lambda s, p: slope * (s - 670.0) + pump_slope * (p - 771.0),
            signal_spectrum, pump_spectrum)
        expected = (0.5 * np.exp(-0.5 * (slope * signal_spectrum.sigma_nm) ** 2)
                    * np.exp(-0.5 * (pump_slope * pump_spectrum.sigma_nm) ** 2))
        assert abs(mixed.matrix[0, 3]) == pytest.approx(expected, abs=1e-6)

    # map-driven states: the 0.922 figure is NOT expected here; the
    # spectral mixture alone must exceed it for the compensated map and
    # fall well below for the uncompensated one
    raw = lambda s, p: total_phase(paper_fiber, s, p)
    mean = spectral_mean_phase(raw, signal_spectrum, pump_spectrum)
    uncomp = mixed_state_over_spectra(lambda s, p: raw(s, p) - mean,
                                      signal_spectrum, pump_spectrum)
    f_uncomp = best_bell_fidelity(uncomp)[0]
    assert f_uncomp <= 0.75

    comp_fn = lambda s, p: compensated_phase(paper_fiber, paper_compensators, s, p)
    mean_c = spectral_mean_phase(comp_fn, signal_spectrum, pump_spectrum)
    comp = mixed_state_over_spectra(lambda s, p: comp_fn(s, p) - mean_c,
                                    signal_spectrum, pump_spectrum)
    f_comp = best_bell_fidelity(comp)[0]
    assert f_comp >= 0.99
    report(5, detail=f"fidelity compensated {f_comp:.4f}, uncompensated {f_uncomp:.4f}")


def test_criterion_06_metrics():
    t0 = time.perf_counter()
    psi = bell_state("psi-")
    bell = TwoQubitState(np.outer(psi, psi.conj()))
    assert tangle(bell) == pytest.approx(1.0, abs=1e-10)
    werner = werner_state(0.896)
    f = fidelity(werner, psi)
    tau = tangle(werner)
    elapsed = time.perf_counter() - t0
    assert f == pytest.approx(0.922, abs=1e-12)
    assert tau == pytest.approx(0.712, abs=1e-3)
    assert abs(tau - 0.721) / 0.721 < 0.02
    assert elapsed < 1.0
    report(6, elapsed, f"Werner fidelity {f:.3f}, tangle {tau:.6f}")


def test_criterion_07_counts():
    t0 = time.perf_counter()
    record = CountRecord(30.0, 488350, 146901, 1657630, 1435459, 53256, 55)
    eta_s, eta_i = heralding_efficiencies(record)
    assert round(eta_s, 2) == 0.24
    assert round(eta_i, 2) == 0.16

    base = NoiseParams(pair_rate_coeff=40.0, raman_s=200.0, raman_i=1500.0,
                       dark_s=1200.0, dark_i=1200.0, eta_s=0.24, eta_i=0.16,
                       rep_rate_hz=76e6, window_s=1e-9, spm_coeff=0.2)
    fitted, _ = fit_params([(50.0, "car", 110.0), (10.0, "car", 260.0),
                            (33.0, "pair_rate", 45000.0)], base)
    elapsed = time.perf_counter() - t0
    assert car(fitted, 50.0) == pytest.approx(110.0, rel=0.10)
    assert car(fitted, 10.0) == pytest.approx(260.0, rel=0.10)
    assert expected_rates(fitted, 33.0)["pairs"] == pytest.approx(45000.0, rel=0.10)
    assert elapsed < 10.0
    report(7, elapsed,
           f"heralding {eta_s:.3f}/{eta_i:.3f}, CAR {car(fitted, 50.0):.1f}/{car(fitted, 10.0):.1f}")


def test_criterion_08_visibility_sweep(paper_config):
    cfg = paper_config
    t0 = time.perf_counter()
    w0 = calibrate_baseline_noise(cfg.noise, cfg.fiber, cfg.compensators,
                                  cfg.signal, cfg.pump, 30.0, 0.922)
    powers = np.arange(5.0, 61.0, 2.5)
    rows = visibility_vs_power(cfg.noise, cfg.fiber, cfg.compensators, powers,
                               cfg.signal, cfg.pump, baseline_noise=w0)
    k = int(np.argmax([r[2] for r in rows]))
    state = effective_state_at_power(cfg.noise, cfg.fiber, cfg.compensators,
                                     cfg.signal, cfg.pump, rows[k][0],
                                     baseline_noise=w0)
    elapsed = time.perf_counter() - t0
    assert 0 < k < len(rows) - 1
    assert 5.0 < rows[k][0] < 60.0
    assert all(r[1] >= r[2] for r in rows)
    f_opt = best_bell_fidelity(state)[0]
    assert f_opt == pytest.approx(0.922, abs=0.03)
    assert elapsed < 60.0
    report(8, elapsed,
           f"V_diag peaks at {rows[k][0]:g} mW, fidelity there {f_opt:.4f}")


def test_criterion_09_tomography():
    t0 = time.perf_counter()
    settings = standard_settings()
    truth = werner_state(0.896, "psi-")

    exact = simulate_counts(truth, settings, 1e5, seed=101)
    exact_data = type(exact)(settings=exact.settings,
                             counts=tuple(1e5 * born_probabilities(truth, settings)),
                             total_per_setting=1e5)
    rho_exact = reconstruct_mle(exact_data)
    assert state_fidelity(rho_exact, truth) >= 1 - 1e-6

    data = simulate_counts(truth, settings, 1e5, seed=103)
    rho = reconstruct_mle(data)
    f_truth = state_fidelity(rho, truth)
    f_bell = fidelity(rho, bell_state("psi-"))
    tau = tangle(rho)
    assert f_truth >= 0.99
    assert f_bell == pytest.approx(0.922, abs=0.01)
    assert tau == pytest.approx(0.72, abs=0.03)

    f_std, t_std = error_bars(data, 50, seed=105)
    elapsed = time.perf_counter() - t0
    assert f_std > 0.0 and t_std > 0.0
    assert elapsed < 120.0
    report(9, elapsed,
           f"fidelity {f_bell:.4f} +/- {f_std:.4f}, tangle {tau:.4f} +/- {t_std:.4f}")


def test_criterion_10_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    invocations = [
        (("calibrate", "--pump", "771", "--signal", "670"), None),
        (("tuning-curve", "--from", "769", "--to", "773", "--steps", "5"), None),
        (("phase-map", "--compensated", "--points", "31"), "out"),
        (("optimize-compensators",), None),
        (("state", "--power", "30"), None),
        (("power-sweep", "--min", "10", "--max", "50", "--steps", "3",
          "--seed", "7"), "out"),
        (("tomography-demo", "--counts-per-setting", "2000", "--seed", "5",
          "--bootstrap", "3"), "out"),
    ]
    for args, outdir in invocations:
        outputs = []
        for run in range(2):
            cmd = [sys.executable, "-m", "xsplice", *args]
            out = None
            if outdir is not None:
                out = tmp_path / f"{args[0]}-{run}"
                cmd += ["--out", str(out)]
            res = subprocess.run(cmd, capture_output=True, text=True)
            assert res.returncode == 0, (args, res.stderr)
            if out is None:
                outputs.append(res.stdout)
            else:
                blob = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
                outputs.append(blob)
        assert outputs[0] == outputs[1], f"non-deterministic output for {args[0]}"
    elapsed = time.perf_counter() - t0
    report(10, elapsed, "all seven subcommands byte-identical across reruns")
