import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from xsplice import counts as counts_mod
from xsplice import (
    CountRecord,
    FitError,
    NoiseParams,
    best_bell_fidelity,
    calibrate_baseline_noise,
    car,
    compensated_phase,
    effective_state_at_power,
    expected_rates,
    fit_params,
    heralding_efficiencies,
    mixed_state_over_spectra,
    predict_counts,
    splice_transmission_bound,
    visibility,
    visibility_vs_power,
)
from xsplice.config import load_config
from xsplice.states import _PUMP_GROUP

# the published 30 s / 30 mW count record
PAPER_RECORD = CountRecord(
    duration_s=30.0,
    signal_total=488350, signal_background=146901,
    idler_total=1657630, idler_background=1435459,
    coincidences_total=53256, coincidences_background=55,
)

PAPER_TARGETS = [
    (50.0, "car", 110.0),
    (10.0, "car", 260.0),
    (33.0, "pair_rate", 45000.0),
]


def base_params():
    return NoiseParams(pair_rate_coeff=40.0, raman_s=200.0, raman_i=1500.0,
                       dark_s=1200.0, dark_i=1200.0, eta_s=0.24, eta_i=0.16,
                       rep_rate_hz=76e6, window_s=1e-9, spm_coeff=0.2)


@pytest.fixture(scope="module")
def fitted():
    params, residuals = fit_params(PAPER_TARGETS, base_params())
    return params


class TestRecordValidation:
    def test_background_cannot_exceed_total(self):
        with pytest.raises(ValueError):
            CountRecord(1.0, 10, 20, 10, 5, 5, 1)

    def test_negative_rejected(self):
        for bad in (-1, np.nan, np.inf):
            with pytest.raises(ValueError):
                CountRecord(1.0, bad, 0, 0, 0, 0, 0)
        with pytest.raises(ValueError):
            CountRecord(np.nan, 10, 5, 10, 5, 5, 1)


class TestNoiseParamsValidation:
    def test_efficiency_bound(self):
        with pytest.raises(ValueError):
            NoiseParams(1, 1, 1, 1, 1, eta_s=1.2, eta_i=0.5)

    def test_non_finite_rejected(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError):
                NoiseParams(1, 1, 1, 1, 1, eta_s=bad, eta_i=0.5)
            with pytest.raises(ValueError):
                NoiseParams(bad, 1, 1, 1, 1, 0.5, 0.5)
            with pytest.raises(ValueError):
                NoiseParams(1, 1, 1, 1, 1, 0.5, 0.5, rep_rate_hz=bad)

    def test_zero_rep_rate_rejected(self):
        # the accidentals divide by it
        with pytest.raises(ValueError, match=r"^rep_rate_hz must be > 0$"):
            NoiseParams(1, 1, 1, 1, 1, 0.5, 0.5, rep_rate_hz=0.0)

    def test_window_slot_bound(self):
        with pytest.raises(ValueError):
            NoiseParams(1, 1, 1, 1, 1, 0.5, 0.5, rep_rate_hz=76e6, window_s=1e-6)


class TestHeralding:
    def test_paper_record(self):
        eta_s, eta_i = heralding_efficiencies(PAPER_RECORD)
        # exact arithmetic: 53201/222171 and 53201/341449
        assert eta_s == pytest.approx(53201.0 / 222171.0, rel=1e-15)
        assert eta_i == pytest.approx(53201.0 / 341449.0, rel=1e-15)
        assert round(eta_s, 2) == 0.24
        assert round(eta_i, 2) == 0.16

    def test_lossless_toy(self):
        rec = CountRecord(1.0, 1000, 0, 1000, 0, 1000, 0)
        assert heralding_efficiencies(rec) == (1.0, 1.0)

    def test_linear_in_coincidences(self):
        rec_half = CountRecord(30.0, 488350, 146901, 1657630, 1435459,
                               55 + (53256 - 55) / 2, 55)
        full = heralding_efficiencies(PAPER_RECORD)
        half = heralding_efficiencies(rec_half)
        assert half[0] == pytest.approx(full[0] / 2, rel=1e-12)
        assert half[1] == pytest.approx(full[1] / 2, rel=1e-12)

    def test_zero_singles_rejected(self):
        rec = CountRecord(1.0, 10, 10, 100, 0, 5, 0)
        with pytest.raises(ZeroDivisionError):
            heralding_efficiencies(rec)


class TestSpliceBound:
    def test_identical_records(self):
        assert splice_transmission_bound(PAPER_RECORD, PAPER_RECORD, "signal") == 1.0

    def test_definitional_ratio(self):
        rec_clean = CountRecord(1.0, 1000, 0, 1000, 0, 500, 0)
        rec_lossy = CountRecord(1.0, 1000, 0, 1000, 0, 465, 0)
        assert splice_transmission_bound(rec_lossy, rec_clean, "signal") \
            == pytest.approx(0.93, rel=1e-12)

    def test_forward_simulated_transmission(self, fitted):
        # build deterministic million-count records with a known signal
        # transmission applied to the pairs born in the first fiber
        t = 0.95
        attenuated = NoiseParams(
            pair_rate_coeff=fitted.pair_rate_coeff,
            raman_s=fitted.raman_s, raman_i=fitted.raman_i,
            dark_s=fitted.dark_s, dark_i=fitted.dark_i,
            eta_s=fitted.eta_s * t, eta_i=fitted.eta_i,
            rep_rate_hz=fitted.rep_rate_hz, window_s=fitted.window_s,
            spm_coeff=fitted.spm_coeff)

        def rounded(rec):
            return CountRecord(rec.duration_s,
                               *(round(v) for v in (
                                   rec.signal_total, rec.signal_background,
                                   rec.idler_total, rec.idler_background,
                                   rec.coincidences_total, rec.coincidences_background)))

        duration = 700.0  # ~1e6 true coincidences at 30 mW
        rec_first = rounded(predict_counts(attenuated, 30.0, duration, expectation=True))
        rec_second = rounded(predict_counts(fitted, 30.0, duration, expectation=True))
        got = splice_transmission_bound(rec_first, rec_second, "signal")
        assert got == pytest.approx(t, abs=1e-3)

    def test_clamped_to_unity(self):
        better = CountRecord(1.0, 1000, 0, 1000, 0, 600, 0)
        worse = CountRecord(1.0, 1000, 0, 1000, 0, 500, 0)
        assert splice_transmission_bound(better, worse, "idler") == 1.0

    def test_arm_validation(self):
        with pytest.raises(ValueError):
            splice_transmission_bound(PAPER_RECORD, PAPER_RECORD, "pump")

    def test_reference_without_heralding(self):
        dead = CountRecord(1.0, 1000, 0, 1000, 0, 0, 0)
        with pytest.raises(ZeroDivisionError, match="reference heralding efficiency is zero"):
            splice_transmission_bound(PAPER_RECORD, dead, "signal")


class TestSilentSource:
    def test_no_pairs_and_no_background(self, paper_fiber, paper_compensators,
                                        signal_spectrum, pump_spectrum):
        # no pair, Raman or dark counts: 0/0 coincidences, read as no background
        silent = NoiseParams(0.0, 0.0, 0.0, 0.0, 0.0, 0.24, 0.16, spm_coeff=0.2)
        assert counts_mod._background_fraction(silent, 30.0) == 0.0
        spectral = mixed_state_over_spectra(
            lambda ls, lp: compensated_phase(paper_fiber, paper_compensators, ls, lp),
            signal_spectrum, counts_mod._broadened(silent, pump_spectrum, 30.0),
            relative_to_mean=True)
        state = effective_state_at_power(silent, paper_fiber, paper_compensators,
                                         signal_spectrum, pump_spectrum, 30.0)
        assert np.array_equal(state.matrix, spectral.matrix)
        noisy = effective_state_at_power(silent, paper_fiber, paper_compensators,
                                         signal_spectrum, pump_spectrum, 30.0,
                                         baseline_noise=0.1)
        assert np.allclose(noisy.matrix, 0.9 * spectral.matrix + 0.1 * np.eye(4) / 4,
                           rtol=0, atol=1e-15)


class TestPredictCounts:
    def test_zero_power_only_darks(self):
        p = base_params()
        rec = predict_counts(p, 0.0, 10.0, expectation=True)
        assert rec.signal_total == rec.signal_background == p.dark_s * 10.0
        assert rec.idler_total == rec.idler_background == p.dark_i * 10.0
        assert rec.coincidences_total == rec.coincidences_background

    def test_no_pairs_only_accidentals(self):
        p = NoiseParams(0.0, 100.0, 500.0, 50.0, 50.0, 0.24, 0.16)
        rec = predict_counts(p, 20.0, 10.0, expectation=True)
        assert rec.coincidences_total == rec.coincidences_background

    def test_expectation_matches_rate_formulas(self, fitted):
        rec = predict_counts(fitted, 30.0, 30.0, expectation=True)
        r = expected_rates(fitted, 30.0)
        assert rec.signal_total == pytest.approx(30.0 * r["singles_s"], rel=1e-14)
        assert rec.idler_total == pytest.approx(30.0 * r["singles_i"], rel=1e-14)
        assert rec.coincidences_total == pytest.approx(
            30.0 * (r["true_coincidences"] + r["accidentals"]), rel=1e-14)

    def test_paper_coincidences_within_20_percent(self, fitted):
        rec = predict_counts(fitted, 30.0, 30.0, expectation=True)
        assert rec.coincidences_total == pytest.approx(53201.0, rel=0.20)

    def test_seeded_reproducibility(self, fitted):
        a = predict_counts(fitted, 30.0, 30.0, seed=42)
        b = predict_counts(fitted, 30.0, 30.0, seed=42)
        assert a == b
        c = predict_counts(fitted, 30.0, 30.0, seed=43)
        assert c != a

    def test_sample_mean_near_expectation(self, fitted):
        n = 1000
        rng_seeds = range(n)
        totals = np.array([predict_counts(fitted, 10.0, 0.5, seed=s).signal_total
                           for s in rng_seeds])
        expect = predict_counts(fitted, 10.0, 0.5, expectation=True).signal_total
        sigma = np.sqrt(expect / n)
        assert abs(totals.mean() - expect) < 3 * sigma

    def test_background_never_exceeds_total(self, fitted):
        for seed in range(50):
            rec = predict_counts(fitted, 5.0, 0.01, seed=seed)
            assert rec.signal_background <= rec.signal_total
            assert rec.idler_background <= rec.idler_total
            assert rec.coincidences_background <= rec.coincidences_total

    @pytest.mark.parametrize("power, duration", [(5.0, 0.01), (30.0, 30.0), (56.0, 1e4)])
    def test_record_is_the_sequential_draws(self, fitted, power, duration):
        # the one draw of six means equals six scalar draws from the same
        # generator, in the order signal pairs, idler pairs, signal and
        # idler background, true coincidences, accidentals
        r = expected_rates(fitted, power)
        means = [fitted.eta_s * r["pairs"] * duration, fitted.eta_i * r["pairs"] * duration,
                 r["background_s"] * duration, r["background_i"] * duration,
                 r["true_coincidences"] * duration, r["accidentals"] * duration]
        for seed in (0, 7, [3, 1]):
            rng = np.random.default_rng(seed)
            pair_s, pair_i, bg_s, bg_i, true_c, acc = (float(rng.poisson(m)) for m in means)
            assert predict_counts(fitted, power, duration, seed=seed) == CountRecord(
                duration, pair_s + bg_s, bg_s, pair_i + bg_i, bg_i, true_c + acc, acc)

    def test_oversized_mean_is_named(self, fitted):
        # numpy's sampler itself says only "lam value too large"; the
        # largest mean here is the accidentals'
        acc = predict_counts(fitted, 1e12, 1e6, expectation=True).coincidences_background
        with pytest.raises(ValueError, match=re.escape(
                f"expected count {acc:.3g} exceeds the largest Poisson mean the sampler "
                "accepts, 9.22e+18")):
            predict_counts(fitted, 1e12, 1e6, seed=1)

    def test_poisson_limit_is_the_samplers(self):
        # the check's limit is numpy's own: the largest mean it accepts
        # draws, the next float up is refused by the check
        limit = counts_mod._POISSON_MAX_MEAN
        assert counts_mod._poisson(1, np.array([1.0, limit])).shape == (2,)
        with pytest.raises(ValueError, match="exceeds the largest Poisson mean"):
            counts_mod._poisson(1, np.array([1.0, np.nextafter(limit, np.inf)]))
        with pytest.raises(ValueError, match="lam value too large"):
            np.random.default_rng(1).poisson(np.nextafter(limit, np.inf))

    @pytest.mark.parametrize("expectation", [False, True])
    def test_zero_duration_counts_nothing(self, fitted, expectation):
        # a zero interval is valid: every mean is 0, so the draw and the
        # expectation both give an all-zero record
        rec = predict_counts(fitted, 30.0, 0.0, seed=1, expectation=expectation)
        assert rec == CountRecord(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("duration", [np.inf, np.nan, -1.0])
    @pytest.mark.parametrize("expectation", [False, True])
    def test_impossible_duration_rejected(self, fitted, duration, expectation):
        # inf and NaN used to reach numpy's "lam value too large" and "lam < 0 or lam is NaN"
        with pytest.raises(ValueError, match="duration must be finite"):
            predict_counts(fitted, 30.0, duration, seed=1, expectation=expectation)


class TestCar:
    def test_two_computation_paths_agree(self, fitted):
        for power in (10.0, 30.0, 50.0):
            rec = predict_counts(fitted, power, 1.0, expectation=True)
            true_rate = rec.coincidences_total - rec.coincidences_background
            acc_rate = rec.coincidences_background
            assert car(fitted, power) == pytest.approx(true_rate / acc_rate, rel=1e-9)

    def test_fitted_car_values(self, fitted):
        assert car(fitted, 50.0) == pytest.approx(110.0, rel=0.10)
        assert car(fitted, 10.0) == pytest.approx(260.0, rel=0.10)

    def test_monotone_decreasing_above_dark_knee(self, fitted):
        # dark counts give CAR a maximum near 11 mW (their 1/P^2 term in
        # the accidental fraction); beyond it the pair-driven and Raman
        # accidentals win and CAR falls monotonically. The same dark-count
        # knee is what produces the low-power visibility degradation.
        powers = np.arange(12.0, 61.0, 1.0)
        values = [car(fitted, pw) for pw in powers]
        assert all(a > b for a, b in zip(values, values[1:]))
        # the headline trend: much smaller CAR at high power
        assert car(fitted, 50.0) < car(fitted, 10.0) < car(fitted, 5.0) * 3

    def test_clean_limit_formula(self):
        # without raman/darks the singles are all pair-driven and
        # CAR = rep_rate / (mu P^2) exactly, falling as 1/P^2
        p = NoiseParams(41.0, 0.0, 0.0, 0.0, 0.0, 0.24, 0.16, rep_rate_hz=76e6)
        for power in (10.0, 30.0, 50.0):
            assert car(p, power) == pytest.approx(76e6 / (41.0 * power**2), rel=1e-12)
        assert car(p, 20.0) == pytest.approx(car(p, 10.0) / 4.0, rel=1e-12)

    def test_zero_accidentals_sentinel(self):
        p = NoiseParams(0.0, 0.0, 100.0, 0.0, 10.0, 0.5, 0.5)
        assert car(p, 10.0) == float("inf")

    def test_power_validation(self, fitted):
        with pytest.raises(ValueError):
            car(fitted, 0.0)

    @pytest.mark.parametrize("power", [np.nan, np.inf, -np.inf])
    def test_non_finite_power_rejected(self, fitted, power):
        # a NaN or infinite power used to pass through to a NaN CAR or an
        # infinite pair rate, and fail only in CountRecord
        for rate in (car, expected_rates):
            with pytest.raises(ValueError, match="power must be finite"):
                rate(fitted, power)
        with pytest.raises(ValueError, match="power must be finite"):
            predict_counts(fitted, power, 1.0, expectation=True)


class TestFitParams:
    def test_round_trip_recovery(self):
        truth = NoiseParams(41.0, 150.0, 900.0, 1200.0, 1200.0, 0.24, 0.16)
        targets = [
            (50.0, "car", car(truth, 50.0)),
            (10.0, "car", car(truth, 10.0)),
            (33.0, "pair_rate", expected_rates(truth, 33.0)["pairs"]),
        ]
        start = NoiseParams(10.0, 500.0, 2000.0, 1200.0, 1200.0, 0.24, 0.16)
        fitted, _ = fit_params(targets, start)
        assert fitted.pair_rate_coeff == pytest.approx(truth.pair_rate_coeff, rel=0.01)
        assert fitted.raman_s == pytest.approx(truth.raman_s, rel=0.01)
        assert fitted.raman_i == pytest.approx(truth.raman_i, rel=0.01)

    def test_paper_targets_residuals(self):
        fitted, residuals = fit_params(PAPER_TARGETS, base_params())
        assert all(abs(r) < 0.10 for r in residuals.values())
        assert expected_rates(fitted, 33.0)["pairs"] == pytest.approx(45000.0, rel=0.10)

    def test_underdetermined(self):
        with pytest.raises(FitError, match="underdetermined"):
            fit_params([(50.0, "car", 110.0)], base_params(),
                       free=("pair_rate_coeff", "raman_s"))

    def test_unknown_observable(self):
        with pytest.raises(ValueError, match="unknown observable"):
            fit_params([(50.0, "visibility", 0.9)], base_params(),
                       free=("pair_rate_coeff",))

    @pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, -1.0])
    def test_target_must_be_finite_and_positive(self, value):
        # a NaN target used to return the start values as the fit
        with pytest.raises(ValueError, match="finite and positive"):
            fit_params([(50.0, "car", value)], base_params(), free=("pair_rate_coeff",))

    @pytest.mark.parametrize("free", [(), ("raman_s", "raman_s"), ("nope",)],
                             ids=["empty", "repeated", "unknown"])
    def test_free_names_checked_before_the_model(self, monkeypatch, free):
        # a repeated name used to return raman_s = 0 with residuals of -33 % to
        # -76 % and no error; an empty or unknown one, numpy's or an AttributeError
        def no_model(p, pw):
            raise AssertionError("the model ran before free was checked")

        for obs in ("car", "pair_rate"):
            monkeypatch.setitem(counts_mod._OBSERVABLES, obs, no_model)
        with pytest.raises(ValueError, match="distinct NoiseParams fields"):
            fit_params(PAPER_TARGETS, base_params(), free=free)

    def test_infinite_model_is_a_fit_error(self):
        # no background and no pairs: CAR is infinite at every eta_s
        dark = NoiseParams(0.0, 0.0, 0.0, 0.0, 0.0, 0.24, 0.16)
        with pytest.raises(FitError, match="not finite at the start"):
            fit_params([(50.0, "car", 100.0)], dark, free=("eta_s",))

    def test_step_out_of_domain_is_a_fit_error(self):
        # an unreachable CAR drives eta_s above 1; NoiseParams' ValueError
        # used to escape from inside the optimizer
        with pytest.raises(FitError, match="efficiencies must be <= 1"):
            fit_params([(50.0, "car", 1e9)], base_params(), free=("eta_s",))


def _log_residuals(targets, params):
    return np.array([np.log(counts_mod._OBSERVABLES[obs](params, pw) / val)
                     for pw, obs, val in targets])


def _scipy_fit(targets, base, free):
    """The reference: MINPACK's Levenberg-Marquardt through scipy, run to rounding."""
    from scipy.optimize import least_squares

    def residuals(logx):
        return _log_residuals(targets, replace(
            base, **{name: float(np.exp(v)) for name, v in zip(free, logx)}))

    x0 = np.log([getattr(base, name) for name in free])
    result = least_squares(residuals, x0, method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15,
                           max_nfev=20000)
    assert result.success
    return replace(base, **{name: float(np.exp(v)) for name, v in zip(free, result.x)})


_TRUTH = NoiseParams(41.0, 150.0, 900.0, 1200.0, 1200.0, 0.24, 0.16)
_ROUND_TRIP = [(50.0, "car", car(_TRUTH, 50.0)), (10.0, "car", car(_TRUTH, 10.0)),
               (33.0, "pair_rate", expected_rates(_TRUTH, 33.0)["pairs"])]
_FOUR = PAPER_TARGETS + [(30.0, "car", 170.0)]

#: (targets, base, free, whether the fit reaches zero residuals)
_ORACLE_CASES = {
    "paper": (PAPER_TARGETS, base_params(), counts_mod._DEFAULT_FREE, True),
    "round_trip": (_ROUND_TRIP, NoiseParams(10.0, 500.0, 2000.0, 1200.0, 1200.0, 0.24, 0.16),
                   counts_mod._DEFAULT_FREE, True),
    "config_defaults": (PAPER_TARGETS, load_config().noise, counts_mod._DEFAULT_FREE, True),
    # exp(log(0.16)) != 0.16: a start value sent through the logs would show
    "four_targets_free_spm": (_FOUR, replace(base_params(), spm_coeff=0.16),
                              counts_mod._DEFAULT_FREE + ("spm_coeff",), False),
    "raman_s_only": (PAPER_TARGETS, base_params(), ("raman_s",), False),
    "pair_rate_coeff_only": (PAPER_TARGETS, base_params(), ("pair_rate_coeff",), False),
}


@pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
def test_fit_matches_scipy_levenberg_marquardt(case):
    targets, base, free, exact = _ORACLE_CASES[case]
    fitted, _ = fit_params(targets, base, free)
    reference = _scipy_fit(targets, base, free)
    cost, reference_cost = (float(np.sum(_log_residuals(targets, p) ** 2))
                            for p in (fitted, reference))
    if exact:
        for name in free:
            assert getattr(fitted, name) == pytest.approx(getattr(reference, name),
                                                          rel=1e-12, abs=0.0)
    else:
        assert cost <= reference_cost * (1.0 + 1e-12)
    # spm_coeff enters neither observable: it keeps its start value
    assert fitted.spm_coeff == base.spm_coeff


class TestVisibilityVsPower:
    def test_flat_without_power_dependence(self, paper_fiber, paper_compensators,
                                           signal_spectrum, pump_spectrum):
        # kappa = 0 and no raman/darks; a huge rep rate kills the
        # pair-driven accidentals, so nothing depends on power
        quiet = NoiseParams(41.0, 0.0, 0.0, 0.0, 0.0, 0.24, 0.16,
                            rep_rate_hz=1e14, window_s=1e-15, spm_coeff=0.0)
        rows = visibility_vs_power(quiet, paper_fiber, paper_compensators,
                                   [5.0, 20.0, 60.0], signal_spectrum, pump_spectrum)
        diags = [r[2] for r in rows]
        assert max(diags) - min(diags) < 1e-6

    def test_rect_visibility_monotone_in_noise(self, fitted, paper_fiber,
                                               paper_compensators,
                                               signal_spectrum, pump_spectrum):
        values = []
        for w0 in (0.0, 0.05, 0.15, 0.30):
            state = effective_state_at_power(fitted, paper_fiber, paper_compensators,
                                             signal_spectrum, pump_spectrum, 30.0,
                                             baseline_noise=w0)
            values.append(visibility(state, "rectilinear"))
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_sweep_shape_and_fidelity(self, fitted, paper_fiber, paper_compensators,
                                      signal_spectrum, pump_spectrum):
        w0 = calibrate_baseline_noise(fitted, paper_fiber, paper_compensators,
                                      signal_spectrum, pump_spectrum)
        powers = np.arange(5.0, 61.0, 2.5)
        rows = visibility_vs_power(fitted, paper_fiber, paper_compensators, powers,
                                   signal_spectrum, pump_spectrum, baseline_noise=w0)
        v_rect = [r[1] for r in rows]
        v_diag = [r[2] for r in rows]
        k = int(np.argmax(v_diag))
        assert 0 < k < len(rows) - 1
        assert 5.0 < rows[k][0] < 60.0
        assert all(r >= d for r, d in zip(v_rect, v_diag))
        state = effective_state_at_power(fitted, paper_fiber, paper_compensators,
                                         signal_spectrum, pump_spectrum, rows[k][0],
                                         baseline_noise=w0)
        assert best_bell_fidelity(state)[0] == pytest.approx(0.922, abs=0.03)


class TestBaselineCalibration:
    def test_reproduces_target(self, fitted, paper_fiber, paper_compensators,
                               signal_spectrum, pump_spectrum):
        w0 = calibrate_baseline_noise(fitted, paper_fiber, paper_compensators,
                                      signal_spectrum, pump_spectrum,
                                      avg_power_mw=30.0, target_fidelity=0.922)
        assert 0.0 < w0 < 0.3
        state = effective_state_at_power(fitted, paper_fiber, paper_compensators,
                                         signal_spectrum, pump_spectrum, 30.0,
                                         baseline_noise=w0)
        assert best_bell_fidelity(state)[0] == pytest.approx(0.922, abs=1e-9)

    @pytest.mark.parametrize("target", [0.922, 0.95, 0.7])
    def test_one_state_matches_two_probes(self, monkeypatch, fitted, paper_fiber,
                                          paper_compensators, signal_spectrum,
                                          pump_spectrum, target):
        real = counts_mod.effective_state_at_power
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(counts_mod, "effective_state_at_power", counted)
        w0 = calibrate_baseline_noise(fitted, paper_fiber, paper_compensators,
                                      signal_spectrum, pump_spectrum,
                                      avg_power_mw=30.0, target_fidelity=target)
        assert len(calls) == 1

        def fid_at(w):
            state = real(fitted, paper_fiber, paper_compensators, signal_spectrum,
                         pump_spectrum, 30.0, baseline_noise=w)
            return best_bell_fidelity(state)[0]

        # Bell fidelity is linear in the noise weight: two probes fix the line
        f0, f1 = fid_at(0.0), fid_at(0.1)
        assert f0 > target
        assert w0 == pytest.approx(0.1 * (target - f0) / (f1 - f0), rel=1e-12, abs=0.0)

    def test_unreachable_target_warns(self, fitted, paper_fiber, paper_compensators,
                                      signal_spectrum, pump_spectrum):
        with pytest.warns(RuntimeWarning, match="already at or below"):
            w0 = calibrate_baseline_noise(fitted, paper_fiber, paper_compensators,
                                          signal_spectrum, pump_spectrum,
                                          target_fidelity=0.99999)
        assert w0 == 0.0

    def test_targets_at_the_range_ends_accepted(self, fitted, paper_fiber, paper_compensators,
                                                signal_spectrum, pump_spectrum):
        # (1/4, 1]: just above 1/4 needs a weight just below 1, and 1 needs none
        args = (fitted, paper_fiber, paper_compensators, signal_spectrum, pump_spectrum)
        assert 0.0 < calibrate_baseline_noise(*args, target_fidelity=0.2501) < 1.0
        with pytest.warns(RuntimeWarning, match="already at or below"):
            assert calibrate_baseline_noise(*args, target_fidelity=1.0) == 0.0

    @pytest.mark.parametrize("target", [np.nan, np.inf, 0.25, 0.2, -1.0, 1.0 + 1e-9])
    def test_impossible_target_rejected(self, fitted, paper_fiber, paper_compensators,
                                        signal_spectrum, pump_spectrum, target):
        # any target <= 1/4 needs a white-noise weight >= 1; 0.2 returned 1.06
        with pytest.raises(ValueError, match="target fidelity"):
            calibrate_baseline_noise(fitted, paper_fiber, paper_compensators,
                                     signal_spectrum, pump_spectrum, target_fidelity=target)


def test_state_at_power_evaluates_the_phase_once(monkeypatch, paper_config):
    # on the quadrature nodes only: the mean-phase reference and the
    # node-doubling check both reuse the nodes' phase
    real = counts_mod.compensated_phase
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(counts_mod, "compensated_phase", counted)
    cfg = paper_config
    effective_state_at_power(cfg.noise, cfg.fiber, cfg.compensators, cfg.signal,
                             cfg.pump, 30.0, baseline_noise=cfg.baseline_noise)
    assert len(calls) == 1


#: The benchmark's sweep: 16 powers from 1 to 56 mW.
SWEEP_POWERS = np.linspace(1.0, 56.0, 16)


def test_power_sweep_evaluates_the_phase_once_per_group(monkeypatch, paper_config):
    # the powers share the signal axis: one phase call per group of pump
    # spectra, each on the first rule's nodes and probes of its pumps side
    # by side, 27 per axis; the first rule clears every power, so none
    # reaches a later rule, and the 16 powers fill one group
    real = counts_mod.compensated_phase
    calls = []

    def counted(*args, **kwargs):
        calls.append(np.broadcast(args[2], args[3]).size)
        return real(*args, **kwargs)

    monkeypatch.setattr(counts_mod, "compensated_phase", counted)
    cfg = paper_config
    visibility_vs_power(cfg.noise, cfg.fiber, cfg.compensators, SWEEP_POWERS, cfg.signal,
                        cfg.pump, baseline_noise=cfg.baseline_noise)
    assert len(calls) == -(-len(SWEEP_POWERS) // _PUMP_GROUP) == 1
    assert sum(calls) == len(SWEEP_POWERS) * 27 ** 2


def test_power_sweep_memory_peak(paper_config):
    # the 16 powers fill one group: its phase block on the first rule and
    # its temporaries, not the state rule's
    cfg = paper_config
    args = (cfg.noise, cfg.fiber, cfg.compensators, SWEEP_POWERS, cfg.signal, cfg.pump)
    visibility_vs_power(*args, baseline_noise=cfg.baseline_noise)
    tracemalloc.start()
    try:
        visibility_vs_power(*args, baseline_noise=cfg.baseline_noise)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 1024 * 1024


def test_state_at_power_memory_peak(paper_config):
    # one phase call on the nodes and probes, and the convergence check
    # estimates the aliasing error from that phase, with no second
    # evaluation; a tracemalloc peak, unlike a page-fault count, is the
    # same on every run
    cfg = paper_config
    args = (cfg.noise, cfg.fiber, cfg.compensators, cfg.signal, cfg.pump, 30.0)
    effective_state_at_power(*args, baseline_noise=cfg.baseline_noise)
    tracemalloc.start()
    try:
        effective_state_at_power(*args, baseline_noise=cfg.baseline_noise)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 512 * 1024


class TestStateAtPowerInputs:
    """Checked before the spectral state, for every caller of effective_state_at_power."""

    @pytest.fixture(autouse=True)
    def no_spectral_state(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("the spectral state was built before the inputs were checked")

        # the power sweep evaluates the phase without mixed_state_over_spectra
        monkeypatch.setattr(counts_mod, "mixed_state_over_spectra", fail)
        monkeypatch.setattr(counts_mod, "compensated_phase", fail)

    # NaN used to give the maximally mixed state, a negative weight "matrix has
    # a negative eigenvalue"
    @pytest.mark.parametrize("baseline", [np.nan, np.inf, -0.01, 1.5])
    def test_baseline_outside_unit_interval_rejected(self, paper_config, baseline):
        cfg = paper_config
        args = (cfg.noise, cfg.fiber, cfg.compensators)
        with pytest.raises(ValueError, match="baseline_noise must be in"):
            effective_state_at_power(*args, cfg.signal, cfg.pump, 30.0, baseline_noise=baseline)
        with pytest.raises(ValueError, match="baseline_noise must be in"):
            visibility_vs_power(*args, [30.0], cfg.signal, cfg.pump, baseline_noise=baseline)

    # used to fail inside GaussianSpectrum with "need a finite center and a finite fwhm > 0"
    @pytest.mark.parametrize("power", [np.nan, -1.0, np.inf])
    def test_impossible_power_rejected(self, paper_config, power):
        cfg = paper_config
        args = (cfg.noise, cfg.fiber, cfg.compensators)
        with pytest.raises(ValueError, match="power must be finite"):
            effective_state_at_power(*args, cfg.signal, cfg.pump, power)
        with pytest.raises(ValueError, match="power must be finite"):
            visibility_vs_power(*args, [power], cfg.signal, cfg.pump)
        # every power is checked before the first is evaluated
        with pytest.raises(ValueError, match="power must be finite"):
            visibility_vs_power(*args, [30.0, power], cfg.signal, cfg.pump)
        with pytest.raises(ValueError, match="power must be finite"):
            calibrate_baseline_noise(*args, cfg.signal, cfg.pump, avg_power_mw=power)

    def test_empty_sweep_evaluates_nothing(self, paper_config):
        cfg = paper_config
        assert visibility_vs_power(cfg.noise, cfg.fiber, cfg.compensators, iter(()),
                                   cfg.signal, cfg.pump) == []
