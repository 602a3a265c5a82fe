"""Phenomenological count-rate model of the source.

Pair production scales with the square of the average pump power,
spontaneous Raman background linearly, and detector dark counts not at
all. With a pulsed pump and a coincidence window shorter than the pulse
period, accidental coincidences occupy exactly one pulse slot, giving
the classic singles_s * singles_i / rep_rate estimate.

Rates use mW for power and counts/s throughout; efficiencies are full
detection-path efficiencies (fiber to detector click).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace, fields as dc_fields

import numpy as np

from .states import (
    GaussianSpectrum,
    TwoQubitState,
    best_bell_fidelity,
    mixed_state_over_spectra,
    spectral_coherences,
    spectral_mean_phase,  # noqa: F401 -- unused; perfbench/tracing.py rebinds it here
)
from .phase import compensated_phase

__all__ = [
    "CountRecord",
    "NoiseParams",
    "FitError",
    "heralding_efficiencies",
    "splice_transmission_bound",
    "expected_rates",
    "predict_counts",
    "car",
    "fit_params",
    "effective_state_at_power",
    "calibrate_baseline_noise",
    "visibility_vs_power",
]


class FitError(RuntimeError):
    pass


def _check_fields(obj, names: tuple):
    """``ValueError`` naming the first of ``obj``'s fields ``names`` not finite and >= 0."""
    for name in names:
        if not 0.0 <= getattr(obj, name) < math.inf:
            raise ValueError(f"{name} must be finite and >= 0")


@dataclass(frozen=True)
class CountRecord:
    """Totals and backgrounds for one integration interval."""

    duration_s: float
    signal_total: float
    signal_background: float
    idler_total: float
    idler_background: float
    coincidences_total: float
    coincidences_background: float

    def __post_init__(self):
        _check_fields(self, _RECORD_FIELDS)
        for chan, background, total in _RECORD_CHANNELS:
            if getattr(self, background) > getattr(self, total):
                raise ValueError(f"{chan} background exceeds total")


#: ``CountRecord``'s field names in order, and each channel with its
#: background and total fields: the names its checks read, built once.
_RECORD_FIELDS = tuple(f.name for f in dc_fields(CountRecord))
_RECORD_CHANNELS = tuple((chan, f"{chan}_background", f"{chan}_total")
                         for chan in ("signal", "idler", "coincidences"))


@dataclass(frozen=True)
class NoiseParams:
    """Rate coefficients of the count model.

    pair_rate_coeff : pairs/(s mW^2) produced in the fiber
    raman_s, raman_i : background counts/(s mW) per arm
    dark_s, dark_i : counts/s per arm
    eta_s, eta_i : detection-path efficiencies in [0, 1]
    rep_rate_hz, window_s : pulse rate and coincidence window
    spm_coeff : fractional pump-bandwidth broadening per mW
    """

    pair_rate_coeff: float
    raman_s: float
    raman_i: float
    dark_s: float
    dark_i: float
    eta_s: float
    eta_i: float
    rep_rate_hz: float = 76e6
    window_s: float = 1e-9
    spm_coeff: float = 0.0

    def __post_init__(self):
        _check_fields(self, _PARAM_FIELDS)
        if not self.rep_rate_hz:
            raise ValueError("rep_rate_hz must be > 0")
        if self.eta_s > 1 or self.eta_i > 1:
            raise ValueError("efficiencies must be <= 1")
        if self.window_s * self.rep_rate_hz > 1:
            raise ValueError("window_s * rep_rate_hz must be <= 1 (single pulse slot)")


#: ``NoiseParams``' field names in order, which its check and ``fit_params`` read.
_PARAM_FIELDS = tuple(f.name for f in dc_fields(NoiseParams))


def heralding_efficiencies(rec: CountRecord) -> tuple:
    """Background-subtracted heralding efficiencies (signal, idler)."""
    true_coinc = rec.coincidences_total - rec.coincidences_background
    singles_i = rec.idler_total - rec.idler_background
    singles_s = rec.signal_total - rec.signal_background
    if singles_i <= 0 or singles_s <= 0:
        raise ZeroDivisionError("background-subtracted singles must be positive")
    return true_coinc / singles_i, true_coinc / singles_s


def splice_transmission_bound(rec_first_fiber: CountRecord,
                              rec_second_fiber: CountRecord,
                              wavelength_arm: str = "signal") -> float:
    """Lower bound on the splice transmission at one wavelength.

    Pairs born in the first fiber traverse the splice, those born in the
    second do not, so the ratio of their heralding efficiencies in the
    chosen arm bounds the splice transmission from below. Clamped to
    [0, 1].
    """
    if wavelength_arm not in ("signal", "idler"):
        raise ValueError(f"wavelength_arm must be 'signal' or 'idler', got {wavelength_arm!r}")
    k = 0 if wavelength_arm == "signal" else 1
    eta_cross = heralding_efficiencies(rec_first_fiber)[k]
    eta_direct = heralding_efficiencies(rec_second_fiber)[k]
    if eta_direct <= 0:
        raise ZeroDivisionError("reference heralding efficiency is zero")
    return min(max(eta_cross / eta_direct, 0.0), 1.0)


def expected_rates(p: NoiseParams, avg_power_mw: float) -> dict:
    """Expectation rates (per second) at one average pump power."""
    if not 0.0 <= avg_power_mw < math.inf:
        raise ValueError(f"power must be finite and >= 0, got {avg_power_mw!r}")
    pw = avg_power_mw
    pairs = p.pair_rate_coeff * pw * pw
    bg_s = p.raman_s * pw + p.dark_s
    bg_i = p.raman_i * pw + p.dark_i
    singles_s = p.eta_s * pairs + bg_s
    singles_i = p.eta_i * pairs + bg_i
    true_coinc = p.eta_s * p.eta_i * pairs
    accidentals = singles_s * singles_i / p.rep_rate_hz
    return {
        "pairs": pairs,
        "singles_s": singles_s,
        "singles_i": singles_i,
        "background_s": bg_s,
        "background_i": bg_i,
        "true_coincidences": true_coinc,
        "accidentals": accidentals,
    }


#: numpy's largest Poisson mean, about 9.2e18: int64's largest less ten of its square roots.
_POISSON_MAX_MEAN = np.iinfo(np.int64).max - 10.0 * np.sqrt(np.iinfo(np.int64).max)


def _poisson(seed, means: np.ndarray) -> np.ndarray:
    """Draws of ``means``, in order, from ``default_rng(seed)``; a mean too large is named."""
    largest = max(means, default=0.0)
    if largest > _POISSON_MAX_MEAN:
        raise ValueError(f"expected count {largest:.3g} exceeds the largest Poisson mean "
                         f"the sampler accepts, {_POISSON_MAX_MEAN:.3g}")
    return np.random.default_rng(seed).poisson(means)


def predict_counts(p: NoiseParams, avg_power_mw: float, duration_s: float,
                   seed=None, expectation: bool = False) -> CountRecord:
    """Counts over an integration interval.

    With ``expectation=True`` the record holds the exact rate formulas
    times the duration (no sampling). Otherwise each independent count
    contribution is Poisson sampled, in one draw seeded by ``seed``;
    totals are built as sums of their components so the per-channel
    background never exceeds the total.
    """
    if not 0.0 <= duration_s < math.inf:
        raise ValueError(f"duration must be finite and >= 0, got {duration_s!r}")
    r = expected_rates(p, avg_power_mw)
    t = duration_s
    means = [m * t for m in (p.eta_s * r["pairs"], p.eta_i * r["pairs"], r["background_s"],
                             r["background_i"], r["true_coincidences"], r["accidentals"])]
    counts = means if expectation else _poisson(seed, means).astype(float).tolist()
    pair_s, pair_i, bg_s, bg_i, true_c, acc = counts
    return CountRecord(
        duration_s=t,
        signal_total=pair_s + bg_s,
        signal_background=bg_s,
        idler_total=pair_i + bg_i,
        idler_background=bg_i,
        coincidences_total=true_c + acc,
        coincidences_background=acc,
    )


def car(p: NoiseParams, avg_power_mw: float) -> float:
    """Coincidences-to-accidentals ratio at one power (expectation)."""
    if not 0.0 < avg_power_mw < math.inf:
        raise ValueError(f"power must be finite and > 0, got {avg_power_mw!r}")
    r = expected_rates(p, avg_power_mw)
    if r["accidentals"] == 0.0:
        return float("inf")
    return r["true_coincidences"] / r["accidentals"]


_OBSERVABLES = {
    "car": lambda p, pw: car(p, pw),
    "pair_rate": lambda p, pw: expected_rates(p, pw)["pairs"],
}

_DEFAULT_FREE = ("pair_rate_coeff", "raman_s", "raman_i")
_LM_TRIALS = 200  # trial steps, taken or rejected, before a fit gives up


def _levenberg_marquardt(fun, x):
    """Levenberg-Marquardt (More, LNM 630, 1978) for ``min |fun(x)|^2``; ``(x, fun(x))``.

    Forward-difference Jacobian, steps ``sqrt(eps) max(|x|, 1)``. A trial step solves
    ``(J^T J + lam diag(J^T J)) dx = -J^T r`` and is taken if it lowers the cost (lam / 10;
    else lam * 10). A column that no residual depends on takes no step. Stops when the
    step no longer changes ``exp(x)``, x being log-parameters: no damped step lowers it.
    """
    r, lam, jac = fun(x), 1e-3, None
    if not np.isfinite(r @ r):
        raise FitError("the model is not finite at the start values")
    for _ in range(_LM_TRIALS):
        if jac is None:
            h = np.sqrt(np.finfo(float).eps) * np.maximum(np.abs(x), 1.0)
            jac = np.column_stack([(fun(x + hj * e) - r) / hj
                                   for hj, e in zip(h, np.eye(len(x)))])
            jtj, grad = jac.T @ jac, jac.T @ r
            live = np.diag(jtj) > 0.0
            sub = jtj[np.ix_(live, live)]
        dx = np.zeros_like(x)
        dx[live] = np.linalg.solve(sub + lam * np.diag(np.diag(sub)), -grad[live])
        if np.array_equal(np.exp(x + dx), np.exp(x)):
            return x, r
        trial = fun(x + dx)
        if trial @ trial < r @ r:
            x, r, lam, jac = x + dx, trial, lam / 10.0, None
        else:
            lam *= 10.0
    raise FitError(f"parameter fit did not converge in {_LM_TRIALS} trial steps")


def fit_params(targets, base: NoiseParams, free=_DEFAULT_FREE) -> tuple:
    """Least-squares calibration of selected coefficients.

    ``targets`` is a list of ``(power_mw, observable, value)`` with observable car or
    pair_rate. Residuals are differences of logs, so targets spanning decades weigh
    equally. Returns ``(params, residuals)`` with residuals as relative errors per
    target; a coefficient the fit leaves unmoved keeps its ``base`` value. ``FitError``
    if the model is not finite at the start or a step leaves ``NoiseParams``' domain.
    """
    free = tuple(free)
    if not free or len(set(free)) < len(free) or not set(_PARAM_FIELDS).issuperset(free):
        raise ValueError(f"free must name distinct NoiseParams fields, got {free!r}")
    if len(targets) < len(free):
        raise FitError(
            f"underdetermined fit: {len(targets)} target(s) for {len(free)} free parameter(s)"
        )
    for _, obs, val in targets:
        if obs not in _OBSERVABLES:
            raise ValueError(f"unknown observable {obs!r}; choose from {sorted(_OBSERVABLES)}")
        if not 0.0 < val < math.inf:
            raise ValueError("target values must be finite and positive for a log-space fit")

    x0 = np.log([max(getattr(base, name), 1e-12) for name in free])

    def residuals(logx):
        try:
            p = replace(base, **{name: float(np.exp(v)) for name, v in zip(free, logx)})
        except ValueError as exc:
            raise FitError(f"parameter fit left the model's domain: {exc}") from None
        return np.array([np.log(max(_OBSERVABLES[obs](p, pw), 1e-300)) - np.log(val)
                         for pw, obs, val in targets])

    x, r = _levenberg_marquardt(residuals, x0)
    fitted = replace(base, **{name: float(np.exp(v))
                              for name, v, v0 in zip(free, x, x0) if v != v0})
    rel = {f"{obs}@{pw:g}mW": float(np.expm1(ri)) for (pw, obs, _), ri in zip(targets, r)}
    return fitted, rel


def _background_fraction(p: NoiseParams, avg_power_mw: float) -> float:
    r = expected_rates(p, avg_power_mw)
    total = r["true_coincidences"] + r["accidentals"]
    if total == 0.0:
        return 0.0
    return r["accidentals"] / total


def _check_baseline(baseline_noise: float, error=ValueError) -> float:
    """``baseline_noise`` if it is in [0, 1), else ``error``; at 1 the state is white noise alone.

    The weight's one domain, for the library and for ``load_config``,
    which passes ``ConfigError``.
    """
    if not 0.0 <= baseline_noise < 1.0:
        raise error(f"baseline_noise must be in [0, 1), got {baseline_noise!r}")
    return baseline_noise


def _noise_weight(p: NoiseParams, avg_power_mw: float, baseline_noise: float) -> float:
    """White-noise weight at one power; checks the power, then ``baseline_noise``."""
    w = min(1.0, baseline_noise + _background_fraction(p, avg_power_mw))  # checks the power
    _check_baseline(baseline_noise)
    return w


def _broadened(p: NoiseParams, pump_spectrum: GaussianSpectrum,
               avg_power_mw: float) -> GaussianSpectrum:
    """The pump spectrum with its FWHM broadened by (1 + spm_coeff * P)."""
    return GaussianSpectrum(pump_spectrum.center_nm,
                            pump_spectrum.fwhm_nm * (1.0 + p.spm_coeff * avg_power_mw))


def effective_state_at_power(p: NoiseParams, fiber, comps,
                             signal_spectrum: GaussianSpectrum,
                             pump_spectrum: GaussianSpectrum,
                             avg_power_mw: float,
                             baseline_noise: float = 0.0) -> TwoQubitState:
    """Two-qubit state of the source at one pump power.

    The pump FWHM is broadened by (1 + spm_coeff * P), the spectral
    mixture is rebuilt with the fixed compensators (referenced to the
    mean phase, which the tunable wedges absorb), and white noise is
    admixed with weight equal to the background fraction of coincidences
    plus ``baseline_noise`` (power-independent depolarization not caused
    by counting statistics), a weight in [0, 1).
    """
    w = _noise_weight(p, avg_power_mw, baseline_noise)
    rho_spec = mixed_state_over_spectra(
        lambda ls, lp: compensated_phase(fiber, comps, ls, lp), signal_spectrum,
        _broadened(p, pump_spectrum, avg_power_mw), relative_to_mean=True)
    return TwoQubitState((1.0 - w) * rho_spec.matrix + w * np.eye(4) / 4.0)


def calibrate_baseline_noise(p: NoiseParams, fiber, comps,
                             signal_spectrum: GaussianSpectrum,
                             pump_spectrum: GaussianSpectrum,
                             avg_power_mw: float = 30.0,
                             target_fidelity: float = 0.922) -> float:
    """Power-independent noise weight that reproduces a measured fidelity.

    White noise of total weight w maps every Bell fidelity F of the
    spectral state to (1 - w) F + w/4. With f0 the fidelity at the
    background weight bg alone, the extra weight that reaches the target
    is (f0 - target)(1 - bg)/(f0 - 1/4), in closed form from one state.
    Returns 0 if the model alone is already at or below the target. A
    target at or below 1/4 would need a total noise weight of 1 or more,
    so the target must be finite and in (1/4, 1].
    """
    if not 0.25 < target_fidelity <= 1.0:
        raise ValueError(f"target fidelity must be in (1/4, 1], got {target_fidelity!r}")
    state = effective_state_at_power(p, fiber, comps, signal_spectrum,
                                     pump_spectrum, avg_power_mw)
    f0 = best_bell_fidelity(state)[0]
    if f0 <= target_fidelity:
        warnings.warn(
            f"model fidelity {f0:.4f} already at or below the target "
            f"{target_fidelity:.4f}; baseline set to 0", RuntimeWarning)
        return 0.0
    bg = _background_fraction(p, avg_power_mw)
    return (f0 - target_fidelity) * (1.0 - bg) / (f0 - 0.25)


def visibility_vs_power(p: NoiseParams, fiber, comps, powers_mw,
                        signal_spectrum: GaussianSpectrum,
                        pump_spectrum: GaussianSpectrum,
                        baseline_noise: float = 0.0) -> list:
    """Rectilinear and diagonal visibilities across a power sweep.

    Returns a list of ``(power_mw, v_rect, v_diag)`` tuples, one per
    power of the iterable ``powers_mw``, in closed form from the noise
    weight w and the spectral coherence c at that power. The state of
    ``effective_state_at_power`` is the X state (1 - w) rho_spec + w I/4,
    where rho_spec has 1/2 on HH and VV and c/2 between them. HH holds
    (2 - w)/4 and HV w/4 of their sum 1/2, so V_rect = 1 - w; DD and DA
    hold (1 +- (1 - w) Re c)/4, so V_diag = (1 - w)|Re c|, exactly.
    Every power and ``baseline_noise`` are checked before any phase is
    evaluated. The real parts Re c of all powers come from one
    ``spectral_coherences`` call with ``real=True``, which evaluates the
    phase once per group of 16 broadened pump spectra on its first rule,
    and once more on each later rule for the powers of the group that
    fall back to it, and gives each the bits and the warnings of the complex
    coherence; Im c is computed only for a power whose convergence check
    reruns on the doubled rule, and no state is built.
    """
    powers = [float(pw) for pw in powers_mw]
    weights = [_noise_weight(p, pw, baseline_noise) for pw in powers]
    real_parts = spectral_coherences(
        lambda ls, lp: compensated_phase(fiber, comps, ls, lp), signal_spectrum,
        [_broadened(p, pump_spectrum, pw) for pw in powers], relative_to_mean=True, real=True)
    return [(pw, 1.0 - w, (1.0 - w) * abs(re))
            for pw, w, re in zip(powers, weights, real_parts)]
