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
    spectral_mean_phase,  # noqa: F401 -- unused; perfbench/tracing.py rebinds it here
    visibility,
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
        for f in dc_fields(self):
            if not 0.0 <= getattr(self, f.name) < math.inf:
                raise ValueError(f"{f.name} must be finite and >= 0")
        for chan in ("signal", "idler", "coincidences"):
            if getattr(self, f"{chan}_background") > getattr(self, f"{chan}_total"):
                raise ValueError(f"{chan} background exceeds total")


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
        for f in dc_fields(self):
            if not 0.0 <= getattr(self, f.name) < math.inf:
                raise ValueError(f"{f.name} must be finite and >= 0")
        if self.eta_s > 1 or self.eta_i > 1:
            raise ValueError("efficiencies must be <= 1")
        if self.window_s * self.rep_rate_hz > 1:
            raise ValueError("window_s * rep_rate_hz must be <= 1 (single pulse slot)")


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


def predict_counts(p: NoiseParams, avg_power_mw: float, duration_s: float,
                   seed=None, expectation: bool = False) -> CountRecord:
    """Counts over an integration interval.

    With ``expectation=True`` the record holds the exact rate formulas
    times the duration (no sampling). Otherwise each independent count
    contribution is Poisson sampled with a generator seeded by ``seed``;
    totals are built as sums of their components so the per-channel
    background never exceeds the total.
    """
    r = expected_rates(p, avg_power_mw)
    t = duration_s
    means = {
        "pair_s": p.eta_s * r["pairs"] * t,
        "pair_i": p.eta_i * r["pairs"] * t,
        "bg_s": r["background_s"] * t,
        "bg_i": r["background_i"] * t,
        "true_c": r["true_coincidences"] * t,
        "acc": r["accidentals"] * t,
    }
    if expectation:
        draw = means
    else:
        rng = np.random.default_rng(seed)
        draw = {k: float(rng.poisson(v)) for k, v in means.items()}
    return CountRecord(
        duration_s=t,
        signal_total=draw["pair_s"] + draw["bg_s"],
        signal_background=draw["bg_s"],
        idler_total=draw["pair_i"] + draw["bg_i"],
        idler_background=draw["bg_i"],
        coincidences_total=draw["true_c"] + draw["acc"],
        coincidences_background=draw["acc"],
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
    by counting statistics).
    """
    broadened = GaussianSpectrum(
        pump_spectrum.center_nm,
        pump_spectrum.fwhm_nm * (1.0 + p.spm_coeff * avg_power_mw),
    )
    rho_spec = mixed_state_over_spectra(
        lambda ls, lp: compensated_phase(fiber, comps, ls, lp), signal_spectrum, broadened,
        relative_to_mean=True)
    w = min(1.0, baseline_noise + _background_fraction(p, avg_power_mw))
    m = (1.0 - w) * rho_spec.matrix + w * np.eye(4) / 4.0
    return TwoQubitState(m)


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

    Returns a list of ``(power_mw, v_rect, v_diag)`` tuples built from
    ``effective_state_at_power`` at each power.
    """
    rows = []
    for pw in powers_mw:
        state = effective_state_at_power(
            p, fiber, comps, signal_spectrum, pump_spectrum, float(pw),
            baseline_noise=baseline_noise)
        rows.append((float(pw), visibility(state, "rectilinear"), visibility(state, "diagonal")))
    return rows
