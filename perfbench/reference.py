"""Computations made apart from the program, for the output checks.

Everything here is written from the physics and the published
coefficients, not by calling xsplice: Sellmeier indices read straight
from ``src/xsplice/data/materials.json``, the vector phase mismatch,
the closed-form birefringence calibration, the count-rate formulas,
an independent spectral quadrature, the 36 tomography projectors, the
Poisson likelihood and the Uhlmann fidelity.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

EPS = np.finfo(float).eps

#: Phase-matching tolerance the solver promises, rad/m.
MISMATCH_TOL = 1e-6

FWHM_PER_SIGMA = 2.0 * np.sqrt(2.0 * np.log(2.0))


class Sellmeier:
    """n(lambda)^2 = 1 + sum B lambda^2 / (lambda^2 - C), lambda in um."""

    def __init__(self, terms):
        self.b = np.array([t[0] for t in terms], dtype=float)
        self.c = np.array([t[1] for t in terms], dtype=float)

    def n(self, wavelength_nm):
        lam2 = (np.asarray(wavelength_nm, dtype=float)[..., None] / 1000.0) ** 2
        return np.sqrt(1.0 + np.sum(self.b * lam2 / (lam2 - self.c), axis=-1))


def load_sellmeier(root: Path) -> dict:
    raw = json.loads((root / "src" / "xsplice" / "data" / "materials.json").read_text())
    return {name: Sellmeier(entry["terms"]) for name, entry in raw.items()}


def mismatch_terms(core: Sellmeier, b, lp_nm, ls_nm, li_nm):
    """The three k-vector terms (rad/m) of dk = kp_term - ks - ki."""
    m = 1e-9
    kp = 2.0 * np.pi * 2.0 * (core.n(lp_nm) + b) / (lp_nm * m)
    ks = 2.0 * np.pi * core.n(ls_nm) / (ls_nm * m)
    ki = 2.0 * np.pi * core.n(li_nm) / (li_nm * m)
    return kp, ks, ki


def mismatch_with_tol(core: Sellmeier, b, lp_nm, ls_nm, li_nm) -> tuple:
    """(|dk|, allowed) at a solved point: the solver's 1e-6 rad/m plus
    the rounding of two independent evaluations of the three terms."""
    kp, ks, ki = mismatch_terms(core, b, lp_nm, ls_nm, li_nm)
    return abs(kp - ks - ki), MISMATCH_TOL + 16.0 * EPS * (kp + ks + ki)


def closed_form_birefringence(core: Sellmeier, lp_nm, ls_nm) -> tuple:
    """B that phase-matches (lp, ls) exactly, B = -dk(B=0) lp / (4 pi),
    and dB/d(ls) in 1/nm, which converts a signal tolerance into B."""
    def b_of(ls):
        li = ls * lp_nm / (2.0 * ls - lp_nm)
        kp, ks, ki = mismatch_terms(core, 0.0, lp_nm, ls, li)
        return -(kp - ks - ki) * lp_nm * 1e-9 / (4.0 * np.pi)

    h = 1e-3
    return b_of(ls_nm), (b_of(ls_nm + h) - b_of(ls_nm - h)) / (2.0 * h)


def energy_conserved(lp, ls, li) -> bool:
    return abs(2.0 / lp - 1.0 / ls - 1.0 / li) <= 1e-12 * (2.0 / lp) and ls < lp < li


def rates(noise, power_mw) -> dict:
    """True coincidences and accidentals per second from the rate formulas."""
    pairs = noise.pair_rate_coeff * power_mw ** 2
    singles_s = noise.eta_s * pairs + noise.raman_s * power_mw + noise.dark_s
    singles_i = noise.eta_i * pairs + noise.raman_i * power_mw + noise.dark_i
    return {"true": noise.eta_s * noise.eta_i * pairs,
            "acc": singles_s * singles_i / noise.rep_rate_hz}


def white_noise_weight(noise, power_mw, baseline) -> float:
    r = rates(noise, power_mw)
    return min(1.0, baseline + r["acc"] / (r["true"] + r["acc"]))


def coherence_magnitude(phase_fn, signal_center, signal_fwhm, pump_center,
                        pump_fwhm, points=301, span_sigmas=8.0) -> float:
    """|<exp(-i phi)>| over two Gaussian spectra by the trapezoid rule.

    The integrand is smooth and its Gaussian weight is negligible at
    the edges, so the uniform rule converges far faster than 1e-6.
    """
    def axis(center, fwhm):
        sigma = fwhm / FWHM_PER_SIGMA
        x = np.linspace(-span_sigmas, span_sigmas, points)
        return center + sigma * x, np.exp(-0.5 * x * x)

    ls, ws = axis(signal_center, signal_fwhm)
    lp, wp = axis(pump_center, pump_fwhm)
    S, P = np.meshgrid(ls, lp, indexing="ij")
    w = np.outer(ws, wp)
    return float(abs(np.sum(w * np.exp(-1j * phase_fn(S, P))) / np.sum(w)))


_ANALYZER = {
    "H": np.array([1.0, 0.0]), "V": np.array([0.0, 1.0]),
    "D": np.array([1.0, 1.0]) / np.sqrt(2.0), "A": np.array([1.0, -1.0]) / np.sqrt(2.0),
    "R": np.array([1.0, 1.0j]) / np.sqrt(2.0), "L": np.array([1.0, -1.0j]) / np.sqrt(2.0),
}


def projector(label: str) -> np.ndarray:
    """|ab><ab| for a two-letter analyzer label such as 'HD'."""
    v = np.kron(_ANALYZER[label[0]], _ANALYZER[label[1]]).astype(complex)
    return np.outer(v, v.conj())


def poisson_nll(rho, labels, counts, n_per_setting) -> float:
    """-log L up to a rho-independent constant, lambda = n Tr(rho Pi)."""
    lam = np.array([n_per_setting * np.trace(rho @ projector(lb)).real for lb in labels])
    c = np.asarray(counts, dtype=float)
    return float(np.sum(lam - c * np.log(lam)))


def _psd_sqrt(m):
    w, u = np.linalg.eigh(m)
    return (u * np.sqrt(np.clip(w, 0.0, None))) @ u.conj().T


def uhlmann_fidelity(a, b) -> float:
    s = _psd_sqrt(a)
    return float(np.sum(np.sqrt(np.clip(np.linalg.eigvalsh(s @ b @ s), 0.0, None))) ** 2)


def weighted_std(values, weights) -> float:
    w = weights / weights.sum()
    mean = np.sum(w * values)
    return float(np.sqrt(np.sum(w * (values - mean) ** 2)))


def gaussian(x, center, fwhm):
    sigma = fwhm / FWHM_PER_SIGMA
    return np.exp(-0.5 * ((np.asarray(x) - center) / sigma) ** 2)
