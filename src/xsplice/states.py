"""Effective two-qubit polarization state and its entanglement metrics.

The source emits (|HH> + e^{i phi}|VV>)/sqrt(2) with a phase that varies
across the pump and signal spectra. Averaging the projector over both
spectra leaves the populations untouched and damps the HH/VV coherence
by the spectral characteristic function of the phase:

    rho_HH,VV = (1/2) < e^{-i phi(ls, lp)} >_{p_s p_p}.

This average and the phase variance of compensator design share one
rule, ``spectral_grid``: uniform signal and pump axes kept open (a
column and a row) with normalised Gaussian weights. It converges
exponentially on smooth integrands (Trefethen & Weideman, SIAM Rev. 56,
385, 2014). Basis order throughout is (HH, HV, VH, VV).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GaussianSpectrum",
    "TwoQubitState",
    "bell_state",
    "werner_state",
    "pure_phi_state",
    "bandwidth_grid",
    "spectral_grid",
    "mixed_state_over_spectra",
    "spectral_mean_phase",
    "fidelity",
    "best_bell_fidelity",
    "state_fidelity",
    "concurrence",
    "tangle",
    "visibility",
    "relabel_signal_flip",
]

#: FWHM of a unit-variance Gaussian.
FWHM_PER_SIGMA = 2.3548200450309493

#: Half-width of the compensator-design and phase-map window, in sigma.
DESIGN_SPAN_SIGMAS = 3.0

#: Points per axis of the compensator-design and phase-map grid.
DESIGN_POINTS = 101

#: Points per axis of the state quadrature; the convergence check
#: repeats it with twice as many.
QUAD_NODES = 64

#: Half-width of the state-quadrature window in units of sigma. With
#: QUAD_NODES uniform points per axis over it, the truncated Gaussian
#: tails and the unhalved end points perturb the coherence at the 1e-9
#: level, far below the 1e-6 accuracy contract.
QUAD_SPAN_SIGMAS = 6.0

_HERMITICITY_TOL = 1e-12
_TRACE_TOL = 1e-12
_PSD_TOL = -1e-10


class VisibilityUndefinedError(ZeroDivisionError):
    """Both analyzer outcomes have zero probability."""


@dataclass(frozen=True)
class GaussianSpectrum:
    """Normalized Gaussian spectral density given by center and FWHM (nm)."""

    center_nm: float
    fwhm_nm: float

    def __post_init__(self):
        if self.fwhm_nm <= 0:
            raise ValueError(f"fwhm must be > 0, got {self.fwhm_nm}")

    @property
    def sigma_nm(self) -> float:
        return self.fwhm_nm / FWHM_PER_SIGMA

    def density(self, wavelength_nm):
        x = (np.asarray(wavelength_nm, dtype=float) - self.center_nm) / self.sigma_nm
        return np.exp(-0.5 * x * x) / (self.sigma_nm * np.sqrt(2.0 * np.pi))


@dataclass(frozen=True)
class TwoQubitState:
    """4x4 density matrix in the (HH, HV, VH, VV) basis."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
        if np.max(np.abs(m - m.conj().T)) > _HERMITICITY_TOL:
            raise ValueError("matrix is not Hermitian to 1e-12")
        if abs(np.trace(m).real - 1.0) > _TRACE_TOL or abs(np.trace(m).imag) > _TRACE_TOL:
            raise ValueError("matrix trace differs from 1 beyond 1e-12")
        eig = np.linalg.eigvalsh(m)
        if eig.min() < _PSD_TOL:
            raise ValueError(f"matrix has a negative eigenvalue {eig.min():.3e}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def to_json_dict(self) -> dict:
        return {
            "basis": ["HH", "HV", "VH", "VV"],
            "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in self.matrix],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "TwoQubitState":
        m = np.array([[complex(re, im) for re, im in row] for row in obj["matrix"]])
        return cls(m)


#: Single-qubit analyzer kets, shared by the visibilities and tomography.
ANALYZER_KETS = {
    "H": np.array([1.0, 0.0], dtype=complex),
    "V": np.array([0.0, 1.0], dtype=complex),
    "D": np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
    "A": np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0),
    "R": np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0),
    "L": np.array([1.0, -1.0j], dtype=complex) / np.sqrt(2.0),
}

_S = 1.0 / np.sqrt(2.0)
_BELL = {
    "phi+": np.array([_S, 0, 0, _S], dtype=complex),
    "phi-": np.array([_S, 0, 0, -_S], dtype=complex),
    "psi+": np.array([0, _S, _S, 0], dtype=complex),
    "psi-": np.array([0, _S, -_S, 0], dtype=complex),
}


def bell_state(name: str) -> np.ndarray:
    """State vector of a Bell state: 'phi+', 'phi-', 'psi+' or 'psi-'."""
    try:
        return _BELL[name].copy()
    except KeyError:
        raise ValueError(f"unknown Bell state {name!r}") from None


def werner_state(p: float, bell: str = "psi-") -> TwoQubitState:
    """p |bell><bell| + (1-p)/4 identity."""
    v = bell_state(bell)
    m = p * np.outer(v, v.conj()) + (1.0 - p) * np.eye(4) / 4.0
    return TwoQubitState(m)


def pure_phi_state(phi: float) -> TwoQubitState:
    """Projector onto (|HH> + e^{i phi} |VV>)/sqrt(2)."""
    v = np.array([1.0, 0.0, 0.0, np.exp(1j * phi)], dtype=complex) / np.sqrt(2.0)
    return TwoQubitState(np.outer(v, v.conj()))


def bandwidth_grid(center_nm: float, fwhm_nm: float, points: int = DESIGN_POINTS,
                   span_sigmas: float = DESIGN_SPAN_SIGMAS) -> np.ndarray:
    """Axis covering +/- span_sigmas of a Gaussian given by its FWHM."""
    half = span_sigmas * fwhm_nm / FWHM_PER_SIGMA
    return np.linspace(center_nm - half, center_nm + half, points)


def spectral_grid(signal: GaussianSpectrum, pump: GaussianSpectrum,
                  points: int, span_sigmas: float) -> tuple:
    """Open axes and joint weights of the one spectral rule.

    Returns ``(ls, lp, w)`` with the signal axis as a column
    ``(points, 1)``, the pump axis as a row ``(1, points)`` and ``w`` the
    product of the two densities on them, normalised to sum 1, so the
    spectral average of ``fn`` is ``np.sum(w * fn(ls, lp))``.
    """
    ls = bandwidth_grid(signal.center_nm, signal.fwhm_nm, points, span_sigmas)[:, None]
    lp = bandwidth_grid(pump.center_nm, pump.fwhm_nm, points, span_sigmas)[None, :]
    w = signal.density(ls) * pump.density(lp)
    return ls, lp, w / w.sum()


def _spectral_average(fn, signal: GaussianSpectrum, pump: GaussianSpectrum,
                      nodes: int):
    ls, lp, w = spectral_grid(signal, pump, nodes, QUAD_SPAN_SIGMAS)
    return np.sum(w * fn(ls, lp))


def spectral_mean_phase(phase_fn, signal: GaussianSpectrum,
                        pump: GaussianSpectrum) -> float:
    """Spectrum-weighted mean of a phase function, in radians.

    Useful for referencing a phase model to its mean before building a
    state: the constant part of the phase is set by the compensator
    wedges in practice and carries no physics.
    """
    return float(_spectral_average(phase_fn, signal, pump, QUAD_NODES))


def mixed_state_over_spectra(phase_fn, signal: GaussianSpectrum,
                             pump: GaussianSpectrum,
                             nodes: int = QUAD_NODES) -> TwoQubitState:
    """Average the pure-state projector over both spectra.

    ``phase_fn(lambda_s_nm, lambda_p_nm)`` must accept broadcastable
    arrays (a signal column and a pump row) and return the relative
    phase in radians. A constant phase reproduces ``pure_phi_state``
    exactly. The quadrature is repeated with doubled node count and a
    warning is issued if the coherence magnitude moves by more than 1e-6.
    """
    def coherence(n):
        return _spectral_average(lambda s, p: np.exp(-1j * phase_fn(s, p)),
                                 signal, pump, n)

    coh = coherence(nodes)
    coh2 = coherence(2 * nodes)
    if abs(abs(coh2) - abs(coh)) > 1e-6:
        warnings.warn(
            f"spectral quadrature not converged: doubling nodes moved the "
            f"coherence magnitude by {abs(abs(coh2) - abs(coh)):.2e}",
            RuntimeWarning,
        )
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[3, 3] = 0.5
    m[0, 3] = 0.5 * coh
    m[3, 0] = np.conj(m[0, 3])
    return TwoQubitState(m)


def fidelity(state: TwoQubitState, target: np.ndarray) -> float:
    """Overlap <psi| rho |psi> with a normalized pure target."""
    v = np.asarray(target, dtype=complex).reshape(4)
    norm = np.vdot(v, v).real
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"target is not normalized (|psi|^2 = {norm:.12g})")
    return float(np.real(np.vdot(v, state.matrix @ v)))


def best_bell_fidelity(state: TwoQubitState) -> tuple:
    """Highest fidelity over the four Bell states; returns (value, name)."""
    scores = {name: fidelity(state, bell_state(name))
              for name in ("phi+", "phi-", "psi+", "psi-")}
    name = max(scores, key=scores.get)
    return scores[name], name


def state_fidelity(a: TwoQubitState, b: TwoQubitState) -> float:
    """Uhlmann fidelity between two density matrices, clipped to [0, 1].

    Both square roots are taken on the Hermitian eigendecomposition with
    rounding-negative eigenvalues clipped to 0, so rank-deficient (pure)
    states need no singular matrix square root.
    """
    w, v = np.linalg.eigh(np.asarray(a.matrix))
    s = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    mu = np.linalg.eigvalsh(s @ np.asarray(b.matrix) @ s)
    f = np.sum(np.sqrt(np.clip(mu, 0.0, None))) ** 2
    return float(min(max(f, 0.0), 1.0))


_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SY_SY = np.kron(_SIGMA_Y, _SIGMA_Y)


def concurrence(state: TwoQubitState) -> float:
    """Wootters concurrence from the spin-flipped spectrum."""
    rho = state.matrix
    r = rho @ _SY_SY @ rho.conj() @ _SY_SY
    eig = np.linalg.eigvals(r).real
    mu = np.sqrt(np.clip(np.sort(eig)[::-1], 0.0, None))
    return float(max(0.0, mu[0] - mu[1] - mu[2] - mu[3]))


def tangle(state: TwoQubitState) -> float:
    """Squared concurrence."""
    return concurrence(state) ** 2


#: Per basis, the product kets of analyzer 1 on the first basis vector
#: with analyzer 2 on each of the two.
_VISIBILITY_KETS = {
    basis: tuple(np.kron(ANALYZER_KETS[first], ANALYZER_KETS[k]) for k in (first, second))
    for basis, (first, second) in (("rectilinear", "HV"), ("diagonal", "DA"))
}


def visibility(state: TwoQubitState, basis: str = "rectilinear") -> float:
    """Two-photon coincidence visibility in a polarization basis.

    Analyzer 1 is fixed on the first basis vector while analyzer 2 scans
    both; V = (C_max - C_min) / (C_max + C_min) of the two coincidence
    probabilities.
    """
    try:
        kets = _VISIBILITY_KETS[basis]
    except KeyError:
        raise ValueError(f"basis must be one of {sorted(_VISIBILITY_KETS)}, got {basis!r}") from None
    probs = [float(np.real(np.vdot(v, state.matrix @ v))) for v in kets]
    total = probs[0] + probs[1]
    if total <= 0.0:
        raise VisibilityUndefinedError(
            f"visibility undefined in the {basis} basis: zero total coincidence probability"
        )
    return (max(probs) - min(probs)) / total


_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_FLIP = np.kron(_SIGMA_X, np.eye(2))


def relabel_signal_flip(state: TwoQubitState) -> TwoQubitState:
    """Conjugate by sigma_x on the signal qubit (the half-wave plate).

    Involutive local unitary; maps the Phi family onto the Psi family
    and leaves every entanglement monotone unchanged.
    """
    return TwoQubitState(_FLIP @ state.matrix @ _FLIP)
