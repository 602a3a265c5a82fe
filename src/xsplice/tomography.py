"""Simulated polarization tomography and maximum-likelihood reconstruction.

Measurements are product projectors assembled from the six standard
single-qubit analyzer states H, V, D, A, R, L (36 settings, over-
complete). Counts are independent Poisson draws per setting. The
reconstruction maximizes the Poisson log-likelihood over physical states
written as rho = T T^dagger / tr(T T^dagger) with T lower triangular
(16 real parameters), using L-BFGS with restarts.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .states import TwoQubitState, bell_state, fidelity, tangle

__all__ = [
    "MeasurementSetting",
    "TomographyData",
    "standard_settings",
    "born_probabilities",
    "simulate_counts",
    "reconstruct_mle",
    "error_bars",
]

_NORM_TOL = 1e-12

_SINGLE = {
    "H": np.array([1.0, 0.0], dtype=complex),
    "V": np.array([0.0, 1.0], dtype=complex),
    "D": np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
    "A": np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0),
    "R": np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0),
    "L": np.array([1.0, -1.0j], dtype=complex) / np.sqrt(2.0),
}


@dataclass(frozen=True)
class MeasurementSetting:
    """Product projector |a><a| (x) |b><b| on the signal/idler qubits."""

    projector_signal: np.ndarray
    projector_idler: np.ndarray
    label: str = ""

    def __post_init__(self):
        for name in ("projector_signal", "projector_idler"):
            v = np.asarray(getattr(self, name), dtype=complex).reshape(2)
            if abs(np.vdot(v, v).real - 1.0) > _NORM_TOL:
                raise ValueError(f"{name} is not unit norm")
            v.setflags(write=False)
            object.__setattr__(self, name, v)

    @property
    def joint_vector(self) -> np.ndarray:
        return np.kron(self.projector_signal, self.projector_idler)


@dataclass(frozen=True)
class TomographyData:
    """Counts per setting plus the per-setting exposure normalization."""

    settings: tuple
    counts: tuple
    total_per_setting: float

    def __post_init__(self):
        if len(self.settings) != len(self.counts):
            raise ValueError("settings and counts length mismatch")
        if any(c < 0 for c in self.counts):
            raise ValueError("counts must be >= 0")
        object.__setattr__(self, "settings", tuple(self.settings))
        object.__setattr__(self, "counts", tuple(float(c) for c in self.counts))


def standard_settings() -> list:
    """All 36 product settings from the six analyzer states per arm."""
    out = []
    for a in "HVDARL":
        for b in "HVDARL":
            out.append(MeasurementSetting(_SINGLE[a], _SINGLE[b], label=a + b))
    return out


def _projector_stack(settings) -> np.ndarray:
    vs = np.array([s.joint_vector for s in settings])
    return np.einsum("ki,kj->kij", vs, vs.conj())


def born_probabilities(state: TwoQubitState, settings) -> np.ndarray:
    """Tr(rho Pi) for each setting."""
    pis = _projector_stack(settings)
    return np.einsum("kij,ji->k", pis, state.matrix).real


def simulate_counts(state: TwoQubitState, settings, n_per_setting: float,
                    seed=None) -> TomographyData:
    """Poisson counts with mean n_per_setting * Tr(rho Pi), seeded."""
    probs = np.clip(born_probabilities(state, settings), 0.0, None)
    rng = np.random.default_rng(seed)
    counts = rng.poisson(n_per_setting * probs)
    return TomographyData(settings=tuple(settings), counts=tuple(float(c) for c in counts),
                          total_per_setting=float(n_per_setting))


_TRIL_OFF = ((1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2))


def _params_to_rho(t: np.ndarray) -> np.ndarray:
    T = np.zeros((4, 4), dtype=complex)
    T[np.diag_indices(4)] = t[:4]
    for m, (i, j) in enumerate(_TRIL_OFF):
        T[i, j] = t[4 + 2 * m] + 1j * t[5 + 2 * m]
    a = T @ T.conj().T
    return a / np.trace(a).real


def _rho_to_params(rho: np.ndarray) -> np.ndarray:
    # nudge onto the strictly positive cone so Cholesky exists
    w, u = np.linalg.eigh(rho)
    w = np.clip(w, 1e-9, None)
    fixed = (u * w) @ u.conj().T
    fixed /= np.trace(fixed).real
    T = np.linalg.cholesky(fixed)
    t = np.zeros(16)
    t[:4] = np.real(np.diag(T))
    for m, (i, j) in enumerate(_TRIL_OFF):
        t[4 + 2 * m] = T[i, j].real
        t[5 + 2 * m] = T[i, j].imag
    return t


def _check_informationally_complete(pis: np.ndarray):
    if np.linalg.matrix_rank(pis.reshape(len(pis), 16), tol=1e-10) < 16:
        raise ValueError("settings are not informationally complete (rank < 16)")


def reconstruct_mle(data: TomographyData, restarts: int = 3,
                    max_iter: int = 4000, seed: int = 0) -> TwoQubitState:
    """Maximum-likelihood state estimate from tomography counts.

    Starts from the maximally mixed state and from ``restarts - 1``
    random Cholesky factors, keeps the best optimum. Issues a
    RuntimeWarning (and still returns the best state found) if no start
    converged.
    """
    pis = _projector_stack(data.settings)
    _check_informationally_complete(pis)
    counts = np.asarray(data.counts)
    n = data.total_per_setting

    def neg_log_likelihood(t):
        rho = _params_to_rho(t)
        lam = n * np.clip(np.einsum("kij,ji->k", pis, rho).real, 1e-12, None)
        return float(-(counts * np.log(lam) - lam).sum())

    rng = np.random.default_rng(seed)
    starts = [_rho_to_params(np.eye(4) / 4.0)]
    for _ in range(max(0, restarts - 1)):
        starts.append(rng.normal(scale=0.3, size=16))

    best = None
    converged = False
    for t0 in starts:
        res = minimize(neg_log_likelihood, t0, method="L-BFGS-B",
                       options={"maxiter": max_iter, "ftol": 1e-15, "gtol": 1e-12})
        converged = converged or bool(res.success)
        if best is None or res.fun < best.fun:
            best = res
    if not converged:
        warnings.warn("likelihood maximization did not converge; returning best iterate",
                      RuntimeWarning)
    return TwoQubitState(_params_to_rho(best.x))


def error_bars(data: TomographyData, n_bootstrap: int, seed=None,
               fidelity_target: str = "psi-", restarts: int = 1) -> tuple:
    """Parametric-bootstrap uncertainties (fidelity_std, tangle_std).

    Counts are resampled as Poisson draws around the reconstructed
    means, each replicate is re-reconstructed, and the standard
    deviations of the Bell fidelity and tangle over replicates are
    returned.
    """
    if n_bootstrap < 1:
        raise ValueError("n_bootstrap must be >= 1")
    if n_bootstrap == 1:
        warnings.warn("n_bootstrap = 1 gives degenerate (zero) error bars", RuntimeWarning)
    rho_hat = reconstruct_mle(data, restarts=max(restarts, 2))
    means = data.total_per_setting * np.clip(
        born_probabilities(rho_hat, data.settings), 0.0, None)
    target = bell_state(fidelity_target)
    rng = np.random.default_rng(seed)
    fids, tangles = [], []
    for _ in range(n_bootstrap):
        resampled = TomographyData(
            settings=data.settings,
            counts=tuple(float(c) for c in rng.poisson(means)),
            total_per_setting=data.total_per_setting,
        )
        rep = reconstruct_mle(resampled, restarts=restarts)
        fids.append(fidelity(rep, target))
        tangles.append(tangle(rep))
    return float(np.std(fids)), float(np.std(tangles))
