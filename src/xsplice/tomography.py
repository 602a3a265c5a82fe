"""Simulated polarization tomography and maximum-likelihood reconstruction.

Measurements are product projectors assembled from the six standard
single-qubit analyzer states H, V, D, A, R, L (36 settings, over-
complete). Counts are independent Poisson draws per setting. The
reconstruction maximizes the Poisson log-likelihood over physical states
written as rho = T T^dagger / tr(T T^dagger) with T lower triangular
(16 real parameters; James, Kwiat, Munro & White, PRA 64, 052312 (2001)),
using L-BFGS-B with restarts on the exact, analytic gradient of the
negative log-likelihood.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .states import ANALYZER_KETS, TwoQubitState, bell_state, fidelity, tangle

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
        counts = tuple(float(c) for c in self.counts)
        if not all(0.0 <= c < math.inf for c in counts):
            raise ValueError("counts must be finite and >= 0")
        _check_exposure(self.total_per_setting)
        object.__setattr__(self, "settings", tuple(self.settings))
        object.__setattr__(self, "counts", counts)


def _check_exposure(n_per_setting: float):
    if not 0.0 < n_per_setting < math.inf:
        raise ValueError(f"counts per setting must be finite and > 0, got {n_per_setting!r}")


def standard_settings() -> list:
    """All 36 product settings from the six analyzer states per arm."""
    out = []
    for a in "HVDARL":
        for b in "HVDARL":
            out.append(MeasurementSetting(ANALYZER_KETS[a], ANALYZER_KETS[b], label=a + b))
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
    _check_exposure(n_per_setting)
    probs = np.clip(born_probabilities(state, settings), 0.0, None)
    rng = np.random.default_rng(seed)
    counts = rng.poisson(n_per_setting * probs)
    return TomographyData(settings=tuple(settings), counts=counts,
                          total_per_setting=float(n_per_setting))


#: Where the 16 parameters sit in T viewed as 32 floats (Re, Im of each entry,
#: row-major): the real diagonal, then Re and Im of each strictly-lower entry
#: row by row, (1,0), (2,0), (2,1), (3,0), (3,1), (3,2).
_ROWS, _COLS = np.tril_indices(4, -1)
_T_SLOTS = np.concatenate([10 * np.arange(4),
                           np.column_stack([8 * _ROWS + 2 * _COLS,
                                            8 * _ROWS + 2 * _COLS + 1]).ravel()])
#: Born probabilities below this are clipped, so the likelihood stays finite.
_P_FLOOR = 1e-12


def _params_to_T(t: np.ndarray) -> np.ndarray:
    floats = np.zeros(32)
    floats[_T_SLOTS] = t
    return floats.view(complex).reshape(4, 4)


def _params_to_rho(t: np.ndarray) -> np.ndarray:
    T = _params_to_T(t)
    a = T @ T.conj().T
    return a / np.trace(a).real


def _neg_log_likelihood(t: np.ndarray, pis: np.ndarray, counts: np.ndarray,
                        n: float) -> tuple:
    """Poisson NLL of the state with parameters ``t`` and its exact gradient.

    With A = T T^dagger, p_k = tr(Pi_k A) / tr A and lam_k = n max(p_k, floor),
    dNLL/dp_k = g_k = n (1 - c_k / lam_k) (0 where p_k is clipped), so
    dNLL = tr(M dA) with M = (sum_k g_k Pi_k - (sum_k g_k p_k) I) / tr A.
    Since M is Hermitian, dNLL = Re sum_ij conj(G_ij) dT_ij with G = 2 M T:
    the gradient is Re G for a real entry of T and Im G for an imaginary one.
    """
    T = _params_to_T(t)
    a = T @ T.conj().T
    tr = t @ t  # tr(T T^dagger) = sum |T_ij|^2
    flat = pis.reshape(len(pis), 16)
    p = (flat @ a.T.ravel()).real / tr
    lam = n * np.maximum(p, _P_FLOOR)
    # sum(lam - c log lam) as a data-only constant plus the deviance terms
    # (lam - c) - c log(lam / c) >= 0. Those are accurate far below one ulp
    # of the total, so the rounded total never rises where the exact NLL
    # falls, and the line search cannot stall on rounding noise.
    excess = lam - counts
    dev = excess - counts * np.log1p(excess / np.where(counts > 0, counts, 1.0))
    c_log_c = counts * np.log(np.where(counts > 0, counts, 1.0))  # 0 log 0 = 0
    nll = float((counts - c_log_c).sum() + dev.sum())
    g = np.where(p > _P_FLOOR, n * (1.0 - counts / lam), 0.0)
    m = (g @ flat).reshape(4, 4)
    m[np.diag_indices(4)] -= g @ p
    G = (2.0 / tr) * (m @ T)
    return nll, G.view(float).ravel()[_T_SLOTS]


def _check_informationally_complete(pis: np.ndarray):
    if np.linalg.matrix_rank(pis.reshape(len(pis), 16), tol=1e-10) < 16:
        raise ValueError("settings are not informationally complete (rank < 16)")


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on first call: ``import xsplice`` stays scipy-free."""
    from scipy.optimize import minimize as scipy_minimize
    return scipy_minimize(*args, **kwargs)


def reconstruct_mle(data: TomographyData, restarts: int = 3) -> TwoQubitState:
    """Maximum-likelihood state estimate from tomography counts.

    Starts from the maximally mixed state and from ``restarts - 1``
    random Cholesky factors (a generator seeded with 0), keeps the best
    optimum; ``restarts`` must be at least 1. Issues a RuntimeWarning
    (and still returns the best state found) if no start converged.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    pis = _projector_stack(data.settings)
    _check_informationally_complete(pis)
    counts = np.asarray(data.counts)
    n = data.total_per_setting

    rng = np.random.default_rng(0)
    starts = [np.concatenate([np.full(4, 0.5), np.zeros(12)])]  # T = I/2, rho = I/4
    for _ in range(restarts - 1):
        starts.append(rng.normal(scale=0.3, size=16))

    best = None
    converged = False
    for t0 in starts:
        res = minimize(_neg_log_likelihood, t0, args=(pis, counts, n), jac=True,
                       method="L-BFGS-B",
                       options={"maxiter": 4000, "ftol": 1e-15, "gtol": 1e-12})
        converged = converged or bool(res.success)
        if best is None or res.fun < best.fun:
            best = res
    if not converged:
        warnings.warn("likelihood maximization did not converge; returning best iterate",
                      RuntimeWarning)
    return TwoQubitState(_params_to_rho(best.x))


def error_bars(data: TomographyData, n_bootstrap: int, seed=None,
               fidelity_target: str = "psi-") -> tuple:
    """Parametric-bootstrap uncertainties (fidelity_std, tangle_std).

    Counts are resampled as Poisson draws around the reconstructed
    means (two starts), each replicate is re-reconstructed from the
    maximally mixed start alone, and the standard deviations of the
    Bell fidelity and tangle over replicates are returned.
    """
    if n_bootstrap < 1:
        raise ValueError("n_bootstrap must be >= 1")
    if n_bootstrap == 1:
        warnings.warn("n_bootstrap = 1 gives degenerate (zero) error bars", RuntimeWarning)
    rho_hat = reconstruct_mle(data, restarts=2)
    means = data.total_per_setting * np.clip(
        born_probabilities(rho_hat, data.settings), 0.0, None)
    target = bell_state(fidelity_target)
    rng = np.random.default_rng(seed)
    fids, tangles = [], []
    for _ in range(n_bootstrap):
        resampled = TomographyData(
            settings=data.settings,
            counts=rng.poisson(means),
            total_per_setting=data.total_per_setting,
        )
        rep = reconstruct_mle(resampled, restarts=1)
        fids.append(fidelity(rep, target))
        tangles.append(tangle(rep))
    return float(np.std(fids)), float(np.std(tangles))
