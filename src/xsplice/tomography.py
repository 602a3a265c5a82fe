"""Simulated polarization tomography and maximum-likelihood reconstruction.

Measurements are product projectors assembled from the six standard
single-qubit analyzer states H, V, D, A, R, L (36 settings, over-
complete). Counts are independent Poisson draws per setting. The
reconstruction maximizes the Poisson log-likelihood, which is concave in
the density matrix, by accelerated projected gradient over the states.
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


def _deviance(rho: np.ndarray, flat: np.ndarray, counts: np.ndarray, n: float) -> float:
    """Poisson NLL of ``rho`` less a data-only constant, as a sum of terms >= 0.

    With lam_k = n tr(Pi_k rho), each setting adds (lam - c) - c log(lam / c),
    accurate far below one ulp of the NLL. Infinite where a setting with
    counts gets lam <= 0: the momentum point can leave the state set.
    """
    lam = n * (flat @ rho.T.ravel()).real
    seen = counts > 0
    if not (lam[seen] > 0.0).all():
        return math.inf
    excess = lam - counts
    return float(excess.sum() - counts[seen] @ np.log1p(excess[seen] / counts[seen]))


def _gradient(rho: np.ndarray, flat: np.ndarray, counts: np.ndarray, n: float) -> np.ndarray:
    """d NLL / d rho = sum_k n (1 - c_k / lam_k) Pi_k."""
    lam = n * (flat @ rho.T.ravel()).real
    g = n - np.divide(n * counts, lam, out=np.zeros_like(lam), where=counts > 0)
    return (g @ flat).reshape(4, 4)


def _project(h: np.ndarray) -> np.ndarray:
    """The density matrix nearest to Hermitian ``h``: its eigenvalues go onto
    the simplex (Smolin, Gambetta & Smith, PRL 108, 070502 (2012))."""
    w, v = np.linalg.eigh(h)
    u = w[::-1]
    shift = (np.cumsum(u) - 1.0) / np.arange(1, 5)
    w = np.maximum(w - shift[np.nonzero(u > shift)[0][-1]], 0.0)
    return (v * w) @ v.conj().T


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on first call.

    Unused: perfbench/tracing.py rebinds it here; ROADMAP item 1 removes it with that
    pin. It imports scipy, a test-only dependency (the ``test`` extra).
    """
    from scipy.optimize import minimize as scipy_minimize
    return scipy_minimize(*args, **kwargs)


def reconstruct_mle(data: TomographyData) -> TwoQubitState:
    """Maximum-likelihood state estimate from tomography counts.

    One deterministic solve from the maximally mixed state: FISTA (Beck &
    Teboulle, SIAM J. Imaging Sci. 2, 183 (2009)) with a backtracked step
    and adaptive momentum restart (O'Donoghue & Candes, Found. Comput.
    Math. 15, 715 (2015)). It stops when a step moves the state by at most
    1e-10 (Frobenius), or when a step from the iterate itself no longer
    lowers the NLL. Issues a RuntimeWarning (and still returns the
    iterate) if neither happens within 5000 steps.
    """
    flat = _projector_stack(data.settings).reshape(len(data.settings), 16)
    if np.linalg.matrix_rank(flat, tol=1e-10) < 16:
        raise ValueError("settings are not informationally complete (rank < 16)")
    counts = np.asarray(data.counts)
    n = data.total_per_setting

    x = np.eye(4, dtype=complex) / 4
    fx = _deviance(x, flat, counts, n)
    y, fy, t, lip = x, fx, 1.0, n
    for _ in range(5000):
        grad = _gradient(y, flat, counts, n)
        while True:  # backtrack until the quadratic model bounds the NLL
            z = _project(y - grad / lip)
            step = z - y
            fz = _deviance(z, flat, counts, n)
            if fz <= fy + np.vdot(grad, step).real + 0.5 * lip * np.vdot(step, step).real:
                break
            lip *= 2.0
        if y is x and fz >= fx:
            break  # a plain step no longer lowers the NLL: x is optimal to rounding
        if fz > fx:  # the momentum overshot
            y, fy, t = x, fx, 1.0
            continue
        restart = np.vdot(step, z - x).real < 0.0
        x_old, x, fx = x, z, fz
        lip *= 0.9
        if np.linalg.norm(step) <= 1e-10:
            break
        t_old, t = t, 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        y = x + ((t_old - 1.0) / t) * (x - x_old)
        fy = math.inf if restart else _deviance(y, flat, counts, n)
        if fy == math.inf:
            y, fy, t = x, fx, 1.0
    else:
        warnings.warn("likelihood maximization did not converge; returning best iterate",
                      RuntimeWarning)
    return TwoQubitState(0.5 * (x + x.conj().T))  # exactly Hermitian: a real diagonal


def error_bars(data: TomographyData, n_bootstrap: int, seed=None,
               fidelity_target: str = "psi-") -> tuple:
    """Parametric-bootstrap uncertainties (fidelity_std, tangle_std).

    Counts are resampled as Poisson draws around the reconstructed
    means, each replicate is reconstructed again, and the standard
    deviations of the Bell fidelity and tangle over replicates are
    returned.
    """
    if n_bootstrap < 1:
        raise ValueError("n_bootstrap must be >= 1")
    if n_bootstrap == 1:
        warnings.warn("n_bootstrap = 1 gives degenerate (zero) error bars", RuntimeWarning)
    rho_hat = reconstruct_mle(data)
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
        rep = reconstruct_mle(resampled)
        fids.append(fidelity(rep, target))
        tangles.append(tangle(rep))
    return float(np.std(fids)), float(np.std(tangles))
