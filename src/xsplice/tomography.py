"""Simulated polarization tomography and maximum-likelihood reconstruction.

Measurements are product projectors assembled from the six standard
single-qubit analyzer states H, V, D, A, R, L (36 settings, over-
complete). Counts are independent Poisson draws per setting. The
reconstruction maximizes the Poisson log-likelihood, which is concave in
the density matrix: damped Newton steps inside the states, then
accelerated projected gradient over the states from where they stop.
Where the projections settle on states of rank r < 4, damped Newton
steps on the rank-r factor rho = A A^dagger / tr(A A^dagger) finish the
solve, and their result is kept only where the likelihood's gradient
certifies it optimal to rounding.
"""

from __future__ import annotations

import math
import numbers
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

_PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
#: An orthonormal basis of the traceless Hermitian 4 x 4 matrices: the Pauli
#: products sigma_a (x) sigma_b / 2 other than I (x) I / 2.
_TRACELESS = 0.5 * np.einsum("aij,bkl->abikjl", _PAULI, _PAULI).reshape(16, 4, 4)[1:]

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
    return [MeasurementSetting(ANALYZER_KETS[a], ANALYZER_KETS[b], label=a + b)
            for a in "HVDARL" for b in "HVDARL"]


def _projector_stack(settings) -> np.ndarray:
    a = np.array([s.projector_signal for s in settings], dtype=complex).reshape(-1, 2)
    b = np.array([s.projector_idler for s in settings], dtype=complex).reshape(-1, 2)
    vs = (a[:, :, None] * b[:, None, :]).reshape(len(settings), 4)  # rows a (x) b
    return np.einsum("ki,kj->kij", vs, vs.conj())


def born_probabilities(state: TwoQubitState, settings) -> np.ndarray:
    """Tr(rho Pi) for each setting."""
    pis = _projector_stack(settings)
    return np.einsum("kij,ji->k", pis, state.matrix).real


def simulate_counts(state: TwoQubitState, settings, n_per_setting: float,
                    seed=None) -> TomographyData:
    """Poisson counts with mean n_per_setting * Tr(rho Pi), drawn from ``default_rng(seed)``:
    a ``numpy.random.Generator`` passed as ``seed`` is drawn from in place."""
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
    return _rate_deviance(n * (flat @ rho.T.ravel()).real, counts)


def _rate_deviance(lam: np.ndarray, counts: np.ndarray) -> float:
    """``_deviance`` from the expected counts lam_k."""
    seen = counts > 0
    excess = lam - counts
    e, c = excess[seen], counts[seen]
    # the excess, not lam_k > 0: a lam_k below half an ulp of c_k has
    # excess -c_k, and log1p(-1) would warn before giving the same inf
    if not (e > -c).all():
        return math.inf
    return float(excess.sum() - c @ np.log1p(e / c))


def _gradient(rho: np.ndarray, flat: np.ndarray, counts: np.ndarray, n: float) -> np.ndarray:
    """d NLL / d rho = sum_k n (1 - c_k / lam_k) Pi_k."""
    return _rate_gradient(n * (flat @ rho.T.ravel()).real, flat, counts, n)


def _rate_gradient(lam: np.ndarray, flat: np.ndarray, counts: np.ndarray, n: float) -> np.ndarray:
    """``_gradient`` from the expected counts lam_k."""
    g = n - np.divide(n * counts, lam, out=np.zeros_like(lam), where=counts > 0)
    return (g @ flat).reshape(4, 4)


def _project(h: np.ndarray) -> tuple:
    """The density matrix nearest to Hermitian ``h``, and its rank: the
    eigenvalues go onto the simplex (Smolin, Gambetta & Smith, PRL 108,
    070502 (2012))."""
    w, v = np.linalg.eigh(h)
    u = w[::-1]
    shift = (np.cumsum(u) - 1.0) / np.arange(1, 5)
    w = np.maximum(w - shift[np.nonzero(u > shift)[0][-1]], 0.0)
    return (v * w) @ v.conj().T, np.count_nonzero(w)


def _is_positive_definite(m: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return False
    return True


def _newton_start(flat: np.ndarray, jac: np.ndarray, counts: np.ndarray,
                  n: float) -> np.ndarray:
    """Damped Newton steps from I/4 that keep the state positive definite.

    On the trace-one plane rho = I/4 + sum_j theta_j E_j (``_TRACELESS``),
    lam = n tr(Pi rho) is affine, lam = lam0 + J theta with J = ``jac``
    (J_kj = n tr(Pi_k E_j)); the NLL's gradient is J^T (1 - c/lam) and its
    Hessian J_seen^T diag(c/lam^2) J_seen, over the settings with counts.
    With lam > 0 that Hessian is positive definite exactly when J_seen has
    rank 15, whatever the iterate, so this is decided once: where it fails,
    settings without counts leave the NLL flat along some direction and I/4
    is returned. The rows of ``jac`` are taken to have rank 15 (the
    completeness check of ``reconstruct_mle``), so J_seen's rank is only
    computed where some setting has no counts.

    A step halves alpha from 1 until the NLL falls by alpha/4 of the Newton
    decrement (Armijo) and the state, formed only once that test passes,
    stays positive definite. Returns the last iterate when alpha would fall
    below 0.1 (the boundary binds), or when the step cannot be solved for
    or is not finite. Once the decrement is below the NLL's rounding, no
    decrease can be verified: that last step is taken unchecked but for
    positive definiteness, and it ends the steps.
    """
    x = start = np.eye(4, dtype=complex) / 4
    seen = counts > 0
    if not seen.all() and np.linalg.matrix_rank(jac[seen], tol=1e-10 * n) < 15:
        return x
    theta, basis = np.zeros(15), _TRACELESS.reshape(15, 16)
    lam0 = n * (flat @ x.T.ravel()).real
    lam, f = lam0, _rate_deviance(lam0, counts)
    for _ in range(100):  # about 5 steps to an interior optimum
        w = np.divide(counts, lam, out=np.zeros_like(lam), where=seen)
        grad = jac.T @ (1.0 - w)
        hess = (jac.T * (w / lam)) @ jac
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            break
        dec = grad @ step
        if not math.isfinite(dec):  # also where the step is not: grad is finite
            break
        last = dec <= np.finfo(float).eps * np.abs(lam - counts).sum()
        for alpha in (1.0, 0.5, 0.25, 0.125):
            trial = theta - alpha * step
            lam_t = lam0 + jac @ trial
            f_t = _rate_deviance(lam_t, counts)
            if last or f_t <= f - 0.25 * alpha * dec:
                x_t = start + (trial @ basis).reshape(4, 4)
                if _is_positive_definite(x_t):
                    break
        else:
            break
        theta, x, lam, f = trial, x_t, lam_t, f_t
        if last:
            break
    return x


def _face_newton(x: np.ndarray, rank: int, flat: np.ndarray, counts: np.ndarray,
                 n: float) -> tuple:
    """Damped Newton steps on the states of rank <= ``rank``, from ``x``.

    rho = A A^dagger / tr(A A^dagger) with A in C^{4 x rank}, in the real
    coordinates a_c = [Re A_c; Im A_c] of each column (James, Kwiat, Munro &
    White, PRA 64, 052312 (2001); Burer & Monteiro, Math. Program. 95, 329
    (2003)). With B_k = [[Re Pi_k, -Im Pi_k], [Im Pi_k, Re Pi_k]],
    q_k = sum_c a_c^T B_k a_c and t = |a|^2, lam_k = n q_k / t, and with
    phi_k = 1 - c_k / lam_k the NLL's gradient is g = sum_k phi_k dlam_k,
    dlam_k = (2n/t)(B_k a - (q_k/t) a). Its Hessian is
    sum_k (c_k / lam_k^2) dlam_k dlam_k^T + (2n/t)[(sum_k phi_k B_k) (x) I
    - (sum_k phi_k q_k / t) I] - (2/t)(g a^T + a g^T). The U(rank) gauge
    A -> A U and the scale of a leave the NLL unchanged; a step is taken on
    the complement of those rank^2 + 1 directions, where the last term
    vanishes, with the Hessian's eigenvalues inverted by their magnitude.
    Step halving, the Armijo test and the stop at a decrement below
    eps sum_k |lam_k - c_k| are ``_newton_start``'s. Returns rho and the
    lam_k of the factor, sums of squares free of the cancellation in
    n tr(Pi_k rho) where lam_k is small.
    """
    p, v = np.linalg.eigh(x)
    a = np.concatenate([v.real[:, -rank:], v.imag[:, -rank:]]) * np.sqrt(p[-rank:])
    pis = flat.reshape(-1, 4, 4)
    bs = np.block([[pis.real, -pis.imag], [pis.imag, pis.real]])
    e = np.eye(rank)[:, None, :, None] * np.eye(rank)[None, :, None, :]  # E_jk
    j, k = np.triu_indices(rank, 1)
    j0, k0 = np.triu_indices(rank)
    skew = np.concatenate([e[j, k] - e[k, j], 1j * (e[j0, k0] + e[k0, j0])])  # a basis of u(rank)

    def rates(a):
        ba = bs @ a
        q = np.einsum("kic,ic->k", ba, a)
        t = np.vdot(a, a)
        return ba, q, t, (n / t) * q

    ba, q, t, lam = rates(a)
    f = _rate_deviance(lam, counts)
    for _ in range(100):  # about 5 steps
        w = np.divide(counts, lam, out=np.zeros_like(lam), where=counts > 0)
        phi = 1.0 - w
        dlam = ((2.0 * n / t) * (ba - (q / t)[:, None, None] * a)).reshape(len(lam), -1)
        grad = phi @ dlam
        kron = (phi @ bs.reshape(len(phi), -1)).reshape(8, 1, 8, 1) * np.eye(rank)[:, None, :]
        hess = ((dlam.T * np.divide(w, lam, out=np.zeros_like(lam), where=counts > 0)) @ dlam
                + (2.0 * n / t) * (kron.reshape(a.size, a.size) - (phi @ q / t) * np.eye(a.size)))
        orbit = (a[:4] + 1j * a[4:]) @ skew  # the gauge directions A K
        orbit = np.concatenate([orbit.real, orbit.imag], axis=1).reshape(len(skew), -1)
        free = np.linalg.qr(np.vstack([orbit, a.ravel()]).T, mode="complete")[0][:, len(skew) + 1:]
        ew, ev = np.linalg.eigh(free.T @ hess @ free)
        keep = np.abs(ew) > np.finfo(float).eps * len(ew) * np.abs(ew).max()
        ev = free @ ev[:, keep]
        step = (ev @ ((grad @ ev) / np.abs(ew[keep]))).reshape(a.shape)
        dec = grad @ step.ravel()
        last = dec <= np.finfo(float).eps * np.abs(lam - counts).sum()
        for alpha in (1.0, 0.5, 0.25, 0.125):
            trial = a - alpha * step
            rated = rates(trial)
            f_t = _rate_deviance(rated[3], counts)
            if last or f_t <= f - 0.25 * alpha * dec:
                break
        else:
            break
        a, f = trial, f_t
        ba, q, t, lam = rated
        if last:
            break
    m = a[:4] + 1j * a[4:]
    return (m @ m.conj().T) / t, lam


def _finish_on_face(x: np.ndarray, fx: float, rank: int, flat: np.ndarray,
                    counts: np.ndarray, n: float):
    """``_face_newton`` from ``x``, or None unless its result is certified.

    The NLL is convex, so with G = ``_gradient`` at rho and mu = Re tr(G rho),
    every state s has NLL(s) >= NLL(rho) + tr(G s) - mu >= NLL(rho) +
    lambda_min(G - mu I): rho is within max(0, -lambda_min(G - mu I)) of the
    optimum. The result is kept when that bound is at most one ulp of the
    NLL's terms, eps sum_k (lam_k + c_k |log lam_k|), below which no
    likelihood tells two states apart, and its deviance is no higher than
    ``fx``, that of ``x``. G is taken at the factor's lam_k.
    """
    rho, lam = _face_newton(x, rank, flat, counts, n)
    if _rate_deviance(lam, counts) > fx:
        return None
    grad = _rate_gradient(lam, flat, counts, n)
    gap = -np.linalg.eigvalsh(grad - np.vdot(grad, rho).real * np.eye(4))[0]
    seen = counts > 0
    ulp = np.finfo(float).eps * (lam.sum() + counts[seen] @ np.abs(np.log(lam[seen])))
    return rho if gap <= ulp else None


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on first call.

    Unused: perfbench/tracing.py rebinds it here; ROADMAP item 1 removes it with that
    pin. It imports scipy, a test-only dependency (the ``test`` extra).
    """
    from scipy.optimize import minimize as scipy_minimize
    return scipy_minimize(*args, **kwargs)


def reconstruct_mle(data: TomographyData) -> TwoQubitState:
    """Maximum-likelihood state estimate from tomography counts.

    The settings must be informationally complete: the real matrix of
    tr(Pi_k B) over the orthonormal Hermitian basis B = I/2, E_j has the
    singular values of the projectors, and 16 of them must exceed 1e-10.
    Its 15 columns E_j, scaled by the exposure, are the Jacobian J of the
    Newton steps, whose rank is thereby known when every setting has counts.

    One deterministic solve from the maximally mixed state. Damped Newton
    steps on the trace-one plane (``_newton_start``) run while the state
    stays positive definite: about 5 of them reach an interior optimum.
    FISTA (Beck & Teboulle, SIAM J. Imaging Sci. 2, 183 (2009)) with a
    backtracked step and adaptive momentum restart (O'Donoghue & Candes,
    Found. Comput. Math. 15, 715 (2015)) starts from their last iterate:
    at an interior optimum it stops within a few steps, and where the
    boundary binds, or settings without counts leave the likelihood flat
    along some direction (no Newton step is taken), it does the rest. It
    stops when a step moves the state by at most 1e-10 (Frobenius), or
    when a step from the iterate itself no longer lowers the NLL. Issues a RuntimeWarning (and still returns the
    iterate) if neither happens within 5000 steps.

    FISTA's projection also reports the rank of each iterate. Once two
    accepted steps in a row land on one rank r < 4, damped Newton steps
    on the states of rank <= r finish from there (``_face_newton``). Their
    result is returned only if it is certified (``_finish_on_face``): its
    gap bound -lambda_min(G - mu I) is at most one ulp of the NLL, and its
    deviance is no higher than FISTA's iterate. Otherwise FISTA goes on,
    and tries the face again after twice as many steps on one rank. A
    solve whose projections all have rank 4 runs FISTA alone.
    """
    flat = _projector_stack(data.settings).reshape(len(data.settings), 16)
    coords = (flat @ _TRACELESS.transpose(0, 2, 1).reshape(15, 16).T).real  # tr(Pi_k E_j)
    # flat in the orthonormal basis I/2, E_j: real, with the singular values of flat
    design = np.column_stack([(flat @ np.eye(4).ravel()).real / 2, coords])
    if np.count_nonzero(np.linalg.svd(design, compute_uv=False) > 1e-10) < 16:
        raise ValueError("settings are not informationally complete (rank < 16)")
    counts = np.asarray(data.counts)
    n = data.total_per_setting

    x = _newton_start(flat, n * coords, counts, n)
    fx = _deviance(x, flat, counts, n)
    y, fy, t, lip = x, fx, 1.0, n
    face, streak, wait = 4, 0, 2  # rank of the last steps, their number, the next try
    for _ in range(5000):
        grad = _gradient(y, flat, counts, n)
        while True:  # backtrack until the quadratic model bounds the NLL
            z, rank = _project(y - grad / lip)
            step = z - y
            fz = _deviance(z, flat, counts, n)
            if fz <= fy + np.vdot(grad, step).real + 0.5 * lip * np.vdot(step, step).real:
                break
            if np.linalg.norm(step) <= 1e-10:
                break  # a step the loop stops at: its test is decided by rounding
            lip *= 2.0
        if y is x and fz >= fx:
            break  # a plain step no longer lowers the NLL: x is optimal to rounding
        if fz > fx:  # the momentum overshot
            y, fy, t = x, fx, 1.0
            continue
        restart = np.vdot(step, z - x).real < 0.0
        x_old, x, fx = x, z, fz
        lip *= 0.9
        streak, face = (streak + 1 if rank == face else 1), rank
        if face < 4 and streak == wait:  # on one face for `wait` steps: finish there
            wait *= 2
            rho = _finish_on_face(x, fx, face, flat, counts, n)
            if rho is not None:
                x = rho
                break
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

    Each replicate is ``simulate_counts`` from the reconstructed state, drawn from one
    generator seeded by ``seed``, then ``reconstruct_mle``; returns the standard
    deviations of the Bell fidelity and tangle over the replicates, with the
    B - 1 divisor of the bootstrap standard error (Efron & Tibshirani), so
    at least two replicates are needed.
    """
    if not isinstance(n_bootstrap, numbers.Integral) or n_bootstrap < 2:
        raise ValueError(f"n_bootstrap must be an integer >= 2, got {n_bootstrap!r}")
    target = bell_state(fidelity_target)
    rho_hat = reconstruct_mle(data)
    rng = np.random.default_rng(seed)
    fids, tangles = [], []
    for _ in range(n_bootstrap):
        rep = reconstruct_mle(simulate_counts(rho_hat, data.settings, data.total_per_setting, rng))
        fids.append(fidelity(rep, target))
        tangles.append(tangle(rep))
    return float(np.std(fids, ddof=1)), float(np.std(tangles, ddof=1))
