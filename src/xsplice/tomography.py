"""Simulated polarization tomography and maximum-likelihood reconstruction.

Measurements are product projectors assembled from the six standard
single-qubit analyzer states H, V, D, A, R, L (36 settings, over-
complete). Counts are independent Poisson draws per setting. The
reconstruction maximizes the Poisson log-likelihood, which is concave in
the density matrix: damped Newton steps inside the states, then, where
the boundary binds, damped Newton steps on the rank-r factor
rho = A A^dagger / tr(A A^dagger) of the rank r that the Newton step points
to. A state is returned once the likelihood's gradient certifies it
optimal to rounding.
"""

from __future__ import annotations

import functools
import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

from .counts import _poisson
from .states import ANALYZER_KETS, TwoQubitState, _unit_vector, bell_state, fidelity, tangle

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
    """Product projector |a><a| (x) |b><b| on the signal/idler qubits.

    Each ket is kept as a read-only copy of the one given, normalized to 1e-12.
    Settings compare and hash by the label and the exact bits of the two kets.
    """

    projector_signal: np.ndarray = field(compare=False)
    projector_idler: np.ndarray = field(compare=False)
    label: str = ""
    _key: bytes = field(init=False, repr=False)  # the kets' bits, signal then idler

    def __post_init__(self):
        for name in ("projector_signal", "projector_idler"):
            v = _unit_vector(getattr(self, name), 2, _NORM_TOL, name)
            v.setflags(write=False)
            object.__setattr__(self, name, v)
        object.__setattr__(self, "_key",
                           self.projector_signal.tobytes() + self.projector_idler.tobytes())


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


@functools.lru_cache(maxsize=8)  # room for the standard set and a few subsets of it
def _built_settings(key: bytes) -> tuple:
    """What depends only on the settings, from their joined ``_key``: the
    projectors Pi_k flattened to rows of 16, the coordinates tr(Pi_k E_j)
    over ``_TRACELESS`` (both read-only), and whether the settings are
    informationally complete."""
    kets = np.frombuffer(key, dtype=complex).reshape(-1, 2, 2)
    a, b = kets[:, 0], kets[:, 1]
    vs = (a[:, :, None] * b[:, None, :]).reshape(len(kets), 4)  # rows a (x) b
    flat = np.einsum("ki,kj->kij", vs, vs.conj()).reshape(len(kets), 16)
    coords = (flat @ _TRACELESS.transpose(0, 2, 1).reshape(15, 16).T).real
    # flat in the orthonormal basis I/2, E_j: real, with the singular values of flat
    design = np.column_stack([(flat @ np.eye(4).ravel()).real / 2, coords])
    complete = np.count_nonzero(np.linalg.svd(design, compute_uv=False) > 1e-10) == 16
    flat.setflags(write=False)
    coords.setflags(write=False)
    return flat, coords, complete


def _settings_tables(settings) -> tuple:
    return _built_settings(b"".join(s._key for s in settings))


def _projector_stack(settings) -> np.ndarray:
    return _settings_tables(settings)[0].reshape(-1, 4, 4)


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
    counts = _poisson(seed, n_per_setting * probs)
    return TomographyData(settings=tuple(settings), counts=counts,
                          total_per_setting=float(n_per_setting))


def _rate_deviance(lam: np.ndarray, counts: np.ndarray) -> float:
    """Poisson NLL of a state less a data-only constant, as a sum of terms >= 0.

    With the state's expected counts lam_k = n tr(Pi_k rho), each setting
    adds (lam - c) - c log(lam / c), accurate far below one ulp of the NLL.
    Infinite where a setting with counts gets lam <= 0.
    """
    seen = counts > 0
    excess = lam - counts
    e, c = excess[seen], counts[seen]
    # the excess, not lam_k > 0: a lam_k below half an ulp of c_k has
    # excess -c_k, and log1p(-1) would warn before giving the same inf
    if not (e > -c).all():
        return math.inf
    return float(excess.sum() - c @ np.log1p(e / c))


def _rate_gradient(lam: np.ndarray, flat: np.ndarray, counts: np.ndarray, n: float) -> np.ndarray:
    """d NLL / d rho = sum_k n (1 - c_k / lam_k) Pi_k, from the expected counts lam_k."""
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
                  n: float) -> tuple:
    """Damped Newton steps from I/4 that keep the state positive definite.

    On the trace-one plane rho = I/4 + sum_j theta_j E_j (``_TRACELESS``),
    lam = n tr(Pi rho) is affine, lam = lam0 + J theta with J = ``jac``
    (J_kj = n tr(Pi_k E_j)); the NLL's gradient is g = J^T (1 - c/lam) and
    its Hessian H = J_seen^T diag(c/lam^2) J_seen, over the settings with
    counts. With lam > 0, H is positive definite exactly when J_seen has
    rank 15, whatever the iterate, so this is decided once, and only where
    some setting has no counts (``reconstruct_mle`` checks that J has rank
    15). Where J_seen has rank r < 15, the steps are the minimum-norm Newton
    steps H^+ g: theta stays in the span of J_seen's r leading right
    singular vectors.

    A step halves alpha from 1 until the NLL falls by alpha/4 of the Newton
    decrement (Armijo) and the state, formed only once that test passes,
    stays positive definite. Stops when alpha would fall below 0.1 (the
    boundary binds), or when the step cannot be solved for or is not
    finite. Once the decrement is below the NLL's rounding, no decrease can
    be verified: that last step is taken unchecked but for positive
    definiteness, and it ends the steps.

    Returns the last iterate and the Newton target I/4 + sum_j (theta -
    H^+ g)_j E_j of the last step solved for (the iterate if none was).
    """
    x = start = np.eye(4, dtype=complex) / 4
    seen = counts > 0
    theta, basis = np.zeros(15), _TRACELESS.reshape(15, 16)
    if not seen.all():
        s, vt = np.linalg.svd(jac[seen], full_matrices=False)[1:]
        rank = np.count_nonzero(s > 1e-10 * n)
        if rank < 15:
            theta, jac, basis = np.zeros(rank), jac @ vt[:rank].T, vt[:rank] @ basis
    target = theta
    lam0 = n * (flat @ x.T.ravel()).real
    lam, f = lam0, _rate_deviance(lam0, counts)
    for _ in range(100):  # about 5 steps to an interior optimum
        w = np.divide(counts, lam, out=np.zeros_like(lam), where=seen)
        grad = jac.T @ (1.0 - w)
        hess = (jac.T * np.divide(w, lam, out=np.zeros_like(lam), where=seen)) @ jac
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            break
        dec = grad @ step
        if not math.isfinite(dec):  # also where the step is not: grad is finite
            break
        target = theta - step
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
    return x, start + (target @ basis).reshape(4, 4)


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
    No step is taken along an eigenvector v whose gradient component g.v
    is within its rounding, eps sum_k |phi_k| |dlam_k|.|v|: settings
    without counts can leave the NLL flat along directions besides the
    gauge's, and a step there would follow rounding alone. The Armijo test
    is ``_newton_start``'s, but with no boundary to meet, alpha halves
    until the decrease the test asks for, alpha dec / 4, is below the
    rounding eps sum_k |lam_k - c_k|. Where the decrement itself is, no
    decrease can be verified: that last step is taken unchecked, and it
    ends the steps.
    Returns rho and the lam_k of the factor, sums of squares free of the
    cancellation in n tr(Pi_k rho) where lam_k is small; or None where the
    factor of ``x`` leaves a setting with counts at lam_k = 0, where the
    Hessian is not finite.
    """
    p, v = np.linalg.eigh(x)
    p = np.maximum(p[-rank:], 0.0)  # a semidefinite x can round below 0
    a = np.concatenate([v.real[:, -rank:], v.imag[:, -rank:]]) * np.sqrt(p)
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
    if f == math.inf:
        return None
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
        ev = free @ ev
        comp = grad @ ev
        noise = np.finfo(float).eps * (np.abs(phi) @ np.abs(dlam)) @ np.abs(ev)  # comp's rounding
        keep = np.abs(ew) > np.finfo(float).eps * len(ew) * np.abs(ew).max()
        keep &= np.abs(comp) > noise
        step = (ev[:, keep] @ (comp[keep] / np.abs(ew[keep]))).reshape(a.shape)
        dec = grad @ step.ravel()
        rounding = 4.0 * np.finfo(float).eps * np.abs(lam - counts).sum()  # on dec, not dec/4
        last = dec <= rounding
        for alpha in 0.5 ** np.arange(53):  # the second test ends it first
            trial = a - alpha * step
            rated = rates(trial)
            f_t = _rate_deviance(rated[3], counts)
            passed = last or f_t <= f - 0.25 * alpha * dec
            if passed or alpha * dec <= rounding:
                break
        if not passed:
            break
        a, f = trial, f_t
        ba, q, t, lam = rated
        if last:
            break
    m = a[:4] + 1j * a[4:]
    return (m @ m.conj().T) / t, lam


def _certified(rho: np.ndarray, lam: np.ndarray, flat: np.ndarray, counts: np.ndarray,
               n: float) -> bool:
    """Whether the likelihood's gradient certifies ``rho`` optimal to rounding.

    The NLL is convex, so with G = ``_rate_gradient`` at rho and
    mu = Re tr(G rho), every state s has NLL(s) >= NLL(rho) + tr(G s) - mu
    >= NLL(rho) + lambda_min(G - mu I): rho is within
    max(0, -lambda_min(G - mu I)) of the optimum. It is certified when that
    bound is at most 16 ulp of the NLL's terms, eps sum_k (lam_k + c_k
    |log lam_k|): no likelihood tells two states apart below one ulp, and
    the gap is itself a rounded sum of 36 terms, which Newton steps on a
    factor with a small column leave a few ulp from 0. G is taken at the
    expected counts ``lam`` of rho.
    """
    grad = _rate_gradient(lam, flat, counts, n)
    gap = -np.linalg.eigvalsh(grad - np.vdot(grad, rho).real * np.eye(4))[0]
    seen = counts > 0
    ulp = np.finfo(float).eps * (lam.sum() + counts[seen] @ np.abs(np.log(lam[seen])))
    return gap <= 16.0 * ulp


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on first call.

    Unused: perfbench/tracing.py rebinds it here; ROADMAP item 16 removes it with that
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
    The check and those columns are built once per distinct settings set,
    keyed by the exact bits of the kets (``_built_settings``); an incomplete
    set raises on every call.

    One deterministic solve from the maximally mixed state; every state it
    returns without a warning is certified optimal (``_certified``).
    Damped Newton steps on the trace-one plane (``_newton_start``) run while
    the state stays positive definite; about 5 of them reach an interior
    optimum, returned once certified. Otherwise the boundary binds: the
    Newton target is projected onto the states once (``_project``), and its
    rank r is the first guess at the optimum's. Damped Newton steps on the
    states of rank <= r (``_face_newton``) start from that projection.
    Failing a certificate, the higher ranks are tried in turn, upwards, from
    the Newton iterate: at most 5 - r tries. Lower ranks are not tried: in a
    census of 546 solves and a stress set of 21,000 seeded ones, none of
    them certified a solve that every higher rank had failed. A start that
    leaves a setting with counts at zero expected counts is skipped. Where
    no rank is certified, the lowest-deviance state of the solve is
    returned with a RuntimeWarning.
    No iteration budget decides the result: the Newton loops end on their
    own tests, far inside their caps.
    """
    flat, coords, complete = _settings_tables(data.settings)
    if not complete:
        raise ValueError("settings are not informationally complete (rank < 16)")
    counts = np.asarray(data.counts)
    n = data.total_per_setting

    x, target = _newton_start(flat, n * coords, counts, n)
    lam = n * (flat @ x.T.ravel()).real
    best, f_best = x, _rate_deviance(lam, counts)
    if not _certified(x, lam, flat, counts, n):
        z, rank = _project(target)
        for r in range(rank, 5):
            face = _face_newton(x if r > rank else z, r, flat, counts, n)
            if face is None:
                continue
            rho, lam = face
            if _certified(rho, lam, flat, counts, n):
                best = rho
                break
            f = _rate_deviance(lam, counts)
            if f < f_best:
                best, f_best = rho, f
        else:
            warnings.warn("likelihood maximization did not converge; returning best iterate",
                          RuntimeWarning)
    return TwoQubitState(0.5 * (best + best.conj().T))  # exactly Hermitian: a real diagonal


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
