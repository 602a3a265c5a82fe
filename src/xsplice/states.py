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
385, 2014), and by Poisson summation its error is the aliasing of the
phasor's spectrum by the node step. The state's convergence check
estimates that error from quadratic fits of the phase along each node
line. It evaluates the phase only once, on the nodes plus a few probe
positions between them that test the phase's smoothness on the node
scale; a phase that fails that test, or that no quadratic fits, is
evaluated again on a rule with twice the nodes. Basis order throughout
is (HH, HV, VH, VV).
"""

from __future__ import annotations

import math
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

#: Points per axis of the state quadrature; the convergence check's
#: fallback repeats it with twice as many.
QUAD_NODES = 64

#: Half-width of the state-quadrature window in units of sigma. With
#: QUAD_NODES uniform points per axis over it, the truncated Gaussian
#: tails and the unhalved end points perturb the coherence at the 1e-9
#: level, far below the 1e-6 accuracy contract.
QUAD_SPAN_SIGMAS = 6.0

#: Nodes read per row of the banded Lagrange matrix that interpolates
#: the phase onto the probes; exact for polynomials up to degree 7.
_STENCIL_TAPS = 8

#: Signal and pump offsets from the centre, in sigma, of the probe
#: lines: doubled-rule nodes at which the phase is evaluated along with
#: the nodes, to test its interpolation.
_PROBE_SIGMAS = (-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0)

#: Largest spectrally weighted misfit, in rad, of the phase interpolated
#: onto the probe lines for which the convergence check takes the phase
#: to be smooth on the node scale (see ``mixed_state_over_spectra``). A
#: component the interpolation misses moves the coherence by at most its
#: weighted size, so this keeps it within a tenth of the 1e-6 threshold.
_INTERPOLATION_TOL = 1e-7

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
        if not (0.0 < self.fwhm_nm < math.inf and abs(self.center_nm) < math.inf):
            raise ValueError(f"need a finite center and a finite fwhm > 0, got {self}")

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
        if not np.isfinite(m).all():
            raise ValueError("matrix has a non-finite entry")
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
    """Axis covering +/- span_sigmas of a Gaussian given by its FWHM; one point is the centre."""
    if points == 1:
        return np.array([center_nm], dtype=float)
    half = span_sigmas * fwhm_nm / FWHM_PER_SIGMA
    return np.linspace(center_nm - half, center_nm + half, points)


def spectral_grid(signal: GaussianSpectrum, pump: GaussianSpectrum,
                  points: int, span_sigmas: float) -> tuple:
    """Open axes and joint weights of the one spectral rule.

    Returns ``(ls, lp, w)`` with the signal axis as a column
    ``(points, 1)``, the pump axis as a row ``(1, points)`` and ``w`` the
    product of the normalised weights on the two, so the spectral average
    of ``fn`` is ``np.sum(w * fn(ls, lp))``.
    """
    ls, lp, ws, wp = _spectral_axes(signal, pump, points, span_sigmas)
    return ls, lp, ws * wp


def _spectral_axes(signal: GaussianSpectrum, pump: GaussianSpectrum,
                   points: int, span_sigmas: float) -> tuple:
    """The open axes of ``spectral_grid`` and the weights on each, normalised to sum 1."""
    ls = bandwidth_grid(signal.center_nm, signal.fwhm_nm, points, span_sigmas)[:, None]
    lp = bandwidth_grid(pump.center_nm, pump.fwhm_nm, points, span_sigmas)[None, :]
    ws, wp = signal.density(ls), pump.density(lp)
    return ls, lp, ws / ws.sum(), wp / wp.sum()


def spectral_mean_phase(phase_fn, signal: GaussianSpectrum,
                        pump: GaussianSpectrum) -> float:
    """Spectrum-weighted mean of a phase function, in radians.

    Useful for referencing a phase model to its mean before building a
    state: the constant part of the phase is set by the compensator
    wedges in practice and carries no physics.
    """
    ls, lp, w = spectral_grid(signal, pump, QUAD_NODES, QUAD_SPAN_SIGMAS)
    return float(np.sum(w * phase_fn(ls, lp)))


def _lagrange_matrix(n: int, t: np.ndarray) -> np.ndarray:
    """Banded Lagrange interpolation matrix from ``n`` uniform nodes.

    ``t`` holds target positions in units of the node index. Returns the
    read-only ``(len(t), n)`` matrix whose row ``j`` holds the weights of
    the ``_STENCIL_TAPS`` nodes around ``t[j]`` and zeros elsewhere.
    """
    m = _STENCIL_TAPS
    start = np.clip(np.floor(t).astype(int) - (m // 2 - 1), 0, n - m)
    taps, rows = np.arange(m), np.arange(len(t))
    idx = start[:, None] + taps
    x = t[:, None] - idx
    matrix = np.zeros((len(t), n))
    for k in taps:
        others = taps != k
        matrix[rows, idx[:, k]] = np.prod(x[:, others], axis=1) / np.prod(k - taps[others])
    matrix.setflags(write=False)
    return matrix


#: The probe nodes: the doubled-rule nodes nearest ``_PROBE_SIGMAS``.
#: Their offsets from the nodes run from 0.13 to 0.87 of a node step, so
#: a component that aliases onto the nodes misses most of them.
_PROBES = np.rint((np.array(_PROBE_SIGMAS) / (2 * QUAD_SPAN_SIGMAS) + 0.5)
                  * (2 * QUAD_NODES - 1)).astype(int)
_PROBES.setflags(write=False)

#: Positions of the probes in sigma from the centre.
_PROBE_X = (2.0 * _PROBES / (2 * QUAD_NODES - 1) - 1.0) * QUAD_SPAN_SIGMAS

#: Interpolation from the QUAD_NODES nodes onto the probes. Both rules
#: span the same window, so doubled node ``j`` sits at index
#: ``j (QUAD_NODES - 1) / (2 QUAD_NODES - 1)`` of the nodes.
_PROBE_ROWS = _lagrange_matrix(QUAD_NODES, _PROBES * (QUAD_NODES - 1) / (2 * QUAD_NODES - 1))


def _probe_misfit(phi: np.ndarray, probed_s: np.ndarray, probed_p: np.ndarray,
                  ws: np.ndarray, wp: np.ndarray) -> float:
    """Spectrally weighted misfit, in rad, of the phase interpolated onto the probes.

    ``probed_s`` holds the phase evaluated at the probe signal positions
    on the pump nodes, ``probed_p`` at the probe pump positions on the
    signal nodes; ``ws`` and ``wp`` are the nodes' signal column and
    pump row weights. Per probe line the misfit is weighted by the
    spectrum along the line; the worst line of each axis stands for that
    axis' interpolation, and the two axes add.
    """
    return float(np.max(np.abs(_PROBE_ROWS @ phi - probed_s) @ wp[0])
                 + np.max(ws[:, 0] @ np.abs(phi @ _PROBE_ROWS.T - probed_p)))


def _line_fit() -> tuple:
    """Weighted least-squares fit of ``alpha + a x + c x^2`` along one node line.

    ``x`` is in sigma, and the weights are the Gaussian ones, which in
    sigma are the same for every spectrum. Returns the read-only
    ``(3, QUAD_NODES)`` projector that maps a line's phase to
    ``(alpha, a, c)``, and the powers ``1, x, x^2`` at the nodes as the
    rows of another, which map them back. The nodes are symmetric about
    0, so the normal equations decouple: with weighted moments ``m2``
    and ``m4``, ``a`` reads the first moment of the phase, ``c`` its
    second moment about ``m2``, and ``alpha`` the mean less ``m2 c``.
    """
    x = np.linspace(-QUAD_SPAN_SIGMAS, QUAD_SPAN_SIGMAS, QUAD_NODES)
    w = np.exp(-0.5 * x * x)
    w /= w.sum()
    m2, m4 = np.sum(w * x ** 2), np.sum(w * x ** 4)
    c = w * (x * x - m2) / (m4 - m2 * m2)
    fit, powers = np.array([w - m2 * c, w * x / m2, c]), np.array([np.ones_like(x), x, x * x])
    fit.setflags(write=False)
    powers.setflags(write=False)
    return fit, powers


_LINE_FIT, _LINE_POWERS = _line_fit()


def _fit_lines(lines: np.ndarray, along: np.ndarray) -> tuple:
    """``(alpha, a, c)`` per row of ``lines``, and the worst weighted residual of the fits.

    Each row is the phase on one node line and ``along`` the node
    weights along it; a line's residual is weighted by them.
    """
    fit = lines @ _LINE_FIT.T
    return fit, float(np.max(np.abs(lines - fit @ _LINE_POWERS) @ along))


#: Largest spectrally weighted residual, in rad, of the quadratic fit on
#: any node line for which the alias estimate trusts the fit. On cubic,
#: quartic, localised-curvature and Gaussian-bump phases checked against
#: exact values, the estimate missed no error above 1e-6 on lines below
#: 0.1 rad; the paper's phases reach 2.5e-3 rad (0-60 mW, pump FWHM
#: x 0.8-1.2).
_FIT_TOL = 1e-2

#: The alias orders k of the estimate, and the node rule's alias
#: frequency nu = 2 pi / h in rad per sigma, h the node step. The first
#: node sits at -(QUAD_NODES - 1) h / 2, so order k enters the node sum
#: with the sign (-1)^(k (QUAD_NODES - 1)).
_ALIAS_ORDERS = np.array([-4, -3, -2, -1, 1, 2, 3, 4])
_ALIAS_SIGNS = (-1.0) ** (_ALIAS_ORDERS * (QUAD_NODES - 1))
_ALIAS_NU = np.pi * (QUAD_NODES - 1) / QUAD_SPAN_SIGMAS

#: An order k, or the line's own integral (k = 0), is negligible where
#: its real exponent ``-(a + k nu)^2 / (2 (1 + 4 c^2))`` is below -30:
#: where ``|a + k nu| / hypot(1, 2c)`` exceeds this.
_ALIAS_REACH = math.sqrt(60.0)


def _alias_estimate(fit: np.ndarray, lines: np.ndarray, along: np.ndarray,
                    across: np.ndarray) -> complex:
    """Aliasing error of the node rule along one axis.

    ``lines`` holds the phase on the node lines along the axis, one line
    per row, ``fit`` their ``(alpha, a, c)`` as columns, ``along`` the
    node weights along the axis and ``across`` those of the other axis.
    By Poisson summation a line's node sum is its Gaussian integral plus,
    per order k, the integral at the frequency shifted by ``k nu``; for
    the fitted phase that term is ``e^{-i alpha} (1 + 2ic)^{-1/2}
    exp(-(a + k nu)^2 / (2 (1 + 2ic)))``; negligible orders are skipped.
    Where the line's own integral is negligible, its node sum is all
    alias and stands for it. The lines' terms are summed with the
    ``across`` weights, so lines may cancel.
    """
    alpha, a, c = fit.T
    reach = _ALIAS_REACH * np.hypot(1.0, 2.0 * c)
    aliased = np.abs(a) >= reach
    shift = a + _ALIAS_ORDERS[:, None] * _ALIAS_NU
    k, j = np.nonzero((np.abs(shift) < reach) & ~aliased)
    total = 0j
    if len(k):
        q = 1.0 + 2j * c[j]
        total += np.sum(_ALIAS_SIGNS[k] * across[j]
                        * np.exp(-0.5 * shift[k, j] ** 2 / q - 1j * alpha[j]) / np.sqrt(q))
    if aliased.any():
        total += across[aliased] @ (np.exp(-1j * lines[aliased]) @ along)
    return complex(total)


def _alias_check(phi: np.ndarray, probed_s: np.ndarray, probed_p: np.ndarray,
                 ws: np.ndarray, wp: np.ndarray):
    """Estimated aliasing error of the nodes' coherence, or None where it does not hold.

    ``phi`` is the phase on the nodes, ``probed_s`` and ``probed_p`` at
    the probes as for ``_probe_misfit``, and ``ws`` and ``wp`` the
    nodes' signal column and pump row weights. The two axes' estimates
    add. None means the phase is not smooth on the node scale (probe
    misfit above ``_INTERPOLATION_TOL``) or some line is not quadratic
    enough (fit residual above ``_FIT_TOL``).
    """
    fit_s, residual_s = _fit_lines(phi.T, ws[:, 0])
    fit_p, residual_p = _fit_lines(phi, wp[0])
    if not (residual_s <= _FIT_TOL and residual_p <= _FIT_TOL
            and _probe_misfit(phi, probed_s, probed_p, ws, wp) <= _INTERPOLATION_TOL):
        return None
    return (abs(_alias_estimate(fit_s, phi.T, ws[:, 0], wp[0]))
            + abs(_alias_estimate(fit_p, phi, wp[0], ws[:, 0])))


def _coherence(phi: np.ndarray, w: np.ndarray) -> complex:
    """``sum(w e^{-i phi})`` over one rule.

    Real ``cos`` and ``sin``, not a complex ``exp``, which also
    exponentiates the zero real part: the doubled-rule check took 10-30 %
    longer with it (64 nodes, 2 vCPUs). ``0.0 - im`` keeps the imaginary
    part of a zero phase +0.0.
    """
    re = np.einsum("ij,ij->", w, np.cos(phi))
    im = np.einsum("ij,ij->", w, np.sin(phi))
    return complex(re, 0.0 - im)


def mixed_state_over_spectra(phase_fn, signal: GaussianSpectrum,
                             pump: GaussianSpectrum, *,
                             relative_to_mean: bool = False) -> TwoQubitState:
    """Average the pure-state projector over both spectra.

    ``phase_fn(lambda_s_nm, lambda_p_nm)`` must accept broadcastable
    arrays (a signal column and a pump row) and return the relative
    phase in radians. It is evaluated on the ``QUAD_NODES``-point rule,
    with a few probe positions appended to each axis, in one call. A
    constant phase reproduces ``pure_phi_state`` exactly.

    With ``relative_to_mean`` the phase is referenced to its spectral
    mean, the constant that the compensator wedges absorb in practice:
    the same value as ``spectral_mean_phase``, taken from the nodes'
    evaluation and subtracted before anything else reads the phase.

    A warning is issued if the node rule is not converged to 1e-6 in
    the coherence. The check runs on the nodes' phase, which is
    unwrapped and smooth even where its phasor aliases. Each node line
    along either axis is fitted with ``alpha + a x + c x^2`` (weighted
    least squares, x in sigma), and the node rule's aliasing error is
    estimated from that fit by Poisson summation (``_alias_estimate``):
    in closed form per alias order, or by the line's own node sum where
    its integral is negligible. The estimates are summed over the lines
    with the other axis' weights, so lines may cancel, and the two axes
    add. The estimate presumes a phase smooth on the node scale that a
    quadratic describes along each line. The probes test the first: they
    are doubled-rule nodes, and along each axis the phase evaluated at
    them on every node line of the other axis is compared with its
    interpolation from the nodes (banded Lagrange, 8 taps). Where that
    spectrally weighted misfit exceeds 1e-7 rad, or a line's weighted
    fit residual exceeds ``_FIT_TOL``, the phase is evaluated again on
    the doubled rule instead, and the warning is issued if that moves
    the complex coherence by more than 1e-6. The probes see a component
    that equals a smooth alias on the nodes, but not roughness confined
    to where no probe line runs.
    """
    n = QUAD_NODES
    ls, lp, ws, wp = _spectral_axes(signal, pump, n, QUAD_SPAN_SIGMAS)
    w = ws * wp
    size = n + len(_PROBES)
    sampled = np.broadcast_to(phase_fn(
        np.concatenate((ls, signal.center_nm + signal.sigma_nm * _PROBE_X[:, None])),
        np.concatenate((lp, pump.center_nm + pump.sigma_nm * _PROBE_X[None, :]), axis=1)),
        (size, size))
    mean = 0.0
    if relative_to_mean:
        mean = np.sum(w * sampled[:n, :n])
        sampled = sampled - mean
    phi = sampled[:n, :n]
    coh = _coherence(phi, w)
    error = _alias_check(phi, sampled[n:, :n], sampled[:n, n:], ws, wp)
    measure = "the nodes' coherence has an estimated aliasing error of"
    if error is None:
        ls2, lp2, w2 = spectral_grid(signal, pump, 2 * n, QUAD_SPAN_SIGMAS)
        phi2 = np.broadcast_to(phase_fn(ls2, lp2), w2.shape) - mean
        error = abs(_coherence(phi2, w2) - coh)
        measure = "doubling nodes moved the coherence by"
    if error > 1e-6:
        warnings.warn(f"spectral quadrature not converged: {measure} {error:.2e}",
                      RuntimeWarning)
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
