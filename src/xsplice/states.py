"""Effective two-qubit polarization state and its entanglement metrics.

The source emits (|HH> + e^{i phi}|VV>)/sqrt(2) with a phase that varies
across the pump and signal spectra. Averaging the projector over both
spectra leaves the populations untouched and damps the HH/VV coherence
by the spectral characteristic function of the phase:

    rho_HH,VV = (1/2) < e^{-i phi(ls, lp)} >_{p_s p_p}.

This average and the weighted phase std of a compensator design share
one rule in sigma: uniform nodes x, weights exp(-x^2/2) normalised to
sum 1. A spectrum only places the nodes, at c + sigma x, and
``spectral_grid`` keeps the placed axes open (a column and a row) with
the outer product of the weights. It converges exponentially on smooth
integrands (Trefethen & Weideman, SIAM Rev. 56, 385, 2014), and by
Poisson summation its error is the aliasing of the phasor's spectrum by
the node step. The state's convergence check estimates that error from
quadratic fits of the phase along each node line, from one evaluation
of the phase on the nodes plus a few probes between them that test the
phase's smoothness on the node scale: fixed positions in sigma, the same
for every rule. The state walks a table of checked rules, coarse to fine
(``_RULES``: 20, 32, then 64 nodes per axis): a pump keeps the coherence
of the first rule whose check clears 1e-6. On the paper config the
20-node rule clears the compensated phase below 119 mW and the
uncompensated one below 16 mW, the 32-node rule below 121 mW and 43 mW. The last rule gives the verdict on the pumps
that reach it: one that fails the smoothness test, or that no quadratic
fits, is evaluated once more on one off-lattice verifier with twice the
nodes, and a pump not converged to 1e-6 is warned about. Pump spectra that share one
signal spectrum, such as a power sweep's, share each rule's evaluation
in groups of 16 (``spectral_coherences``).
Basis order throughout is (HH, HV, VH, VV).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .materials import _count, _non_negative

__all__ = [
    "GaussianSpectrum",
    "TwoQubitState",
    "bell_state",
    "werner_state",
    "pure_phi_state",
    "bandwidth_grid",
    "spectral_grid",
    "spectral_coherences",
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

#: Points per axis of the state quadrature's last checked rule, the state
#: rule, whose verdict stands: ``_RULES`` tries 20 and then 32 first, and
#: the verifier has twice as many.
QUAD_NODES = 64

#: Half-width of the state-quadrature window in units of sigma, shared by
#: every checked rule and the verifier. With each rule's uniform points
#: per axis over it, the truncated Gaussian tails and the unhalved end
#: points perturb that rule's coherence at the 1e-9 level, far below the
#: 1e-6 accuracy contract.
QUAD_SPAN_SIGMAS = 6.0

#: Pump spectra per group of ``spectral_coherences``: one phase call per
#: checked rule that the group reaches, the pump rows side by side against
#: one signal column, so the phase model's fixed cost per call is shared:
#: on the first rule's 27-wide blocks, then on the 39- and 71-wide blocks
#: of the later rules for the pumps left. A 16-power paper-config
#: ``visibility_vs_power``, which the first rule clears, took 0.67 ms in
#: one sixteen, 0.82 ms in eights, 1.08 ms in fours, 1.66 ms in twos and
#: 2.96 ms one at a time; one that falls back whole (the uncompensated
#: phase at 45-60 mW) took 9.2 ms in sixteens against 7.5 ms in eights,
#: whose fallback blocks stay in cache (2 vCPUs).
_PUMP_GROUP = 16

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


@dataclass(frozen=True)
class TwoQubitState:
    """4x4 density matrix in the (HH, HV, VH, VV) basis: a read-only copy of the one given."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
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


#: Single-qubit analyzer kets, shared by the visibilities and tomography; read-only.
ANALYZER_KETS = {
    "H": np.array([1.0, 0.0], dtype=complex),
    "V": np.array([0.0, 1.0], dtype=complex),
    "D": np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
    "A": np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0),
    "R": np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0),
    "L": np.array([1.0, -1.0j], dtype=complex) / np.sqrt(2.0),
}
for _ket in ANALYZER_KETS.values():
    _ket.setflags(write=False)

#: The Pauli matrices I, sigma_x, sigma_y, sigma_z, stacked; shared with tomography.
_PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])

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


def _rule(points: int, span_sigmas: float) -> tuple:
    """Nodes ``x`` in sigma, weights and joint weights of the one spectral rule.

    ``linspace(-span_sigmas, span_sigmas, points)`` (0 for one point) and ``exp(-x^2/2)``
    normalised to sum 1 with its outer square, for every spectrum; built once, read-only.
    """
    return _built_rule(_count(points, 1, "points"),
                       float(_non_negative(span_sigmas, "span", positive=True)))


@functools.lru_cache(maxsize=8)  # room for the design and map rules, _RULES' three and the verifier
def _built_rule(points: int, span_sigmas: float) -> tuple:
    x = np.linspace(-span_sigmas, span_sigmas, points) if points > 1 else np.zeros(1)
    w = np.exp(-0.5 * x * x)
    w /= w.sum()
    rule = (x, w, np.outer(w, w))
    for a in rule:
        a.setflags(write=False)
    return rule


def bandwidth_grid(center_nm: float, fwhm_nm: float, points: int = DESIGN_POINTS) -> np.ndarray:
    """The design rule's nodes placed on a Gaussian given by its FWHM, ``c + sigma x``.

    The nodes span +/- ``DESIGN_SPAN_SIGMAS``, the compensator design's
    and phase map's window. ``GaussianSpectrum`` checks the center and FWHM.
    """
    x = _rule(points, DESIGN_SPAN_SIGMAS)[0]
    spectrum = GaussianSpectrum(center_nm, fwhm_nm)
    return spectrum.center_nm + spectrum.sigma_nm * x


def spectral_grid(signal: GaussianSpectrum, pump: GaussianSpectrum,
                  points: int, span_sigmas: float) -> tuple:
    """Open axes and joint weights of the one spectral rule.

    Returns ``(ls, lp, w)``: the nodes placed on the signal as a column
    ``(points, 1)`` and on the pump as a row ``(1, points)``, as in
    ``bandwidth_grid``, and ``w`` the outer product of the rule's
    weights, read-only, so the spectral average of ``fn`` is ``np.sum(w * fn(ls, lp))``.
    """
    x, _, joint = _rule(points, span_sigmas)
    return ((signal.center_nm + signal.sigma_nm * x)[:, None],
            (pump.center_nm + pump.sigma_nm * x)[None, :], joint)


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


#: The probes, fixed positions in sigma from the centre shared by every
#: checked rule: the nodes of the verifier, the state rule's doubled rule,
#: nearest ``_PROBE_SIGMAS``. Each sits at least 0.06 of a node step off
#: every checked rule's nodes (0.071 at 20 nodes, 0.063 at 32, 0.126 at
#: 64; 16 or 19 nodes would bring one within 0.05), so a component that
#: aliases onto the nodes misses most of them.
_PROBE_X = (2.0 * np.rint((np.array(_PROBE_SIGMAS) / (2 * QUAD_SPAN_SIGMAS) + 0.5)
                          * (2 * QUAD_NODES - 1)) / (2 * QUAD_NODES - 1) - 1.0) * QUAD_SPAN_SIGMAS
_PROBE_X.setflags(write=False)


def _line_fit(x: np.ndarray, w: np.ndarray) -> tuple:
    """Weighted least-squares fit of ``alpha + a x + c x^2`` along one node line.

    ``x`` and the weights ``w`` are a rule's. Returns the read-only
    ``(3, len(x))`` projector that maps a line's phase to
    ``(alpha, a, c)``, and the powers ``1, x, x^2`` at the nodes as the
    rows of another, which map them back. The nodes are symmetric about
    0, so the normal equations decouple: with weighted moments ``m2``
    and ``m4``, ``a`` reads the first moment of the phase, ``c`` its
    second moment about ``m2``, and ``alpha`` the mean less ``m2 c``.
    """
    m2, m4 = np.sum(w * x ** 2), np.sum(w * x ** 4)
    c = w * (x * x - m2) / (m4 - m2 * m2)
    fit, powers = np.array([w - m2 * c, w * x / m2, c]), np.array([np.ones_like(x), x, x * x])
    fit.setflags(write=False)
    powers.setflags(write=False)
    return fit, powers


#: Largest spectrally weighted residual, in rad, of the quadratic fit on
#: any node line for which the alias estimate trusts the fit. On cubic,
#: quartic, localised-curvature and Gaussian-bump phases checked against
#: exact values, the estimate missed no error above 1e-6 on lines below
#: 0.1 rad; the paper's phases reach 2.5e-3 rad (0-60 mW, pump FWHM
#: x 0.8-1.2).
_FIT_TOL = 1e-2

#: The alias orders k of the estimate.
_ALIAS_ORDERS = np.array([-4, -3, -2, -1, 1, 2, 3, 4])

#: An order k, or the line's own integral (k = 0), is negligible where
#: its real exponent ``-(a + k nu)^2 / (2 (1 + 4 c^2))`` is below -30:
#: where ``|a + k nu| / hypot(1, 2c)`` exceeds this.
_ALIAS_REACH = math.sqrt(60.0)

#: The accuracy contract of the state's coherence: a pump takes the
#: coherence of the first rule whose check clears it, and one that does
#: not clear it on the last rule warns.
_COHERENCE_TOL = 1e-6


class _CheckedRule(NamedTuple):
    """One node rule of the state quadrature, with its convergence check's constants.

    ``nodes`` (x in sigma), ``weights`` and ``joint`` are those of
    ``_rule`` over +/- ``QUAD_SPAN_SIGMAS``. ``sampled_x`` is where in
    sigma the rule evaluates the phase on either axis: the nodes, then
    the probes, at the fixed sigma positions ``_PROBE_X`` that every rule
    shares. ``probe_rows`` interpolates from the nodes onto the probes,
    and ``line_fit`` and ``line_powers`` are ``_line_fit``'s. Every array
    is read-only.
    """

    nodes: np.ndarray
    weights: np.ndarray
    joint: np.ndarray
    sampled_x: np.ndarray
    probe_rows: np.ndarray
    line_fit: np.ndarray
    line_powers: np.ndarray


def _checked_rule(points: int) -> _CheckedRule:
    x, w, joint = _rule(points, QUAD_SPAN_SIGMAS)
    # the probes in units of the node step from the first node
    probe_rows = _lagrange_matrix(
        points, (_PROBE_X + QUAD_SPAN_SIGMAS) * (points - 1) / (2 * QUAD_SPAN_SIGMAS))
    sampled_x = np.concatenate((x, _PROBE_X))
    sampled_x.setflags(write=False)
    return _CheckedRule(x, w, joint, sampled_x, probe_rows, *_line_fit(x, w))


#: The checked rules that ``spectral_coherences`` walks, coarse to fine,
#: each built once; the last, the state rule, gives the verdict. A
#: compensated 16-power paper-config sweep took 0.64 ms with 20 nodes
#: first, 0.74 ms with 24, 1.13 ms with 32, and 0.70 ms with 16, whose
#: live alias orders send every pump through ``_alias_estimate``'s loop
#: (2 vCPUs).
_RULES = (_checked_rule(20), _checked_rule(32), _checked_rule(QUAD_NODES))


def _alias_estimate(fit: np.ndarray, lines: np.ndarray, rule: _CheckedRule) -> list:
    """Aliasing error of ``rule``'s nodes along one axis, for each phase of a stack.

    ``lines`` holds each phase on the node lines along the axis, one
    line per row, and ``fit`` their ``(alpha, a, c)`` in its last axis.
    The weights along a line and across the lines are both the rule's
    ``weights``. By Poisson summation a line's node sum is its Gaussian
    integral plus, per order k, the integral at the frequency shifted by
    ``k nu``, nu = 2 pi / h the alias frequency in rad per sigma, h the
    node step; the first node sits at -(n - 1) h / 2, so the term enters
    with the sign (-1)^(k (n - 1)). For the fitted phase it is
    ``e^{-i alpha} (1 + 2ic)^{-1/2} exp(-(a + k nu)^2 / (2 (1 + 2ic)))``;
    negligible orders are skipped. Where the line's own integral is
    negligible, its node sum is all alias and stands for it. The lines'
    terms are summed with the weights across them, so lines may cancel.
    Returns one complex per phase; where a term is left, the sums run
    phase by phase, each as for that phase alone.
    """
    alpha, a, c = fit.transpose(2, 0, 1)
    reach = _ALIAS_REACH * np.hypot(1.0, 2.0 * c)
    aliased = np.abs(a) >= reach
    n = len(rule.nodes)
    shift = a[:, None, :] + _ALIAS_ORDERS[:, None] * (np.pi * (n - 1) / QUAD_SPAN_SIGMAS)
    live = (np.abs(shift) < reach[:, None, :]) & ~aliased[:, None, :]
    totals = [0j] * len(fit)
    if not (live.any() or aliased.any()):
        return totals
    signs, weights = (-1.0) ** (_ALIAS_ORDERS * (n - 1)), rule.weights
    for g in range(len(fit)):
        k, j = np.nonzero(live[g])
        total = 0j
        if len(k):
            q = 1.0 + 2j * c[g][j]
            total += np.sum(signs[k] * weights[j]
                            * np.exp(-0.5 * shift[g][k, j] ** 2 / q - 1j * alpha[g][j])
                            / np.sqrt(q))
        if aliased[g].any():
            total += weights[aliased[g]] @ (np.exp(-1j * lines[g][aliased[g]]) @ weights)
        totals[g] = complex(total)
    return totals


def _alias_check(phi: np.ndarray, probed_s: np.ndarray, probed_p: np.ndarray,
                 rule: _CheckedRule) -> list:
    """Estimated aliasing error of each phase's node coherence, or None where it does not hold.

    ``phi`` stacks the phases on ``rule``'s nodes, one ``(signal, pump)``
    block per pump spectrum; ``probed_s`` holds them at the probe signal
    positions on the pump nodes, ``probed_p`` at the probe pump
    positions on the signal nodes, stacked alike. Both axes carry the
    rule's ``weights``. One stacked pass takes both axes' node lines, one
    per row, with the probes on them: the signal-axis halves first, then
    the pump-axis halves. It fits ``alpha + a x + c x^2`` to every line
    (``rule.line_fit``); a phase whose weighted fit residual on a line of
    either half exceeds ``_FIT_TOL`` gets None. Each half gives the worst
    probe line's misfit, the phase interpolated onto the probes
    (``rule.probe_rows``) less its value there, weighted across the
    lines; and the size of its ``_alias_estimate``. A phase's two halves
    add, misfits and estimates alike; None also means a misfit above
    ``_INTERPOLATION_TOL``, a phase not smooth on the node scale.
    """
    g = len(phi)
    lines = np.concatenate((phi.transpose(0, 2, 1), phi))
    probed = np.concatenate((probed_s.transpose(0, 2, 1), probed_p))
    fit = lines @ rule.line_fit.T
    fitted = (np.abs(lines - fit @ rule.line_powers) @ rule.weights).max(axis=1) <= _FIT_TOL
    misfit = (rule.weights @ np.abs(lines @ rule.probe_rows.T - probed)).max(axis=1)
    error = np.array([abs(e) for e in _alias_estimate(fit, lines, rule)])
    held = fitted[:g] & fitted[g:] & (misfit[:g] + misfit[g:] <= _INTERPOLATION_TOL)
    return [float(e) if h else None for e, h in zip(error[:g] + error[g:], held)]


def _coherence(phi: np.ndarray, w: np.ndarray, real: bool = False) -> list:
    """``sum(w e^{-i phi})`` over one rule's joint weights ``w``, for each phase of a stack.

    With ``real`` only the real part, as floats, and no ``sin`` pass:
    the same ``cos`` sum, so the real part of the complex result bit for
    bit. Real ``cos`` and ``sin``, not a complex ``exp``, which also
    exponentiates the zero real part: on a power sweep's phases it took
    40 ns per node against 29 for both sums, and the ``cos`` sum alone
    15 (2 vCPUs). ``0.0 - im`` keeps the imaginary part of a zero phase
    +0.0.
    """
    re = np.einsum("ij,kij->k", w, np.cos(phi))
    if real:
        return re.tolist()
    im = np.einsum("ij,kij->k", w, np.sin(phi))
    return [complex(r, 0.0 - i) for r, i in zip(re, im)]


def spectral_coherences(phase_fn, signal: GaussianSpectrum, pumps, *,
                        relative_to_mean: bool = False, real: bool = False) -> list:
    """Spectral average of ``e^{-i phi}`` under one signal spectrum and each pump spectrum.

    ``phase_fn(lambda_s_nm, lambda_p_nm)`` must accept broadcastable
    arrays (a signal column and a pump row) and return the relative
    phase in radians. ``pumps`` is a sequence of pump spectra; the
    result holds one complex coherence per pump, each the same bit for
    bit as for that pump alone. The average walks ``_RULES``, a table of
    checked node rules (20, 32, then 64 nodes per axis) that every
    spectrum shares, coarse to fine, each with a few probe positions
    appended to each axis: a pump takes the coherence of the first rule
    whose convergence check clears 1e-6, and the pumps left are
    evaluated again on the next rule. The last rule, the state rule of
    ``QUAD_NODES`` nodes, keeps its coherence for every pump that
    reaches it, and gives the verdict below. Pumps
    are taken ``_PUMP_GROUP``, 16, at a time, and each group costs one
    ``phase_fn`` call per rule it reaches: the shared signal column
    against the pump rows laid side by side. The mean, the coherence and
    the convergence check then run on the stack of the pumps' phases. A
    constant phase gives ``e^{-i phi}`` exactly.

    With ``relative_to_mean`` each pump's phase is referenced to its
    spectral mean, the constant that the compensator wedges absorb in
    practice: taken from the nodes' evaluation on the rule that the pump
    takes, and subtracted before anything else reads the phase. On the
    state rule it is the value of ``spectral_mean_phase``.

    With ``real`` the result holds only the real part of each
    coherence, as floats, each that of the complex coherence bit for bit,
    with the same warnings in the same order; ``counts.visibility_vs_power``
    reads no more. No imaginary part is computed, except for a pump that
    the verdict reruns on the verifier, for itself alone, so that the
    rerun still compares complex coherences.

    The check runs on the nodes' phase, which is unwrapped and smooth
    even where its phasor aliases. Each node line along either axis is
    fitted with ``alpha + a x + c x^2`` (weighted least squares, x in
    sigma), and the rule's aliasing error is estimated from that fit by
    Poisson summation (``_alias_estimate``): in closed form per alias
    order, or by the line's own node sum where its integral is
    negligible. The estimates are summed over the lines with the other
    axis' weights, so lines may cancel. One stacked pass takes both axes'
    lines of every pump in the group (``_alias_check``), and a pump's two
    halves add: estimates and misfits sum, and both fits must hold. The
    estimate presumes a phase smooth on the node scale that a quadratic
    describes along each line. The probes test the first: they are
    nodes of the verifier, the state rule's doubled rule, and along each
    axis the phase evaluated at them on every node line of the other
    axis is compared with its interpolation from the nodes (banded
    Lagrange, 8 taps). The check holds where that spectrally weighted
    misfit is at most 1e-7 rad and every line's weighted fit residual at
    most ``_FIT_TOL``. The verdict, on the last rule only, warns about
    each pump whose rule is not converged to 1e-6 in the coherence:
    where the check holds, if the estimate exceeds 1e-6; elsewhere that
    pump's phase is evaluated again on the verifier, ``2 * QUAD_NODES``
    nodes off the rule's lattice, and the warning is issued if that
    moves the complex coherence by more than 1e-6. A NaN estimate or move
    is not converged, on every rule. The probes see a
    component that equals a smooth alias on the nodes, but not roughness
    confined to where no probe line runs. Reruns and warnings go pump by
    pump, in order; no earlier rule warns.
    """
    pumps = list(pumps)
    cohs = [None] * len(pumps)
    for start in range(0, len(pumps), _PUMP_GROUP):
        left = range(start, min(start + _PUMP_GROUP, len(pumps)))
        for rule in _RULES:
            for k, coh in zip(left, _group_coherences(phase_fn, signal, [pumps[k] for k in left],
                                                      relative_to_mean, real, rule)):
                cohs[k] = coh
            left = [k for k in left if cohs[k] is None]
            if not left:
                break
    return cohs


def _group_coherences(phase_fn, signal: GaussianSpectrum, group: list,
                      relative_to_mean: bool, real: bool, rule: _CheckedRule) -> list:
    """``spectral_coherences`` for one group of pumps on one rule.

    Every spectrum's nodes and probes sit at the same ``rule.sampled_x``
    in its sigma, the signal's as a column and the pumps' side by side in
    a row, and every pump shares the joint weights ``rule.joint``. Before
    the last of ``_RULES`` a pump whose check does not clear 1e-6 gets
    None in place of its coherence; on the last the verdict runs. The
    group's arrays are freed on return, before the next phase call.
    """
    n, size = len(rule.nodes), len(rule.sampled_x)
    column = (signal.center_nm + signal.sigma_nm * rule.sampled_x)[:, None]
    centers = np.array([pump.center_nm for pump in group])
    sigmas = np.array([pump.sigma_nm for pump in group])
    row = (centers[:, None] + sigmas[:, None] * rule.sampled_x).reshape(1, -1)
    sampled = np.broadcast_to(phase_fn(column, row), (size, len(group) * size))
    # a C-ordered copy: each pump's block is laid out as one pump's phase
    # alone, so every reduction over it sums in the same order, bit for bit
    stack = np.array(sampled.reshape(size, len(group), size).transpose(1, 0, 2), order="C")
    mean = np.zeros(len(group))
    if relative_to_mean:
        mean = np.sum(rule.joint * stack[:, :n, :n], axis=(1, 2))
        stack -= mean[:, None, None]
    phi = stack[:, :n, :n]
    errors = _alias_check(phi, stack[:, n:, :n], stack[:, :n, n:], rule)
    cohs = _coherence(phi, rule.joint, real)
    if rule is not _RULES[-1]:
        return [None if error is None or not error <= _COHERENCE_TOL else coh
                for coh, error in zip(cohs, errors)]
    for k, (pump, coh, error, offset) in enumerate(zip(group, cohs, errors, mean)):
        measure = "the nodes' coherence has an estimated aliasing error of"
        if error is None:
            if real:
                coh, = _coherence(phi[k:k + 1], rule.joint)
            # 2n nodes, not the nested 2n - 1: a nested verifier shares every
            # even-order alias of the rule it checks, so it would agree with it
            ls2, lp2, w2 = spectral_grid(signal, pump, 2 * n, QUAD_SPAN_SIGMAS)
            phi2 = np.broadcast_to(phase_fn(ls2, lp2), w2.shape) - offset
            error = abs(_coherence(phi2[None], w2)[0] - coh)
            measure = "doubling nodes moved the coherence by"
        if not error <= _COHERENCE_TOL:
            warnings.warn(f"spectral quadrature not converged: {measure} {error:.2e}",
                          RuntimeWarning)
    return cohs


def mixed_state_over_spectra(phase_fn, signal: GaussianSpectrum,
                             pump: GaussianSpectrum, *,
                             relative_to_mean: bool = False) -> TwoQubitState:
    """Average the pure-state projector over both spectra.

    The one-pump case of ``spectral_coherences``, whose arguments and
    convergence warning it shares: the populations stay 1/2 on HH and
    VV, and the coherence is the spectral average of ``e^{-i phi}``,
    from one ``phase_fn`` call. A constant phase reproduces
    ``pure_phi_state`` exactly.
    """
    coh, = spectral_coherences(phase_fn, signal, [pump], relative_to_mean=relative_to_mean)
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[3, 3] = 0.5
    m[0, 3] = 0.5 * coh
    m[3, 0] = np.conj(m[0, 3])
    return TwoQubitState(m)


def _unit_vector(v, size: int, tol: float, name: str) -> np.ndarray:
    """A complex copy of ``v`` with ``size`` entries, if ``abs(|v|^2 - 1) <= tol``.

    Else ``ValueError``; a NaN or infinite entry fails the comparison too.
    """
    v = np.array(v, dtype=complex).reshape(size)
    norm = np.vdot(v, v).real
    if not abs(norm - 1.0) <= tol:
        raise ValueError(f"{name} is not normalized (|psi|^2 = {norm:.12g})")
    return v


def fidelity(state: TwoQubitState, target: np.ndarray) -> float:
    """Overlap <psi| rho |psi> with a pure target normalized to 1e-10."""
    v = _unit_vector(target, 4, 1e-10, "target")
    return float(np.vdot(v, state.matrix @ v).real)


def best_bell_fidelity(state: TwoQubitState) -> tuple:
    """Highest fidelity over the four Bell states; returns (value, name)."""
    scores = {name: fidelity(state, v) for name, v in _BELL.items()}
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


_SY_SY = np.kron(_PAULI[2], _PAULI[2])


def concurrence(state: TwoQubitState) -> float:
    """Wootters concurrence from the spin-flipped spectrum.

    Eigenvalues of rho rho~ within 16 eps of its largest are rounding of
    a zero (a rank-deficient state has them) and are set to 0 before the
    square root, which would lift a 1e-16 to 1e-8.
    """
    rho = state.matrix
    r = rho @ _SY_SY @ rho.conj() @ _SY_SY
    eig = np.sort(np.linalg.eigvals(r).real)[::-1]
    eig[np.abs(eig) <= 16.0 * np.finfo(float).eps * max(eig[0], 0.0)] = 0.0
    mu = np.sqrt(np.clip(eig, 0.0, None))
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


_FLIP = np.kron(_PAULI[1], np.eye(2))


def relabel_signal_flip(state: TwoQubitState) -> TwoQubitState:
    """Conjugate by sigma_x on the signal qubit (the half-wave plate).

    Involutive local unitary; maps the Phi family onto the Psi family
    and leaves every entanglement monotone unchanged.
    """
    return TwoQubitState(_FLIP @ state.matrix @ _FLIP)
