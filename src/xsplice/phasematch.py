"""Birefringence-assisted vector phase matching in PM fiber.

The pump propagates on the slow axis, the signal/idler pair on the fast
axis. With a degenerate pump, momentum conservation reads

    dk = 2*pi * [ 2*(n(lp) + B)/lp - n(ls)/ls - n(li)/li ] + 2*gamma*P,

with all wavelengths in metres and the idler fixed by energy
conservation, li = ls*lp / (2*ls - lp). The birefringence term 4*pi*B/lp
is what opens a non-degenerate solution: without it normal dispersion
keeps dk negative everywhere below the pump.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .materials import FiberSpec, WavelengthRangeError, index

__all__ = [
    "PhaseMatchError",
    "BandwidthError",
    "PhaseMatchPoint",
    "idler_wavelength",
    "phase_mismatch",
    "solve_signal_idler",
    "tuning_curve",
    "output_bandwidths",
]

#: |dk| below which a wavelength pair counts as phase matched, rad/m.
MISMATCH_TOL = 1e-6

#: Points in the coarse bracketing scan of the signal window.
SCAN_POINTS = 2000

#: sinc^2(x) = 1/2 at x = X_HALF.
X_HALF = 1.3915573782515103

#: Step of the central differences of dk in either wavelength, nm.
_DIFF_STEP_NM = 0.01

_ENERGY_RTOL = 1e-12


class PhaseMatchError(RuntimeError):
    """No phase-matched solution, or a degenerate-denominator request."""


class BandwidthError(RuntimeError):
    """The phase-matching profile has no usable half-maximum crossing."""


@dataclass(frozen=True)
class PhaseMatchPoint:
    """One solved operating point (wavelengths in nm, mismatch in rad/m)."""

    lambda_p_nm: float
    lambda_s_nm: float
    lambda_i_nm: float
    residual_mismatch: float

    def __post_init__(self):
        lhs = 2.0 / self.lambda_p_nm
        rhs = 1.0 / self.lambda_s_nm + 1.0 / self.lambda_i_nm
        if abs(lhs - rhs) > _ENERGY_RTOL * abs(lhs):
            raise ValueError("energy conservation violated beyond 1e-12 relative")
        if not self.lambda_s_nm < self.lambda_p_nm < self.lambda_i_nm:
            raise ValueError(
                f"expected signal < pump < idler, got "
                f"{self.lambda_s_nm} / {self.lambda_p_nm} / {self.lambda_i_nm}"
            )


def idler_wavelength(lambda_s_nm, lambda_p_nm):
    """Idler wavelength from energy conservation, ls*lp/(2*ls - lp)."""
    ls = np.asarray(lambda_s_nm, dtype=float)
    lp = np.asarray(lambda_p_nm, dtype=float)
    if np.any(ls <= 0) or np.any(lp <= 0):
        raise ValueError("wavelengths must be positive")
    denom = 2.0 * ls - lp
    if np.any(denom == 0.0):
        raise PhaseMatchError("degenerate denominator: 2*lambda_s == lambda_p")
    out = ls * lp / denom
    return out if out.ndim else float(out)


def phase_mismatch(fiber: FiberSpec, lambda_p_nm, lambda_s_nm, peak_power_w=0.0):
    """Vector phase mismatch dk in rad/m at the given signal wavelength(s)."""
    ls = np.asarray(lambda_s_nm, dtype=float)
    li = idler_wavelength(ls, lambda_p_nm)
    n_p = index(fiber.core_model, lambda_p_nm)
    n_s = index(fiber.core_model, ls)
    n_i = index(fiber.core_model, li)
    m = 1e-9
    dk = 2.0 * np.pi * (
        2.0 * (n_p + fiber.birefringence) / (lambda_p_nm * m)
        - n_s / (ls * m)
        - n_i / (li * m)
    )
    dk = dk + 2.0 * fiber.gamma * peak_power_w
    return dk if np.ndim(dk) else float(dk)


def _scan_window(fiber: FiberSpec, lambda_p_nm: float) -> tuple:
    lo_model, hi_model = fiber.core_model.valid_range_nm
    lo = max(400.0, lo_model)
    # keep the idler inside the model's validity range: li <= hi_model
    lo_idler = lambda_p_nm * hi_model / (2.0 * hi_model - lambda_p_nm)
    lo = max(lo, lo_idler * (1.0 + 1e-9))
    hi = lambda_p_nm - 0.25
    if not lo < hi:
        raise PhaseMatchError(
            f"empty search window for pump {lambda_p_nm:g} nm after validity clipping"
        )
    return lo, hi


def _bisect_root(f, a, b, fa) -> tuple:
    """Bisection refined until |f| < MISMATCH_TOL; returns (x, f(x))."""
    for _ in range(200):
        mid = 0.5 * (a + b)
        fm = f(mid)
        if abs(fm) < MISMATCH_TOL:
            return mid, fm
        if np.sign(fm) == np.sign(fa):
            a, fa = mid, fm
        else:
            b = mid
    raise PhaseMatchError("bisection failed to reach the mismatch tolerance")


def solve_signal_idler(fiber: FiberSpec, lambda_p_nm, peak_power_w=0.0,
                       scan_points=SCAN_POINTS) -> PhaseMatchPoint:
    """Solve dk = 0 for the signal wavelength below the pump.

    A coarse scan over the (validity-clipped) signal window brackets the
    sign change, which bisection then refines to |dk| < 1e-6 rad/m. When
    several brackets exist the root closest to the pump is returned, the
    branch continuously connected to degeneracy.

    Raises
    ------
    PhaseMatchError
        If no sign change exists in the window (e.g. B = 0, where only
        the degenerate solution at the pump remains).
    """
    lambda_p_nm = float(lambda_p_nm)
    lo, hi = _scan_window(fiber, lambda_p_nm)
    grid = np.linspace(lo, hi, int(scan_points))
    vals = phase_mismatch(fiber, lambda_p_nm, grid, peak_power_w)
    sign = np.sign(vals)
    flips = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    exact = np.nonzero(vals == 0.0)[0]

    f = lambda ls: phase_mismatch(fiber, lambda_p_nm, ls, peak_power_w)
    candidates = [(float(grid[i]), 0.0) for i in exact]
    for i in flips:
        candidates.append(_bisect_root(f, grid[i], grid[i + 1], vals[i]))
    if not candidates:
        raise PhaseMatchError(
            f"no phase-matched solution in window ({lo:g}, {hi:g}) nm "
            f"for pump {lambda_p_nm:g} nm"
        )
    ls, dk = max(candidates, key=lambda c: c[0])
    return PhaseMatchPoint(
        lambda_p_nm=lambda_p_nm,
        lambda_s_nm=float(ls),
        lambda_i_nm=float(idler_wavelength(ls, lambda_p_nm)),
        residual_mismatch=float(dk),
    )


def tuning_curve(fiber: FiberSpec, lambda_p_range, steps: int,
                 peak_power_w=0.0) -> tuple:
    """Solve across a pump range.

    Returns ``(points, skipped)``: the solved PhaseMatchPoints and the
    pump wavelengths for which no solution exists in the window.
    """
    if steps < 2:
        raise ValueError("steps must be >= 2")
    lo, hi = lambda_p_range
    points, skipped = [], []
    for lp in np.linspace(float(lo), float(hi), int(steps)):
        try:
            points.append(solve_signal_idler(fiber, lp, peak_power_w))
        except (PhaseMatchError, WavelengthRangeError):
            skipped.append(float(lp))
    return points, skipped


def output_bandwidths(fiber: FiberSpec, point: PhaseMatchPoint, pump_fwhm_nm,
                      peak_power_w=0.0) -> tuple:
    """FWHM estimates (signal_nm, idler_nm) at a solved operating point.

    The intrinsic width is that of the sinc^2(dk L / 2) phase-matching
    profile in the signal wavelength. Its half-maximum edges are the
    roots of dk(ls) = +/- 2 X_HALF / L, found by the solver's bisection
    on a bracket twice the linear estimate wide. The pump bandwidth adds
    in quadrature after propagation through the slope of the solution
    curve, d(ls)/d(lp) = -(d dk/d lp) / (d dk/d ls) by the implicit-
    function theorem. The idler width follows from the
    energy-conservation Jacobian |d(li)/d(ls)| = (li/ls)^2.
    """
    if abs(point.residual_mismatch) > 10 * MISMATCH_TOL:
        raise ValueError("point is not phase matched")
    if not fiber.length_m > 0:
        raise BandwidthError("a zero-length fiber has no phase-matching bandwidth")
    lp, ls0 = point.lambda_p_nm, point.lambda_s_nm
    h = _DIFF_STEP_NM
    dk_s = phase_mismatch(fiber, lp, np.array([ls0 - h, ls0 + h]), peak_power_w)
    dk_p = phase_mismatch(fiber, np.array([lp - h, lp + h]), ls0, peak_power_w)
    dk_dls, dk_dlp = (dk_s[1] - dk_s[0]) / (2 * h), (dk_p[1] - dk_p[0]) / (2 * h)

    dk_half = 2.0 * X_HALF / fiber.length_m
    reach = 2.0 * dk_half / abs(dk_dls)
    edges = []
    for direction in (-1.0, 1.0):
        level = direction * np.sign(dk_dls) * dk_half
        f = lambda ls: phase_mismatch(fiber, lp, ls, peak_power_w) - level
        far = ls0 + direction * reach
        f_near, f_far = f(ls0), f(far)
        if not f_near * f_far < 0:
            raise BandwidthError("no half-maximum crossing within twice the linear estimate")
        edges.append(_bisect_root(f, ls0, far, f_near)[0])
    fwhm_pm = edges[1] - edges[0]

    slope = -dk_dlp / dk_dls
    signal_fwhm = float(np.hypot(fwhm_pm, slope * pump_fwhm_nm))
    jacobian = (point.lambda_i_nm / ls0) ** 2
    return signal_fwhm, float(signal_fwhm * jacobian)
