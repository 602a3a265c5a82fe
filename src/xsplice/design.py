"""Compensator-length design and fiber-birefringence calibration.

The compensated phase is exactly linear in the two signed compensator
lengths (a, b) in mm, so its spectrum-weighted variance over a
wavelength grid is an exact quadratic form in them:
``v00 + 2 [a, b]·c + [a, b]·G·[a, b]``. Its minimum solves the 2x2
normal equations ``G·[a, b] = -c``; no iterative optimizer is involved.
The reported residual is read off the same centred columns at the
solved lengths, so the phase model is evaluated once per design.
"""

from __future__ import annotations

import numpy as np

from .materials import (CompensatorMaterial, FiberSpec, SellmeierModel,
                        WavelengthRangeError)
from .phase import (CompensatorSpec, compensated_phase, compensator_phase,
                    total_phase)
from .phasematch import (PhaseMatchError, idler_wavelength, phase_mismatch,
                         solve_signal_idler)
from .states import DESIGN_POINTS, DESIGN_SPAN_SIGMAS, GaussianSpectrum, spectral_grid

__all__ = [
    "OptimizationError",
    "CalibrationError",
    "weighted_phase_std",
    "optimize_compensators",
    "calibrate_birefringence",
]

#: Below this value of det(G) / (G00 G11) = 1 - corr^2 the signal- and
#: idler-arm columns are collinear to rounding and the design is singular.
_SINGULAR_RTOL = 1e-12

#: A confirming solve farther than this from the calibration target has
#: found another root of dk, nm. The solver's own root lies within
#: MISMATCH_TOL / |d dk/d ls|, a few 1e-9 nm, of the target.
_BRANCH_TOL_NM = 0.01


class OptimizationError(RuntimeError):
    """The compensator design is singular: the wavelength grid cannot
    tell the signal-arm and idler-arm compensators apart."""


class CalibrationError(RuntimeError):
    pass


def weighted_phase_std(fiber: FiberSpec, comps, pump: GaussianSpectrum,
                       signal: GaussianSpectrum, points: int = DESIGN_POINTS) -> float:
    """Spectrum-weighted standard deviation of the phase, in degrees."""
    ls, lp, w = spectral_grid(signal, pump, points, DESIGN_SPAN_SIGMAS)
    grid = compensated_phase(fiber, comps, ls, lp)
    mean = np.sum(w * grid)
    var = np.sum(w * (grid - mean) ** 2)
    return float(np.degrees(np.sqrt(var)))


def _box_minimum(gram: np.ndarray, c: np.ndarray,
                 limit: float | None) -> np.ndarray:
    """Minimize ``x·G·x + 2 c·x`` over the square ``|x_k| <= limit``.

    ``G`` must be positive definite; ``limit=None`` means no bound. If
    the free minimum lies outside the square, the convex quadratic
    attains its constrained minimum on the boundary; along each edge it
    is a 1-D quadratic whose minimum is clipped to the edge, and the
    best of the four edge minima wins.
    """
    x = np.linalg.solve(gram, -c)
    if limit is None or np.all(np.abs(x) <= limit):
        return x
    candidates = []
    for k in (0, 1):
        j = 1 - k
        for edge in (-limit, limit):
            y = np.empty(2)
            y[k] = edge
            y[j] = np.clip(-(c[j] + gram[j, k] * edge) / gram[j, j], -limit, limit)
            candidates.append(y)
    return min(candidates, key=lambda y: y @ gram @ y + 2.0 * c @ y)


def optimize_compensators(fiber: FiberSpec, material: CompensatorMaterial,
                          pump: GaussianSpectrum, signal: GaussianSpectrum,
                          max_length_mm: float | None = None,
                          points: int = DESIGN_POINTS) -> tuple:
    """Flatten the phase map with one crystal per output arm.

    Minimizes the spectrum-weighted phase variance over the +/- 3 sigma
    grid in closed form, over signed lengths so that both orientation
    signs per arm are covered. By default the lengths are unbounded.
    A ``max_length_mm`` is a hard limit on each crystal: when the free
    minimum is longer, the exact minimum on the boundary of the
    +/- ``max_length_mm`` square is returned instead.
    Returns ``(signal_comp, idler_comp, weighted_std_deg)`` with
    non-negative lengths and the orientation carried by each
    CompensatorSpec. Raises OptimizationError when the grid cannot tell
    the two arms apart (for instance a single-point grid).
    """
    ls, lp, w = spectral_grid(signal, pump, points, DESIGN_SPAN_SIGMAS)
    base = total_phase(fiber, ls, lp)
    per_mm_s = compensator_phase(CompensatorSpec(1.0, material, +1, "signal"), ls)
    per_mm_i = compensator_phase(CompensatorSpec(1.0, material, +1, "idler"),
                                 idler_wavelength(ls, lp))

    def centered(f):
        return f - np.sum(w * f)

    b0, xs, yi = centered(base), centered(per_mm_s), centered(per_mm_i)
    vxx, vyy, cxy = np.sum(w * xs * xs), np.sum(w * yi * yi), np.sum(w * xs * yi)
    det = vxx * vyy - cxy * cxy
    if not det > _SINGULAR_RTOL * vxx * vyy:
        raise OptimizationError(
            "singular compensator design: the signal and idler arms are "
            f"indistinguishable on a {points}x{points} grid")
    gram = np.array([[vxx, cxy], [cxy, vyy]])
    c = np.array([np.sum(w * b0 * xs), np.sum(w * b0 * yi)])
    a, b = _box_minimum(gram, c, max_length_mm)

    signal_comp = CompensatorSpec(abs(float(a)), material,
                                  +1 if a >= 0 else -1, "signal")
    idler_comp = CompensatorSpec(abs(float(b)), material,
                                 +1 if b >= 0 else -1, "idler")
    r = b0 + a * xs + b * yi
    return signal_comp, idler_comp, float(np.degrees(np.sqrt(np.sum(w * r * r))))


def calibrate_birefringence(core_model: SellmeierModel, lambda_p_nm: float,
                            lambda_s_target_nm: float,
                            b_range=(1e-5, 1e-3), length_m: float = 0.13) -> float:
    """The fiber birefringence that phase-matches a target signal.

    The mismatch is linear in B, dk(B) = dk(0) + 4 pi B / lp, so the B
    that zeroes it at the target is B = -dk(0) lp / (4 pi), in closed
    form. One solve on the calibrated fiber then confirms that the
    target is the root closest to the pump, the branch that
    ``solve_signal_idler`` returns. Raises CalibrationError when B lies
    outside ``b_range``, when the target is outside the index model, or
    when the calibrated fiber phase-matches another signal.
    """
    fiber0 = FiberSpec(length_m, 0.0, 0.0, core_model)
    try:
        dk0 = phase_mismatch(fiber0, lambda_p_nm, lambda_s_target_nm)
    except (PhaseMatchError, WavelengthRangeError) as exc:
        raise CalibrationError(f"target {lambda_s_target_nm:g} nm: {exc}") from exc
    b = -dk0 * lambda_p_nm * 1e-9 / (4.0 * np.pi)
    lo, hi = b_range
    if not lo <= b <= hi:
        raise CalibrationError(
            f"target {lambda_s_target_nm:g} nm needs B = {b:g}, outside "
            f"[{lo:g}, {hi:g}]; widen the range"
        )
    try:
        solved = solve_signal_idler(FiberSpec(length_m, b, 0.0, core_model),
                                    lambda_p_nm).lambda_s_nm
    except PhaseMatchError as exc:
        raise CalibrationError(f"B = {b:g} does not phase-match: {exc}") from exc
    if not abs(solved - lambda_s_target_nm) <= _BRANCH_TOL_NM:
        raise CalibrationError(
            f"at B = {b:g} the root closest to the pump is {solved:g} nm, "
            f"not the target {lambda_s_target_nm:g} nm"
        )
    return b
