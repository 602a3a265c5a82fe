"""Compensator-length design and fiber-birefringence calibration.

The compensators are cut from a model of the temporal walk-off in the
fibers. With omega_s + omega_i = 2 omega_p, the phase's slope in one
photon's frequency, the other's held, is a group delay over L: the
first segment's pump on the fast axis, n_g(lp), against the second
segment's photon on the slow axis, n_g + B. A crystal of signed length
l in that photon's arm adds l dn_g, with dn_g = n_g,e - n_g,o. So the
two arms decouple, and each arm's length at the spectral centres is
one ratio of group indices,

    l = L [n_g(lambda) + B - n_g(lp)] / dn_g(lambda),

whose sign is the crystal's orientation. No linear system is solved.
"""

from __future__ import annotations

import numpy as np

from .materials import (CompensatorMaterial, FiberSpec, SellmeierModel,
                        WavelengthRangeError, index_and_group_index)
from .phase import (
    CompensatorSpec,
    _leave_for_map,
    compensated_phase,
    compensator_phase,  # noqa: F401 -- unused; perfbench/tracing.py rebinds it here
    total_phase,  # noqa: F401 -- unused; perfbench/tracing.py rebinds it here
)
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

#: A confirming solve farther than this from the calibration target has
#: found another root of dk, nm. The solver's own root lies within
#: MISMATCH_TOL / |d dk/d ls|, a few 1e-9 nm, of the target.
_BRANCH_TOL_NM = 0.01


class OptimizationError(RuntimeError):
    """The compensator design is singular: a crystal has no group
    birefringence at its arm's wavelength, so no length cancels the
    walk-off."""


class CalibrationError(RuntimeError):
    pass


def weighted_phase_std(fiber: FiberSpec, comps, pump: GaussianSpectrum,
                       signal: GaussianSpectrum) -> float:
    """Spectrum-weighted standard deviation of the phase, in degrees.

    Its grid is left for a ``phase.phase_map`` drawn next on the same
    axes (``bandwidth_grid(..., DESIGN_POINTS)``), fiber and crystals.
    """
    ls, lp, w = spectral_grid(signal, pump, DESIGN_POINTS, DESIGN_SPAN_SIGMAS)
    comps = tuple(comps or ())
    grid = compensated_phase(fiber, comps, ls, lp)
    _leave_for_map(fiber, comps, ls, lp, grid)
    mean = np.sum(w * grid)
    var = np.sum(w * (grid - mean) ** 2)
    return float(np.degrees(np.sqrt(var)))


def optimize_compensators(fiber: FiberSpec, material: CompensatorMaterial,
                          pump: GaussianSpectrum, signal: GaussianSpectrum) -> tuple:
    """Cancel the walk-off with one crystal per output arm.

    Each arm's crystal cancels, over the fiber length L, the group delay
    between that arm's photon on the slow axis and the pump on the fast
    axis, at the spectral centres. In mm, the signed lengths are
    ``1e3 L [n_g(ls) + B - n_g(lp)] / dn_g(ls)`` (signal) and
    ``1e3 L [n_g(li) + B - n_g(lp)] / dn_g(li)`` (idler), from one
    group-index pass on the core and one per crystal ray, per arm on floats.
    Returns ``(signal_comp, idler_comp, weighted_std_deg)`` with
    non-negative lengths, the orientation (the length's sign) carried by
    each CompensatorSpec, and ``weighted_phase_std`` at that design.
    Raises OptimizationError where dn_g is 0 at either arm (for instance
    a crystal without birefringence).
    """
    ls, lp = signal.center_nm, pump.center_nm
    arms = (ls, idler_wavelength(ls, lp))
    # each model's range is checked at the signal, the idler, then the pump
    *n_g, n_gp = (index_and_group_index(fiber.core_model, lam)[1] for lam in (*arms, lp))
    n_ge = [index_and_group_index(material.extraordinary, lam)[1] for lam in arms]
    dn_g = [e - index_and_group_index(material.ordinary, lam)[1] for e, lam in zip(n_ge, arms)]
    if not all(d != 0.0 for d in dn_g):
        raise OptimizationError(
            "singular compensator design: the crystal has no group "
            "birefringence at the signal or idler wavelength")
    lengths = [1e3 * fiber.length_m * (g + fiber.birefringence - n_gp) / d
               for g, d in zip(n_g, dn_g)]
    comps = tuple(CompensatorSpec(abs(float(mm)), material, +1 if mm >= 0 else -1, arm)
                  for mm, arm in zip(lengths, ("signal", "idler")))
    return (*comps, weighted_phase_std(fiber, comps, pump, signal))


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
    when the calibrated fiber phase-matches another signal. B does not
    depend on ``length_m``: dk is a rate per metre.
    """
    fiber0 = FiberSpec(length_m, 0.0, 0.0, core_model)
    try:
        dk0 = phase_mismatch(fiber0, lambda_p_nm, lambda_s_target_nm)
    except (PhaseMatchError, WavelengthRangeError) as exc:
        raise CalibrationError(f"target {lambda_s_target_nm:g} nm: {exc}") from exc
    # 0.0 - x, not -x: a target at the pump, dk(0) = 0, needs B = +0
    b = 0.0 - dk0 * lambda_p_nm * 1e-9 / (4.0 * np.pi)
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
