"""Birefringence-assisted vector phase matching in PM fiber.

The pump propagates on the slow axis, the signal/idler pair on the fast
axis. In wavenumbers k = 1/lambda (1/um), where energy conservation for
a degenerate pump is linear, k_i = 2 k_p - k_s, momentum conservation
reads

    dk = 2*pi*1e6 * [ k_s (n_p + B - n_s) + k_i (n_p + B - n_i) ]

in rad/m, with n the core's fast-axis index at each wavenumber: the
pump's 2 k_p (n_p + B), split as (k_s + k_i)(n_p + B), less the pair's
k_s n_s + k_i n_i. The birefringence term 4*pi*1e6 B k_p is what opens
a non-degenerate solution: without it normal dispersion keeps dk
negative everywhere below the pump. With B -> -B, the pump on the fast
axis and the pair on the slow one, L dk is the relative phase of
``phase``.

Both slopes of dk are group-index differences, from the analytic
Sellmeier group index n_g = d(k n)/dk = n - lambda dn/dlambda
(``materials``): at fixed pump

    d dk/d k_s = 2*pi*1e6 * [ n_g(k_i) - n_g(k_s) ],

the signal-idler walk-off, and at fixed signal

    d dk/d k_p = 4*pi*1e6 * [ n_g(k_p) + B - n_g(k_i) ].

The solver and the bandwidths take them per nm, through dk/dlambda =
-k^2/1000, on Python floats and on the pump's terms, evaluated once per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .materials import (FiberSpec, WavelengthRangeError, _check_range, _count, _non_negative,
                        _sellmeier, index)

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

#: |dk| below which a wavelength pair counts as phase matched, rad/m. The
#: root refinement stops on this residual, not on a bracket width.
MISMATCH_TOL = 1e-6

#: sinc^2(x) = 1/2 at x = X_HALF.
X_HALF = 1.3915573782515103

_ENERGY_RTOL = 1e-12

#: Newton rounds after which a root still above MISMATCH_TOL fails.
_MAX_ROUNDS = 100


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
    """Idler wavelength from energy conservation, ls*lp/(2*ls - lp).

    Two valid floats take the same arithmetic on Python floats, the array
    path's value without numpy; any other input takes the array path and
    its errors.
    """
    ls, lp = lambda_s_nm, lambda_p_nm
    if (type(ls) is float and type(lp) is float and 0.0 < ls < math.inf
            and 0.0 < lp < math.inf and 2.0 * ls != lp):
        return ls * lp / (2.0 * ls - lp)
    ls = np.asarray(ls, dtype=float)
    lp = np.asarray(lp, dtype=float)
    # a min and a max pass per input; a NaN fails them and falls through to
    # the elementwise tests
    if not all(0.0 < x.min(initial=np.inf) and x.max(initial=0.0) < np.inf for x in (ls, lp)):
        if (ls <= 0).any() or (lp <= 0).any():
            raise WavelengthRangeError("wavelengths must be positive")
        if np.isnan(ls).any() or np.isnan(lp).any():
            raise WavelengthRangeError("wavelength is not a number")
        raise WavelengthRangeError("wavelengths must be finite")
    denom = 2.0 * ls - lp
    if (denom == 0.0).any():
        raise PhaseMatchError("degenerate denominator: 2*lambda_s == lambda_p")
    out = ls * lp / denom
    return out if out.ndim else float(out)


def _range_order(fiber: FiberSpec, comps: tuple, p, s, i) -> list:
    """``(model, wavelengths)`` in the order of the range errors' precedence.

    The core at the pump ``p``, signal ``s`` and idler ``i``, then each
    crystal's e- and o-rays at its arm. The wavelengths are whatever the
    caller passes: floats or arrays to check, or ``(lo, hi)`` extremes.
    """
    core = fiber.core_model
    order = [(core, p), (core, s), (core, i)]
    for comp in comps:
        arm = s if comp.arm == "signal" else i
        order += [(comp.material.extraordinary, arm), (comp.material.ordinary, arm)]
    return order


def _check_wavelengths(fiber: FiberSpec, comps: tuple, ls, lp):
    """Raise the error that ``idler_wavelength`` or ``index`` would raise.

    The ranges are tested on the extremes of each axis, a float or an
    array; the idler's pair those of the signal and the pump, exact on open
    axes and a bound elsewhere. Only if that test fails are the inputs checked
    element by element, in the order of the errors' precedence: positive,
    not NaN and finite, not degenerate (``idler_wavelength``), then each
    model's validity range in ``_range_order``, the one order that the
    extremes test reads too. The first test takes the idler wavelength as
    1000 / k_i, so within an ulp of a validity bound it can pass an idler
    that ``idler_wavelength`` puts just outside.
    """
    if _within_ranges(fiber, comps, ls, lp):
        return
    li = idler_wavelength(ls, lp)
    for model, lam in _range_order(fiber, comps, lp, ls, li):
        _check_range(model, lam)


def _within_ranges(fiber: FiberSpec, comps: tuple, ls, lp) -> bool:
    """Whether every wavelength lies in its models' ranges, from the axes' extremes.

    Each model of ``_range_order`` is tested on the ``(lo, hi)`` extremes
    of its wavelengths.
    """
    # a float is both of its own; an empty array's read NaN, and fail below
    (s_lo, s_hi), (p_lo, p_hi) = ((x, x) if type(x) is float else (float(x.min()), float(x.max()))
                                  if x.size else (math.nan, math.nan) for x in (ls, lp))
    if not (s_lo > 0.0 and p_lo > 0.0):
        return False  # NaN fails here too
    k_lo = 2.0 * (1000.0 / p_hi) - 1000.0 / s_lo
    k_hi = 2.0 * (1000.0 / p_lo) - 1000.0 / s_hi
    if not k_lo > 0.0:
        return False
    spans = _range_order(fiber, comps, (p_lo, p_hi), (s_lo, s_hi), (1000.0 / k_hi, 1000.0 / k_lo))
    return all(m.valid_range_nm[0] <= lo and hi <= m.valid_range_nm[1] for m, (lo, hi) in spans)


def phase_mismatch(fiber: FiberSpec, lambda_p_nm, lambda_s_nm):
    """Vector phase mismatch dk in rad/m at the given signal wavelength(s).

    Two Python floats stay floats, with no numpy call; any other input
    becomes arrays, and a 0-d result a float. Both take the one range
    check and the one ``_mismatch`` call. Inputs fail as in
    ``compensated_phase``, with the same errors.
    """
    ls, lp = lambda_s_nm, lambda_p_nm
    if not (type(ls) is float and type(lp) is float):
        ls, lp = np.asarray(ls, dtype=float), np.asarray(lp, dtype=float)
    _check_wavelengths(fiber, (), ls, lp)
    dk = _mismatch(fiber, _pump_terms(fiber, lp), ls)[0]
    return dk if type(dk) is float or dk.ndim else float(dk)


def _pump_terms(fiber: FiberSpec, lp) -> tuple:
    """``(k_p, n_p + B, n_g(k_p))`` at pumps ``lp`` (nm), ``_mismatch``'s pump."""
    kp = 1000.0 / lp  # 1/um
    n_p, g_p = _sellmeier(fiber.core_model, kp * kp, group=True)
    return kp, n_p + fiber.birefringence, g_p


def _mismatch(fiber: FiberSpec, pump: tuple, ls) -> tuple:
    """dk (rad/m), d dk/d ls and d dk/d lp (rad/m per nm) at signals ``ls``
    (nm) that the caller has checked, for the pump of ``_pump_terms``.

    Floats give floats and arrays broadcast. One Sellmeier call each at
    the signal and idler wavenumbers gives every other index and group
    index (module docstring).
    """
    kp, a, g_p = pump
    ks = 1000.0 / ls  # 1/um
    ki = 2.0 * kp - ks
    n_s, g_s = _sellmeier(fiber.core_model, ks * ks, group=True)
    n_i, g_i = _sellmeier(fiber.core_model, ki * ki, group=True)
    dk = 2e6 * math.pi * (ks * (a - n_s) + ki * (a - n_i))
    # d k/d lambda = -k^2 / 1000 per nm
    return (dk, 2e3 * math.pi * ks * ks * (g_s - g_i),
            4e3 * math.pi * kp * kp * (g_i - g_p - fiber.birefringence))


def _window(fiber: FiberSpec, lambda_p_nm: float) -> tuple:
    lo_model, hi_model = fiber.core_model.valid_range_nm
    lo = max(400.0, lo_model)
    if lambda_p_nm < 2.0 * hi_model:
        # keep the idler inside the model's validity range: li <= hi_model
        lo_idler = lambda_p_nm * hi_model / (2.0 * hi_model - lambda_p_nm)
        lo = max(lo, lo_idler * (1.0 + 1e-9))
    hi = lambda_p_nm - 0.25
    if not lo < hi:
        raise PhaseMatchError(
            f"empty search window for pump {lambda_p_nm:g} nm after validity clipping"
        )
    if lambda_p_nm > hi_model:
        # only a pump at or beyond twice the model's upper bound has a
        # window here; its own index is outside the model, which this raises
        index(fiber.core_model, lambda_p_nm)
    return lo, hi


def _refine(fiber, pump, a, b, fa, fb, level) -> tuple:
    """The root of dk(lp, ls) - level on a < ls < b at ``pump``, as ``(x, f)``.

    Newton steps on the analytic slope d dk/d ls, safeguarded by the
    bracket as in rtsafe (Numerical Recipes, section 9.4). Its callers,
    ``output_bandwidths``' edges and the solver's overshoots, hold
    brackets, so the first point is the secant through the bracket ends,
    or the midpoint where that does not land strictly inside; ``fa`` and
    ``fb`` are dk - level at the ends and have opposite signs, so
    ``fb - fa`` is never zero. Each round evaluates dk and its slope at
    the point, keeps the sub-bracket with the sign change, and steps to
    the Newton point. It takes the midpoint instead where the Newton
    point leaves the bracket, where the step is more than half the last
    one, or where the slope is zero or NaN. It stops once |dk - level| <
    MISMATCH_TOL; ``f`` is then exactly ``phase_mismatch(fiber, lp, x) -
    level``. Raises PhaseMatchError if no round reaches the tolerance.
    """
    x = a - fa * (b - a) / (fb - fa)
    if not a < x < b:
        x = 0.5 * (a + b)
    last = b - a  # the step before the first Newton step: the bracket
    for _ in range(_MAX_ROUNDS):
        dk, slope, _ = _mismatch(fiber, pump, x)
        f = dk - level
        if abs(f) < MISMATCH_TOL:
            return x, f
        if (f < 0) == (fa < 0):
            a, fa = x, f
        else:
            b = x
        # x - f/slope lies strictly inside (a, b), and |f/slope| <= last/2;
        # both tests multiply, so a zero or NaN slope fails them
        if (((x - a) * slope - f) * ((x - b) * slope - f) < 0
                and abs(2.0 * f) <= abs(last * slope)):
            step = f / slope
            x, last = x - step, abs(step)
        else:
            x, last = 0.5 * (a + b), 0.5 * (b - a)
    raise PhaseMatchError("root refinement did not reach the mismatch tolerance")


def solve_signal_idler(fiber: FiberSpec, lambda_p_nm) -> PhaseMatchPoint:
    """Solve dk = 0 for the signal below the pump.

    Only the root closest to the pump is returned, the branch
    continuously connected to degeneracy. Signal and idler share the
    core index, so dk is a function g(x) of x = delta^2, delta = 1/ls -
    1/lp (1/nm), with g'(x) = -(d dk/d ls) ls^2 / (2 delta). The solve
    takes Newton steps in x on Python floats from the window's inner
    end, ls = lp - 0.25 nm, one ``_mismatch`` call per round on pump terms
    evaluated once. Where g is convex, as on the design range, they walk
    monotonically onto the nearest root, in four rounds; where it is
    concave, as for pumps below about 610 nm, a step can overshoot it. The solve stops
    at |dk| < MISMATCH_TOL, or at dk < 0 after a positive iterate, where
    ``_refine`` finishes the bracket of the last two. The residual is
    exactly ``phase_mismatch(fiber, lp, ls)``. ``tuning_curve`` calls
    this at each of its pumps.

    Raises
    ------
    PhaseMatchError
        If the window holds no root on that branch: at dk <= 0 at the
        inner end (e.g. B = 0, where only the degenerate solution
        remains, or a root within 0.25 nm of the pump), at a slope
        d dk/d ls not positive and finite, or at dk > 0 at the outer
        end, to which a Newton point past it is moved. ``_window``'s
        errors pass through.
    """
    lp = float(lambda_p_nm)
    end, hi = _window(fiber, lp)
    pump = _pump_terms(fiber, lp)
    ls, delta = hi, 1.0 / hi - 1.0 / lp
    for rnd in range(_MAX_ROUNDS):
        dk, slope, _ = _mismatch(fiber, pump, ls)
        if abs(dk) < MISMATCH_TOL:
            break
        if dk < 0 and rnd:
            ls, dk = _refine(fiber, pump, ls, last_ls, dk, last_dk, 0.0)
            break
        if not (dk > 0 and 0 < slope < math.inf and ls > end):
            raise PhaseMatchError(f"no phase-matched solution in window ({end:g}, "
                                  f"{hi:g}) nm for pump {lp:g} nm")
        last_ls, last_dk, d = ls, dk, delta
        delta = math.sqrt(d * d + 2.0 * d * last_dk / (slope * (last_ls * last_ls)))
        # a Newton point past the outer end is taken at the end
        ls = max(1.0 / (1.0 / lp + delta), end)
    else:
        raise PhaseMatchError("root refinement did not reach the mismatch tolerance")
    # two floats, and the window keeps 2 ls > lp: the float path, no numpy call
    return PhaseMatchPoint(lp, ls, idler_wavelength(ls, lp), dk)


def tuning_curve(fiber: FiberSpec, lambda_p_range, steps: int) -> tuple:
    """Solve across a pump range, one pump at a time.

    Returns ``(points, skipped)``: the solved PhaseMatchPoints and the
    pump wavelengths for which no solution exists in the window. Each
    point is the ``solve_signal_idler`` call at its pump, and a pump
    whose call fails is skipped on its own.
    """
    steps = _count(steps, 2, "steps")
    lo, hi = (_non_negative(float(end), "pump range end", positive=True) for end in lambda_p_range)
    points, skipped = [], []
    for lp in np.linspace(lo, hi, steps).tolist():
        try:
            points.append(solve_signal_idler(fiber, lp))
        except (PhaseMatchError, WavelengthRangeError):
            skipped.append(lp)
    return points, skipped


def output_bandwidths(fiber: FiberSpec, point: PhaseMatchPoint, pump_fwhm_nm) -> tuple:
    """FWHM estimates (signal_nm, idler_nm) at a solved operating point.

    The intrinsic width is that of the sinc^2(dk L / 2) phase-matching
    profile in the signal wavelength. Its half-maximum edges are the
    roots of dk(ls) = +/- 2 X_HALF / L, each refined by the solver's
    safeguarded Newton iteration on a bracket twice the linear estimate
    wide. The pump bandwidth adds in quadrature after propagation
    through the slope of the solution curve, d(ls)/d(lp) = -(d dk/d lp)
    / (d dk/d ls) by the implicit-function theorem. Both partials are
    the analytic group-index differences of the module docstring, from
    one ``_mismatch`` call at the point; every call shares the pump's
    terms. The idler width follows from the Jacobian |d(li)/d(ls)| = (li/ls)^2.
    """
    _non_negative(pump_fwhm_nm, "pump_fwhm_nm")
    if abs(point.residual_mismatch) > 10 * MISMATCH_TOL:
        raise ValueError("point is not phase matched")
    if not fiber.length_m > 0:
        raise BandwidthError("a zero-length fiber has no phase-matching bandwidth")
    lp, ls0 = float(point.lambda_p_nm), float(point.lambda_s_nm)
    _check_wavelengths(fiber, (), ls0, lp)
    pump = _pump_terms(fiber, lp)
    near, dk_dls, dk_dlp = _mismatch(fiber, pump, ls0)

    dk_half = 2.0 * X_HALF / fiber.length_m
    # a flat profile (a constant index at B = 0) reaches to infinity,
    # which the check of the reach ends rejects
    reach = 2.0 * dk_half / abs(dk_dls) if dk_dls else math.inf
    ends = (ls0 - reach, ls0 + reach)
    _check_wavelengths(fiber, (), np.array(ends), lp)
    # the lower edge's level, then the upper one's
    levels = (-dk_half, dk_half) if dk_dls > 0 else (dk_half, -dk_half)
    f_near = [near - level for level in levels]
    f_far = [_mismatch(fiber, pump, end)[0] - level for end, level in zip(ends, levels)]
    if not all(fn * ff < 0 for fn, ff in zip(f_near, f_far)):
        raise BandwidthError("no half-maximum crossing within twice the linear estimate")
    lower, _ = _refine(fiber, pump, ends[0], ls0, f_far[0], f_near[0], levels[0])
    upper, _ = _refine(fiber, pump, ls0, ends[1], f_near[1], f_far[1], levels[1])
    fwhm_pm = upper - lower

    slope = -dk_dlp / dk_dls
    signal_fwhm = float(np.hypot(fwhm_pm, slope * pump_fwhm_nm))
    jacobian = (point.lambda_i_nm / ls0) ** 2
    return signal_fwhm, signal_fwhm * jacobian
