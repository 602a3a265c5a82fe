"""Birefringence-assisted vector phase matching in PM fiber.

The pump propagates on the slow axis, the signal/idler pair on the fast
axis. With a degenerate pump, momentum conservation reads

    dk = 2*pi * [ 2*(n(lp) + B)/lp - n(ls)/ls - n(li)/li ] + 2*gamma*P,

with all wavelengths in metres and the idler fixed by energy
conservation, li = ls*lp / (2*ls - lp). The birefringence term 4*pi*B/lp
is what opens a non-degenerate solution: without it normal dispersion
keeps dk negative everywhere below the pump.

Both slopes of dk are group-index differences, from the analytic
Sellmeier group index n_g = n - lambda dn/dlambda (``materials``). At
fixed pump, d(n/lambda)/dlambda = -n_g/lambda^2 and d(li)/d(ls) =
-(li/ls)^2 give

    d dk/d ls = 2*pi * [ n_g(ls) - n_g(li) ] / ls^2,

the signal-idler walk-off; at fixed signal, d(li)/d(lp) = 2 (li/lp)^2
gives

    d dk/d lp = 4*pi * [ n_g(li) - n_g(lp) - B ] / lp^2.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .materials import (FiberSpec, WavelengthRangeError, index, index_and_group_index,
                        slow_axis_index)

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

#: Points per pump in the coarse scan that brackets the roots of dk in
#: the signal window.
SCAN_POINTS = 2000

#: sinc^2(x) = 1/2 at x = X_HALF.
X_HALF = 1.3915573782515103

_ENERGY_RTOL = 1e-12

#: Pumps per broadcast scan: bounds the (pumps, scan points) arrays of a
#: long tuning curve to a few MB.
_PUMPS_PER_SCAN = 64

#: Lockstep rounds after which a root still above MISMATCH_TOL fails.
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
    """Idler wavelength from energy conservation, ls*lp/(2*ls - lp)."""
    ls = np.asarray(lambda_s_nm, dtype=float)
    lp = np.asarray(lambda_p_nm, dtype=float)
    # one min pass per input; a NaN fails it and falls through to the elementwise test
    if not (ls.min(initial=np.inf) > 0 and lp.min(initial=np.inf) > 0) \
            and ((~(ls > 0)).any() or (~(lp > 0)).any()):
        if (ls <= 0).any() or (lp <= 0).any():
            raise WavelengthRangeError("wavelengths must be positive")
        raise WavelengthRangeError("wavelength is not a number")
    denom = 2.0 * ls - lp
    if (denom == 0.0).any():
        raise PhaseMatchError("degenerate denominator: 2*lambda_s == lambda_p")
    out = ls * lp / denom
    return out if out.ndim else float(out)


def phase_mismatch(fiber: FiberSpec, lambda_p_nm, lambda_s_nm, peak_power_w=0.0):
    """Vector phase mismatch dk in rad/m at the given signal wavelength(s)."""
    ls = np.asarray(lambda_s_nm, dtype=float)
    li = idler_wavelength(ls, lambda_p_nm)
    pump = _pump_term(slow_axis_index(fiber, lambda_p_nm), lambda_p_nm)
    core = fiber.core_model
    dk = _mismatch(pump, index(core, ls), ls, index(core, li), li)
    dk = dk + 2.0 * fiber.gamma * peak_power_w
    return dk if np.ndim(dk) else float(dk)


def _pump_term(n_p, lp):
    """2 n_p / lp in 1/m, the pump's share of dk / 2 pi; ``n_p`` is the
    slow-axis index at ``lp`` nm."""
    return 2.0 * n_p / (lp * 1e-9)


def _mismatch(pump, n_s, ls, n_i, li):
    """dk at zero peak power from the pump term and the pair's indices:
    the one expression behind ``phase_mismatch`` and the refinement."""
    m = 1e-9
    return 2.0 * np.pi * (pump - n_s / (ls * m) - n_i / (li * m))


def _signal_slope(g_s, ls, g_i):
    """d dk/d ls at fixed pump, rad/m per nm, from the signal and idler
    group indices: the signal-idler walk-off."""
    return 2.0 * np.pi * (g_s - g_i) / (ls * ls * 1e-9)


def _pair(fiber: FiberSpec, pump, lp, ls):
    """dk at zero peak power and d dk/d ls on 1-D signals.

    Signal and idler go through one Sellmeier pass, which gives their
    group indices with their indices.
    """
    li = idler_wavelength(ls, lp)
    n, n_g = index_and_group_index(fiber.core_model, np.concatenate((ls, li)))
    k = ls.size
    return _mismatch(pump, n[:k], ls, n[k:], li), _signal_slope(n_g[:k], ls, n_g[k:])


def _point_slopes(fiber: FiberSpec, lp: float, ls: float) -> tuple:
    """dk at zero peak power, d dk/d ls and d dk/d lp (rad/m per nm) at
    one point, from one Sellmeier pass at signal, idler and pump."""
    li = idler_wavelength(ls, lp)
    (n_s, n_i, n_p), (g_s, g_i, g_p) = index_and_group_index(fiber.core_model,
                                                             np.array([ls, li, lp]))
    b = fiber.birefringence
    dk = _mismatch(_pump_term(n_p + b, lp), n_s, ls, n_i, li)
    return dk, _signal_slope(g_s, ls, g_i), 4.0 * np.pi * (g_i - g_p - b) / (lp * lp * 1e-9)


def _scan_window(fiber: FiberSpec, lambda_p_nm: float) -> tuple:
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


def _last(mask):
    """Column of the last True in each row of ``mask``, -1 where none."""
    return np.where(mask, np.arange(mask.shape[1]), -1).max(axis=1)


def _refine(fiber, lp, a, b, fa, fb, level):
    """Roots of dk(lp, ls) - level on the brackets a < ls < b, in lockstep.

    Newton steps on the analytic slope d dk/d ls, safeguarded by the
    bracket as in rtsafe (Numerical Recipes, section 9.4). The first
    point is the secant through the bracket ends, or the midpoint where
    that does not land strictly inside; ``fa`` and ``fb`` are dk - level
    at the ends and have opposite signs, so ``fb - fa`` is never zero.
    Each round evaluates dk and its slope at the point, keeps the
    sub-bracket with the sign change, and steps to the Newton point. It
    takes the midpoint instead where the Newton point leaves the bracket,
    where the step is more than half the last one, or where the slope is
    zero or NaN. An element leaves the active set once
    |dk - level| < MISMATCH_TOL; its f is then exactly
    ``phase_mismatch(fiber, lp, x) - level``. Every operation is
    elementwise, so a root does not depend on what else is refined with
    it. Returns ``(x, f)``, both NaN where the tolerance was not reached.
    """
    x_out = np.full(a.shape, np.nan)
    f_out = np.full(a.shape, np.nan)
    act = np.arange(a.size)
    pump = _pump_term(slow_axis_index(fiber, lp), lp)
    x = a - fa * (b - a) / (fb - fa)
    x = np.where((a < x) & (x < b), x, 0.5 * (a + b))
    last = b - a  # the step before the first Newton step: the bracket
    for _ in range(_MAX_ROUNDS):
        if not act.size:
            break
        dk, slope = _pair(fiber, pump, lp, x)
        f = dk - level
        done = np.abs(f) < MISMATCH_TOL
        x_out[act[done]], f_out[act[done]] = x[done], f[done]
        left = ~done
        act, lp, pump, level, last = act[left], lp[left], pump[left], level[left], last[left]
        a, b, fa, x, f, slope = a[left], b[left], fa[left], x[left], f[left], slope[left]
        move_a = (f < 0) == (fa < 0)
        a, fa = np.where(move_a, x, a), np.where(move_a, f, fa)
        b = np.where(move_a, b, x)
        # x - f/slope lies strictly inside (a, b), and |f/slope| <= last/2;
        # both tests multiply, so a zero or NaN slope fails them
        newton = ((((x - a) * slope - f) * ((x - b) * slope - f) < 0)
                  & (np.abs(2.0 * f) <= np.abs(last * slope)))
        step = np.divide(f, slope, out=np.zeros_like(f), where=newton)
        x = np.where(newton, x - step, 0.5 * (a + b))
        last = np.where(newton, np.abs(step), 0.5 * (b - a))
    return x_out, f_out


def _solve(fiber: FiberSpec, lps) -> list:
    """The root closest to each pump, as a PhaseMatchPoint or the error.

    Each pump's window is checked on its own, so one pump without a
    window fails alone. The valid pumps are scanned in one broadcast
    ``phase_mismatch`` call on a (pumps, SCAN_POINTS) grid. Per pump only
    the root closest to the pump is kept: the last sign-change bracket,
    or an exact zero of the scan after it. All kept brackets are then
    refined together by ``_refine``.
    """
    results = [None] * len(lps)
    windows = []
    for k, lp in enumerate(lps):
        try:
            windows.append((k, *_scan_window(fiber, lp)))
        except (PhaseMatchError, WavelengthRangeError) as exc:
            results[k] = exc
    for start in range(0, len(windows), _PUMPS_PER_SCAN):
        ks, lo, hi = (np.array(c) for c in zip(*windows[start:start + _PUMPS_PER_SCAN]))
        lp = lps[ks]
        grid = np.linspace(lo, hi, SCAN_POINTS, axis=-1)
        vals = phase_mismatch(fiber, lp[:, None], grid)
        sign = np.sign(vals)
        flip = _last(sign[:, :-1] * sign[:, 1:] < 0)
        zero = _last(vals == 0.0)

        ls = np.full(len(ks), np.nan)
        dk = np.zeros(len(ks))
        exact = zero > flip
        ls[exact] = grid[exact, zero[exact]]
        rows = np.nonzero(~exact & (flip >= 0))[0]
        i = flip[rows]
        ls[rows], dk[rows] = _refine(
            fiber, lp[rows], grid[rows, i], grid[rows, i + 1], vals[rows, i],
            vals[rows, i + 1], np.zeros(len(rows)))

        ok = ~np.isnan(ls)
        li = np.full(len(ks), np.nan)
        li[ok] = idler_wavelength(ls[ok], lp[ok])
        for j, k in enumerate(ks):
            if ok[j]:
                results[k] = PhaseMatchPoint(float(lp[j]), float(ls[j]), float(li[j]),
                                             float(dk[j]))
            elif flip[j] >= 0:
                results[k] = PhaseMatchError("root refinement did not reach the "
                                             "mismatch tolerance")
            else:
                results[k] = PhaseMatchError(
                    f"no phase-matched solution in window ({lo[j]:g}, {hi[j]:g}) nm "
                    f"for pump {lp[j]:g} nm"
                )
    return results


def solve_signal_idler(fiber: FiberSpec, lambda_p_nm) -> PhaseMatchPoint:
    """Solve dk = 0 at zero peak power for the signal below the pump.

    A coarse scan of ``SCAN_POINTS`` points over the (validity-clipped)
    signal window brackets the sign changes. Only the root closest to
    the pump is refined, the branch continuously connected to
    degeneracy: Newton steps on the analytic slope d dk/d ls, kept
    inside the bracket, run until |dk| < 1e-6 rad/m, which takes two
    evaluations per root on the design range. The reported residual is
    exactly ``phase_mismatch(fiber, lp, ls)``. This is the one-pump case
    of the solver behind ``tuning_curve``.

    Raises
    ------
    PhaseMatchError
        If no sign change exists in the window (e.g. B = 0, where only
        the degenerate solution at the pump remains).
    """
    result = _solve(fiber, np.array([float(lambda_p_nm)]))[0]
    if isinstance(result, Exception):
        raise result
    return result


def tuning_curve(fiber: FiberSpec, lambda_p_range, steps: int) -> tuple:
    """Solve across a pump range, all pumps in one batched solve.

    Returns ``(points, skipped)``: the solved PhaseMatchPoints and the
    pump wavelengths for which no solution exists in the window. Each
    point equals ``solve_signal_idler`` at its pump.
    """
    if not isinstance(steps, numbers.Integral) or steps < 2:
        raise ValueError(f"steps must be an integer >= 2, got {steps!r}")
    lo, hi = (float(end) for end in lambda_p_range)
    if not (0.0 < lo < math.inf and 0.0 < hi < math.inf):
        raise ValueError(f"pump range ends must be finite and > 0, got {lambda_p_range!r}")
    lps = np.linspace(lo, hi, steps)
    points, skipped = [], []
    for lp, result in zip(lps, _solve(fiber, lps)):
        if isinstance(result, Exception):
            skipped.append(float(lp))
        else:
            points.append(result)
    return points, skipped


def output_bandwidths(fiber: FiberSpec, point: PhaseMatchPoint, pump_fwhm_nm) -> tuple:
    """FWHM estimates (signal_nm, idler_nm) at a solved operating point.

    The intrinsic width is that of the sinc^2(dk L / 2) phase-matching
    profile in the signal wavelength. Its half-maximum edges are the
    roots of dk(ls) = +/- 2 X_HALF / L, both refined in one call of the
    solver's safeguarded Newton iteration on brackets twice the linear
    estimate wide. The pump bandwidth adds in quadrature after
    propagation through the slope of the solution curve, d(ls)/d(lp) =
    -(d dk/d lp) / (d dk/d ls) by the implicit-function theorem. Both
    partials are the analytic group-index differences of the module
    docstring, from one Sellmeier pass at signal, idler and pump. The
    idler width follows from the energy-conservation Jacobian
    |d(li)/d(ls)| = (li/ls)^2.
    """
    if not 0.0 <= pump_fwhm_nm < math.inf:
        raise ValueError(f"pump_fwhm_nm must be finite and >= 0, got {pump_fwhm_nm!r}")
    if abs(point.residual_mismatch) > 10 * MISMATCH_TOL:
        raise ValueError("point is not phase matched")
    if not fiber.length_m > 0:
        raise BandwidthError("a zero-length fiber has no phase-matching bandwidth")
    lp, ls0 = point.lambda_p_nm, point.lambda_s_nm
    near, dk_dls, dk_dlp = _point_slopes(fiber, lp, ls0)

    dk_half = 2.0 * X_HALF / fiber.length_m
    reach = 2.0 * dk_half / abs(dk_dls)
    # the lower edge, then the upper one
    level = np.array([-1.0, 1.0]) * np.sign(dk_dls) * dk_half
    lower, upper = phase_mismatch(fiber, lp, np.array([ls0 - reach, ls0 + reach]))
    f_near, f_far = near - level, np.array([lower, upper]) - level
    if not np.all(f_near * f_far < 0):
        raise BandwidthError("no half-maximum crossing within twice the linear estimate")
    edges, _ = _refine(fiber, np.full(2, lp), np.array([ls0 - reach, ls0]),
                       np.array([ls0, ls0 + reach]), np.array([f_far[0], f_near[1]]),
                       np.array([f_near[0], f_far[1]]), level)
    if np.isnan(edges).any():
        raise PhaseMatchError("root refinement did not reach the mismatch tolerance")
    fwhm_pm = edges[1] - edges[0]

    slope = -dk_dlp / dk_dls
    signal_fwhm = float(np.hypot(fwhm_pm, slope * pump_fwhm_nm))
    jacobian = (point.lambda_i_nm / ls0) ** 2
    return signal_fwhm, float(signal_fwhm * jacobian)
