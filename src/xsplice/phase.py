"""Wavelength-dependent phase between the two pair-creation processes.

Pairs born in the first fiber segment pick up dispersion in the second
segment (on its slow axis), while the pump that creates pairs in the
second segment accumulates phase in the first (fast axis, twice, since
two pump photons convert). The difference is the relative phase between
the two amplitudes of the entangled state; its variation across the pump
and signal spectra is what mixes the two-qubit state, and is what the
output-arm birefringent compensators are cut to cancel.

The relative phase is evaluated in wavenumbers k = 1/lambda (1/um).
Energy conservation, omega_s + omega_i = 2 omega_p, is linear there:
k_i = 2 k_p - k_s. Splitting the pump's 2 k_p the same way, the two
segments' phases of about 1.7e6 rad each cancel term by term, and what
is left is

    phi = 2 pi L [k_s (n_p - B - n_s) + k_i (n_p - B - n_i)],

with n the core's fast-axis index at each wavelength and B the fiber
birefringence. This is L dk, the ``phasematch`` mismatch with the pump
on the fast axis and the pair on the slow one (B -> -B):
phi = L [dk(B = 0) - 4 pi B / lp]. A compensator crystal of length l in
either arm then adds sign * 2 pi l k dn(k) at its arm's wavenumber,
dn = n_e - n_o. No idler wavelength is formed.

All phase functions accept scalars or numpy arrays and return radians;
maps are reported in degrees as deviation from the grid mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .materials import CompensatorMaterial, FiberSpec, _sellmeier, birefringence
from .materials import index  # noqa: F401 -- unused; perfbench/tracing.py pins materials.index here
from .phasematch import _check_wavelengths
from .states import bandwidth_grid  # noqa: F401 -- unused; perfbench/tasks.py reads it here

__all__ = [
    "CompensatorSpec",
    "PhaseMap",
    "total_phase",
    "compensator_phase",
    "compensated_phase",
    "phase_map",
]


@dataclass(frozen=True)
class CompensatorSpec:
    """A birefringent compensator crystal in one output arm.

    ``orientation_sign`` is +1 for slow axis vertical and -1 for slow
    axis horizontal; flipping it negates the added phase.
    """

    length_mm: float
    material: CompensatorMaterial
    orientation_sign: int
    arm: str  # "signal" | "idler"

    def __post_init__(self):
        if not 0.0 <= self.length_mm < math.inf:
            raise ValueError(f"compensator length must be finite and >= 0, got {self.length_mm}")
        # -0.0 passes the check and equals 0.0 but carries its sign into the
        # phase; +0.0 keeps equal crystals' phases bit for bit equal
        object.__setattr__(self, "length_mm", abs(self.length_mm))
        if self.orientation_sign not in (+1, -1):
            raise ValueError(f"orientation_sign must be +1 or -1, got {self.orientation_sign}")
        if self.arm not in ("signal", "idler"):
            raise ValueError(f"arm must be 'signal' or 'idler', got {self.arm!r}")


@dataclass(frozen=True)
class PhaseMap:
    """Phase deviation (degrees, mean-subtracted) over a wavelength grid."""

    signal_nm: np.ndarray
    pump_nm: np.ndarray
    deviation_deg: np.ndarray  # shape (len(signal_nm), len(pump_nm))

    def __post_init__(self):
        if self.deviation_deg.shape != (len(self.signal_nm), len(self.pump_nm)):
            raise ValueError("phase grid shape does not match the axes")
        if abs(float(self.deviation_deg.mean())) > 1e-9:
            raise ValueError("phase grid is not mean-subtracted to 1e-9 deg")

    @property
    def peak_to_peak_deg(self) -> float:
        return float(self.deviation_deg.max() - self.deviation_deg.min())


def total_phase(fiber: FiberSpec, lambda_s_nm, lambda_p_nm):
    """Relative phase of the second-segment process versus the first."""
    return compensated_phase(fiber, None, lambda_s_nm, lambda_p_nm)


def compensator_phase(comp: CompensatorSpec, wavelength_nm):
    """Phase added by one compensator: sign * 2 pi l dn(lambda) / lambda.

    ``dn`` is ``birefringence``'s, with its range errors, the e-ray's
    first; it is then scaled as in ``_crystal_phase``, bit for bit.
    """
    lam = np.asarray(wavelength_nm, dtype=float)
    out = birefringence(comp.material, lam) * (1000.0 / lam)
    out *= comp.orientation_sign * 2e3 * np.pi * comp.length_mm
    return out if lam.ndim else float(out)


def _crystal_phase(comp: CompensatorSpec, k, v):
    """``compensator_phase`` at wavenumbers ``k`` (1/um), with ``v`` = k^2."""
    dn = _sellmeier(comp.material.extraordinary, v)
    dn -= _sellmeier(comp.material.ordinary, v)
    dn *= k
    dn *= comp.orientation_sign * 2e3 * np.pi * comp.length_mm
    return dn


def compensated_phase(fiber: FiberSpec, comps, lambda_s_nm, lambda_p_nm):
    """Total phase including the arm compensators.

    ``comps`` is an iterable of CompensatorSpec, or None for no crystals;
    signal-arm entries are evaluated at the signal wavenumber, idler-arm
    entries at the idler wavenumber 2 k_p - k_s that energy conservation
    fixes (module docstring). The crystals are added after the fiber
    phase, so the result differs from ``total_phase`` by their phase
    alone, to rounding. Inputs fail as in ``idler_wavelength`` and
    ``index``, with the same errors. Arrays are combined in place and
    freed once used: a grid of full-size inputs holds at most seven
    arrays of the output's size at once.
    """
    ls = np.asarray(lambda_s_nm, dtype=float)
    lp = np.asarray(lambda_p_nm, dtype=float)
    comps = tuple(comps or ())
    _check_wavelengths(fiber, comps, ls, lp)
    core = fiber.core_model
    kp, ks = 1000.0 / lp, 1000.0 / ls  # 1/um
    ki = 2.0 * kp - ks
    kp *= kp
    a = _sellmeier(core, kp)
    a -= fiber.birefringence  # n_p - B
    del kp
    out = a - _sellmeier(core, ks * ks)
    out *= ks
    del ks
    vi = ki * ki  # shared by the core and every idler-arm crystal
    term = _sellmeier(core, vi)
    term -= a
    term *= ki
    out -= term  # k_i (n_p - B - n_i)
    del a, term
    out *= 2e6 * np.pi * fiber.length_m
    for comp in comps:
        if comp.arm == "idler":
            out += _crystal_phase(comp, ki, vi)
    del ki, vi
    if any(comp.arm == "signal" for comp in comps):
        ks = 1000.0 / ls  # again, rather than kept beside the idler's arrays
        vs = ks * ks
        for comp in comps:
            if comp.arm == "signal":
                out += _crystal_phase(comp, ks, vs)
    return out if np.ndim(out) else float(out)


#: ``(key, grid)`` of the last ``weighted_phase_std``, until the next ``phase_map``; keyed
#: by value, so a map takes a grid left by any caller only where it holds the map's own bits
_design_grid = None


def _grid_key(fiber: FiberSpec, comps: tuple, ls, lp) -> tuple:
    """What a phase grid depends on, compared by value: the axes by shape and bytes."""
    return fiber, comps, ls.shape, ls.tobytes(), lp.shape, lp.tobytes()


def _leave_for_map(fiber: FiberSpec, comps: tuple, ls, lp, grid) -> None:
    """Hand ``compensated_phase(fiber, comps, ls, lp)`` to the next ``phase_map``, read-only."""
    global _design_grid
    grid.flags.writeable = False
    _design_grid = _grid_key(fiber, comps, ls, lp), grid


def phase_map(fiber: FiberSpec, comps, signal_axis_nm, pump_axis_nm) -> PhaseMap:
    """Evaluate the (optionally compensated) phase over a grid.

    ``comps`` may be None or empty for the raw phase. Axes must be
    non-empty and sorted ascending. The phase is evaluated on open axes
    (a signal column against a pump row), so pump-only and signal-only
    terms cost one evaluation per axis point. The grid is converted to
    degrees and mean-subtracted, so a 1x1 map is identically zero.
    A map right after ``design.weighted_phase_std`` on its axes, fiber and
    crystals reuses its grid (``_leave_for_map``); every call drops that grid.
    """
    global _design_grid
    handed, _design_grid = _design_grid, None
    s_ax = np.asarray(signal_axis_nm, dtype=float)
    p_ax = np.asarray(pump_axis_nm, dtype=float)
    if s_ax.size == 0 or p_ax.size == 0:
        raise ValueError("axes must be non-empty")
    if np.any(np.diff(s_ax) < 0) or np.any(np.diff(p_ax) < 0):
        raise ValueError("axes must be sorted ascending")
    comps = tuple(comps or ())
    ls, lp = s_ax[:, None], p_ax[None, :]
    if handed is not None and handed[0] == _grid_key(fiber, comps, ls, lp):
        grid = handed[1]
    else:
        grid = compensated_phase(fiber, comps, ls, lp)
    deg = np.degrees(grid)
    deg = deg - deg.mean()
    deg = deg - deg.mean()  # second pass scrubs the float residual of the first
    return PhaseMap(signal_nm=s_ax, pump_nm=p_ax, deviation_deg=deg)
