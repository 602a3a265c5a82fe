"""Wavelength-dependent phase between the two pair-creation processes.

Pairs born in the first fiber segment pick up dispersion in the second
segment (on its slow axis), while the pump that creates pairs in the
second segment accumulates phase in the first (fast axis, twice, since
two pump photons convert). The difference is the relative phase between
the two amplitudes of the entangled state; its variation across the pump
and signal spectra is what mixes the two-qubit state, and is what the
output-arm birefringent compensators are cut to cancel.

All phase functions accept scalars or numpy arrays and return radians;
maps are reported in degrees as deviation from the grid mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .materials import CompensatorMaterial, FiberSpec, birefringence, index
from .phasematch import idler_wavelength
from .states import bandwidth_grid

__all__ = [
    "CompensatorSpec",
    "PhaseMap",
    "phi_pair_walkoff",
    "phi_pump",
    "phi_nonlinear",
    "total_phase",
    "compensator_phase",
    "compensated_phase",
    "phase_map",
    "bandwidth_grid",
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
        if self.length_mm < 0:
            raise ValueError(f"compensator length must be >= 0, got {self.length_mm}")
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


def phi_pair_walkoff(fiber: FiberSpec, lambda_s_nm, lambda_p_nm):
    """Phase of the first-segment pair accumulated in the second segment.

    Both photons ride the slow axis there, hence the n + B terms:
    (2 pi L / ls) [n(ls) + B] + (2 pi L / li) [n(li) + B].
    """
    ls = np.asarray(lambda_s_nm, dtype=float)
    li = idler_wavelength(ls, lambda_p_nm)
    b = fiber.birefringence
    m = 1e-9
    two_pi_l = 2.0 * np.pi * fiber.length_m
    out = two_pi_l / (ls * m) * (index(fiber.core_model, ls) + b) \
        + two_pi_l / (li * m) * (index(fiber.core_model, li) + b)
    return out if np.ndim(out) else float(out)


def phi_pump(fiber: FiberSpec, lambda_p_nm):
    """Pump phase in the first segment, doubled for the two pump photons.

    The pump destined to convert in the second segment travels the first
    on its fast axis, so no birefringence term appears here.
    """
    lp = np.asarray(lambda_p_nm, dtype=float)
    out = 2.0 * (2.0 * np.pi * fiber.length_m / (lp * 1e-9)) * index(fiber.core_model, lp)
    return out if np.ndim(out) else float(out)


def phi_nonlinear(fiber: FiberSpec, peak_power_w):
    """Self- plus cross-phase-modulation offset, (1 + 2/3) gamma P L."""
    if peak_power_w < 0:
        raise ValueError("peak power must be >= 0")
    return (5.0 / 3.0) * fiber.gamma * peak_power_w * fiber.length_m


def total_phase(fiber: FiberSpec, lambda_s_nm, lambda_p_nm, peak_power_w=0.0):
    """Relative phase of the second-segment process versus the first."""
    return (
        phi_pump(fiber, lambda_p_nm)
        + phi_nonlinear(fiber, peak_power_w)
        - phi_pair_walkoff(fiber, lambda_s_nm, lambda_p_nm)
    )


def compensator_phase(comp: CompensatorSpec, wavelength_nm):
    """Phase added by one compensator: sign * 2 pi l dn(lambda) / lambda."""
    lam = np.asarray(wavelength_nm, dtype=float)
    dn = birefringence(comp.material, lam)
    out = comp.orientation_sign * 2.0 * np.pi * (comp.length_mm * 1e-3) * dn / (lam * 1e-9)
    return out if np.ndim(out) else float(out)


def compensated_phase(fiber: FiberSpec, comps, lambda_s_nm, lambda_p_nm):
    """Total phase at zero peak power including the arm compensators.

    ``comps`` is an iterable of CompensatorSpec, or None for no crystals;
    signal-arm entries are evaluated at the signal wavelength, idler-arm
    entries at the idler wavelength fixed by energy conservation.
    """
    phase = total_phase(fiber, lambda_s_nm, lambda_p_nm)
    ls = np.asarray(lambda_s_nm, dtype=float)
    for comp in comps or ():
        if comp.arm == "signal":
            phase = phase + compensator_phase(comp, ls)
        else:
            phase = phase + compensator_phase(comp, idler_wavelength(ls, lambda_p_nm))
    return phase


def phase_map(fiber: FiberSpec, comps, signal_axis_nm, pump_axis_nm) -> PhaseMap:
    """Evaluate the (optionally compensated) phase over a grid.

    ``comps`` may be None or empty for the raw phase. Axes must be
    non-empty and sorted ascending. The phase is evaluated on open axes
    (a signal column against a pump row), so pump-only and signal-only
    terms cost one evaluation per axis point. The grid is converted to
    degrees and mean-subtracted, so a 1x1 map is identically zero.
    """
    s_ax = np.asarray(signal_axis_nm, dtype=float)
    p_ax = np.asarray(pump_axis_nm, dtype=float)
    if s_ax.size == 0 or p_ax.size == 0:
        raise ValueError("axes must be non-empty")
    if np.any(np.diff(s_ax) < 0) or np.any(np.diff(p_ax) < 0):
        raise ValueError("axes must be sorted ascending")
    grid = compensated_phase(fiber, comps, s_ax[:, None], p_ax[None, :])
    deg = np.degrees(grid)
    deg = deg - deg.mean()
    deg = deg - deg.mean()  # second pass scrubs the float residual of the first
    return PhaseMap(signal_nm=s_ax, pump_nm=p_ax, deviation_deg=deg)
