import numpy as np
import pytest

from xsplice import (
    CompensatorSpec,
    FiberSpec,
    GaussianSpectrum,
    fused_silica,
    idler_wavelength,
    index,
    index_and_group_index,
    load_materials,
    phase_mismatch,
    quartz,
)
from xsplice.config import load_config

# Frozen calibration: birefringence for which a 771 nm pump phase-matches
# a 670 nm signal with the shipped silica model. Oracle: the mismatch is
# linear in B, so B = -dk(B=0) * lambda_p / (4 pi); see test_design.
CALIBRATED_B = 3.1999848764298507e-04


@pytest.fixture(scope="session")
def materials_db():
    return load_materials()


@pytest.fixture(scope="session")
def silica(materials_db):
    return fused_silica(materials_db)


@pytest.fixture(scope="session")
def quartz_material(materials_db):
    return quartz(materials_db)


@pytest.fixture(scope="session")
def paper_fiber(silica):
    return FiberSpec(length_m=0.13, birefringence=CALIBRATED_B, gamma=0.01,
                     core_model=silica)


@pytest.fixture(scope="session")
def pump_spectrum():
    return GaussianSpectrum(771.0, 0.3)


@pytest.fixture(scope="session")
def signal_spectrum():
    return GaussianSpectrum(670.0, 0.23)


@pytest.fixture(scope="session")
def paper_compensators(quartz_material):
    return (
        CompensatorSpec(67.3, quartz_material, +1, "signal"),
        CompensatorSpec(47.6, quartz_material, -1, "idler"),
    )


@pytest.fixture(scope="session")
def paper_config():
    return load_config()


def expected_counts(rho, flat, n):
    """lam_k = n Re tr(Pi_k rho), the expected counts that the MLE's deviance
    and gradient take; ``flat`` holds the projectors Pi_k as rows of 16."""
    return n * (flat @ rho.T.ravel()).real


def assert_close(actual, expected, tol, label=""):
    assert abs(actual - expected) <= tol, (
        f"{label}: {actual!r} differs from {expected!r} by more than {tol!r}"
    )


def exact_quadratic_average(a, b=0.0, c=0.0, d=0.0, e=0.0):
    """Gaussian average of e^{-i(a x + b y + c x^2 + d x y + e y^2)}, x and y in sigma."""
    m = np.eye(2) + 2j * np.array([[c, d / 2], [d / 2, e]])
    v = np.array([a, b])
    return complex(np.exp(-0.5 * v @ np.linalg.solve(m, v)) / np.sqrt(np.linalg.det(m)))


def _lambda_form_index(model, lam):
    """n(lambda) from n^2 = 1 + sum_j B_j lambda^2 / (lambda^2 - C_j), lambda in nm."""
    lam2 = (lam / 1000.0) ** 2
    n2 = np.ones_like(lam2)
    for b, c in model.terms:
        n2 += b * lam2 / (lam2 - c)
    return np.sqrt(n2)


def lambda_form_phase(fiber, comps, lambda_s_nm, lambda_p_nm):
    """Reference for ``compensated_phase``: the relative phase in wavelengths.

    The idler wavelength ls lp / (2 ls - lp) comes from energy
    conservation, and the phase is the difference of the two segments'
    phases, (4 pi L / lp) n(lp) - sum over signal and idler of
    (2 pi L / l) [n(l) + B], plus each crystal's sign 2 pi l dn / lambda,
    with the index from its wavelength-form Sellmeier sum. No input is
    checked.
    """
    ls = np.asarray(lambda_s_nm, dtype=float)
    lp = np.asarray(lambda_p_nm, dtype=float)
    li = ls * lp / (2.0 * ls - lp)
    core, b = fiber.core_model, fiber.birefringence
    two_pi_l = 2.0 * np.pi * fiber.length_m
    phase = (2.0 * (two_pi_l / (lp * 1e-9)) * _lambda_form_index(core, lp)
             - (two_pi_l / (ls * 1e-9) * (_lambda_form_index(core, ls) + b)
                + two_pi_l / (li * 1e-9) * (_lambda_form_index(core, li) + b)))
    for comp in comps or ():
        lam = ls if comp.arm == "signal" else li
        dn = (_lambda_form_index(comp.material.extraordinary, lam)
              - _lambda_form_index(comp.material.ordinary, lam))
        phase = phase + dn * (comp.orientation_sign * 2.0 * np.pi * (comp.length_mm * 1e-3)) \
            / (lam * 1e-9)
    return phase


def slow_axis_index(fiber, wavelength_nm):
    """Slow-axis index: fast-axis index plus the fiber birefringence."""
    return index(fiber.core_model, wavelength_nm) + fiber.birefringence


def phi_pair_walkoff(fiber, lambda_s_nm, lambda_p_nm):
    """Phase of the first-segment pair accumulated in the second segment.

    Both photons ride the slow axis there, hence the n + B terms:
    (2 pi L / ls) [n(ls) + B] + (2 pi L / li) [n(li) + B]. With
    ``phi_pump``, the relative phase in the wavelength form is
    ``phi_pump - phi_pair_walkoff``.
    """
    ls = np.asarray(lambda_s_nm, dtype=float)
    li = idler_wavelength(ls, lambda_p_nm)
    two_pi_l = 2.0 * np.pi * fiber.length_m
    out = (two_pi_l / (ls * 1e-9) * slow_axis_index(fiber, ls)
           + two_pi_l / (li * 1e-9) * slow_axis_index(fiber, li))
    return out if out.ndim else float(out)


def phi_pump(fiber, lambda_p_nm):
    """Pump phase in the first segment, doubled for the two pump photons.

    The pump destined to convert in the second segment travels the first
    on its fast axis, so no birefringence term appears here. Its size,
    about 1.7e6 rad on the paper fiber, scales the rounding of any
    evaluation of the relative phase that subtracts the segments whole.
    """
    lp = np.asarray(lambda_p_nm, dtype=float)
    out = 2.0 * (2.0 * np.pi * fiber.length_m / (lp * 1e-9)) * index(fiber.core_model, lp)
    return out if np.ndim(out) else float(out)


def vectorised_lengths(fiber, material, pump, signal):
    """The signed crystal lengths (mm) from one formula on two-element arrays,
    signal then idler, and its errors: the oracle of the per-arm float design."""
    ls, lp = signal.center_nm, pump.center_nm
    arms = np.array([ls, idler_wavelength(ls, lp)])
    _, n_g = index_and_group_index(fiber.core_model, np.append(arms, lp))
    dn_g = (index_and_group_index(material.extraordinary, arms)[1]
            - index_and_group_index(material.ordinary, arms)[1])
    return 1e3 * fiber.length_m * (n_g[:2] + fiber.birefringence - n_g[2]) / dn_g


def nearest_root_reference(fiber, lp):
    """Reference for the solver: the signal roots of dk at pump ``lp``.

    A 20000-point scan of the validity-clipped window below the pump,
    then 60 bisections of the sign change closest to the pump. Returns
    that root, or None where dk keeps its sign, and the scan's grid
    points just before each sign change, in ascending order.
    """
    lo_model, hi_model = fiber.core_model.valid_range_nm
    lo = max(400.0, lo_model, lp * hi_model / (2.0 * hi_model - lp) * (1.0 + 1e-9))
    grid = np.linspace(lo, lp - 0.25, 20000)
    vals = phase_mismatch(fiber, lp, grid)
    flips = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    if not flips.size:
        return None, grid[flips]
    a, b, fa = grid[flips[-1]], grid[flips[-1] + 1], vals[flips[-1]]
    for _ in range(60):
        mid = 0.5 * (a + b)
        fm = phase_mismatch(fiber, lp, mid)
        if (fm < 0) == (fa < 0):
            a, fa = mid, fm
        else:
            b = mid
    return 0.5 * (a + b), grid[flips]
