import numpy as np
import pytest

from xsplice import (
    CompensatorSpec,
    FiberSpec,
    GaussianSpectrum,
    fused_silica,
    load_materials,
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


def assert_close(actual, expected, tol, label=""):
    assert abs(actual - expected) <= tol, (
        f"{label}: {actual!r} differs from {expected!r} by more than {tol!r}"
    )


def exact_quadratic_average(a, b=0.0, c=0.0, d=0.0, e=0.0):
    """Gaussian average of e^{-i(a x + b y + c x^2 + d x y + e y^2)}, x and y in sigma."""
    m = np.eye(2) + 2j * np.array([[c, d / 2], [d / 2, e]])
    v = np.array([a, b])
    return complex(np.exp(-0.5 * v @ np.linalg.solve(m, v)) / np.sqrt(np.linalg.det(m)))
