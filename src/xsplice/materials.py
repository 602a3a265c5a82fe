"""Refractive-index models for the fiber core and the compensator crystals.

Indices are evaluated from Sellmeier expansions

    n(lambda)^2 = 1 + sum_j B_j lambda^2 / (lambda^2 - C_j),

with lambda in micrometres and C_j in micrometres squared. A constant
offset in n^2 (as used by some quartz parameterizations) is expressed as
a term with C_j = 0.

The built-in database ships fused silica (Malitson) for the fiber core
and crystalline quartz o/e rays for the compensators. It can be replaced
wholesale with a JSON file of the same schema, either through
``load_materials(path)`` or the ``XSPLICE_MATERIALS`` environment
variable (the CLI also accepts ``--materials``).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from importlib import resources

import numpy as np

__all__ = [
    "WavelengthRangeError",
    "SellmeierModel",
    "FiberSpec",
    "CompensatorMaterial",
    "index",
    "slow_axis_index",
    "birefringence",
    "load_materials",
    "fused_silica",
    "quartz",
]

_ENV_VAR = "XSPLICE_MATERIALS"


class WavelengthRangeError(ValueError):
    """Raised when a wavelength falls outside a model's validity range."""


@dataclass(frozen=True)
class SellmeierModel:
    """One material/axis: Sellmeier terms plus a validity window in nm."""

    terms: tuple  # ((B_j, C_j_um2), ...)
    valid_range_nm: tuple  # (min_nm, max_nm)
    name: str = ""
    citation: str = ""

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple((float(b), float(c)) for b, c in self.terms))
        lo, hi = self.valid_range_nm
        if not lo < hi:
            raise ValueError(f"invalid validity range {self.valid_range_nm!r}")
        object.__setattr__(self, "valid_range_nm", (float(lo), float(hi)))


@dataclass(frozen=True)
class FiberSpec:
    """A polarization-maintaining fiber segment.

    Parameters
    ----------
    length_m : float
        Segment length in metres (both cross-spliced segments share it).
    birefringence : float
        Slow-minus-fast index difference, wavelength independent.
    gamma : float
        Nonlinear parameter in 1/(W m).
    core_model : SellmeierModel
        Fast-axis index model of the core.
    """

    length_m: float
    birefringence: float
    gamma: float
    core_model: SellmeierModel

    def __post_init__(self):
        if not 0.0 <= self.length_m < math.inf:
            raise ValueError(f"fiber length must be finite and >= 0, got {self.length_m}")
        if not 0.0 <= self.birefringence < math.inf:
            raise ValueError(f"birefringence must be finite and >= 0, got {self.birefringence}")
        if not 0.0 <= self.gamma < math.inf:
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma}")


@dataclass(frozen=True)
class CompensatorMaterial:
    """Uniaxial crystal described by its ordinary and extraordinary rays."""

    ordinary: SellmeierModel
    extraordinary: SellmeierModel
    name: str = ""


def _check_range(model: SellmeierModel, wavelength_nm) -> np.ndarray:
    lam = np.asarray(wavelength_nm, dtype=float)
    lo, hi = model.valid_range_nm
    # one min/max pass; a NaN fails it and falls through to the elementwise test
    if lam.size and not (lo <= lam.min() and lam.max() <= hi):
        bad = lam[~((lo <= lam) & (lam <= hi))]
        if bad.size:
            worst = float(bad.flat[0])
            valid = f"validity range [{lo:g}, {hi:g}] nm of {model.name or 'model'}"
            if math.isnan(worst):
                raise WavelengthRangeError(f"wavelength {worst:g} nm is not a number ({valid})")
            bound = lo if worst < lo else hi
            raise WavelengthRangeError(
                f"wavelength {worst:g} nm outside {valid} (violated bound: {bound:g} nm)")
    return lam


def index(model: SellmeierModel, wavelength_nm):
    """Refractive index n(lambda); accepts scalars or arrays (nm)."""
    lam2 = (_check_range(model, wavelength_nm) / 1000.0) ** 2
    n2 = np.ones_like(lam2)
    for b, c in model.terms:
        n2 += b * lam2 / (lam2 - c)
    return np.sqrt(n2) if n2.ndim else float(np.sqrt(n2))


def slow_axis_index(fiber: FiberSpec, wavelength_nm):
    """Slow-axis index: fast-axis index plus the fiber birefringence."""
    return index(fiber.core_model, wavelength_nm) + fiber.birefringence


def birefringence(material: CompensatorMaterial, wavelength_nm):
    """n_e - n_o of a compensator crystal (positive for quartz)."""
    return index(material.extraordinary, wavelength_nm) - index(material.ordinary, wavelength_nm)


def _model_from_entry(key: str, entry: dict) -> SellmeierModel:
    try:
        return SellmeierModel(
            terms=tuple(tuple(t) for t in entry["terms"]),
            valid_range_nm=tuple(entry["valid_range_nm"]),
            name=key,
            citation=entry.get("citation", ""),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed material entry {key!r}: {exc}") from exc


def load_materials(path: str | None = None) -> dict:
    """Load the material database.

    Resolution order: explicit ``path``, the ``XSPLICE_MATERIALS``
    environment variable, then the packaged defaults. Returns a dict of
    name -> SellmeierModel.
    """
    if path is None:
        path = os.environ.get(_ENV_VAR) or None
    if path is None:
        raw = resources.files("xsplice").joinpath("data/materials.json").read_text()
    else:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
    db = json.loads(raw)
    return {key: _model_from_entry(key, entry) for key, entry in db.items()}


def fused_silica(db: dict | None = None) -> SellmeierModel:
    """The fiber-core index model from the database (default: built-in)."""
    db = load_materials() if db is None else db
    return db["fused_silica"]


def quartz(db: dict | None = None) -> CompensatorMaterial:
    """The quartz compensator material from the database."""
    db = load_materials() if db is None else db
    return CompensatorMaterial(ordinary=db["quartz_o"], extraordinary=db["quartz_e"], name="quartz")
