"""Refractive-index models for the fiber core and the compensator crystals.

Indices are evaluated from Sellmeier expansions

    n(lambda)^2 = 1 + sum_j B_j lambda^2 / (lambda^2 - C_j),

with lambda in micrometres and C_j in micrometres squared. A constant
offset in n^2 (as used by some quartz parameterizations) is expressed as
a term with C_j = 0.

One kernel, ``_sellmeier``, evaluates every expansion. It works in the
squared wavenumber v = 1/lambda^2 (1/um^2), where each term is
B_j / (1 - C_j v) and a C_j = 0 term is the constant B_j, so no
division by lambda is needed. ``index``, ``index_and_group_index``,
the mismatch of ``phasematch`` and the phase model of ``phase`` all call
it; the last two pass wavenumbers straight from energy conservation.
Floats stay floats, range check included: the solver and each design's
scalars run on them, where a numpy call costs more in dispatch than in
arithmetic, and an array gives the same values and errors, bit for bit.

The built-in database ships fused silica (Malitson) for the fiber core
and crystalline quartz o/e rays for the compensators. It can be replaced
wholesale with a JSON file of the same schema through
``load_materials(path)`` (the CLI's ``--materials``); no environment
variable is read, so every run names its database on its command line.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from importlib import resources

import numpy as np

__all__ = [
    "WavelengthRangeError",
    "SellmeierModel",
    "FiberSpec",
    "CompensatorMaterial",
    "index",
    "index_and_group_index",
    "birefringence",
    "load_materials",
    "fused_silica",
    "quartz",
]

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
        lo, hi = float(lo), float(hi)
        object.__setattr__(self, "valid_range_nm", (lo, hi))
        for _, c in self.terms:
            if c > 0.0 and lo <= 1000.0 * math.sqrt(c) <= hi:
                raise ValueError(f"pole at {1000.0 * math.sqrt(c):g} nm inside the "
                                 f"validity range {self.valid_range_nm!r}")
        # the kernel's split of the terms, made once: n^2 at v = 0 (1 plus
        # the C = 0 terms) and the dispersive terms
        object.__setattr__(self, "_n2_constant", 1.0 + sum(b for b, c in self.terms if not c))
        object.__setattr__(self, "_dispersive", tuple((b, c) for b, c in self.terms if c))


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
        object.__setattr__(self, "length_m", _non_negative(self.length_m, "fiber length"))
        _non_negative(self.birefringence, "birefringence")
        _non_negative(self.gamma, "gamma")


@dataclass(frozen=True)
class CompensatorMaterial:
    """Uniaxial crystal described by its ordinary and extraordinary rays."""

    ordinary: SellmeierModel
    extraordinary: SellmeierModel


def _non_negative(value, name: str, positive: bool = False):
    """``value`` if finite and >= 0 (> 0 with ``positive``), else ``ValueError`` naming ``name``.

    A NaN fails. -0.0 passes and equals 0.0 but carries its sign into a
    product, so it comes back as +0.0: equal inputs then give equal bits.
    """
    if not (0.0 < value < math.inf if positive else 0.0 <= value < math.inf):
        raise ValueError(f"{name} must be finite and {'>' if positive else '>='} 0, got {value!r}")
    return abs(value)


def _count(value, low: int, name: str) -> int:
    """``value`` as an ``int`` if it is an integer >= ``low``, else ``ValueError`` naming ``name``.

    A bool is not a count.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def _check_range(model: SellmeierModel, wavelength_nm):
    """The wavelengths, a float as it is and else an array, all within the range."""
    lo, hi = model.valid_range_nm
    if type(wavelength_nm) is float:
        lam = wavelength_nm
        bad = () if lo <= lam <= hi else (lam,)  # a NaN fails both comparisons
    else:
        lam = np.asarray(wavelength_nm, dtype=float)
        bad = lam[~((lo <= lam) & (lam <= hi))]
    if len(bad):
        worst = float(bad[0])
        valid = f"validity range [{lo:g}, {hi:g}] nm of {model.name or 'model'}"
        if math.isnan(worst):
            raise WavelengthRangeError(f"wavelength {worst:g} nm is not a number ({valid})")
        bound = lo if worst < lo else hi
        raise WavelengthRangeError(
            f"wavelength {worst:g} nm outside {valid} (violated bound: {bound:g} nm)")
    return lam


def _sellmeier(model: SellmeierModel, v, group: bool = False):
    """``n``, or ``(n, n_g)`` with ``group``, at squared wavenumbers ``v`` (1/um^2).

    n^2 = 1 + sum_j B_j / (1 - C_j v). The group index n - lambda
    dn/dlambda is n + 2 v dn/dv = n + (1/n) sum_j t_j C_j v / (1 - C_j v),
    with t_j = B_j / (1 - C_j v) the term itself. ``v`` is a float, a
    numpy scalar or an array, and is left as it was. A float gives floats,
    in float arithmetic throughout; an array gives arrays of its shape,
    each combined in place once allocated here, so a large ``v`` costs at
    most three more arrays of its size.
    """
    n2 = model._n2_constant
    slope = 0.0
    for b, c in model._dispersive:
        d = v * -c
        d += 1.0  # 1 - C v
        if not group:
            n2 += b / d
            continue
        t = b / d
        n2 += t
        slope += t * (c * v) / d
    if isinstance(v, float):
        n = math.sqrt(n2) if n2 >= 0.0 else math.nan  # numpy's NaN where n^2 < 0
    else:
        if isinstance(n2, float):  # no dispersive term: a constant index
            n2 = np.full_like(v, n2)
        n = np.sqrt(n2)
    return (n, n + slope / n) if group else n


def index(model: SellmeierModel, wavelength_nm):
    """Refractive index n(lambda); accepts scalars or arrays (nm)."""
    lam = _check_range(model, wavelength_nm)
    k = 1000.0 / lam  # 1/um
    n = _sellmeier(model, k * k)
    return n if type(lam) is float or lam.ndim else float(n)


def index_and_group_index(model: SellmeierModel, wavelength_nm) -> tuple:
    """``(n, n_g)``: the index and the group index n - lambda dn/dlambda.

    Both come from the same terms in one ``_sellmeier`` pass, and ``n``
    is bit for bit ``index(model, wavelength_nm)``.
    """
    lam = _check_range(model, wavelength_nm)
    k = 1000.0 / lam
    n, n_g = _sellmeier(model, k * k, group=True)
    return (n, n_g) if type(lam) is float or lam.ndim else (float(n), float(n_g))


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
    """Load the material database: the JSON file at ``path``, else the packaged defaults.

    No environment variable is read. Returns a dict of name -> SellmeierModel.
    """
    if path is None:
        raw = resources.files("xsplice").joinpath("data/materials.json").read_text()
    else:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
    db = json.loads(raw)
    if not isinstance(db, dict):
        raise ValueError(f"the top level must be a JSON object, not {type(db).__name__}")
    return {key: _model_from_entry(key, entry) for key, entry in db.items()}


def fused_silica(db: dict | None = None) -> SellmeierModel:
    """The fiber-core index model from the database (default: built-in)."""
    db = load_materials() if db is None else db
    return db["fused_silica"]


def quartz(db: dict | None = None) -> CompensatorMaterial:
    """The quartz compensator material from the database."""
    db = load_materials() if db is None else db
    return CompensatorMaterial(ordinary=db["quartz_o"], extraordinary=db["quartz_e"])
