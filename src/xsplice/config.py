"""Run configuration: INI files with flat key-value sections.

The built-in configuration is the packaged ``data/paper.ini``, the
reference source (13 cm segments, 771 nm pump, quartz compensators,
fitted count-rate coefficients); ``DEFAULTS`` is parsed from it, and
any key can be overridden by a config file. ``configs/paper.ini`` in
the repository root sets no key and so loads the same configuration.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from importlib import resources

from .counts import NoiseParams, _check_baseline
from .materials import CompensatorMaterial, FiberSpec, load_materials
from .phase import CompensatorSpec
from .states import GaussianSpectrum

__all__ = ["ConfigError", "SourceConfig", "load_config", "DEFAULTS"]


class ConfigError(ValueError):
    pass


def _packaged_defaults() -> dict:
    """``{section: {key: text}}`` of the packaged ``data/paper.ini``."""
    parser = configparser.ConfigParser()
    parser.read_string(resources.files("xsplice").joinpath("data/paper.ini")
                       .read_text(encoding="utf-8"))
    return {section: dict(parser[section]) for section in parser.sections()}


DEFAULTS = _packaged_defaults()


@dataclass(frozen=True)
class SourceConfig:
    fiber: FiberSpec
    material: CompensatorMaterial
    compensators: tuple
    pump: GaussianSpectrum
    signal: GaussianSpectrum
    noise: NoiseParams
    baseline_noise: float


def _orientation(raw: str) -> int:
    """The integer of ``raw``; ``CompensatorSpec`` checks that it is +1 or -1."""
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"orientation must be +1 or -1, got {raw!r}") from exc


def _getfloat(parser: configparser.ConfigParser, section: str, key: str) -> float:
    """A float read from the config; NaN and infinities are config errors."""
    val = parser.getfloat(section, key)
    if not math.isfinite(val):
        raise ConfigError(f"[{section}] {key} must be finite, got {val}")
    return val


def load_config(path: str | None = None, materials_path: str | None = None) -> SourceConfig:
    """Build all run objects from defaults plus an optional INI file."""
    parser = configparser.ConfigParser()
    parser.read_dict(DEFAULTS)
    if path is not None:
        try:
            read = parser.read(path, encoding="utf-8")
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
        if not read:
            raise ConfigError(f"config file not found: {path}")

    try:
        db = load_materials(materials_path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot load material database: {exc}") from exc

    try:
        core_name = parser.get("fiber", "core")
        if core_name not in db:
            raise ConfigError(f"unknown core material {core_name!r}")
        fiber = FiberSpec(
            length_m=_getfloat(parser, "fiber", "length_m"),
            birefringence=_getfloat(parser, "fiber", "birefringence"),
            gamma=_getfloat(parser, "fiber", "gamma_per_w_m"),
            core_model=db[core_name],
        )
        mat_name = parser.get("compensators", "material")
        o_key, e_key = f"{mat_name}_o", f"{mat_name}_e"
        if o_key not in db or e_key not in db:
            raise ConfigError(f"material database lacks {o_key!r}/{e_key!r}")
        material = CompensatorMaterial(ordinary=db[o_key], extraordinary=db[e_key])
        comps = tuple(
            CompensatorSpec(_getfloat(parser, "compensators", f"{arm}_length_mm"), material,
                            _orientation(parser.get("compensators", f"{arm}_orientation")), arm)
            for arm in ("signal", "idler"))
        pump, signal = (GaussianSpectrum(_getfloat(parser, "spectra", f"{name}_center_nm"),
                                         _getfloat(parser, "spectra", f"{name}_fwhm_nm"))
                        for name in ("pump", "signal"))
        noise = NoiseParams(
            pair_rate_coeff=_getfloat(parser, "noise", "pair_rate_coeff"),
            raman_s=_getfloat(parser, "noise", "raman_signal"),
            raman_i=_getfloat(parser, "noise", "raman_idler"),
            dark_s=_getfloat(parser, "noise", "dark_signal"),
            dark_i=_getfloat(parser, "noise", "dark_idler"),
            eta_s=_getfloat(parser, "noise", "eta_signal"),
            eta_i=_getfloat(parser, "noise", "eta_idler"),
            rep_rate_hz=_getfloat(parser, "noise", "rep_rate_hz"),
            window_s=_getfloat(parser, "noise", "window_s"),
            spm_coeff=_getfloat(parser, "noise", "spm_coeff"),
        )
        baseline = _check_baseline(_getfloat(parser, "noise", "baseline_noise"), ConfigError)
    except (configparser.Error, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid configuration: {exc}") from exc

    return SourceConfig(fiber=fiber, material=material, compensators=comps,
                        pump=pump, signal=signal, noise=noise,
                        baseline_noise=baseline)
