"""Flat key = value run configuration with unit-suffixed keys.

Every key carries its unit in the name so a config file is auditable at a
glance; unknown keys are rejected rather than ignored. An empty file yields
the reference device: lambda0 = 10 um, E_F = 0.15 eV, eps_h = 3.9 (SiO2),
R = 800 nm, delta = 200 nm, d_min = 20 nm, L = 1 um, gamma = 2e12 1/s.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

from .coupling import K0_CONVENTIONS
from .dispersion import Excitation, SppMode, solve_dispersion
from .geometry import DeviceGeometry
from .materials import (CONSTANTS, GAMMA_CONVENTIONS, GrapheneSheet, Medium,
                        default_relaxation_rate, drude_conductivity)


class ConfigError(ValueError):
    """A config key is unknown, malformed, or violates an invariant."""


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters, SI units internally."""

    lambda0_um: float = 10.0
    E_F_eV: float = 0.15
    mobility_cm2_per_V_s: float = 6e4
    v_F_m_per_s: float = 1e6
    thickness_nm: float = 0.33
    gamma_per_s: float | str = 2e12  # numeric rate or "auto" (from mobility)
    gamma_convention: str = "no_two_pi"
    k0_convention: str = "vacuum"
    eps_h: float = 3.9
    R_nm: float = 800.0
    delta_nm: float = 200.0
    d_min_nm: float = 20.0
    L_um: float = 1.0
    n_samples: int = 4096
    out_dir: str = "out"
    formats: str = "csv,json,svg"

    def excitation(self) -> Excitation:
        return Excitation(vacuum_wavelength=self.lambda0_um * 1e-6)

    def sheet(self) -> GrapheneSheet:
        return GrapheneSheet(fermi_level_ev=self.E_F_eV,
                             mobility_cm2=self.mobility_cm2_per_V_s,
                             fermi_velocity=self.v_F_m_per_s,
                             thickness=self.thickness_nm * 1e-9)

    def gamma(self) -> float:
        if self.gamma_per_s == "auto":
            return default_relaxation_rate(self.sheet(), self.gamma_convention)
        return float(self.gamma_per_s)

    def medium(self) -> Medium:
        return Medium(permittivity=self.eps_h)

    def geometry(self) -> DeviceGeometry:
        return DeviceGeometry(radius=self.R_nm * 1e-9,
                              offset=self.delta_nm * 1e-9,
                              min_gap=self.d_min_nm * 1e-9,
                              length=self.L_um * 1e-6)

    def solve_mode(self, omega: float | None = None) -> SppMode:
        """Bound mode at the configured (or an overriding) angular frequency."""
        excitation = self.excitation()
        if omega is not None:
            excitation = Excitation(
                vacuum_wavelength=2 * math.pi * CONSTANTS.c / omega)
        sigma = drude_conductivity(excitation.angular_frequency, self.sheet(),
                                   self.gamma())
        return solve_dispersion(excitation, self.medium(), sigma,
                                thickness=self.thickness_nm * 1e-9)


def _parse_float(key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{key}: expected a finite number, got {raw!r}")
    return value


def _parse_int(key: str, raw: str) -> int:
    try:
        value = int(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected an integer, got {raw!r}") from exc
    return value


def _positive(key: str, value: float, what: str) -> float:
    if value <= 0:
        raise ConfigError(f"{key}: requires {what} > 0")
    return value


_FLOAT_KEYS = {
    "lambda0_um": "wavelength",
    "E_F_eV": "Fermi level",
    "mobility_cm2_per_V_s": "mobility",
    "v_F_m_per_s": "Fermi velocity",
    "thickness_nm": "sheet thickness",
    "eps_h": "host permittivity",
    "R_nm": "radius",
    "delta_nm": "offset",
    "d_min_nm": "minimum gap",
    "L_um": "device length",
}


def parse_config(text: str) -> RunConfig:
    """Parse key = value lines; '#' starts a comment; unknown keys are errors."""
    config = RunConfig()
    seen: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        content = line.split("#", 1)[0].strip()
        if not content:
            continue
        if "=" not in content:
            raise ConfigError(f"line {lineno}: expected 'key = value', got "
                              f"{content!r}")
        key, raw = (part.strip() for part in content.split("=", 1))
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen[key] = raw

    for key, raw in seen.items():
        if key in _FLOAT_KEYS:
            value = _parse_float(key, raw)
            if key == "delta_nm":
                if value < 0:
                    raise ConfigError("delta_nm: offset must be >= 0")
            elif key == "eps_h":
                if value < 1:
                    raise ConfigError("eps_h: host permittivity must be >= 1")
            else:
                _positive(key, value, _FLOAT_KEYS[key])
            config = replace(config, **{key: value})
        elif key == "gamma_per_s":
            if raw == "auto":
                config = replace(config, gamma_per_s="auto")
            else:
                value = _parse_float(key, raw)
                if value < 0:
                    raise ConfigError("gamma_per_s: relaxation rate must be >= 0")
                config = replace(config, gamma_per_s=value)
        elif key == "gamma_convention":
            if raw not in GAMMA_CONVENTIONS:
                raise ConfigError(f"gamma_convention: must be one of "
                                  f"{GAMMA_CONVENTIONS}")
            config = replace(config, gamma_convention=raw)
        elif key == "k0_convention":
            if raw not in K0_CONVENTIONS:
                raise ConfigError(f"k0_convention: must be one of "
                                  f"{K0_CONVENTIONS}")
            config = replace(config, k0_convention=raw)
        elif key == "n_samples":
            value = _parse_int(key, raw)
            if value < 64:
                raise ConfigError("n_samples: must be at least 64")
            config = replace(config, n_samples=value)
        elif key == "out_dir":
            config = replace(config, out_dir=raw)
        elif key == "formats":
            parts = [p.strip() for p in raw.split(",") if p.strip()]
            unknown = [p for p in parts if p not in ("csv", "json", "svg")]
            if unknown:
                raise ConfigError(f"formats: unknown format(s) {unknown}")
            config = replace(config, formats=",".join(parts))
        else:
            raise ConfigError(f"unknown key {key!r}")

    # Cross-field invariants are enforced by the constructors they feed;
    # surface them as load errors so callers see a single failure type.
    try:
        config.geometry()
        config.sheet()
        config.medium()
        config.excitation()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return config


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read())


def config_hash(config: RunConfig) -> str:
    """Stable digest of the effective configuration (defaults included)."""
    lines = []
    for key in sorted(RunConfig.__dataclass_fields__):
        lines.append(f"{key}={getattr(config, key)!r}")
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
