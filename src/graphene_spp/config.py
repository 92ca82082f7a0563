"""Flat key = value run configuration with unit-suffixed keys.

Every key carries its unit in the name so a config file is auditable at a
glance; unknown keys are rejected rather than ignored. An empty file yields
the reference device: lambda0 = 10 um, E_F = 0.15 eV, eps_h = 3.9 (SiO2),
R = 800 nm, delta = 200 nm, d_min = 20 nm, L = 1 um, gamma = 2e12 1/s.
"""

from __future__ import annotations

import hashlib
import math
import numbers
from dataclasses import dataclass, fields

from .coupling import K0_CONVENTIONS
from .dispersion import Excitation, SppMode, solve_dispersion_batch
from .geometry import DeviceGeometry
from .materials import (GAMMA_CONVENTIONS, GrapheneSheet, Medium,
                        default_relaxation_rate, drude_conductivity)


class ConfigError(ValueError):
    """A config key is unknown, malformed, or violates an invariant."""


_FORMATS = ("csv", "json", "svg")


def _unknown_formats(formats: str) -> list[str]:
    return [part for part in (formats.split(",") if formats else [])
            if part not in _FORMATS]


def _requires_positive(what: str) -> tuple:
    return lambda value: value > 0, f"requires {what} > 0"


# Field -> (predicate, message). A value must first be of its field's kind,
# the type of its default, and a float finite; then the predicate holds or
# the message is raised.
_DOMAINS = {
    "lambda0_um": _requires_positive("wavelength"),
    "E_F_eV": _requires_positive("Fermi level"),
    "mobility_cm2_per_V_s": _requires_positive("mobility"),
    "v_F_m_per_s": _requires_positive("Fermi velocity"),
    "thickness_nm": _requires_positive("sheet thickness"),
    "gamma_per_s": (lambda value: value >= 0, "relaxation rate must be >= 0"),
    "gamma_convention": (GAMMA_CONVENTIONS.__contains__,
                         f"must be one of {GAMMA_CONVENTIONS}"),
    "k0_convention": (K0_CONVENTIONS.__contains__,
                      f"must be one of {K0_CONVENTIONS}"),
    "eps_h": (lambda value: value >= 1, "host permittivity must be >= 1"),
    "R_nm": _requires_positive("radius"),
    "delta_nm": (lambda value: value >= 0, "offset must be >= 0"),
    "d_min_nm": _requires_positive("minimum gap"),
    "L_um": _requires_positive("device length"),
    "n_samples": (lambda value: value >= 64, "must be at least 64"),
    "out_dir": (lambda value: True, ""),
    "formats": (lambda value: not _unknown_formats(value),
                lambda value: f"unknown format(s) {_unknown_formats(value)}"),
}

_KINDS = {float: ((numbers.Integral, float), "a number"),
          int: (numbers.Integral, "an integer"), str: (str, "a string")}


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

    def __post_init__(self) -> None:
        """Raise ConfigError for the first field, in field order, outside
        its domain, then for any object the fields feed that rejects them.

        A numeric field holds a Python float or int afterwards, whether it
        was given a Python or a numpy scalar (a float field an int, too), so
        that one device has one `config_hash`."""
        for field in fields(self):
            value = getattr(self, field.name)
            if field.name == "gamma_per_s" and value == "auto":
                continue  # resolved from the mobility by gamma()
            kind = type(field.default)
            types, noun = _KINDS[kind]
            valid, message = _DOMAINS[field.name]
            if isinstance(value, bool):
                types = ()  # a bool is neither a number nor a string here
            elif kind is not str and isinstance(value, types):
                try:
                    value = kind(value)
                except OverflowError:
                    raise ConfigError(f"{field.name}: expected a finite "
                                      "number, got an int beyond the float "
                                      "range") from None
                object.__setattr__(self, field.name, value)
            if not isinstance(value, types):
                fault = f"expected {noun}, got {value!r}"
            elif kind is float and not math.isfinite(value):
                fault = f"expected a finite number, got {value!r}"
            elif not valid(value):
                fault = message(value) if callable(message) else message
            else:
                continue
            raise ConfigError(f"{field.name}: {fault}")
        # The arc rule L/2 + delta/2 <= R lives in DeviceGeometry, and a
        # unit conversion can underflow a tiny length to 0.
        try:
            self.geometry()
            self.sheet()
            self.medium()
            self.excitation()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

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
        excitation = (self.excitation() if omega is None
                      else Excitation.at_angular_frequency(omega))
        return self.solve_modes((excitation,))[0]

    def solve_modes(self, excitations) -> tuple[SppMode, ...]:
        """solve_mode's vector form: the bound mode at each of excitations,
        in order, from one solve_dispersion_batch; the first without one
        raises what solve_mode raises for it."""
        excitations = tuple(excitations)
        sigma = drude_conductivity(
            [excitation.angular_frequency for excitation in excitations],
            self.sheet(), self.gamma())
        return solve_dispersion_batch(excitations, self.medium(), sigma,
                                      thickness=self.thickness_nm * 1e-9)


def parse_config(text: str) -> RunConfig:
    """Parse key = value lines; '#' starts a comment; unknown keys are errors.

    Each value is only converted to its field's type here; RunConfig checks
    it. A value that does not convert stays text, which RunConfig rejects
    as the wrong kind for its field.
    """
    raw_values: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        content = line.split("#", 1)[0].strip()
        if not content:
            continue
        if "=" not in content:
            raise ConfigError(f"line {lineno}: expected 'key = value', got "
                              f"{content!r}")
        key, raw = (part.strip() for part in content.split("=", 1))
        if key in raw_values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw_values[key] = raw
    return RunConfig(**{key: _convert(key, raw)
                        for key, raw in raw_values.items()})


def _convert(key: str, raw: str):
    if key not in _DOMAINS:
        raise ConfigError(f"unknown key {key!r}")
    if key == "formats":
        return ",".join(p.strip() for p in raw.split(",") if p.strip())
    if key == "gamma_per_s" and raw == "auto":
        return raw
    try:
        return type(RunConfig.__dataclass_fields__[key].default)(raw)
    except ValueError:
        return raw


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read())


def config_hash(config: RunConfig) -> str:
    """Stable digest of the effective configuration (defaults included)."""
    lines = []
    for key in sorted(RunConfig.__dataclass_fields__):
        lines.append(f"{key}={getattr(config, key)!r}")
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
