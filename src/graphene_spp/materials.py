"""Graphene sheet material model: Drude surface conductivity and derived quantities.

All internal arithmetic is SI; energies cross the API boundary in eV and are
converted exactly once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

GAMMA_CONVENTIONS = ("no_two_pi", "literal_two_pi")

# Vacuum permeability (CODATA 2022), used only to derive eta0.
_MU_0 = 1.25663706127e-06


class MaterialDomainError(ValueError):
    """A material parameter violates its physical domain."""


def ev_to_joule(energy_ev):
    return np.asarray(energy_ev, dtype=float) * CONSTANTS.e \
        if np.ndim(energy_ev) else float(energy_ev) * CONSTANTS.e


@dataclass(frozen=True)
class PhysicalConstants:
    """SI constants used throughout, stored once for auditability.

    CODATA 2022 values as `scipy.constants` 1.17 gives them, written as
    literals so that importing the package does not import scipy;
    `tests/test_materials.py` pins them against `scipy.constants` bit for
    bit.
    """

    e: float = 1.602176634e-19
    h: float = 6.62607015e-34
    hbar: float = 1.0545718176461565e-34
    c: float = 299792458.0
    eps0: float = 8.8541878188e-12
    eta0: float = field(default=math.sqrt(_MU_0 / eps0))
    sigma0: float = field(default=math.pi * e**2 / (2.0 * h))


CONSTANTS = PhysicalConstants()


@dataclass(frozen=True)
class Medium:
    """Dielectric half-space characterized by its real relative permittivity."""

    permittivity: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.permittivity)
                and self.permittivity >= 1.0):
            raise MaterialDomainError("permittivity must be finite and >= 1")


@dataclass(frozen=True)
class GrapheneSheet:
    """Single graphene sheet parameters.

    fermi_level_ev : Fermi level in eV.
    mobility_cm2 : carrier mobility in cm^2/(V s).
    fermi_velocity : Fermi velocity in m/s.
    thickness : effective sheet thickness in m, used by the thin-film
        permittivity picture.
    """

    fermi_level_ev: float = 0.15
    mobility_cm2: float = 6e4
    fermi_velocity: float = 1e6
    thickness: float = 0.33e-9

    def __post_init__(self) -> None:
        for name in ("fermi_level_ev", "mobility_cm2", "fermi_velocity",
                     "thickness"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise MaterialDomainError(f"{name} must be finite and > 0")


def default_relaxation_rate(sheet: GrapheneSheet,
                            convention: str = "no_two_pi") -> float:
    """Carrier relaxation rate from the sheet mobility.

    Two conventions are supported: "no_two_pi" returns e*v_F^2/(mu_e*E_F),
    "literal_two_pi" multiplies that by 2*pi. The former is the default; it is
    the one consistent with the reference relaxation-rate value for a
    0.15 eV sheet (about 1.11e12 1/s) recorded in the validation report.
    Raises MaterialDomainError unless the rate is finite and > 0.
    """
    if convention not in GAMMA_CONVENTIONS:
        raise ValueError(f"unknown relaxation-rate convention {convention!r}")
    mobility_si = sheet.mobility_cm2 * 1e-4  # cm^2/(V s) -> m^2/(V s)
    try:
        rate = CONSTANTS.e * sheet.fermi_velocity**2 / (
            mobility_si * ev_to_joule(sheet.fermi_level_ev))
    except (OverflowError, ZeroDivisionError):
        rate = math.nan
    if convention == "literal_two_pi":
        rate *= 2.0 * math.pi
    if not (math.isfinite(rate) and rate > 0):
        raise MaterialDomainError("relaxation rate from the mobility must be "
                                  "finite and > 0")
    return rate


def drude_conductivity(omega, sheet: GrapheneSheet, gamma: float):
    """Intraband Drude surface conductivity sigma0*(4 E_F/pi)/(hbar*gamma - i hbar*omega).

    omega may be a scalar or an array of angular frequencies (rad/s).
    Interband contributions are deliberately not modeled.
    """
    omega = np.asarray(omega, dtype=float)
    if not np.all(omega > 0):
        raise MaterialDomainError("omega must be > 0")
    if not gamma >= 0:
        raise MaterialDomainError("gamma must be >= 0")
    ef_joule = ev_to_joule(sheet.fermi_level_ev)
    denom = CONSTANTS.hbar * gamma - 1j * CONSTANTS.hbar * omega
    sigma = CONSTANTS.sigma0 * (4.0 * ef_joule / math.pi) / denom
    return complex(sigma) if sigma.ndim == 0 else sigma


def effective_graphene_permittivity(omega, sigma_g, thickness: float):
    """Thin-film equivalent permittivity 1 + i sigma eta0 c/(omega thickness)."""
    omega = np.asarray(omega, dtype=float)
    if not np.all(omega > 0):
        raise MaterialDomainError("omega must be > 0")
    if not thickness > 0:
        raise MaterialDomainError("thickness must be > 0")
    eps = 1.0 + 1j * np.asarray(sigma_g) * CONSTANTS.eta0 * CONSTANTS.c / (
        omega * thickness)
    return complex(eps) if eps.ndim == 0 else eps
