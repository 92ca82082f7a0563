"""Graphene sheet material model: Drude surface conductivity and derived quantities.

All internal arithmetic is SI; energies cross the API boundary in eV and are
converted exactly once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import constants as _const

GAMMA_CONVENTIONS = ("no_two_pi", "literal_two_pi")


class MaterialDomainError(ValueError):
    """A material parameter violates its physical domain."""


def ev_to_joule(energy_ev):
    return np.asarray(energy_ev, dtype=float) * CONSTANTS.e \
        if np.ndim(energy_ev) else float(energy_ev) * CONSTANTS.e


@dataclass(frozen=True)
class PhysicalConstants:
    """SI constants used throughout, stored once for auditability."""

    e: float = _const.e
    h: float = _const.h
    hbar: float = _const.hbar
    c: float = _const.c
    eps0: float = _const.epsilon_0
    eta0: float = field(default=math.sqrt(_const.mu_0 / _const.epsilon_0))
    sigma0: float = field(default=math.pi * _const.e**2 / (2.0 * _const.h))


CONSTANTS = PhysicalConstants()


@dataclass(frozen=True)
class Medium:
    """Dielectric half-space characterized by its real relative permittivity."""

    permittivity: float

    def __post_init__(self) -> None:
        if not self.permittivity >= 1.0:
            raise MaterialDomainError("permittivity must be >= 1")


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
        if not self.fermi_level_ev > 0:
            raise MaterialDomainError("fermi_level_ev must be > 0")
        if not self.mobility_cm2 > 0:
            raise MaterialDomainError("mobility_cm2 must be > 0")
        if not self.fermi_velocity > 0:
            raise MaterialDomainError("fermi_velocity must be > 0")
        if not self.thickness > 0:
            raise MaterialDomainError("thickness must be > 0")


def default_relaxation_rate(sheet: GrapheneSheet,
                            convention: str = "no_two_pi") -> float:
    """Carrier relaxation rate from the sheet mobility.

    Two conventions are supported: "no_two_pi" returns e*v_F^2/(mu_e*E_F),
    "literal_two_pi" multiplies that by 2*pi. The former is the default; it is
    the one consistent with the reference relaxation-rate value for a
    0.15 eV sheet (about 1.11e12 1/s) recorded in the validation report.
    """
    if convention not in GAMMA_CONVENTIONS:
        raise ValueError(f"unknown relaxation-rate convention {convention!r}")
    mobility_si = sheet.mobility_cm2 * 1e-4  # cm^2/(V s) -> m^2/(V s)
    rate = CONSTANTS.e * sheet.fermi_velocity**2 / (
        mobility_si * ev_to_joule(sheet.fermi_level_ev))
    if convention == "literal_two_pi":
        rate *= 2.0 * math.pi
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
