"""Bound-mode dispersion solver for a conducting sheet in a host dielectric.

Solves the TM relation 2 eps/k + i sigma/(eps0 omega) = 0 for the complex
propagation constant q, with k = sqrt(q^2 - omega^2 eps/c^2) and the branch
fixed by Re(k) > 0 (evanescent confinement on both sides). With one medium on
both sides the root is closed form, k = 2 i eps eps0 omega / sigma (Jablan,
Buljan & Soljacic, Phys. Rev. B 80, 245435 (2009)).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .materials import CONSTANTS, Medium, effective_graphene_permittivity


class ConvergenceError(RuntimeError):
    """The root failed the residual contract or its branch and bound checks."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class NoBoundModeError(ValueError):
    """The conductivity does not support a bound mode (needs Im(sigma) > 0)."""


@dataclass(frozen=True)
class Excitation:
    """Free-space drive: wavelength in m, angular frequency derived from it."""

    vacuum_wavelength: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.vacuum_wavelength)
                and self.vacuum_wavelength > 0):
            raise ValueError("vacuum_wavelength must be finite and > 0")

    @property
    def angular_frequency(self) -> float:
        return 2.0 * math.pi * CONSTANTS.c / self.vacuum_wavelength


@dataclass(frozen=True)
class SppMode:
    """Solved bound mode.

    q : complex propagation constant (1/m), Im(q) >= 0 encodes damping.
    k : transverse decay constant (1/m) on both sides (one host medium).
    eps_g : thin-film equivalent permittivity of the sheet.
    k0 : sqrt(q^2 - omega^2 eps_g/c^2), the film-referenced transverse constant.
    normalization : N with N^2 = 1/Re k, so that the profile
        exp(-k|z|)/N has unit squared integral.
    medium : the host medium.
    """

    q: complex
    k: complex
    eps_g: complex
    k0: complex
    normalization: float
    excitation: Excitation
    medium: Medium


def _transverse_constant(q: complex, omega: float, eps: float) -> complex:
    k = cmath.sqrt(q * q - omega * omega * eps / CONSTANTS.c**2)
    if k.real < 0:
        k = -k
    return k


def _closed_form_root(omega: float, eps: float, sigma_g: complex) -> complex:
    k = 2j * eps * CONSTANTS.eps0 * omega / sigma_g
    if k.real < 0:
        k = -k
    q = cmath.sqrt(k * k + omega * omega * eps / CONSTANTS.c**2)
    if q.real < 0:
        q = -q
    return q


def solve_dispersion(excitation: Excitation, medium: Medium,
                     sigma_g: complex, thickness: float = 0.33e-9) -> SppMode:
    """Bound mode of a sheet with conductivity sigma_g in a host medium.

    The root is taken in closed form. It must then satisfy
    |2 eps/k + i sigma/(eps0 omega)| < 1e-10 * |sigma/(eps0 omega)| (a NaN
    residual fails too), decay on both sides (Re k > 0) and be bound
    (Re q above the light line of the medium); otherwise a ConvergenceError
    carrying the residual is raised.
    """
    sigma_g = complex(sigma_g)
    if sigma_g.imag <= 0:
        raise NoBoundModeError("bound mode requires Im(sigma_g) > 0")
    omega = excitation.angular_frequency
    eps = medium.permittivity
    drive = 1j * sigma_g / (CONSTANTS.eps0 * omega)

    q = _closed_form_root(omega, eps, sigma_g)
    if q.imag < 0:
        # Gain is unphysical for a passive sheet; try the decaying branch and
        # let the residual contract below reject it if it is not a root.
        q = q.conjugate()

    k = _transverse_constant(q, omega, eps)
    rel_residual = abs(2.0 * eps / k + drive) / abs(drive)
    if not rel_residual < 1e-10:
        raise ConvergenceError(
            f"root residual {rel_residual:.3e} violates the 1e-10 contract",
            residual=rel_residual)
    if k.real <= 0:
        raise ConvergenceError("no sign-correct evanescent branch found")
    if q.real <= (omega / CONSTANTS.c) * math.sqrt(eps):
        raise ConvergenceError("root is not bound (faster than light in the "
                               "host medium)")
    eps_g = effective_graphene_permittivity(omega, sigma_g, thickness)
    k0 = cmath.sqrt(q * q - omega * omega * eps_g / CONSTANTS.c**2)
    if k0.real < 0:
        k0 = -k0
    normalization = math.sqrt(1.0 / k.real)
    return SppMode(q=q, k=k, eps_g=eps_g, k0=k0, normalization=normalization,
                   excitation=excitation, medium=medium)


#: Reported instead of an exception when a lossless mode does not decay.
INFINITE_PROPAGATION = math.inf


def propagation_length(mode: SppMode) -> float:
    """1/(2 Im q); lossless modes report the infinite sentinel, not an error."""
    im = mode.q.imag
    if im < 0:
        raise ValueError("mode has gain; propagation length undefined")
    if im == 0.0:
        return INFINITE_PROPAGATION
    return 1.0 / (2.0 * im)


def confinement_length(mode: SppMode) -> float:
    """1/Re k: transverse 1/e decay distance of the field amplitude."""
    if not mode.k.real > 0:
        raise ValueError("mode is not evanescent")
    return 1.0 / mode.k.real
