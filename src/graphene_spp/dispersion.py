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

import numpy as np

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

    @classmethod
    def at_angular_frequency(cls, omega: float) -> Excitation:
        return cls(vacuum_wavelength=2 * math.pi * CONSTANTS.c / omega)

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

    The root is taken in closed form. It must then decay on both sides
    (Re k > 0), satisfy
    |2 eps/k + i sigma/(eps0 omega)| < 1e-10 * |sigma/(eps0 omega)| (a NaN
    residual fails too) and be bound
    (Re q above the light line of the medium); otherwise a ConvergenceError
    carrying the residual is raised. The one-element solve_dispersion_batch.
    """
    return solve_dispersion_batch((excitation,), medium, (sigma_g,),
                                  thickness)[0]


def solve_dispersion_batch(excitations, medium: Medium, sigma_g,
                           thickness: float = 0.33e-9) -> tuple[SppMode, ...]:
    """solve_dispersion for each of excitations, with its own conductivity
    in sigma_g, in one medium and at one thickness: the tuple of modes,
    bit for bit the one-at-a-time solves.

    q, k, the residual and k0 are taken per element in Python's complex
    arithmetic, whose product and division round differently from numpy's;
    only the film permittivity is one array call, which is bitwise its 0-d
    calls. The first element without a mode raises the error and message
    that solve_dispersion raises for it, with the modes of the elements
    before it, as one-at-a-time solves find them, in its `modes`
    attribute (its length is the failing element's index).
    """
    excitations = tuple(excitations)
    sigmas = np.asarray(sigma_g, dtype=complex).reshape(-1).tolist()
    if len(sigmas) != len(excitations):
        raise ValueError("sigma_g must hold one conductivity per excitation")
    omegas = [excitation.angular_frequency for excitation in excitations]
    eps = medium.permittivity
    roots, failure = [], None
    for omega, sigma in zip(omegas, sigmas):
        try:
            roots.append(_bound_root(omega, eps, sigma))
        except (NoBoundModeError, ConvergenceError) as exc:
            failure = exc
            break
    # the solved elements are finished, thickness check included, before
    # the failure is raised, as in one-at-a-time solves
    solved = len(roots)
    films = (effective_graphene_permittivity(
        np.array(omegas[:solved]), np.array(sigmas[:solved]),
        thickness).tolist() if solved else [])
    modes = []
    for excitation, omega, (q, k), eps_g in zip(excitations, omegas, roots,
                                                 films):
        k0 = cmath.sqrt(q * q - omega * omega * eps_g / CONSTANTS.c**2)
        if k0.real < 0:
            k0 = -k0
        modes.append(SppMode(q=q, k=k, eps_g=eps_g, k0=k0,
                             normalization=math.sqrt(1.0 / k.real),
                             excitation=excitation, medium=medium))
    if failure is not None:
        failure.modes = tuple(modes)
        raise failure
    return tuple(modes)


def _bound_root(omega: float, eps: float, sigma_g: complex):
    """(q, k) of the closed-form root, or solve_dispersion's error."""
    if sigma_g.imag <= 0:
        raise NoBoundModeError("bound mode requires Im(sigma_g) > 0")
    drive = 1j * sigma_g / (CONSTANTS.eps0 * omega)

    q = _closed_form_root(omega, eps, sigma_g)
    if q.imag < 0:
        # Gain is unphysical for a passive sheet; try the decaying branch and
        # let the residual contract below reject it if it is not a root.
        q = q.conjugate()

    k = _transverse_constant(q, omega, eps)
    # before the residual: far below the light line k can cancel to 0
    if k.real <= 0:
        raise ConvergenceError("no sign-correct evanescent branch found")
    rel_residual = abs(2.0 * eps / k + drive) / abs(drive)
    if not rel_residual < 1e-10:
        raise ConvergenceError(
            f"root residual {rel_residual:.3e} violates the 1e-10 contract",
            residual=rel_residual)
    if q.real <= (omega / CONSTANTS.c) * math.sqrt(eps):
        raise ConvergenceError("root is not bound (faster than light in the "
                               "host medium)")
    return q, k


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
