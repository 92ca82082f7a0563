"""Coupled-mode coupling coefficients between two stacked sheets.

The coupling between neighboring sheets at separation d in one host medium is
C = (1/2) (k^2 - k0^2)/q * (d + 1/k) exp(-k d) / N^2 with N^2 = 1/Re k (Jablan,
Buljan & Soljacic, Phys. Rev. B 80, 245435 (2009)). Two conventions for the
reference constant k0 are supported:

"vacuum"
    k0 = omega/c. Default. Produces coupler-scale strengths (tens of 1/um at
    20 nm separation) consistent with the reference coupling value recorded
    in the validation report; the three-sheet transfer device only functions
    at this scale.
"film"
    k0 = sqrt(q^2 - omega^2 eps_g/c^2), referencing the thin-film equivalent
    permittivity of the partner sheet. Yields couplings weaker by more than
    two orders of magnitude; retained for comparison and reported alongside.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dispersion import SppMode
from .materials import CONSTANTS

K0_CONVENTIONS = ("vacuum", "film")


class CouplingDomainError(ValueError):
    """Coupling arguments violate their physical domain."""


@dataclass(frozen=True)
class PairCoupling:
    """Coupling coefficient for one sheet pair at separation d."""

    c12: complex
    separation: float

    def __post_init__(self) -> None:
        if not self.separation > 0:
            raise CouplingDomainError("separation must be > 0")


def overlap_integral(k, d):
    """(d + 1/k) exp(-k d), the closed form of
    int exp(-k|z - d/2|) exp(-k|z + d/2|) dz. d may be a scalar or an
    array (>= 0); k a complex scalar, or an array that broadcasts against
    d, such as a (rows, 1) column giving each row of d its own k."""
    k = np.asarray(k, dtype=complex)
    if not np.all((k.real > 0) & np.isfinite(k)):
        raise CouplingDomainError("k must be finite with Re k > 0")
    # Python's complex division, element by element: numpy's rounds
    # differently
    inverse = np.array([1.0 / value for value in k.ravel().tolist()],
                       dtype=complex).reshape(k.shape)
    d = np.asarray(d, dtype=float)
    if not np.all(d >= 0):
        raise CouplingDomainError("separation must be >= 0")
    # exp(-k d) from real arguments, and the product with d + 1/k in real
    # arithmetic: numpy's complex exp and complex division cost about
    # twice as much, and its complex product rounds a lone element
    # differently from one in a longer array
    phase = k.imag * d
    magnitude = np.exp(-k.real * d)
    cos = np.cos(phase)
    cos *= magnitude
    sin = np.sin(phase)
    sin *= magnitude
    shifted = d + inverse.real
    total = np.empty(shifted.shape, dtype=complex)
    real, imag = total.real, total.imag
    np.multiply(shifted, cos, out=real)
    real += inverse.imag * sin
    np.multiply(inverse.imag, cos, out=imag)
    shifted *= sin
    imag -= shifted
    return complex(total) if total.ndim == 0 else total


def _k0_squared(mode: SppMode, k0_convention: str) -> complex:
    if k0_convention == "vacuum":
        k0 = mode.excitation.angular_frequency / CONSTANTS.c
        return k0 * k0
    if k0_convention == "film":
        return mode.k0 ** 2
    raise ValueError(f"unknown k0 convention {k0_convention!r}")


def _mode_factors(modes, k0_convention: str):
    """Each mode's k and (1/2) (k^2 - k0^2)/(q N^2), the two per-mode
    factors of C, as lists of Python complexes: dividing an array by N^2
    cost five times the product, and numpy's complex division rounds
    differently."""
    ks, scales = [], []
    for mode in modes:
        k0_sq = _k0_squared(mode, k0_convention)
        ks.append(mode.k)
        scales.append(0.5 * (mode.k**2 - k0_sq) / mode.q
                      / mode.normalization**2)
    return ks, scales


def _couplings(k, scale, d):
    """C = scale * overlap_integral(k, d) from _mode_factors' k and scale:
    one complex each, or (rows, 1) columns giving each row of d its own
    mode. The broadcast complex product rounds as the scalar one does."""
    return scale * overlap_integral(k, d)


def coupling_at_separations(mode: SppMode, d, k0_convention: str = "vacuum"):
    """Vectorized coupling over separations, same mode on both sheets."""
    (k,), (scale,) = _mode_factors((mode,), k0_convention)
    c = _couplings(k, scale, d)
    # Returned twice, as (c12, c21), because callers outside the package
    # unpack a pair; with one host medium both directions are equal.
    return c, c


def coupling_coefficient(mode: SppMode, d: float,
                         k0_convention: str = "vacuum") -> PairCoupling:
    """Coupling coefficient for one pair of sheets at separation d (> 0)."""
    c, _ = coupling_at_separations(mode, d, k0_convention)
    return PairCoupling(c12=complex(c), separation=float(d))


def coupling_vs_distance(mode: SppMode, d_grid,
                         k0_convention: str = "vacuum") -> list[PairCoupling]:
    """Coupling table over a strictly increasing, strictly positive grid."""
    d_grid = np.asarray(d_grid, dtype=float)
    if d_grid.size == 0:
        raise CouplingDomainError("separation grid must be non-empty")
    if not np.all(d_grid > 0):
        raise CouplingDomainError("separations must be > 0")
    if d_grid.size > 1 and np.any(np.diff(d_grid) <= 0):
        raise CouplingDomainError("separation grid must be strictly increasing")
    c, _ = coupling_at_separations(mode, d_grid, k0_convention)
    return [PairCoupling(c12=complex(value), separation=float(d))
            for value, d in zip(np.atleast_1d(c), d_grid)]
