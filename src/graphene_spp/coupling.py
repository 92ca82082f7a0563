"""Coupled-mode coupling coefficients between two stacked sheets.

The coupling between neighboring sheets at separation d is
C = (1/2) (k^2 - k0^2)/q * O, with O the normalized unconjugated overlap of
the two evanescent profiles. Two conventions for the reference constant k0
are supported:

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
    """Directional coupling coefficients for one sheet pair at separation d."""

    c12: complex
    c21: complex
    separation: float

    def __post_init__(self) -> None:
        if self.separation <= 0:
            raise CouplingDomainError("separation must be > 0")


def overlap_integral(k_a: complex, k_b: complex, d):
    """Closed form of int exp(-k_a|z - d/2|) exp(-k_b|z + d/2|) dz.

    Assembled from the three smooth regions; the near-equal-constant case is
    evaluated through a series for the interior term so the k_a -> k_b limit
    is exact instead of 0/0. d may be a scalar or an array (>= 0).
    """
    k_a = complex(k_a)
    k_b = complex(k_b)
    if k_a.real <= 0 or k_b.real <= 0:
        raise CouplingDomainError("decay constants must have positive real part")
    d = np.asarray(d, dtype=float)
    if np.any(d < 0):
        raise CouplingDomainError("separation must be >= 0")

    ea = np.exp(-k_a * d)
    eb = np.exp(-k_b * d)
    outer = (ea + eb) / (k_a + k_b)
    if abs(k_a - k_b) < 1e-9 * abs(k_a + k_b):
        k_mean = 0.5 * (k_a + k_b)
        inner = d * np.exp(-k_mean * d)
    else:
        w = (k_a - k_b) * d
        # (e^w - 1)/w loses precision for small |w|; switch to its series.
        series = d * ea * (1.0 + w / 2.0 + w * w / 6.0 + w**3 / 24.0)
        direct = np.divide(eb - ea, k_a - k_b)
        inner = np.where(np.abs(w) < 1e-4, series, direct)
    total = inner + outer
    return complex(total) if total.ndim == 0 else total


def _k0_squared(mode: SppMode, k0_convention: str) -> complex:
    if k0_convention == "vacuum":
        k0 = mode.excitation.angular_frequency / CONSTANTS.c
        return k0 * k0
    if k0_convention == "film":
        return mode.k0 ** 2
    raise ValueError(f"unknown k0 convention {k0_convention!r}")


def coupling_at_separations(mode: SppMode, d, k0_convention: str = "vacuum"):
    """Vectorized (c12, c21) over an array of separations, same mode on both sheets."""
    k0_sq = _k0_squared(mode, k0_convention)
    # Upper sheet reaches down with k2, lower sheet reaches up with k1; the
    # distinction only matters for asymmetric media.
    raw = overlap_integral(mode.k2, mode.k1, d)
    normalized = raw / mode.normalization**2
    c12 = 0.5 * (mode.k2**2 - k0_sq) / mode.q * normalized
    c21 = 0.5 * (mode.k1**2 - k0_sq) / mode.q * normalized
    return c12, c21


def coupling_coefficient(mode: SppMode, d: float,
                         k0_convention: str = "vacuum") -> PairCoupling:
    """Coupling coefficients for one pair of sheets at separation d (> 0)."""
    if d <= 0:
        raise CouplingDomainError("separation must be > 0")
    c12, c21 = coupling_at_separations(mode, d, k0_convention)
    return PairCoupling(c12=complex(c12), c21=complex(c21), separation=float(d))


def coupling_vs_distance(mode: SppMode, d_grid,
                         k0_convention: str = "vacuum") -> list[PairCoupling]:
    """Coupling table over a strictly increasing, strictly positive grid."""
    d_grid = np.asarray(d_grid, dtype=float)
    if d_grid.size == 0:
        raise CouplingDomainError("separation grid must be non-empty")
    if np.any(d_grid <= 0):
        raise CouplingDomainError("separations must be > 0")
    if d_grid.size > 1 and np.any(np.diff(d_grid) <= 0):
        raise CouplingDomainError("separation grid must be strictly increasing")
    c12, c21 = coupling_at_separations(mode, d_grid, k0_convention)
    c12 = np.atleast_1d(c12)
    c21 = np.atleast_1d(c21)
    return [PairCoupling(c12=complex(a), c21=complex(b), separation=float(d))
            for a, b, d in zip(c12, c21, d_grid)]
