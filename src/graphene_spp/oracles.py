"""Independent reference implementations used to validate the fast code paths.

Nothing here imports from the sibling modules: the quadrature, residual and
matrix-exponential routines re-derive everything from their raw arguments so
that agreement between an oracle and a production routine is meaningful
evidence, not a tautology.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

# CODATA 2022, kept here rather than imported from materials so that the
# oracles share no code with the production paths.
_C = 299792458.0
_EPSILON_0 = 8.8541878188e-12


class OracleFailure(RuntimeError):
    """An oracle could not produce a trustworthy reference value.

    Tests must treat this as an error, never as a silent pass.
    """


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance budget for the adaptive overlap quadrature."""

    absolute_tolerance: float = 1e-14
    relative_tolerance: float = 1e-12
    max_subdivisions: int = 4096

    def __post_init__(self) -> None:
        if self.absolute_tolerance <= 0 or self.relative_tolerance <= 0:
            raise ValueError("quadrature tolerances must be positive")
        if self.max_subdivisions < 16:
            raise ValueError("max_subdivisions must be at least 16")


def _adaptive_simpson(f, a, b, fa, fm, fb, whole, tol, budget, depth):
    """Recursive Simpson refinement on one smooth panel; complex-valued."""
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if budget[0] <= 0:
        raise OracleFailure("adaptive quadrature exhausted its subdivision budget")
    budget[0] -= 1
    correction = left + right - whole
    if abs(correction) <= 15.0 * tol or depth >= 60:
        return left + right + correction / 15.0
    half = 0.5 * tol
    return _adaptive_simpson(f, a, m, fa, flm, fm, left, half, budget, depth + 1) \
        + _adaptive_simpson(f, m, b, fm, frm, fb, right, half, budget, depth + 1)


def _integrate_panel(f, a, b, tol, budget):
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _adaptive_simpson(f, a, b, fa, fm, fb, whole, tol, budget, 0)


def overlap_quadrature(k_a: complex, k_b: complex, d: float,
                       spec: QuadratureSpec = QuadratureSpec(),
                       return_details: bool = False):
    """Numerically integrate exp(-k_a|z - d/2|) exp(-k_b|z + d/2|) over z.

    The improper integral is truncated at 40 decay lengths beyond each
    profile centre; the analytic bound on the discarded tails is returned
    in the details so the truncation is checkable.
    """
    k_a = complex(k_a)
    k_b = complex(k_b)
    ra, rb = k_a.real, k_b.real
    if not (ra > 0 and rb > 0
            and cmath.isfinite(k_a) and cmath.isfinite(k_b)):
        raise ValueError("decay constants must be finite with Re k > 0")
    if not d >= 0:
        raise ValueError("separation must be non-negative")

    half_d, rate_a, rate_b = 0.5 * d, -k_a, -k_b
    def integrand(z: float) -> complex:
        return cmath.exp(rate_a * abs(z - half_d) + rate_b * abs(z + half_d))

    z_lo = -0.5 * d - 40.0 / rb
    z_hi = 0.5 * d + 40.0 / ra
    # Exact exponential bounds on the two discarded tails.
    tail = (math.exp(-ra * (z_hi - 0.5 * d) - rb * (z_hi + 0.5 * d)) / (ra + rb)
            + math.exp(-ra * (0.5 * d - z_lo) - rb * (-0.5 * d - z_lo)) / (ra + rb))

    # Split at the profile kinks so every panel is analytic inside.
    breaks = sorted({z_lo, -0.5 * d, 0.5 * d, z_hi})
    scale = max(abs(integrand(-0.5 * d)), abs(integrand(0.5 * d)), 1e-300)
    span = z_hi - z_lo
    tol = max(spec.absolute_tolerance, spec.relative_tolerance * scale * span)
    budget = [spec.max_subdivisions]
    total = 0.0 + 0.0j
    for a, b in zip(breaks[:-1], breaks[1:]):
        if b > a:
            total += _integrate_panel(integrand, a, b, tol / 3.0, budget)
    if return_details:
        return total, {"tail_bound": tail,
                       "subdivisions_used": spec.max_subdivisions - budget[0]}
    return total


def dispersion_residual(mode, sigma_g: complex) -> float:
    """Relative residual of 2 eps/k + i sigma/(eps0 omega) at mode.q in the
    one host medium mode.medium.

    The transverse constant is recomputed here from q alone, so this checks
    the solver's root without trusting its stored k.
    """
    omega = mode.excitation.angular_frequency
    q = complex(mode.q)
    eps = mode.medium.permittivity
    k = cmath.sqrt(q * q - omega * omega * eps / _C**2)
    if k.real < 0:
        k = -k
    drive = 1j * sigma_g / (_EPSILON_0 * omega)
    return abs(2.0 * eps / k + drive) / abs(drive)


def expm_reference(hamiltonian, a0, span: float) -> np.ndarray:
    """Evolve a0 under a constant effective Hamiltonian via eigendecomposition.

    Accepts either a plain complex matrix M or an object exposing
    effective_matrix(); computes exp(-i M span) a0 and verifies the
    eigendecomposition actually reconstructs M.
    """
    if hasattr(hamiltonian, "effective_matrix"):
        m = np.asarray(hamiltonian.effective_matrix(), dtype=complex)
    else:
        m = np.asarray(hamiltonian, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("hamiltonian must be a square matrix")
    if m.shape[0] > 8:
        raise ValueError("reference evolution is limited to dimension 8")
    a0 = np.asarray(a0, dtype=complex)
    norm = np.linalg.norm(m)
    if norm == 0.0:
        return a0.copy()
    vals, vecs = np.linalg.eig(m)
    try:
        coeffs = np.linalg.solve(vecs, a0)
        recon = (vecs * vals) @ np.linalg.inv(vecs)
    except np.linalg.LinAlgError as exc:
        raise OracleFailure("eigendecomposition failed") from exc
    if np.linalg.norm(recon - m) > 1e-12 * norm:
        raise OracleFailure("matrix is defective beyond tolerance; "
                            "eigendecomposition does not reconstruct it")
    return vecs @ (np.exp(-1j * vals * span) * coeffs)


def staircase_evolution(x_grid, omega1, omega2, a0, loss=0.0) -> np.ndarray:
    """Piecewise-constant reference propagation of the three-channel system.

    Each grid interval uses the midpoint couplings as a constant Hamiltonian
    applied through expm_reference. Second-order accurate in the grid spacing;
    a completely separate code path from the production integrator.
    """
    x = np.asarray(x_grid, dtype=float)
    o1 = np.asarray(omega1, dtype=float)
    o2 = np.asarray(omega2, dtype=float)
    a = np.asarray(a0, dtype=complex).copy()
    alpha = np.broadcast_to(np.asarray(loss, dtype=float), (3,))
    for j in range(len(x) - 1):
        h = x[j + 1] - x[j]
        w1 = 0.5 * (o1[j] + o1[j + 1])
        w2 = 0.5 * (o2[j] + o2[j + 1])
        m = np.array([[0.0, w1, 0.0],
                      [w1, 0.0, w2],
                      [0.0, w2, 0.0]], dtype=complex)
        m -= 1j * np.diag(alpha)
        a = expm_reference(m, a, h)
    return a
