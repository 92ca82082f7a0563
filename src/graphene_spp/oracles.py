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


# The Gauss-Kronrod G7-K15 pair on [-1, 1] (Piessens et al., QUADPACK
# (1983)), listed from the outermost node to the centre: the Kronrod nodes,
# their weights, and the 7-point Gauss weights on every other node. Plain
# tuples: numpy calls at import would add resident memory to every command.
_HALF_NODES = (0.991455371120812639206854697526329,
               0.949107912342758524526189684047851,
               0.864864423359769072789712788640926,
               0.741531185599394439863864773280788,
               0.586087235467691130294144845693013,
               0.405845151377397166906606412076961,
               0.207784955007898467600689403773245,
               0.0)
_HALF_KRONROD = (0.022935322010529224963732008058970,
                 0.063092092629978553290700663189204,
                 0.104790010322250183839876322541518,
                 0.140653259715525918745189590510238,
                 0.169004726639267902826583426598550,
                 0.190350578064785409913256402421014,
                 0.204432940075298892414161999234649,
                 0.209482141084727828012999174891714)
_HALF_GAUSS = (0.0, 0.129484966168869693270611432679082,
               0.0, 0.279705391489276667901467771423780,
               0.0, 0.381830050505118944950369775488975,
               0.0, 0.417959183673469387755102040816327)
_NODES = tuple(-x for x in _HALF_NODES) + _HALF_NODES[-2::-1]
_KRONROD = _HALF_KRONROD + _HALF_KRONROD[-2::-1]
_GAUSS = _HALF_GAUSS + _HALF_GAUSS[-2::-1]


def overlap_quadrature(k_a: complex, k_b: complex, d: float,
                       spec: QuadratureSpec = QuadratureSpec(),
                       return_details: bool = False):
    """Numerically integrate exp(-k_a|z - d/2|) exp(-k_b|z + d/2|) over z.

    Adaptive G7-K15 on arrays: the panels start split at the profile kinks,
    every active panel's 15 nodes are evaluated in one call, and a panel is
    accepted when |K15 - G7| <= tol * width / span, else bisected. More than
    spec.max_subdivisions panels in all raises OracleFailure. The improper
    integral is truncated at 40 decay lengths beyond each profile centre; the
    details hold the analytic bound on the discarded tails, so the truncation
    is checkable, and the sum of the accepted |K15 - G7|.
    """
    k_a = complex(k_a)
    k_b = complex(k_b)
    ra, rb = k_a.real, k_b.real
    if not (ra > 0 and rb > 0
            and cmath.isfinite(k_a) and cmath.isfinite(k_b)):
        raise ValueError("decay constants must be finite with Re k > 0")
    if not 0 <= d < math.inf:
        raise ValueError("separation must be finite and non-negative")

    half_d = 0.5 * d
    def integrand(z: np.ndarray) -> np.ndarray:
        return np.exp(-k_a * np.abs(z - half_d) - k_b * np.abs(z + half_d))

    z_lo = -half_d - 40.0 / rb
    z_hi = half_d + 40.0 / ra
    # Exact exponential bounds on the two discarded tails.
    tail = (math.exp(-ra * (z_hi - half_d) - rb * (z_hi + half_d))
            + math.exp(-ra * (half_d - z_lo) - rb * (-half_d - z_lo))
            ) / (ra + rb)

    # Split at the profile kinks so every panel is analytic inside.
    breaks = np.array(sorted({z_lo, -half_d, half_d, z_hi}))
    scale = max(float(np.abs(integrand(np.array([-half_d, half_d]))).max()),
                1e-300)
    span = z_hi - z_lo
    tol = max(spec.absolute_tolerance, spec.relative_tolerance * scale * span)
    lo, hi = breaks[:-1], breaks[1:]
    nodes, kronrod_weights, gauss_weights = (
        np.array(table) for table in (_NODES, _KRONROD, _GAUSS))
    used = 0
    total = 0.0 + 0.0j
    estimate = 0.0
    while lo.size:
        used += lo.size
        if used > spec.max_subdivisions:
            raise OracleFailure("adaptive quadrature exhausted its panel "
                                "budget")
        centre = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        values = integrand(centre[:, None] + half[:, None] * nodes)
        kronrod = half * (values @ kronrod_weights)
        error = np.abs(kronrod - half * (values @ gauss_weights))
        if not np.all(np.isfinite(error)):
            raise OracleFailure("overlap integrand is not finite")
        done = error <= tol * (hi - lo) / span
        total += complex(kronrod[done].sum())
        estimate += float(error[done].sum())
        lo, hi = (np.concatenate([lo[~done], centre[~done]]),
                  np.concatenate([centre[~done], hi[~done]]))
    if return_details:
        return total, {"tail_bound": tail, "subdivisions_used": used,
                       "error_estimate": estimate}
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


def _propagators(stack: np.ndarray, spans: np.ndarray) -> np.ndarray:
    """exp(-i M_j h_j) for a (n, m, m) stack of complex matrices M_j.

    One batched eigendecomposition; every M_j must be reconstructed from its
    eigenpairs to 1e-12 relative, so a defective matrix fails loudly.
    """
    vals, vecs = np.linalg.eig(stack)
    try:
        inverse = np.linalg.inv(vecs)
    except np.linalg.LinAlgError as exc:
        raise OracleFailure("eigendecomposition failed") from exc
    misfit = np.linalg.norm((vecs * vals[:, None, :]) @ inverse - stack,
                            axis=(1, 2))
    if not np.all(misfit <= 1e-12 * np.linalg.norm(stack, axis=(1, 2))):
        raise OracleFailure("matrix is defective beyond tolerance; "
                            "eigendecomposition does not reconstruct it")
    phases = np.exp(-1j * vals * spans[:, None])
    return (vecs * phases[:, None, :]) @ inverse


def expm_reference(hamiltonian, a0, span: float) -> np.ndarray:
    """Evolve a0 under a constant effective Hamiltonian via eigendecomposition.

    hamiltonian is a square complex matrix M (a lossy one is H - i alpha I);
    computes exp(-i M span) a0 and verifies the eigendecomposition actually
    reconstructs M.
    """
    m = np.asarray(hamiltonian, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("hamiltonian must be a square matrix")
    if m.shape[0] > 8:
        raise ValueError("reference evolution is limited to dimension 8")
    if not (np.all(np.isfinite(m)) and math.isfinite(span)):
        raise ValueError("hamiltonian and span must be finite")
    step = _propagators(m[None], np.array([float(span)]))[0]
    return step @ np.asarray(a0, dtype=complex)


_STAIRCASE_BLOCK = 128


def staircase_evolution(x_grid, omega1, omega2, a0, loss=0.0) -> np.ndarray:
    """Piecewise-constant reference propagation of the three-channel system.

    omega1 and omega2 hold one coupling per interval (len(x_grid) - 1
    values), constant across it, with -i loss on the diagonal inside each
    interval's exponential. Fed the couplings at the interval midpoints,
    this is the midpoint rule for the continuous device; fed the knot
    averages, it is the reference for the linearly interpolated system.
    Either way it is second-order accurate in the grid spacing. The
    interval propagators come from batched eigendecompositions of
    (n, 3, 3) stacks of consecutive intervals; a completely separate code
    path from the production integrator.
    """
    x = np.asarray(x_grid, dtype=float)
    w1 = np.asarray(omega1, dtype=float)
    w2 = np.asarray(omega2, dtype=float)
    if (x.ndim != 1 or x.size < 2 or w1.shape != (x.size - 1,)
            or w2.shape != w1.shape):
        raise ValueError("x_grid must be a 1-D array of at least 2 knots, "
                         "and omega1 and omega2 must hold one coupling per "
                         "interval")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(w1))
            and np.all(np.isfinite(w2))):
        raise ValueError("x_grid, omega1 and omega2 must be finite")
    h = np.diff(x)
    if not np.all(h > 0):
        raise ValueError("x_grid must be strictly increasing")
    alpha = np.broadcast_to(np.asarray(loss, dtype=float), (3,))
    if not np.all(np.isfinite(alpha)):
        raise ValueError("loss must be finite")
    a = np.asarray(a0, dtype=complex)
    # Blocks of intervals bound the stacks' memory (about 1 kB per interval).
    for start in range(0, h.size, _STAIRCASE_BLOCK):
        part = slice(start, start + _STAIRCASE_BLOCK)
        stack = np.zeros((h[part].size, 3, 3), dtype=complex)
        stack[:, 0, 1] = stack[:, 1, 0] = w1[part]
        stack[:, 1, 2] = stack[:, 2, 1] = w2[part]
        stack[:, range(3), range(3)] = -1j * alpha
        for step in _propagators(stack, h[part]):
            a = step @ a
    return a
