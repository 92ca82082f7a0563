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


def overlap_quadrature(k_a, k_b, d, spec: QuadratureSpec = QuadratureSpec(),
                       return_details: bool = False):
    """Numerically integrate exp(-k_a|z - d/2|) exp(-k_b|z + d/2|) over z.

    k_a, k_b and d broadcast into a batch of cases. Adaptive G7-K15 on
    arrays: each case's panels start split at its profile kinks, the active
    panels of every case share one array with a case index, and each pass
    evaluates their 15 nodes in one call. A panel is accepted when
    |K15 - G7| <= tol * width / span with its own case's tol and span, else
    bisected. A case's accepted K15 values and |K15 - G7| are summed in the
    order its panels were made, so its value, estimate and panel count do
    not depend on the batch around it. More than spec.max_subdivisions
    panels for any one case raises OracleFailure. The improper integral is
    truncated at 40 decay lengths beyond each profile centre; the details
    hold the analytic bound on the discarded tails, so the truncation is
    checkable, and the sum of the accepted |K15 - G7|. Scalar input returns
    a complex and scalar details, array input arrays of the batch's shape.
    """
    k_a, k_b = (np.asarray(k, dtype=complex) for k in (k_a, k_b))
    d = np.asarray(d, dtype=float)
    shape = np.broadcast_shapes(k_a.shape, k_b.shape, d.shape)
    k_a, k_b, d = (np.broadcast_to(v, shape).ravel() for v in (k_a, k_b, d))
    ra, rb = k_a.real, k_b.real
    if not np.all((ra > 0) & (rb > 0)
                  & np.isfinite(k_a) & np.isfinite(k_b)):
        raise ValueError("decay constants must be finite with Re k > 0")
    if not np.all((0 <= d) & (d < math.inf)):
        raise ValueError("separation must be finite and non-negative")

    half_d = 0.5 * d
    def integrand(z: np.ndarray, case: np.ndarray) -> np.ndarray:
        h = half_d[case]
        return np.exp(-k_a[case] * np.abs(z - h) - k_b[case] * np.abs(z + h))

    z_lo = -half_d - 40.0 / rb
    z_hi = half_d + 40.0 / ra
    # Exact exponential bounds on the two discarded tails.
    tail = (np.exp(-ra * (z_hi - half_d) - rb * (z_hi + half_d))
            + np.exp(-ra * (half_d - z_lo) - rb * (-half_d - z_lo))
            ) / (ra + rb)
    cases = np.arange(d.size)
    scale = np.maximum(np.abs(integrand(np.stack([-half_d, half_d]),
                                        cases)).max(axis=0), 1e-300)
    span = z_hi - z_lo
    tol = np.maximum(spec.absolute_tolerance,
                     spec.relative_tolerance * scale * span)

    # Split at the profile kinks so every panel is analytic inside; the
    # middle panel is empty at d = 0.
    lo = np.concatenate([z_lo, -half_d, half_d])
    hi = np.concatenate([-half_d, half_d, z_hi])
    case = np.tile(cases, 3)
    keep = lo < hi
    lo, hi, case = lo[keep], hi[keep], case[keep]
    nodes = np.array(_NODES)[:, None]
    kronrod_weights = np.array(_KRONROD)[:, None]
    gauss_weights = np.array(_GAUSS[1::2])[:, None]
    used = np.zeros(d.size, dtype=int)
    total_re, total_im, estimate = np.zeros((3, d.size))
    while lo.size:
        used += np.bincount(case, minlength=d.size)
        if np.any(used > spec.max_subdivisions):
            raise OracleFailure("adaptive quadrature exhausted its panel "
                                "budget")
        centre = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        values = integrand(centre + half * nodes, case)
        # Node by node, so that every panel's sums round alike in any batch.
        kronrod = half * _node_sum(values * kronrod_weights)
        error = np.abs(kronrod - half * _node_sum(values[1::2]
                                                  * gauss_weights))
        if not np.all(np.isfinite(error)):
            raise OracleFailure("overlap integrand is not finite")
        done = error <= tol[case] * (hi - lo) / span[case]
        finished = case[done]
        total_re += np.bincount(finished, kronrod.real[done], d.size)
        total_im += np.bincount(finished, kronrod.imag[done], d.size)
        estimate += np.bincount(finished, error[done], d.size)
        lo, hi, case = (np.concatenate([lo[~done], centre[~done]]),
                        np.concatenate([centre[~done], hi[~done]]),
                        np.tile(case[~done], 2))
    total = np.empty(shape, dtype=complex)
    total.real, total.imag = total_re.reshape(shape), total_im.reshape(shape)
    details = {"tail_bound": tail.reshape(shape),
               "subdivisions_used": used.reshape(shape),
               "error_estimate": estimate.reshape(shape)}
    if not shape:
        total = complex(total)
        details = {key: value.item() for key, value in details.items()}
    if return_details:
        return total, details
    return total


def _node_sum(terms: np.ndarray) -> np.ndarray:
    """Sum a (nodes, panels) array over its nodes, in node order."""
    total = terms[0].copy()
    for row in terms[1:]:
        total += row
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
    """exp(-i M_j h_j) for a (..., m, m) stack of real or complex matrices
    M_j and spans h_j of the stack's leading shape.

    One batched eigendecomposition. A stack that equals its conjugate
    transpose exactly is Hermitian: `eigh` diagonalizes it, and the adjoint
    of its unitary eigenvector matrix is the inverse. Any other stack, a
    lossy one among them, takes `eig` and `inv`. On either path every M_j
    must be reconstructed from its eigenpairs to 1e-12 relative, so a
    defective matrix fails loudly.
    """
    try:
        if np.array_equal(stack, np.swapaxes(stack, -1, -2).conj()):
            vals, vecs = np.linalg.eigh(stack)
            inverse = np.swapaxes(vecs, -1, -2).conj()
        else:
            vals, vecs = np.linalg.eig(stack)
            inverse = np.linalg.inv(vecs)
    except np.linalg.LinAlgError as exc:
        raise OracleFailure("eigendecomposition failed") from exc
    misfit = np.linalg.norm((vecs * vals[..., None, :]) @ inverse - stack,
                            axis=(-2, -1))
    if not np.all(misfit <= 1e-12 * np.linalg.norm(stack, axis=(-2, -1))):
        raise OracleFailure("matrix is defective beyond tolerance; "
                            "eigendecomposition does not reconstruct it")
    phases = np.exp(-1j * vals * spans[..., None])
    return (vecs * phases[..., None, :]) @ inverse


def _ordered_product(steps: np.ndarray) -> np.ndarray:
    """U_n ... U_1 of a (n, m, m) stack U_1, ..., U_n, multiplied pairwise:
    each level multiplies neighbours in one call, an odd last one waits."""
    while len(steps) > 1:
        paired = steps[1::2] @ steps[:-1:2]
        steps = (np.concatenate([paired, steps[-1:]]) if len(steps) % 2
                 else paired)
    return steps[0]


def expm_reference(hamiltonian, a0, span) -> np.ndarray:
    """Evolve a0 under a constant effective Hamiltonian via eigendecomposition.

    hamiltonian is a square real or complex matrix M (a lossy one is
    H - i alpha I) or a (..., m, m) stack of them, and span a length or an
    array that broadcasts against the stack's leading shape; computes
    exp(-i M span) a0 for every matrix and span in one batch, (..., m), and
    verifies that the eigendecomposition actually reconstructs each M. Real
    input stays real, so a lossless chain is diagonalized as a real
    symmetric stack by `eigh`; a stack that is not exactly Hermitian takes
    `eig` (see `_propagators`).
    """
    m = np.asarray(hamiltonian)
    m = m.astype(complex if np.iscomplexobj(m) else float, copy=False)
    spans = np.asarray(span, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError("hamiltonian must be a square matrix or a stack "
                         "of them")
    if m.shape[-1] > 8:
        raise ValueError("reference evolution is limited to dimension 8")
    if not (np.all(np.isfinite(m)) and np.all(np.isfinite(spans))):
        raise ValueError("hamiltonian and span must be finite")
    shape = np.broadcast_shapes(m.shape[:-2], spans.shape)
    steps = _propagators(np.broadcast_to(m, shape + m.shape[-2:]),
                         np.broadcast_to(spans, shape))
    return steps @ np.asarray(a0, dtype=complex)


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
    (n, 3, 3) stacks of consecutive intervals. Without loss the stacks are
    real symmetric and `eigh` diagonalizes them. With loss the matrices
    H_j - i diag(loss) are not Hermitian and take `eig`, so the loss stays
    inside each exponential instead of becoming an envelope on the lossless
    result, which is the identity this reference checks. Each stack is
    reduced to its ordered product by a pairwise tree, and the products are
    applied in order; a completely separate code path from the production
    integrator.
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
    lossless = not np.any(alpha)
    a = np.asarray(a0, dtype=complex)
    # Blocks of intervals bound the stacks' memory (about 1 kB per interval).
    for start in range(0, h.size, _STAIRCASE_BLOCK):
        part = slice(start, start + _STAIRCASE_BLOCK)
        stack = np.zeros((h[part].size, 3, 3),
                         dtype=float if lossless else complex)
        stack[:, 0, 1] = stack[:, 1, 0] = w1[part]
        stack[:, 1, 2] = stack[:, 2, 1] = w2[part]
        if not lossless:
            stack[:, range(3), range(3)] = -1j * alpha
        a = _ordered_product(_propagators(stack, h[part])) @ a
    return a
