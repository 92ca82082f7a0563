"""Propagation of the lossless coupled-amplitude equations i da/dx = H(x) a.

Both device integrators are classic fixed-step RK4 whose stages take the
exact couplings at every knot and interval midpoint, so they see the
continuous device and are 4th order. `propagate` records one device at every
knot: in the basis (a0, i a1, a2) the chain is real, so each interval's step
is a real 3x3 matrix, and the trajectory is a blocked scan of their products.
The batch kernel steps many devices at once and keeps only their final
amplitudes. For a constant Hamiltonian one step is a fixed matrix, so a chain
is a power of it, built by repeated squaring.

Uniform damping commutes with H, so a(x) = exp(-alpha (x - x0)) a_lossless(x)
exactly. No integrator here carries loss: `Trajectory.damped` applies that
envelope to a recorded run, and sweeps apply exp(-2 alpha L) to their final
intensities in `experiments`, so one propagation serves every loss rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dispersion import SppMode
from .geometry import CouplingSchedule, DeviceGeometry, sheet_separations


# Knots per block of tabulated coupling factors in propagate_batch_three.
_KNOT_BLOCK = 32
# Intervals per block of step matrices in propagate, and steps per group of
# its scan's running products.
_STEP_BLOCK = 512
_SCAN_GROUP = 32


class PropagationError(RuntimeError):
    """Numerical blow-up during propagation; carries the position."""

    def __init__(self, message: str, position: float):
        super().__init__(f"{message} at x = {position:.6e} m")
        self.position = position


@dataclass(frozen=True)
class ChainHamiltonian:
    """Lossless nearest-neighbor chain: symmetric off-diagonal couplings."""

    couplings: tuple

    def __post_init__(self) -> None:
        couplings = tuple(float(c) for c in np.atleast_1d(self.couplings))
        if len(couplings) < 1:
            raise ValueError("need at least one coupling (two channels)")
        object.__setattr__(self, "couplings", couplings)

    @property
    def dimension(self) -> int:
        return len(self.couplings) + 1

    def matrix(self) -> np.ndarray:
        n = self.dimension
        h = np.zeros((n, n), dtype=float)
        for i, c in enumerate(self.couplings):
            h[i, i + 1] = c
            h[i + 1, i] = c
        return h


@dataclass(frozen=True)
class Trajectory:
    """Amplitudes recorded at every schedule knot."""

    x_grid: np.ndarray
    amplitudes: np.ndarray

    @property
    def intensities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    @property
    def final_intensities(self) -> np.ndarray:
        return np.abs(self.amplitudes[-1]) ** 2

    def damped(self, alpha) -> "Trajectory":
        """The trajectory under uniform amplitude decay rate alpha: the
        exact envelope exp(-alpha (x - x0)) on these amplitudes."""
        if np.ndim(alpha) != 0 or not alpha >= 0:
            raise ValueError("loss must be a scalar rate >= 0")
        x = self.x_grid
        envelope = np.exp(-float(alpha) * (x - x[0]))
        return Trajectory(x_grid=x, amplitudes=self.amplitudes
                          * envelope[:, None])


def _substeps_for(spacing: float, step: float | None) -> int:
    if step is None:
        return 1
    if step <= 0:
        raise ValueError("step must be > 0")
    if step > spacing * (1.0 + 1e-12):
        raise ValueError("step must not exceed the schedule grid spacing")
    return max(1, math.ceil(spacing / step - 1e-12))


def _chain_generators(omega1, omega2):
    """(..., 3, 3) real generators G of ds/dx = G s, where s = (a0, i a1,
    a2): the lossless chain da/dx = -i H a in a basis where it is real."""
    g = np.zeros(omega1.shape + (3, 3))
    g[..., 1, 0] = omega1
    g[..., 0, 1] = -omega1
    g[..., 1, 2] = omega2
    g[..., 2, 1] = -omega2
    return g


def _rk4_interval_matrices(h, g_start, g_mid, g_end):
    """(n, 3, 3) RK4 step matrices of ds/dx = G(x) s over n intervals of
    widths h, from the generators at each interval's start, midpoint and
    end: the classic stages applied to a matrix instead of a vector."""
    eye = np.eye(3)
    h = h[:, None, None]
    k1 = g_start
    k2 = g_mid @ (eye + 0.5 * h * k1)
    k3 = g_mid @ (eye + 0.5 * h * k2)
    k4 = g_end @ (eye + h * k3)
    return eye + h / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)


def _scan(steps, s0):
    """The states P_0 s0, P_1 P_0 s0, ... of a (n, 3, 3) stack of real step
    matrices P_j, with complex states held as real (3, 2) pairs of columns.

    The steps are split into groups of _SCAN_GROUP; the running products
    within every group are formed together, one matmul per position, and
    one carried state per group then gives every state by one broadcast
    product. Returns (n, 3, 2).
    """
    n = len(steps)
    groups = -(-n // _SCAN_GROUP)
    padded = np.empty((groups * _SCAN_GROUP, 3, 3))
    padded[:n] = steps
    padded[n:] = np.eye(3)
    padded = padded.reshape(groups, _SCAN_GROUP, 3, 3)
    products = np.empty_like(padded)
    products[:, 0] = padded[:, 0]
    for k in range(1, _SCAN_GROUP):
        np.matmul(padded[:, k], products[:, k - 1], out=products[:, k])
    carries = np.empty((groups, 3, 2))
    carries[0] = s0
    for g in range(1, groups):
        carries[g] = products[g - 1, -1] @ carries[g - 1]
    return (products @ carries[:, None]).reshape(-1, 3, 2)[:n]


def propagate(schedule: CouplingSchedule, initial,
              step: float | None = None) -> Trajectory:
    """Integrate the lossless three-channel system along the schedule.

    initial is the unit-norm vector of the three channel amplitudes. Each
    interval is one RK4 step whose stages take the schedule's couplings at
    the interval's start, exact midpoint and end, so the run is 4th order
    against the continuous device. step, when given, must not exceed the
    schedule spacing and is rounded to m = ceil(spacing / step) exact
    substeps; their couplings come from the quadratic through the start,
    midpoint and end samples, as in `propagate_batch_three`. Loss is
    `Trajectory.damped` on the result.

    In the basis s = (a0, i a1, a2) the chain is real, so every step is a
    real 3x3 matrix. They are built and scanned in blocks of _STEP_BLOCK
    intervals, and the trajectory is recorded at every knot.
    """
    a = np.asarray(initial, dtype=complex)
    if a.shape != (3,):
        raise ValueError("schedule propagation drives a three-channel system")
    if not abs(float(np.sum(np.abs(a) ** 2)) - 1.0) <= 1e-6:
        raise ValueError("initial state must have unit norm for intensity "
                         "semantics")
    x = schedule.x_grid
    m = _substeps_for(schedule.spacing, step)
    basis = np.array([1.0, 1j, 1.0])
    # couplings at every substep's start, midpoint and end fraction
    w_start, w_mid, w_end = _quadratic_weights(np.arange(2 * m + 1) / (2 * m))
    out = np.empty((len(x), 3), dtype=complex)
    out[0] = basis * a
    pairs = out.view(float).reshape(len(x), 3, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        for j0 in range(0, len(x) - 1, _STEP_BLOCK):
            j1 = min(j0 + _STEP_BLOCK, len(x) - 1)
            generators = _chain_generators(*(
                w_start * knots[j0:j1] + w_mid * mid[j0:j1]
                + w_end * knots[j0 + 1:j1 + 1]
                for knots, mid in ((schedule.omega1, schedule.omega1_mid),
                                   (schedule.omega2, schedule.omega2_mid))))
            h = (x[j0 + 1:j1 + 1] - x[j0:j1]) / m
            steps = _rk4_interval_matrices(h, *generators[0:3])
            for i in range(2, 2 * m, 2):
                steps = _rk4_interval_matrices(
                    h, *generators[i:i + 3]) @ steps
            pairs[j0 + 1:j1 + 1] = _scan(steps, pairs[j0])
    bad = np.flatnonzero(~np.isfinite(out).all(axis=1))
    if bad.size:
        raise PropagationError("non-finite amplitude", float(x[bad[0]]))
    out /= basis
    return Trajectory(x_grid=x.copy(), amplitudes=out)


def _rk4_step_matrix(generator, h):
    """One RK4 step of da/dx = A a for constant A: the matrix
    I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24, batched over leading axes."""
    z = np.asarray(h)[..., None, None] * generator
    eye = np.eye(z.shape[-1])
    p = eye
    for order in (4.0, 3.0, 2.0, 1.0):
        p = eye + z @ p / order
    return p


def propagate_constant(hamiltonian: ChainHamiltonian, initial,
                       span: float, n_steps: int = 4096) -> Trajectory:
    """Constant-Hamiltonian propagation for any chain dimension."""
    if span < 0:
        raise ValueError("span must be >= 0")
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    a = np.asarray(initial, dtype=complex)
    m = hamiltonian.matrix()
    if a.shape != (m.shape[0],):
        raise ValueError("initial state dimension does not match the chain")
    x = np.linspace(0.0, span, n_steps + 1)
    out = np.empty((n_steps + 1, a.size), dtype=complex)
    out[0] = a
    # out[k:2k] = out[:k] (P^k)^T fills the knots in log2(n_steps) products
    k = 1
    with np.errstate(over="ignore", invalid="ignore"):
        power = _rk4_step_matrix(-1j * m, span / n_steps).T
        while k <= n_steps:
            out[k:2 * k] = out[:min(k, n_steps + 1 - k)] @ power
            power, k = power @ power, 2 * k
    bad = np.flatnonzero(~np.isfinite(out[1:]).all(axis=1))
    if bad.size:
        raise PropagationError("non-finite amplitude", float(x[bad[0] + 1]))
    return Trajectory(x_grid=x, amplitudes=out)


def two_level_analytic(coupling: float, span: float) -> tuple[float, float]:
    """Closed-form intensities (cos^2(C span), sin^2(C span)) of the
    constant-coupling two-channel system started in channel 1."""
    if span < 0:
        raise ValueError("span must be >= 0")
    phase = float(coupling) * float(span)
    return math.cos(phase) ** 2, math.sin(phase) ** 2


def dark_state(omega1: float, omega2: float) -> np.ndarray:
    """Zero-eigenvalue superposition (omega2, 0, -omega1)/sqrt(omega1^2+omega2^2)."""
    norm = math.hypot(omega1, omega2)
    if norm == 0.0:
        raise ValueError("dark state undefined when both couplings vanish")
    return np.array([omega2, 0.0, -omega1], dtype=complex) / norm


def field_map(trajectory: Trajectory, geom: DeviceGeometry, mode: SppMode,
              z_grid, x_stride: int = 1) -> np.ndarray:
    """|Psi(x, z)|^2 of the superposed sheet modes on the (x, z) grid.

    Sheet elevations: input at +d1(x), middle at 0, output at -d2(x). The
    common propagation phase cancels in the modulus; damping is carried by the
    amplitudes themselves, not repeated here. Returns an array of shape
    (len(x_grid[::x_stride]), len(z_grid)).
    """
    if x_stride < 1:
        raise ValueError("x_stride must be >= 1")
    z = np.asarray(z_grid, dtype=float)
    x = trajectory.x_grid[::x_stride]
    amps = trajectory.amplitudes[::x_stride]
    d1, d2 = sheet_separations(geom, x)
    elevations = np.stack([d1, np.zeros_like(x), -d2], axis=1)
    if z.min() > elevations.min() or z.max() < elevations.max():
        raise ValueError("z_grid must cover all three sheet elevations")
    psi = np.zeros((len(x), len(z)), dtype=complex)
    for i in range(3):
        dz = z[None, :] - elevations[:, i][:, None]
        psi += amps[:, i][:, None] * np.exp(-mode.k * np.abs(dz))
    psi /= mode.normalization
    return np.abs(psi) ** 2


def _quadratic_weights(fractions):
    """Lagrange weights at fractions t of the quadratic through an
    interval's start (t = 0), midpoint (t = 1/2) and end (t = 1), as a
    (3, len(t), 1) array."""
    t = np.asarray(fractions, dtype=float)[:, None]
    return np.stack([(2.0 * t - 1.0) * (t - 1.0), 4.0 * t * (1.0 - t),
                     t * (2.0 * t - 1.0)])


def propagate_batch_three(h, omega1, omega2, omega1_mid, omega2_mid, a_init,
                          substeps: int = 1):
    """Vectorized lossless three-channel integrator over a batch of devices.

    h: (B,) interval widths (uniform per device); omega1, omega2: (B, N)
    couplings at the knots; omega1_mid, omega2_mid: (B, N - 1) couplings at
    the interval midpoints; a_init: (B, 3). Returns the final (B, 3)
    amplitudes.

    With exact midpoint couplings the RK4 stages sample the continuous
    device, so the error falls 16x per halving of h. Substeps split an
    interval exactly and take their couplings from the quadratic through
    its start, midpoint and end samples.

    The channels sit in rows 1-3 of a zero-padded (5, B) array, so the chain
    product -1j H a is two elementwise products with shifted views. The
    -1j*omega factors are tabulated for a block of knots at a time.
    """
    omega1, omega2, omega1_mid, omega2_mid = (
        np.asarray(omega, dtype=float)
        for omega in (omega1, omega2, omega1_mid, omega2_mid))
    batch, knots = omega1.shape
    h = np.asarray(h, dtype=float) / substeps
    half = 0.5 * h
    sixth = h / 6.0
    a = np.zeros((5, batch), dtype=complex)
    a[1:4] = np.asarray(a_init, dtype=complex).T
    b = np.zeros((5, batch), dtype=complex)
    a_mid, b_mid = a[1:4], b[1:4]
    # weights of every substep's start, midpoint and end
    w_start, w_mid, w_end = _quadratic_weights(
        np.arange(2 * substeps + 1) / (2 * substeps))

    def rate(lower, upper, p):
        return lower * p[0:3] + upper * p[2:5]

    for j0 in range(0, knots - 1, _KNOT_BLOCK):
        j1 = min(j0 + _KNOT_BLOCK, knots - 1)
        # factors[j, f] holds (0, -1j*omega1, -1j*omega2, 0) at fraction f
        # of interval j0 + j: rows 0-2 multiply a[0:3], rows 1-3 a[2:5]
        factors = np.zeros((j1 - j0, 2 * substeps + 1, 4, batch),
                           dtype=complex)
        for row, omega, mid in ((1, omega1, omega1_mid),
                                (2, omega2, omega2_mid)):
            factors[:, :, row] = -1j * (
                w_start * omega[:, j0:j1].T[:, None]
                + w_mid * mid[:, j0:j1].T[:, None]
                + w_end * omega[:, j0 + 1:j1 + 1].T[:, None])
        lower_all = factors[:, :, 0:3]
        upper_all = factors[:, :, 1:4]
        for j in range(j1 - j0):
            lower = lower_all[j]
            upper = upper_all[j]
            for i in range(0, 2 * substeps, 2):
                k = rate(lower[i], upper[i], a)
                np.add(a_mid, half * k, out=b_mid)
                l = rate(lower[i + 1], upper[i + 1], b)
                np.add(a_mid, half * l, out=b_mid)
                m = rate(lower[i + 1], upper[i + 1], b)
                np.add(a_mid, h * m, out=b_mid)
                n = rate(lower[i + 2], upper[i + 2], b)
                a_mid += sixth * (k + 2.0 * (l + m) + n)
    return a_mid.T


def propagate_batch_two(coupling, span, n_steps: int):
    """Vectorized lossless constant-coupling two-channel integrator.

    coupling, span: (B,) arrays; starts in channel 1, returns (B, 2), the
    n_steps-th power of each cell's RK4 step matrix applied to (1, 0).
    """
    c = np.asarray(coupling, dtype=float)[..., None, None]
    generator = -1j * c * np.array([[0.0, 1.0], [1.0, 0.0]])
    power = _rk4_step_matrix(generator, np.divide(span, n_steps))
    a = np.array([[1.0], [0.0]])  # n_steps >= 1 applies power at least once
    while n_steps:
        if n_steps & 1:
            a = power @ a
        power, n_steps = power @ power, n_steps >> 1
    return a[..., 0]
