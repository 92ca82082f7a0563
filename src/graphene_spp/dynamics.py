"""Propagation of the lossless coupled-amplitude equations i da/dx = H(x) a.

In the basis s = (a0, i a1, a2) the three-sheet chain is real: ds/dx =
[v]x s, the cross product with v = (-omega2, 0, omega1), a vector along the
dark state. Its flow is a rotation, so both device integrators step with
Magnus rotations (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009)),
each a unit quaternion from one helper, compose them as quaternions and
keep the norm to rounding. `propagate` records one device at every knot,
so each interval takes one 4th-order step from the couplings at its start,
exact midpoint and end: Omega = h/6 (v0 + 4 vm + v1) - h^2/12 vm x
(v1 - v0), the rotation by |Omega| about Omega, 4th order against the
continuous device; a prefix scan of the steps' quaternions gives the
rotation to every knot. The batch kernel keeps only the final amplitudes
of many devices, each started in the input sheet, so each pair of
intervals takes one 6th-order step from its five samples, knot, midpoint,
knot, midpoint, knot (Blanes, Casas & Ros, BIT 40, 434 (2000)): the error
falls 64x per halving of h, and the knot count must be 1 (mod 4). It
multiplies the steps' quaternions pairwise. Its devices are
mirror-symmetric, omega2 being omega1 reversed, so it integrates the right
half of each and gets the left half from that rotation by a fixed
conjugation; devices that differ only in length share one right half, so
a row records each of them at its own breakpoint. A step that turns by
more than _MAX_STEP_ANGLE per interval is an under-resolved run, where the
Magnus series stops converging:
`propagate` raises PropagationError, the batch kernel returns NaN for a
device with a pair step over _MAX_PAIR_ANGLE, the same limit per unit
length. A constant chain is two-channel, its RK4 step alpha I + beta
sigma_x, so its power is built by repeated squaring on (alpha, beta) pairs.

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


# The rotation by pi about (1, 0, 1)/sqrt(2) that maps a mirror-symmetric
# device's right half onto its left, as a quaternion (w, x, y, z).
_MIRROR = np.array([0.0, math.sqrt(0.5), 0.0, math.sqrt(0.5)])
# Steps per block of propagate's quaternion scan, one per interval. Blocks
# bound the scan's memory on long schedules; fewer, longer blocks take fewer
# scan levels (notes/decisions.md "One rotation algebra").
_STEP_BLOCK = 1024
# Largest rotation angle (rad) of one Magnus step over one interval. The
# Magnus series converges while the step's integral of ||A|| stays below pi.
_MAX_STEP_ANGLE = 1.0
# The same limit per unit length for propagate_batch_three's steps over a
# pair of intervals, still below pi. At the 65-knot probes a pair step
# turns by at most 0.82 rad on the 4b map and 0.64 rad on 4c; the
# stretch-4 probes of verify's two stretch searches turn by 1.96 and
# 1.84 rad.
_MAX_PAIR_ANGLE = 2.0 * _MAX_STEP_ANGLE


class PropagationError(RuntimeError):
    """Numerical failure during propagation (a blow-up, or a step over the
    resolution limit); carries the position."""

    def __init__(self, message: str, position: float):
        super().__init__(f"{message} at x = {position:.6e} m")
        self.position = position


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
        if np.ndim(alpha) != 0 or not 0 <= alpha < math.inf:
            raise ValueError("loss must be a finite scalar rate >= 0")
        x = self.x_grid
        envelope = np.exp(-float(alpha) * (x - x[0]))
        return Trajectory(x_grid=x, amplitudes=self.amplitudes
                          * envelope[:, None])


def _rotation_quaternions(s1, s2, twist):
    """Unit quaternions (4, ...) of the rotations by the Magnus vectors
    Omega = (-s2, twist, s1), and their angles |Omega| (...).

    s1 and s2 are Omega's omega1 and omega2 parts, twist its y component.
    The rotation by |Omega| about Omega is the quaternion
    (cos |Omega|/2, sin(|Omega|/2) Omega/|Omega|).
    """
    angle = np.sqrt(s1 * s1 + s2 * s2 + twist * twist)
    half = 0.5 * angle
    # a step of angle 0 has Omega = 0, whatever the scale
    scale = np.sin(half) / np.maximum(angle, np.finfo(float).tiny)
    # written in place: a stack of the four parts costs a third more here
    q = np.empty((4,) + angle.shape)
    np.cos(half, out=q[0])
    np.multiply(-scale, s2, out=q[1])
    np.multiply(scale, twist, out=q[2])
    np.multiply(scale, s1, out=q[3])
    return q, angle


def _magnus_quaternions(h, start1, mid1, end1, start2, mid2, end2):
    """Unit quaternions (4, ...) of 4th-order Magnus steps, and their
    rotation angles (...).

    Each step spans width h with the couplings omega1 and omega2 at its
    start, exact midpoint and end. The generator is [v]x with v = (-omega2,
    0, omega1), and [[a]x, [b]x] = [a x b]x, so the exponent
    h/6 (A0 + 4 Am + A1) - h^2/12 [Am, A1 - A0] is the vector
    Omega = (-S2, twist, S1): S_i = h/6 (omega_i start + 4 mid + end) and
    twist = h^2/12 (omega1 mid d omega2 - omega2 mid d omega1) over the
    step.
    """
    sixth = h / 6.0
    s1 = sixth * (start1 + 4.0 * mid1 + end1)
    s2 = sixth * (start2 + 4.0 * mid2 + end2)
    twist = (h * h / 12.0) * (mid1 * (end2 - start2) - mid2 * (end1 - start1))
    return _rotation_quaternions(s1, s2, twist)


def _pair_moments(width, a, b, c, d, e):
    """One coupling's parts of a pair step's Boole integral B^(0), of
    alpha1, alpha2 and of u = -20 alpha1 - alpha3 (see _pair_quaternions),
    from its samples a..e at the pair's start, first midpoint, shared knot,
    second midpoint and end. alpha1 = -3/2 B^(0) - u/8 follows from
    alpha1 + alpha3/12 = B^(0)."""
    outer, inner = a + e, b + d
    b0 = (width / 90.0) * (7.0 * outer + 32.0 * inner + 12.0 * c)
    u = (-4.0 * width) * (inner + inner + c)
    alpha1 = -1.5 * b0 - 0.125 * u
    alpha2 = (width / 15.0) * (7.0 * (e - a) + 16.0 * (d - b))
    return b0, alpha1, alpha2, u


def _pair_quaternions(width, samples1, samples2):
    """Unit quaternions (4, ...) of 6th-order Magnus steps over pairs of
    intervals, and their rotation angles (...).

    A pair of width H holds the couplings omega1 (samples1) and omega2
    (samples2) at tau = -1/2, -1/4, 0, 1/4, 1/2 of H about its centre: its
    start, first midpoint, shared knot, second midpoint and end. With the
    Boole moments B^(i) = H sum_k w_k tau_k^i A_k, w = (7, 32, 12, 32, 7)/90,
    the step of Blanes, Casas & Ros (BIT 40, 434 (2000); Phys. Rep. 470,
    151 (2009)) is
        alpha1 = 9/4 B^(0) - 15 B^(2), alpha2 = 12 B^(1),
        alpha3 = 180 B^(2) - 15 B^(0),
        C1 = [alpha1, alpha2], C2 = -1/60 [alpha1, 2 alpha3 + C1],
        Omega = alpha1 + alpha3/12
                + 1/240 [-20 alpha1 - alpha3 + C1, alpha2 + C2].
    (alpha1 is not B^(0): that silently gives a 2nd-order method.) Here
    alpha1 + alpha3/12 = B^(0), the pair's Boole integral, and
    u = -20 alpha1 - alpha3 = 120 B^(2) - 30 B^(0) = -4 H (2 (b + d) + c);
    alpha3 enters the brackets only as [alpha1, alpha3] = -[alpha1, u], so
    it is never formed.

    Every generator is [v]x with v = (-omega2, 0, omega1), and a bracket is
    the cross product. In the components (omega1 part, y, omega2 part), a
    right-handed frame, the alphas and u are (p_i, 0, r_i) and (u1, 0, u2),
    C1 = (0, c1, 0) with c1 = r1 p2 - p1 r2, and
    C2 = (r1 c1, 2 (r1 u1 - p1 u2), -p1 c1)/60; the last bracket is written
    out by components.
    """
    b0_1, p1, p2, u1 = _pair_moments(width, *samples1)
    b0_2, r1, r2, u2 = _pair_moments(width, *samples2)
    c1 = r1 * p2 - p1 * r2
    g = c1 / 60.0
    # W = alpha2 + C2, and [u + C1, W] / 240 completes Omega
    w1 = p2 + r1 * g
    wy = (r1 * u1 - p1 * u2) / 30.0
    w2 = r2 - p1 * g
    s1 = b0_1 + (c1 * w2 - u2 * wy) / 240.0
    twist = (u2 * w1 - u1 * w2) / 240.0
    s2 = b0_2 + (u1 * wy - c1 * w1) / 240.0
    return _rotation_quaternions(s1, s2, twist)


def _quaternion_product(p, q):
    """p q of two (4, ...) quaternion stacks: the rotation q, then p."""
    pw, px, py, pz = p
    qw, qx, qy, qz = q
    out = np.empty((4,) + np.broadcast_shapes(pw.shape, qw.shape))
    w, x, y, z = out
    np.multiply(pw, qw, out=w)
    w -= px * qx
    w -= py * qy
    w -= pz * qz
    np.multiply(pw, qx, out=x)
    x += px * qw
    x += py * qz
    x -= pz * qy
    np.multiply(pw, qy, out=y)
    y -= px * qz
    y += py * qw
    y += pz * qx
    np.multiply(pw, qz, out=z)
    z += px * qy
    z -= py * qx
    z += pz * qw
    return out


def _rotation_matrices(q):
    """(..., 3, 3) rotation matrices of a (4, ...) quaternion stack, each
    divided by its quaternion's squared norm so that it stays orthogonal
    to rounding however far a product has drifted from unit norm. For the
    step quaternion it is Rodrigues' I + sin t K + (1 - cos t) K^2."""
    w, x, y, z = q
    f = 2.0 / (w * w + x * x + y * y + z * z)
    r = np.empty(w.shape + (3, 3))
    r[..., 0, 0] = 1.0 - f * (y * y + z * z)
    r[..., 0, 1] = f * (x * y - w * z)
    r[..., 0, 2] = f * (x * z + w * y)
    r[..., 1, 0] = f * (x * y + w * z)
    r[..., 1, 1] = 1.0 - f * (x * x + z * z)
    r[..., 1, 2] = f * (y * z - w * x)
    r[..., 2, 0] = f * (x * z - w * y)
    r[..., 2, 1] = f * (y * z + w * x)
    r[..., 2, 2] = 1.0 - f * (x * x + y * y)
    return r


def _prefix_products(q):
    """The running products q0, q1 q0, q2 q1 q0, ... of a (4, ..., n)
    quaternion stack along its last axis, formed in place by a
    Hillis-Steele scan in ceil(log2 n) levels: the level of stride s = 1,
    2, 4, ... multiplies element j by element j - s, after which element j
    holds the product of up to 2s elements ending at j. Element j's
    association depends on j alone, not on n."""
    s = 1
    while s < q.shape[-1]:
        q[..., s:] = _quaternion_product(q[..., s:], q[..., :-s])
        s *= 2
    return q


def propagate(schedule: CouplingSchedule, initial,
              step: float | None = None) -> Trajectory:
    """Integrate the lossless three-channel system along the schedule.

    initial is the unit-norm vector of the three channel amplitudes. Each
    interval is one 4th-order Magnus step from the schedule's couplings at
    the interval's start, exact midpoint and end, so the run is 4th order
    against the continuous device and its resolution is the schedule's
    knots alone. step must stay None: the name stays only because
    `benchmark/tracer.py`'s COUNT_RULES binds it, and it goes with ROADMAP
    item 1; any other value raises ValueError. Loss is `Trajectory.damped`
    on the result. Raises PropagationError at the end of the first
    interval holding a step that turns by more than _MAX_STEP_ANGLE, or by
    a non-finite angle.

    In the basis s = (a0, i a1, a2) every step is a rotation, a unit
    quaternion. In blocks of _STEP_BLOCK intervals, a prefix scan
    (_prefix_products) over the steps gives the running rotation from the
    block's start to every knot, and its rotation matrix times the block's
    starting state records the trajectory there.
    """
    if step is not None:
        raise ValueError("step must be None: each interval is one Magnus "
                         "step")
    a = np.asarray(initial, dtype=complex)
    if a.shape != (3,):
        raise ValueError("schedule propagation drives a three-channel system")
    if not abs(float(np.sum(np.abs(a) ** 2)) - 1.0) <= 1e-6:
        raise ValueError("initial state must have unit norm for intensity "
                         "semantics")
    x = schedule.x_grid
    basis = np.array([1.0, 1j, 1.0])
    out = np.empty((len(x), 3), dtype=complex)
    out[0] = basis * a
    pairs = out.view(float).reshape(len(x), 3, 2)
    for j0 in range(0, len(x) - 1, _STEP_BLOCK):
        j1 = min(j0 + _STEP_BLOCK, len(x) - 1)
        knots1 = schedule.omega1[j0:j1 + 1]
        knots2 = schedule.omega2[j0:j1 + 1]
        with np.errstate(over="ignore", invalid="ignore"):
            q, angle = _magnus_quaternions(
                x[j0 + 1:j1 + 1] - x[j0:j1],
                knots1[:-1], schedule.omega1_mid[j0:j1], knots1[1:],
                knots2[:-1], schedule.omega2_mid[j0:j1], knots2[1:])
        over = np.flatnonzero(~(angle <= _MAX_STEP_ANGLE))
        if over.size:
            raise PropagationError(
                f"Magnus step angle {angle[over[0]]:.3g} rad over the "
                f"resolution limit {_MAX_STEP_ANGLE} rad",
                float(x[j0 + over[0] + 1]))
        steps = _prefix_products(q)
        pairs[j0 + 1:j1 + 1] = _rotation_matrices(steps) @ pairs[j0]
    out /= basis
    return Trajectory(x_grid=x.copy(), amplitudes=out)


def propagate_constant(couplings, span, n_steps: int = 4096):
    """Final amplitudes of lossless constant two-channel chains.

    couplings: (..., 1), one coupling C per chain; span: lengths that
    broadcast to (...). Every chain starts in channel 1 and takes n_steps
    RK4 steps of width h. With y = h C, the step of z = -i y sigma_x is
    alpha I + beta sigma_x, alpha = 1 - y^2/2 + y^4/24, beta = -i (y -
    y^3/6); such steps commute, so binary exponentiation runs on (alpha,
    beta) pairs. Returns the (..., 2) final amplitudes. More couplings per
    chain, a non-finite coupling or a non-integer n_steps raise ValueError;
    PropagationError names the span of the first non-finite chain.
    """
    c = np.asarray(couplings, dtype=float)
    span = np.asarray(span, dtype=float)
    if c.ndim == 0 or c.shape[-1] != 1:
        raise ValueError("constant chains are two-channel: one coupling "
                         "per chain, couplings (..., 1)")
    if not np.all(np.isfinite(c)):
        raise ValueError("couplings must be finite")
    if not np.all(np.isfinite(span) & (span >= 0)):
        raise ValueError("span must be finite and >= 0")
    if not (isinstance(n_steps, (int, np.integer)) and n_steps >= 1):
        raise ValueError("n_steps must be an integer >= 1")
    y = span / n_steps * c[..., 0]
    with np.errstate(over="ignore", invalid="ignore"):
        # the RK4 step's two parts, in Horner form
        y2 = y * y
        alpha = 1.0 - y2 / 2.0 * (1.0 - y2 / 12.0)
        beta = -1j * y * (1.0 - y2 / 6.0)
        a0, a1 = 1.0, 0.0  # n_steps >= 1 applies the step at least once
        while n_steps:
            if n_steps & 1:
                a0, a1 = alpha * a0 + beta * a1, beta * a0 + alpha * a1
            alpha, beta = alpha * alpha + beta * beta, 2.0 * alpha * beta
            n_steps >>= 1
    a = np.stack([a0, a1], axis=-1)
    bad = ~np.isfinite(a).all(axis=-1)
    if bad.any():
        position = np.broadcast_to(span, bad.shape)[bad][0]
        raise PropagationError("non-finite amplitude", float(position))
    return a


def two_level_analytic(coupling: float, span: float) -> tuple[float, float]:
    """Closed-form intensities (cos^2(C span), sin^2(C span)) of the
    constant-coupling two-channel system started in channel 1."""
    if not (math.isfinite(coupling) and 0 <= span < math.inf):
        raise ValueError("coupling must be finite, span finite and >= 0")
    phase = float(coupling) * float(span)
    return math.cos(phase) ** 2, math.sin(phase) ** 2


def dark_state(omega1: float, omega2: float) -> np.ndarray:
    """Zero-eigenvalue superposition (omega2, 0, -omega1)/sqrt(omega1^2+omega2^2)."""
    if not (math.isfinite(omega1) and math.isfinite(omega2)):
        raise ValueError("dark state needs finite couplings")
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


def _pairwise_product(q):
    """The product ... q2 q1 q0 of a (4, B, n) quaternion stack along its
    last axis, multiplied pairwise in log2 levels; an odd last element is
    carried to the next level. The association depends only on n, never
    on B, so each row's product is the same in any batch."""
    while q.shape[-1] > 1:
        n = q.shape[-1]
        paired = _quaternion_product(q[..., 1:n:2], q[..., 0:n - 1:2])
        q = np.concatenate([paired, q[..., -1:]], axis=-1) if n % 2 else paired
    return q[..., 0]


def propagate_batch_three(h, omega1, omega1_mid, substeps: int = 1,
                          breaks=None):
    """Lossless three-channel propagation of a batch of mirror-symmetric
    devices, each row recorded at one or more device lengths.

    omega1: (B, N) couplings at the knots, N = 4 P + 1 with P >= 1, so that
    x = 0 is a knot and each half is P whole pairs of intervals;
    omega1_mid: (B, N - 1) couplings at the interval midpoints. The arcs
    are mirror images, so omega2 is omega1 reversed and is not passed. h:
    the interval widths, (B,) one per row or (B, P) one per pair of the
    right half, the two intervals of a pair being equal. breaks: (M,)
    strictly increasing pair counts, the last P (default (P,)): member m of
    a row is the device whose right half is the row's first breaks[m]
    pairs, and whose left half is their mirror image. Every device starts
    in the input sheet, a = (1, 0, 0). Returns the final (B M, 3)
    amplitudes, member by member within each row; a member with a pair step
    over _MAX_PAIR_ANGLE before its breakpoint, or a non-finite one, gets a
    row of NaN. Any other N or breaks raises ValueError. substeps must stay
    the integer 1: the name stays only because `benchmark/tracer.py`'s
    COUNT_RULES binds it, and it goes with ROADMAP item 1; any other value
    raises ValueError.

    Each pair of consecutive intervals is one 6th-order Magnus step
    (_pair_quaternions) from its five samples, knot, midpoint, knot,
    midpoint, knot, so the error falls 64x per halving of h.

    Only the right half is integrated, once per row for all its members.
    A left pair and its mirror image swap omega1 and omega2 at every
    sample, and reverse tau: alpha1 and alpha3 are even moments and alpha2
    an odd one, so their Magnus vectors obey Omega_L = -M Omega_R, with M
    the rotation by pi about (1, 0, 1)/sqrt(2); the left half is then
    M U_R^T M and the device U_R M U_R^T M, the quaternion r m r* m,
    exactly for the discrete steps. |Omega_L| = |Omega_R|, so the angle
    guard sees every pair.

    The right half's unit quaternions are formed for the whole batch in
    one pass. Each segment between consecutive breakpoints is multiplied
    pairwise, in log2 levels (_pairwise_product), and the segment products
    are then chained in order by a prefix scan, whose m-th product depends
    only on the first m + 1 segments. So a member's result does not depend
    on the members after it, and a row's results do not depend on the
    batch it is run in, bit for bit. The pass holds a fixed multiple of
    the tables passed in: a heap peak of about 3.0x omega1 and omega1_mid
    together. The caller bounds the tables.

    In the basis (a0, i a1, a2) the input sheet is (1, 0, 0), so the
    final state is the first column of the member's rotation matrix.
    """
    if not (isinstance(substeps, (int, np.integer)) and substeps == 1):
        raise ValueError("substeps must be 1: each pair of intervals is one "
                         "pair step")
    omega1, omega1_mid = (np.asarray(omega, dtype=float)
                          for omega in (omega1, omega1_mid))
    batch, knots = omega1.shape
    if knots % 4 != 1 or knots < 5:
        raise ValueError("the knot count must be 1 (mod 4) and >= 5, so "
                         "that x = 0 is a knot and each half is whole "
                         "pairs of intervals")
    centre = knots // 2
    pairs = centre // 2
    breaks = np.array([pairs]) if breaks is None else np.asarray(breaks)
    if not (breaks.ndim == 1 and breaks.size >= 1
            and np.issubdtype(breaks.dtype, np.integer)
            and breaks[0] >= 1 and breaks[-1] == pairs
            and np.all(np.diff(breaks) > 0)):
        raise ValueError("breaks must be strictly increasing pair counts "
                         "that end at the half's pair count")
    breaks = breaks.tolist()
    # the right half's knots and midpoints; omega2 there is omega1's left
    # half reversed
    right1, right1_mid = omega1[:, centre:], omega1_mid[:, centre:]
    right2, right2_mid = omega1[:, centre::-1], omega1_mid[:, centre - 1::-1]
    width = np.broadcast_to(2.0 * np.asarray(h, dtype=float).reshape(
        batch, -1), (batch, pairs))
    with np.errstate(over="ignore", invalid="ignore"):
        # each pair's knot, midpoint, knot, midpoint, knot
        q, angle = _pair_quaternions(width, *(
            (knot[:, :-1:2], mid[:, 0::2], knot[:, 1::2], mid[:, 1::2],
             knot[:, 2::2])
            for knot, mid in ((right1, right1_mid), (right2, right2_mid))))
        # each row's first pair step over the limit, if any
        over = ~(angle <= _MAX_PAIR_ANGLE)
        first_over = np.where(over.any(axis=1), over.argmax(axis=1), pairs)
        r = _prefix_products(np.stack(
            [_pairwise_product(q[..., s0:s1])
             for s0, s1 in zip([0, *breaks[:-1]], breaks)], axis=-1))
    conjugate = r * np.array([1.0, -1.0, -1.0, -1.0])[:, None, None]
    mirror = _MIRROR[:, None, None]
    total = _quaternion_product(
        _quaternion_product(_quaternion_product(r, mirror), conjugate),
        mirror)
    a = _rotation_matrices(total)[..., 0] / np.array([1.0, 1j, 1.0])
    a[first_over[:, None] < np.array(breaks)] = np.nan
    return a.reshape(-1, 3)


def propagate_batch_two(coupling, span, n_steps: int):
    """`propagate_constant` on (B,) couplings and spans. It stays because
    the benchmark's tracer counts its calls as B x n_steps cell-steps."""
    return propagate_constant(np.asarray(coupling)[..., None], span, n_steps)
