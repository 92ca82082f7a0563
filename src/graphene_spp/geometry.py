"""Curved three-sheet device layout and the coupling schedule it induces.

The outer sheets are circular arcs facing a flat middle sheet; their local
separations d1(x), d2(x) reach the minimum gap d_min at x = +delta/2 and
x = -delta/2 respectively, which staggers the two coupling pulses along the
propagation axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .coupling import _couplings, _mode_factors
from .dispersion import SppMode


# Separations per overlap_integral call of _omega1_table: each call holds a
# few complex temporaries of this size, so a whole chunk (the 4c map) must
# not become one call over every row.
_COUPLING_BLOCK = 8192


class GeometryError(ValueError):
    """Device geometry violates its validity domain."""


@dataclass(frozen=True)
class DeviceGeometry:
    """Arc layout: radius R, peak offset delta, minimum gap, device length."""

    radius: float
    offset: float
    min_gap: float
    length: float

    def __post_init__(self) -> None:
        _check_layout(self.radius, self.offset, self.min_gap, self.length)


def _check_layout(radius, offset, min_gap, length) -> None:
    """Raise GeometryError unless every arc layout is valid.

    Each argument is a scalar or an array of per-device values; one failing
    device fails the whole call with DeviceGeometry's message. A layout of
    four floats is checked with plain comparisons, arrays with numpy.
    """
    fields = {"radius": radius, "offset": offset, "min_gap": min_gap,
              "length": length}
    scalar = all(isinstance(value, float) for value in fields.values())
    holds, finite = (bool, math.isfinite) if scalar else (np.all, np.isfinite)
    for name, value in fields.items():
        if not holds(finite(value)):
            raise GeometryError(f"{name} must be finite")
    if not holds(radius > 0):
        raise GeometryError("radius must be > 0")
    if not holds(offset >= 0):
        raise GeometryError("offset must be >= 0")
    if not holds(min_gap > 0):
        raise GeometryError("min_gap must be > 0")
    if not holds(length > 0):
        raise GeometryError("length must be > 0")
    if not holds(length / 2.0 + offset / 2.0 <= radius):
        raise GeometryError(
            "arcs do not span the device: require L/2 + offset/2 <= radius")


def _arc_gap(u, radius, min_gap):
    """Gap min_gap + R - sqrt(R^2 - u^2) between the flat sheet and an arc,
    at distance u along the axis from the arc's waist."""
    return (min_gap + radius) - np.sqrt(np.square(radius) - np.square(u))


def sheet_separations(geom: DeviceGeometry, x):
    """(d1, d2) at position(s) x; each arc must contain x in its domain."""
    x = np.asarray(x, dtype=float)
    u1 = x - geom.offset / 2.0
    u2 = x + geom.offset / 2.0
    if not (np.all(np.abs(u1) <= geom.radius)
            and np.all(np.abs(u2) <= geom.radius)):
        raise GeometryError("position outside the arc domain")
    d1 = _arc_gap(u1, geom.radius, geom.min_gap)
    d2 = _arc_gap(u2, geom.radius, geom.min_gap)
    if d1.ndim == 0:
        return float(d1), float(d2)
    return d1, d2


@dataclass(frozen=True)
class CouplingSchedule:
    """Sampled coupling strengths along the device.

    omega1 couples input and middle sheets, omega2 couples middle and output;
    both are sampled at the knots x_grid. omega1_mid and omega2_mid are the
    exact couplings at the n - 1 interval midpoints, which the Magnus steps
    need to see the continuous device.
    """

    x_grid: np.ndarray
    omega1: np.ndarray
    omega2: np.ndarray
    omega1_mid: np.ndarray
    omega2_mid: np.ndarray

    def __post_init__(self) -> None:
        # Contiguous copies of strided views: numpy's vectorized arctan2 and
        # friends can round strided input differently in the last bit.
        names = [field.name for field in fields(self)]
        x, o1, o2, mid1, mid2 = values = [
            np.ascontiguousarray(getattr(self, name), dtype=float)
            for name in names]
        if not (len(x) == len(o1) == len(o2)) or len(x) < 2:
            raise ValueError("schedule arrays must share a length >= 2")
        if not len(mid1) == len(mid2) == len(x) - 1:
            raise ValueError("midpoint couplings must have one sample per "
                             "interval")
        if np.any(np.diff(x) <= 0):
            raise ValueError("x_grid must be strictly increasing")
        couplings = values[1:]
        if not all(np.all(np.isfinite(o)) for o in couplings):
            raise ValueError("couplings must be finite")
        if any(np.any(o < 0) for o in couplings):
            raise ValueError("couplings must be non-negative")
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)

    @property
    def spacing(self) -> float:
        return float(self.x_grid[1] - self.x_grid[0])


def build_schedule(geom: DeviceGeometry, mode: SppMode, n_samples: int = 4096,
                   k0_convention: str = "vacuum") -> CouplingSchedule:
    """Sample Omega_i(x) = |Re C(d_i(x))| on a uniform grid over [-L/2, L/2].

    The one-device view of the schedule table that every three-sheet run
    is built from (_omega1_table): one row of 2 n_samples - 1 samples,
    whose even samples are the knots and whose odd samples are the exact
    interval midpoints. The linspace step L/(2n - 2) is exactly half of
    L/(n - 1), so the knots are, bit for bit, the grid, separations and
    couplings of an n_samples table row. The arcs are mirror images,
    d2(x) = d1(-x), so on the exactly antisymmetric grid omega2 is omega1
    reversed.
    """
    if n_samples < 64:
        raise ValueError("n_samples must be at least 64")
    x = _antisymmetric_grid(np.array([geom.length]), 2 * n_samples - 1)
    omega1 = _omega1_table(x, np.array([geom.radius]),
                           np.array([geom.offset]), geom.min_gap, [mode],
                           np.zeros(1, dtype=int), k0_convention)[0]
    omega2 = omega1[::-1]
    return CouplingSchedule(x_grid=x[0, ::2], omega1=omega1[::2],
                            omega2=omega2[::2], omega1_mid=omega1[1::2],
                            omega2_mid=omega2[1::2])


def _antisymmetric_grid(length: np.ndarray, n_samples: int) -> np.ndarray:
    """(B, n) uniform grids over [-L/2, L/2], made exactly antisymmetric
    (x[:, ::-1] == -x bit for bit)."""
    x = np.linspace(-length / 2.0, length / 2.0, n_samples, axis=1)
    return 0.5 * (x - x[:, ::-1])


def _member_breaks(lengths, knots: int) -> np.ndarray:
    """(M,) pair steps of a lattice's right half up to each member's end.

    lengths: (M,) member lengths, strictly increasing. The shortest
    member's half takes (knots - 1)/4 pairs, as its own knots-knot grid
    does; each gap between consecutive member half-lengths then takes
    ceil(gap / 2 h0) pairs, h0 = L0/(knots - 1), and at least one.
    """
    lengths = np.asarray(lengths, dtype=float)
    half, h0 = lengths / 2.0, lengths[0] / (knots - 1)
    # a gap of a whole number of pairs must not gain one by rounding, and
    # a gap below the slack still takes one
    gaps = np.maximum(np.ceil(np.diff(half) / (2.0 * h0) - 1e-12), 1.0)
    return (knots - 1) // 4 + np.concatenate([[0], np.cumsum(gaps)]).astype(
        int)


def _length_lattice(length, knots: int):
    """Mirrored sample rows of groups of devices that differ only in length.

    length: (G, M) member lengths, strictly increasing along each row and,
    when M > 1, the same in every row (one group per value of a sweep's
    other axis); knots is 1 (mod 4). A group's devices share the arc gap
    d1(x), which does not depend on L, so one row serves them all. Its
    right half is the shortest member's: the right half of its knots-knot
    grid, taken from the same _antisymmetric_grid values, so that a
    one-member group's row is that grid bit for bit. Each gap between
    consecutive member half-lengths then takes _member_breaks' pairs, equal
    and ending exactly at the next half-length L_j/2, so that no pair is
    wider than a member's own pair. A pair is four samples: midpoint, knot,
    midpoint, knot.

    Returns (x, h, breaks): x (G, n) the rows, the right half X mirrored as
    concat(-X[::-1], X[1:]), so exactly antisymmetric and omega2 is the
    table row reversed; h (G, P) the interval width of each pair of the
    right half, L0/(knots - 1) on the shortest member's half; breaks (M,)
    the pairs up to each member's end, the last P. A row depends on its
    own lengths alone, so when every row of length equals the first (a 4b
    map's groups, or a 4c map's one-member groups of one length) the
    first row is built once and x and h are read-only broadcast views of
    it.
    """
    length = np.asarray(length, dtype=float)
    if length.shape[0] > 1 and np.all(length == length[0]):
        x, h, breaks = _length_lattice(length[:1], knots)
        return (np.broadcast_to(x, (length.shape[0], x.shape[1])),
                np.broadcast_to(h, (length.shape[0], h.shape[1])), breaks)
    breaks = _member_breaks(length[0], knots)
    first = breaks[0]
    x = _antisymmetric_grid(length[:, 0], 2 * knots - 1)[:, knots - 1:]
    h = np.broadcast_to(length[:, :1] / (knots - 1), (length.shape[0], first))
    # each gap's samples as fractions of the gap, in gap order
    counts = np.diff(breaks)
    gap = np.repeat(np.arange(counts.size), 4 * counts)
    k = np.arange(gap.size) - np.repeat(4 * (breaks[:-1] - first), 4 * counts)
    fraction = (k + 1.0) / np.repeat(4 * counts, 4 * counts)
    half = length / 2.0
    tail = half[:, gap] + (half[:, gap + 1] - half[:, gap]) * fraction
    # the gaps end exactly at the members' half-lengths
    tail[:, 4 * (breaks[1:] - first) - 1] = half[:, 1:]
    right = np.concatenate([x, tail], axis=1)
    pair_gap = np.repeat(np.arange(counts.size), counts)
    widths = (half[:, pair_gap + 1] - half[:, pair_gap]) / (2.0 * counts[
        pair_gap])
    return (np.concatenate([-right[:, :0:-1], right], axis=1),
            np.concatenate([h, widths], axis=1), breaks)


def _rider_lattice(length, knots: int, breaks):
    """Rows of one-device runs that ride along a batch with the given
    breaks, in the same table and kernel call.

    length: (R,) device lengths; knots: each run's own knot count, whose
    right half takes P_r = (knots - 1)/4 pairs. A rider's row is its own
    knots-knot grid (_antisymmetric_grid, a one-member group's
    _length_lattice row bit for bit), centred in the batch's row width of
    8 breaks[-1] + 1 samples and padded at both ends with copies of its end
    samples; the padding's pairs have width 0. So 2 x[:, -1] is still the
    device's length, the row is still exactly antisymmetric, and each
    padding pair is a rotation by angle 0, (1, -+0, +-0, +-0), whose
    product with any quaternion is that quaternion up to the signs of its
    zero parts. When P_r is a power of two and at most breaks[0],
    propagate_batch_three's pairwise product of the first segment holds the
    rider's P_r pairs as one complete subtree, formed as in the run alone,
    so the rider's first member is its run alone bit for bit. Any other
    knots raise ValueError.

    Returns (x, h): x (R, 8 breaks[-1] + 1) and h (R, breaks[-1]).
    """
    own, pairs = (knots - 1) // 4, int(breaks[-1])
    if knots != 4 * own + 1 or own < 1 or own & (own - 1) or own > breaks[0]:
        raise ValueError(f"a rider's {knots} knots must give a power-of-two "
                         f"pair count of at most the first segment's "
                         f"{breaks[0]}")
    length = np.asarray(length, dtype=float)
    pad, end = 4 * (pairs - own), 4 * (pairs + own) + 1
    x = np.empty((length.size, 8 * pairs + 1))
    x[:, pad:end] = _antisymmetric_grid(length, 2 * knots - 1)
    x[:, :pad], x[:, end:] = x[:, pad:pad + 1], x[:, end - 1:end]
    h = np.zeros((length.size, pairs))
    h[:, :own] = length[:, None] / (knots - 1)
    return x, h


def _omega1_table(x, radius, offset, min_gap: float, modes, mode_index,
                  k0_convention: str) -> np.ndarray:
    """(B, n) table of omega1 = |Re C(d1(x))| for a batch of devices.

    Row i samples device (radius[i], offset[i]) at the shared min_gap,
    carrying modes[mode_index[i]], at the positions x[i], an exactly
    antisymmetric row (x[i, ::-1] == -x[i]: _antisymmetric_grid or
    _length_lattice), so that its omega2 is the row reversed. The layouts,
    of length 2 x[:, -1], mode_index (one index into modes per device) and
    the table are validated once per call. Each mode's k and coupling
    prefactor are computed once; the rows then go out in _couplings calls
    of at most _COUPLING_BLOCK samples, whatever modes they carry: blocks
    of whole rows, or column blocks of a longer row, each row with its own
    mode's k and prefactor broadcast along it.
    """
    x = np.asarray(x, dtype=float)
    n_samples = x.shape[1]
    if n_samples < 64:
        raise ValueError("a table row must hold at least 64 samples")
    radius, offset = (np.asarray(v, dtype=float) for v in (radius, offset))
    _check_layout(radius, offset, min_gap, 2.0 * x[:, -1])
    mode_index = np.asarray(mode_index)
    if (mode_index.shape != (x.shape[0],)
            or not np.issubdtype(mode_index.dtype, np.integer)
            or not np.all((0 <= mode_index) & (mode_index < len(modes)))):
        raise ValueError("mode_index must hold one index into modes per "
                         "device")
    d1 = _arc_gap(x - offset[:, None] / 2.0, radius[:, None], min_gap)
    k, scale = (np.array(factor, dtype=complex)[mode_index, None]
                for factor in _mode_factors(modes, k0_convention))
    # Every cell is written below: the row blocks cover the rows, and the
    # column blocks each row.
    omega1 = np.empty(x.shape)
    rows = max(1, _COUPLING_BLOCK // n_samples)
    width = min(n_samples, _COUPLING_BLOCK)
    for row in range(0, x.shape[0], rows):
        block = slice(row, row + rows)
        # a block of one mode's rows takes its k and scale as (1, 1): numpy
        # multiplies by a (rows, 1) column at a third of the speed, which
        # slowed the one-mode 4c map by ~5%
        factors = (slice(row, row + 1)
                   if np.all(mode_index[block] == mode_index[row]) else block)
        for col in range(0, n_samples, width):
            cols = slice(col, col + width)
            c = _couplings(k[factors], scale[factors], d1[block, cols])
            omega1[block, cols] = np.abs(c.real)
    if not np.all(np.isfinite(omega1)):
        raise ValueError("couplings must be finite")
    return omega1


@dataclass(frozen=True)
class AdiabaticityReport:
    """Mixing angle theta = atan2(omega1, omega2) and the local adiabaticity
    margin |dtheta/dx|/sqrt(omega1^2 + omega2^2); small margin means the dark
    state is followed faithfully."""

    x_grid: np.ndarray
    mixing_angle: np.ndarray
    margin: np.ndarray
    unreliable: np.ndarray

    @property
    def max_margin(self) -> float:
        reliable = self.margin[~self.unreliable]
        return float(reliable.max()) if reliable.size else float("nan")


def adiabaticity_report(schedule: CouplingSchedule) -> AdiabaticityReport:
    """Pointwise mixing angle and margin; dtheta/dx by central differences.

    Points where both couplings vanish produce no meaningful margin; they are
    flagged unreliable instead of raising.
    """
    theta = np.arctan2(schedule.omega1, schedule.omega2)
    dtheta = np.gradient(theta, schedule.x_grid)
    rms = np.hypot(schedule.omega1, schedule.omega2)
    unreliable = rms == 0.0
    margin = np.zeros_like(rms)
    np.divide(np.abs(dtheta), rms, out=margin, where=~unreliable)
    return AdiabaticityReport(x_grid=schedule.x_grid, mixing_angle=theta,
                              margin=margin, unreliable=unreliable)
