"""Curved three-sheet device layout and the coupling schedule it induces.

The outer sheets are circular arcs facing a flat middle sheet; their local
separations d1(x), d2(x) reach the minimum gap d_min at x = +delta/2 and
x = -delta/2 respectively, which staggers the two coupling pulses along the
propagation axis.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .coupling import coupling_at_separations
from .dispersion import SppMode


# Separations per coupling_at_separations call of _omega1_table: each call
# holds a few complex temporaries of this size, so one mode shared by a
# whole chunk (the 4c map) must not become one call over every row.
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
    device fails the whole call with DeviceGeometry's message.
    """
    fields = {"radius": radius, "offset": offset, "min_gap": min_gap,
              "length": length}
    for name, value in fields.items():
        if not np.all(np.isfinite(value)):
            raise GeometryError(f"{name} must be finite")
    if not np.all(radius > 0):
        raise GeometryError("radius must be > 0")
    if not np.all(offset >= 0):
        raise GeometryError("offset must be >= 0")
    if not np.all(min_gap > 0):
        raise GeometryError("min_gap must be > 0")
    if not np.all(length > 0):
        raise GeometryError("length must be > 0")
    if not np.all(length / 2.0 + offset / 2.0 <= radius):
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
    if np.any(np.abs(u1) > geom.radius) or np.any(np.abs(u2) > geom.radius):
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
    exact couplings at the n - 1 interval midpoints, which the RK4 stages
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
    length = np.array([geom.length])
    samples = 2 * n_samples - 1
    omega1 = _omega1_table(length, np.array([geom.radius]),
                           np.array([geom.offset]), geom.min_gap, [mode],
                           np.zeros(1, dtype=int), samples,
                           k0_convention)[0]
    omega2 = omega1[::-1]
    x = _antisymmetric_grid(length, samples)[0]
    return CouplingSchedule(x_grid=x[::2], omega1=omega1[::2],
                            omega2=omega2[::2], omega1_mid=omega1[1::2],
                            omega2_mid=omega2[1::2])


def _antisymmetric_grid(length: np.ndarray, n_samples: int) -> np.ndarray:
    """(B, n) uniform grids over [-L/2, L/2], made exactly antisymmetric
    (x[:, ::-1] == -x bit for bit)."""
    x = np.linspace(-length / 2.0, length / 2.0, n_samples, axis=1)
    return 0.5 * (x - x[:, ::-1])


def _omega1_table(length, radius, offset, min_gap: float, modes, mode_index,
                  n_samples: int, k0_convention: str) -> np.ndarray:
    """(B, n) table of omega1 = |Re C(d1(x))| for a batch of devices.

    Row i is device (length[i], radius[i], offset[i]) at the shared min_gap,
    carrying modes[mode_index[i]], sampled on its antisymmetric grid; its
    omega2 is the row reversed. The layouts and the table are validated
    once per call. Separations are computed once per distinct layout, and
    the coupling once per mode over that mode's rows, in calls of at most
    _COUPLING_BLOCK samples: whole rows, or column blocks of a longer row.
    """
    if n_samples < 64:
        raise ValueError("n_samples must be at least 64")
    length, radius, offset = (np.asarray(v, dtype=float)
                              for v in (length, radius, offset))
    _check_layout(radius, offset, min_gap, length)
    layouts, row = np.unique(np.stack([length, radius, offset], axis=1),
                             axis=0, return_inverse=True)
    length, radius, offset = (layouts[:, [i]] for i in range(3))
    d1 = _arc_gap(_antisymmetric_grid(length[:, 0], n_samples)
                  - offset / 2.0, radius, min_gap)
    omega1 = np.full((row.size, n_samples), np.nan)
    rows = max(1, _COUPLING_BLOCK // n_samples)
    width = min(n_samples, _COUPLING_BLOCK)
    for m, mode in enumerate(modes):
        cells = np.flatnonzero(mode_index == m)
        for start in range(0, cells.size, rows):
            block = cells[start:start + rows]
            for col in range(0, n_samples, width):
                cols = slice(col, col + width)
                c, _ = coupling_at_separations(mode, d1[row[block], cols],
                                               k0_convention)
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
