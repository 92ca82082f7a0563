"""Curved three-sheet device layout and the coupling schedule it induces.

The outer sheets are circular arcs facing a flat middle sheet; their local
separations d1(x), d2(x) reach the minimum gap d_min at x = +delta/2 and
x = -delta/2 respectively, which staggers the two coupling pulses along the
propagation axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coupling import coupling_at_separations
from .dispersion import SppMode


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
        if not self.radius > 0:
            raise GeometryError("radius must be > 0")
        if not self.offset >= 0:
            raise GeometryError("offset must be >= 0")
        if not self.min_gap > 0:
            raise GeometryError("min_gap must be > 0")
        if not self.length > 0:
            raise GeometryError("length must be > 0")
        if not self.length / 2.0 + self.offset / 2.0 <= self.radius:
            raise GeometryError(
                "arcs do not span the device: require L/2 + offset/2 <= radius")


def sheet_separations(geom: DeviceGeometry, x):
    """(d1, d2) at position(s) x; each arc must contain x in its domain."""
    x = np.asarray(x, dtype=float)
    u1 = x - geom.offset / 2.0
    u2 = x + geom.offset / 2.0
    if np.any(np.abs(u1) > geom.radius) or np.any(np.abs(u2) > geom.radius):
        raise GeometryError("position outside the arc domain")
    base = geom.min_gap + geom.radius
    d1 = base - np.sqrt(geom.radius**2 - u1**2)
    d2 = base - np.sqrt(geom.radius**2 - u2**2)
    if d1.ndim == 0:
        return float(d1), float(d2)
    return d1, d2


@dataclass(frozen=True)
class CouplingSchedule:
    """Sampled coupling strengths along the device.

    omega1 couples input and middle sheets, omega2 couples middle and output.
    """

    x_grid: np.ndarray
    omega1: np.ndarray
    omega2: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.x_grid, dtype=float)
        o1 = np.asarray(self.omega1, dtype=float)
        o2 = np.asarray(self.omega2, dtype=float)
        if not (len(x) == len(o1) == len(o2)) or len(x) < 2:
            raise ValueError("schedule arrays must share a length >= 2")
        if np.any(np.diff(x) <= 0):
            raise ValueError("x_grid must be strictly increasing")
        if not (np.all(np.isfinite(o1)) and np.all(np.isfinite(o2))):
            raise ValueError("couplings must be finite")
        if np.any(o1 < 0) or np.any(o2 < 0):
            raise ValueError("couplings must be non-negative")
        object.__setattr__(self, "x_grid", x)
        object.__setattr__(self, "omega1", o1)
        object.__setattr__(self, "omega2", o2)

    @property
    def spacing(self) -> float:
        return float(self.x_grid[1] - self.x_grid[0])


def build_schedule(geom: DeviceGeometry, mode: SppMode, n_samples: int = 4096,
                   k0_convention: str = "vacuum") -> CouplingSchedule:
    """Sample Omega_i(x) = |Re C(d_i(x))| on a uniform grid over [-L/2, L/2].

    This is the one place a device becomes couplings. The arcs are mirror
    images, d2(x) = d1(-x), so on a grid made exactly antisymmetric
    (x[::-1] == -x bit for bit) omega2 is omega1 reversed: the coupling is
    evaluated on d1 alone, and the result equals evaluating it on d2.
    """
    if n_samples < 64:
        raise ValueError("n_samples must be at least 64")
    x = np.linspace(-geom.length / 2.0, geom.length / 2.0, n_samples)
    x = 0.5 * (x - x[::-1])
    d1, _ = sheet_separations(geom, x)
    c1, _ = coupling_at_separations(mode, d1, k0_convention)
    omega1 = np.abs(c1.real)
    return CouplingSchedule(x_grid=x, omega1=omega1,
                            omega2=omega1[::-1].copy())


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
