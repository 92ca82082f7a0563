"""Device-level experiments: STIRAP runs, comparator maps, robustness sweeps.

Sweeps are deterministic: cells are evaluated in a fixed order with a fixed
chunk size, so repeated runs of the same configuration produce bit-identical
grids. A "wavevector" axis is realized by numerically inverting the dispersion
relation (bisection on the excitation frequency) so that couplings and loss
stay self-consistent with the material model; the wavevector is never treated
as a free parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import RunConfig, config_hash
from .coupling import coupling_at_separations, coupling_coefficient
from .dispersion import ConvergenceError, NoBoundModeError, SppMode
from .dynamics import (AmplitudeState, Trajectory, propagate,
                       propagate_batch_three, propagate_batch_two)
from .geometry import CouplingSchedule, DeviceGeometry, build_schedule
from .materials import CONSTANTS, MaterialDomainError

AXIS_NAMES = ("wavevector_per_um", "length_um", "radius_nm", "offset_nm")

_CHUNK = 512
# Step-doubling knot choice of three-sheet sweeps (_sweep_knots): the first
# knot count probed and the output-intensity error estimate to reach.
_FIRST_KNOTS = 65
_KNOT_TOLERANCE = 2e-7
# Errors by which a trial frequency has no solvable bound mode.
_UNSOLVABLE = (NoBoundModeError, ConvergenceError, MaterialDomainError)


class ExperimentError(RuntimeError):
    """A sweep or inversion request cannot be satisfied."""


@dataclass(frozen=True)
class SweepAxis:
    """One named sweep axis with a strictly increasing value grid.

    Values are in the unit named by the suffix (per_um, um, nm).
    """

    name: str
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.name not in AXIS_NAMES:
            raise ExperimentError(f"unknown sweep axis {self.name!r}; "
                                  f"expected one of {AXIS_NAMES}")
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise ExperimentError("axis grid must be a non-empty vector")
        if not np.all(np.isfinite(values)) or np.any(values <= 0):
            raise ExperimentError("axis values must be finite and > 0")
        if values.size > 1 and np.any(np.diff(values) <= 0):
            raise ExperimentError("axis grid must be strictly increasing")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class SweepSpec:
    """Two sweep axes plus the fixed remainder of the configuration.

    Every cell reports the output-sheet intensity. layers selects the device:
    3 for the curved adiabatic chain, 2 for the parallel comparator at the
    configured minimum gap. fixed_wavevector_per_um,
    when set, pins the excitation to the frequency whose mode matches that
    wavevector (used when neither axis is the wavevector).
    """

    axis1: SweepAxis
    axis2: SweepAxis
    config: RunConfig
    layers: int = 3
    lossy: bool = False
    fixed_wavevector_per_um: float | None = None

    def __post_init__(self) -> None:
        if self.axis1.name == self.axis2.name:
            raise ExperimentError("sweep axes must differ")
        if self.layers not in (2, 3):
            raise ExperimentError("layers must be 2 or 3")
        names = {self.axis1.name, self.axis2.name}
        if self.layers == 2 and names & {"radius_nm", "offset_nm"}:
            raise ExperimentError("the parallel comparator has no curvature "
                                  "geometry to sweep")
        if (self.fixed_wavevector_per_um is not None
                and "wavevector_per_um" in names):
            raise ExperimentError("fixed wavevector conflicts with a "
                                  "wavevector axis")


@dataclass(frozen=True)
class SweepResult:
    """Output-intensity grid with shape (len(axis2), len(axis1)).

    Invalid-geometry cells hold NaN; metadata records their count together
    with the wavevector inversion table and the config hash. For the
    three-sheet device it also records nonfinite_cells, the geometry-valid
    cells whose output came out non-finite (a numerical blow-up, which
    would otherwise read as one more invalid cell), and the step-doubling
    knot choice: knots, knot_error_estimate and knot_tolerance.
    """

    spec: SweepSpec
    grid: np.ndarray
    metadata: dict


def wavevector_to_omega(config: RunConfig, target_q: float,
                        relative_tolerance: float = 1e-6) -> float:
    """Angular frequency whose bound mode has Re q equal to target_q (1/m).

    Bisection on omega; the seed exploits the roughly quadratic growth of the
    propagation constant with frequency. relative_tolerance bounds the
    delivered Re q, so the omega interval is tightened by the q ~ omega^2
    slope. Raises with the attainable range when the target cannot be
    bracketed.
    """
    if target_q <= 0:
        raise ExperimentError("target wavevector must be > 0")
    reference = config.solve_mode()
    omega_ref = reference.excitation.angular_frequency

    def attained(omega: float) -> float:
        return config.solve_mode(omega=omega).q.real

    seed = omega_ref * math.sqrt(target_q / reference.q.real)
    try:
        f_seed = attained(seed) - target_q
    except _UNSOLVABLE:
        seed = omega_ref
        f_seed = reference.q.real - target_q
    lo = hi = seed
    f_lo = f_hi = f_seed
    for _ in range(80):
        if f_lo <= 0:
            break
        lo *= 0.5
        try:
            f_lo = attained(lo) - target_q
        except _UNSOLVABLE:
            lo *= 2.0  # restore the last solvable frequency
            break
    for _ in range(80):
        if f_hi >= 0:
            break
        hi *= 2.0
        try:
            f_hi = attained(hi) - target_q
        except _UNSOLVABLE:
            hi *= 0.5
            break
    if f_lo > 0 or f_hi < 0:
        raise ExperimentError(
            f"wavevector {target_q * 1e-6:.4g} 1/um is outside the attainable "
            f"range [{(f_lo + target_q) * 1e-6:.4g}, "
            f"{(f_hi + target_q) * 1e-6:.4g}] 1/um for this material")
    if lo == hi:
        return lo
    return float(_bisect(lambda w: attained(w) - target_q, lo, hi, f_lo, f_hi,
                         xtol=1e-30, rtol=relative_tolerance / 4.0))


def _bisect(f, a: float, b: float, fa: float, fb: float, xtol: float,
            rtol: float) -> float:
    """Root of f in [a, b] by bisection, given fa = f(a) and fb = f(b).

    The iteration of scipy.optimize.bisect, so the same bracket and
    tolerances give the same float: halve the step from a, move a to the
    midpoint while f there has the sign of f(a), and stop once the step is
    below xtol + rtol |midpoint|, giving up after 100 halvings. Unlike
    scipy, the bracket ends are not evaluated again.
    """
    if math.isnan(fa) or math.isnan(fb):
        raise ExperimentError("bisection bracket has a NaN end value")
    if fa * fb > 0:
        raise ExperimentError("bisection bracket ends have the same sign")
    if fa == 0:
        return a
    if fb == 0:
        return b
    step = b - a
    for _ in range(100):
        step *= 0.5
        xm = a + step
        fm = f(xm)
        if math.isnan(fm):
            raise ExperimentError(f"bisection met NaN at {xm!r}")
        if fm * fa >= 0:
            a = xm
        if fm == 0 or abs(step) < xtol + rtol * abs(xm):
            return xm
    raise ExperimentError("bisection did not converge in 100 halvings")


def mode_at_wavevector(config: RunConfig, target_q: float) -> SppMode:
    """Bound mode whose Re q matches target_q (1/m) via frequency inversion."""
    omega = wavevector_to_omega(config, target_q)
    return config.solve_mode(omega=omega)


@dataclass(frozen=True)
class DeviceRun:
    """One lossless propagation through the curved three-sheet device.

    alpha = Im q is the mode's uniform damping rate; the lossy run is
    trajectory.damped(alpha).
    """

    mode: SppMode
    schedule: CouplingSchedule
    trajectory: Trajectory
    alpha: float


def run_device(config: RunConfig) -> DeviceRun:
    """Solve the mode, build the coupling schedule, and propagate (1, 0, 0)
    once, without loss."""
    mode = config.solve_mode()
    schedule = build_schedule(config.geometry(), mode, config.n_samples,
                              config.k0_convention)
    initial = AmplitudeState(np.array([1.0, 0.0, 0.0], dtype=complex))
    return DeviceRun(mode=mode, schedule=schedule,
                     trajectory=propagate(schedule, initial),
                     alpha=mode.q.imag)


def parallel_comparator(wavevector: float, length: float, separation: float,
                        config: RunConfig | None = None,
                        lossy: bool = False) -> float:
    """Output intensity of two parallel sheets after length L (meters).

    The two-channel system is integrated with the kernel and step count of
    the figure 4a map (n_samples - 1 steps); for the lossless case the
    result matches sin^2(C L) to the integrator tolerance.
    """
    if wavevector <= 0 or length <= 0 or separation <= 0:
        raise ExperimentError("wavevector, length, and separation must be > 0")
    if config is None:
        config = RunConfig()
    mode = mode_at_wavevector(config, wavevector)
    pair = coupling_coefficient(mode, separation, config.k0_convention)
    alpha = mode.q.imag if lossy else 0.0
    amps = propagate_batch_two(np.array([abs(pair.c12.real)]),
                               np.array([length]), np.array([alpha]),
                               max(config.n_samples - 1, 1))
    return float(np.abs(amps[0, 1]) ** 2)


def _axis_parameter(name: str, values: np.ndarray) -> np.ndarray:
    """Axis values converted to SI."""
    scale = {"wavevector_per_um": 1e6, "length_um": 1e-6,
             "radius_nm": 1e-9, "offset_nm": 1e-9}[name]
    return values * scale


def _inverted_mode(config: RunConfig, target: float, inversion: list):
    """Mode at Re q = target (1/m), its inversion appended to the record."""
    omega = wavevector_to_omega(config, target)
    mode = config.solve_mode(omega=omega)
    inversion.append({
        "target_per_um": target * 1e-6,
        "omega_rad_per_s": omega,
        "lambda0_um": 2 * math.pi * CONSTANTS.c / omega * 1e6,
        "attained_Re_q_per_um": mode.q.real * 1e-6,
    })
    return mode


def _cell_parameters(spec: SweepSpec):
    """Per-cell SI parameter grids (flattened, axis2-major order) plus the
    mode table and the inversion record."""
    cfg = spec.config
    n1 = spec.axis1.values.size
    n2 = spec.axis2.values.size
    params = {
        "length": np.full(n1 * n2, cfg.L_um * 1e-6),
        "radius": np.full(n1 * n2, cfg.R_nm * 1e-9),
        "offset": np.full(n1 * n2, cfg.delta_nm * 1e-9),
    }
    mode_index = np.zeros(n1 * n2, dtype=int)
    inversion = []

    wavevector_axis = None
    for axis, along_rows in ((spec.axis1, False), (spec.axis2, True)):
        si = _axis_parameter(axis.name, axis.values)
        if axis.name == "wavevector_per_um":
            wavevector_axis = (axis, along_rows)
            continue
        key = {"length_um": "length", "radius_nm": "radius",
               "offset_nm": "offset"}[axis.name]
        block = np.tile(si, n2) if not along_rows else np.repeat(si, n1)
        params[key] = block

    if wavevector_axis is not None:
        axis, along_rows = wavevector_axis
        modes = [_inverted_mode(cfg, target, inversion)
                 for target in _axis_parameter(axis.name, axis.values)]
        index = np.arange(axis.values.size)
        mode_index = (np.repeat(index, n1) if along_rows
                      else np.tile(index, n2))
    elif spec.fixed_wavevector_per_um is not None:
        modes = [_inverted_mode(cfg, spec.fixed_wavevector_per_um * 1e6,
                                inversion)]
    else:
        modes = [cfg.solve_mode()]
    return params, modes, mode_index, inversion


def _three_sheet_finals(geometries, modes, config: RunConfig, alpha,
                        knots: int) -> np.ndarray:
    """Output-sheet intensities of a batch of three-sheet devices.

    Each device starts in the input sheet; geometries[i] is run with
    modes[i] on `knots` knots and uniform loss alpha[i]. One schedule of
    2 knots - 1 samples holds the knots at even and the exact interval
    midpoints at odd indices.
    """
    batch = len(geometries)
    omega1 = np.empty((batch, 2 * knots - 1))
    omega2 = np.empty((batch, 2 * knots - 1))
    for row, (geom, mode) in enumerate(zip(geometries, modes)):
        schedule = build_schedule(geom, mode, 2 * knots - 1,
                                  config.k0_convention)
        omega1[row] = schedule.omega1
        omega2[row] = schedule.omega2
    h = np.array([geom.length for geom in geometries]) / (knots - 1)
    a_init = np.zeros((batch, 3), dtype=complex)
    a_init[:, 0] = 1.0
    amps = propagate_batch_three(h, omega1[:, ::2], omega2[:, ::2],
                                 omega1[:, 1::2], omega2[:, 1::2], a_init,
                                 alpha)
    return np.abs(amps[:, 2]) ** 2


def _sweep_knots(geometries, modes, config: RunConfig) -> tuple[int, float]:
    """Knot count for a three-sheet sweep, by step doubling on probe devices.

    Starting from _FIRST_KNOTS, the knot count doubles (k -> 2k - 1) until
    the Richardson estimate max |I_fine - I_coarse| / 15 of the 4th-order
    kernel's output-intensity error is at most _KNOT_TOLERANCE, or until the
    next count would exceed config.n_samples. The first pair is always
    run, so a sweep uses at least 2 _FIRST_KNOTS - 1 knots and always has
    an estimate; a NaN estimate keeps doubling. The probes are lossless:
    uniform loss scales every intensity, and so its error, by
    exp(-alpha L) <= 1. Returns (knots, estimate of the error at knots).
    """
    lossless = np.zeros(len(geometries))
    knots = _FIRST_KNOTS
    coarse = _three_sheet_finals(geometries, modes, config, lossless, knots)
    while True:
        knots = 2 * knots - 1
        fine = _three_sheet_finals(geometries, modes, config, lossless, knots)
        estimate = float(np.max(np.abs(fine - coarse))) / 15.0
        if estimate <= _KNOT_TOLERANCE or 2 * knots - 1 > config.n_samples:
            return knots, estimate
        coarse = fine


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the output intensity over the axis1 x axis2 grid.

    Three-layer cells violating the arc-validity constraint
    L/2 + offset/2 <= R are reported as NaN; a grid with no valid cell raises.
    """
    cfg = spec.config
    params, modes, mode_index, inversion = _cell_parameters(spec)
    n1 = spec.axis1.values.size
    n2 = spec.axis2.values.size
    total = n1 * n2
    length = params["length"]
    radius = params["radius"]
    offset = params["offset"]
    min_gap = cfg.d_min_nm * 1e-9
    alpha_mode = np.array([m.q.imag for m in modes])
    alpha = alpha_mode[mode_index] if spec.lossy else np.zeros(total)

    flat = np.full(total, np.nan)
    if spec.layers == 2:
        couplings = np.empty(total)
        for i, mode in enumerate(modes):
            pair = coupling_coefficient(mode, min_gap, cfg.k0_convention)
            couplings[mode_index == i] = abs(pair.c12.real)
        n_steps = max(cfg.n_samples - 1, 1)
        for start in range(0, total, _CHUNK):
            stop = min(start + _CHUNK, total)
            amps = propagate_batch_two(couplings[start:stop],
                                       length[start:stop],
                                       alpha[start:stop], n_steps)
            flat[start:stop] = np.abs(amps[:, 1]) ** 2
        invalid = 0
    else:
        valid = length / 2.0 + offset / 2.0 <= radius
        invalid = int(np.count_nonzero(~valid))
        if invalid == total:
            raise ExperimentError("every grid cell violates the arc validity "
                                  "constraint L/2 + offset/2 <= R")

        def devices(cells):
            return ([DeviceGeometry(radius=radius[cell], offset=offset[cell],
                                    min_gap=min_gap, length=length[cell])
                     for cell in cells],
                    [modes[mode_index[cell]] for cell in cells])

        # validity is monotone in L, offset and R along increasing axes, so
        # some corner is valid whenever any cell is
        corners = np.array(sorted({0, n1 - 1, total - n1, total - 1}))
        knots, estimate = _sweep_knots(*devices(corners[valid[corners]]),
                                       cfg)
        idx = np.flatnonzero(valid)
        for start in range(0, idx.size, _CHUNK):
            cells = idx[start:start + _CHUNK]
            flat[cells] = _three_sheet_finals(*devices(cells), cfg,
                                              alpha[cells], knots)
        nonfinite = int(np.count_nonzero(~np.isfinite(flat[idx])))

    grid = flat.reshape(n2, n1)
    metadata = {
        "config_hash": config_hash(cfg),
        "layers": spec.layers,
        "lossy": spec.lossy,
        "observable": "output_intensity",
        "axis1": {"name": spec.axis1.name,
                  "values": spec.axis1.values.tolist()},
        "axis2": {"name": spec.axis2.name,
                  "values": spec.axis2.values.tolist()},
        "n_samples": cfg.n_samples,
        "invalid_cells": invalid,
        "wavevector_inversion": inversion,
        "dispersion_residual_contract": "< 1e-10, enforced at solve time",
    }
    if spec.layers == 3:
        metadata["nonfinite_cells"] = nonfinite
        metadata["knots"] = knots
        metadata["knot_error_estimate"] = estimate
        metadata["knot_tolerance"] = _KNOT_TOLERANCE
    return SweepResult(spec=spec, grid=grid, metadata=metadata)


def robustness_metric(result: SweepResult,
                      band: tuple | None = None) -> tuple[float, float, float]:
    """(min, mean, stddev) of the output intensity over a band, skipping NaN
    cells.

    band is a pair of slices (rows, cols); None means the whole grid.
    """
    grid = result.grid if band is None else result.grid[band]
    if grid.size == 0:
        raise ExperimentError("empty band")
    finite = grid[np.isfinite(grid)]
    if finite.size == 0:
        raise ExperimentError("band contains only invalid cells")
    return float(finite.min()), float(finite.mean()), float(finite.std())


@dataclass(frozen=True)
class StretchSearchResult:
    """Outcome of the uniform-stretch scan of (L, R, offset).

    stretch is the smallest scanned factor whose lossless output intensity
    reaches the target, or None when no scanned factor does; output is the
    lossless output intensity at stretch (None with it). best_stretch and
    best_output track the coarse-scan maximum either way.
    """

    target: float
    stretch: float | None
    output: float | None
    best_stretch: float
    best_output: float
    scanned_stretches: np.ndarray
    scanned_outputs: np.ndarray


def _stretched_outputs(config: RunConfig, stretches: np.ndarray,
                       mode: SppMode) -> np.ndarray:
    """Lossless output intensities for uniformly stretched (L, R, offset)."""
    geometries = [DeviceGeometry(radius=config.R_nm * 1e-9 * s,
                                 offset=config.delta_nm * 1e-9 * s,
                                 min_gap=config.d_min_nm * 1e-9,
                                 length=config.L_um * 1e-6 * s)
                  for s in stretches]
    ends = sorted({0, stretches.size - 1})
    knots, _ = _sweep_knots([geometries[i] for i in ends],
                            [mode] * len(ends), config)
    return _three_sheet_finals(geometries, [mode] * stretches.size, config,
                               np.zeros(stretches.size), knots)


def stirap_stretch_search(config: RunConfig, target: float = 0.95,
                          max_stretch: float = 4.0, coarse_step: float = 0.1,
                          refine_step: float = 0.01,
                          mode: SppMode | None = None) -> StretchSearchResult:
    """Scan uniform stretches s of (L, R, offset), d_min held fixed.

    The arc validity constraint is invariant under the stretch, so every
    scanned geometry is admissible. A coarse pass locates the first factor
    reaching the target; a fine pass then tightens it to refine_step. A mode
    other than the configured one may be supplied to run the same scan at a
    different excitation.
    """
    if not 0 < target <= 1:
        raise ExperimentError("target must lie in (0, 1]")
    if max_stretch < 1.0:
        raise ExperimentError("max_stretch must be >= 1")
    if mode is None:
        mode = config.solve_mode()
    steps = int(round((max_stretch - 1.0) / coarse_step))
    coarse = 1.0 + coarse_step * np.arange(steps + 1)
    outputs = _stretched_outputs(config, coarse, mode)

    hits = np.flatnonzero(outputs >= target)
    stretch = output = None
    if hits.size:
        upper = coarse[hits[0]]
        lower = coarse[hits[0] - 1] if hits[0] > 0 else upper - coarse_step
        lower = max(lower, 1.0)
        fine_steps = int(round((upper - lower) / refine_step))
        fine = lower + refine_step * np.arange(fine_steps + 1)
        fine_outputs = _stretched_outputs(config, fine, mode)
        fine_hits = np.flatnonzero(fine_outputs >= target)
        if fine_hits.size:
            stretch = float(fine[fine_hits[0]])
            output = float(fine_outputs[fine_hits[0]])
        else:
            stretch, output = float(upper), float(outputs[hits[0]])

    best = int(np.argmax(outputs))
    return StretchSearchResult(target=target, stretch=stretch, output=output,
                               best_stretch=float(coarse[best]),
                               best_output=float(outputs[best]),
                               scanned_stretches=coarse,
                               scanned_outputs=outputs)


def figure_coupling_axes(config: RunConfig,
                         fermi_levels=(0.05, 0.10, 0.15, 0.20),
                         d_max_nm: float = 100.0,
                         n_points: int = 96):
    """Coupling-vs-separation curves at several Fermi levels.

    Returns (d_nm grid, list of (E_F_eV, c12 array)); separations run from
    2 nm up to d_max_nm.
    """
    d_nm = np.linspace(2.0, d_max_nm, n_points)
    curves = []
    for fermi in fermi_levels:
        mode = replace(config, E_F_eV=float(fermi)).solve_mode()
        c12, _ = coupling_at_separations(mode, d_nm * 1e-9,
                                         config.k0_convention)
        curves.append((float(fermi), c12))
    return d_nm, curves


def figure_map_spec(figure: str, config: RunConfig, grid: tuple[int, int],
                    lossy: bool | None = None) -> SweepSpec:
    """SweepSpec for one of the published robustness maps.

    '4a' is the two-sheet comparator and '4b' the three-sheet device, both
    over (wavevector 25-50 1/um) x (L within +-20% of the configured length),
    lossless unless overridden. '4c' fixes the wavevector at 35 1/um and
    sweeps radius x offset with loss on unless overridden.
    """
    n1, n2 = grid
    if figure in ("4a", "4b"):
        axis1 = SweepAxis("wavevector_per_um", np.linspace(25.0, 50.0, n1))
        axis2 = SweepAxis("length_um", np.linspace(0.8 * config.L_um,
                                                   1.2 * config.L_um, n2))
        return SweepSpec(axis1=axis1, axis2=axis2, config=config,
                         layers=2 if figure == "4a" else 3,
                         lossy=bool(lossy) if lossy is not None else False)
    if figure == "4c":
        axis1 = SweepAxis("radius_nm", np.linspace(600.0, 1000.0, n1))
        axis2 = SweepAxis("offset_nm", np.linspace(100.0, 300.0, n2))
        return SweepSpec(axis1=axis1, axis2=axis2, config=config,
                         layers=3,
                         lossy=bool(lossy) if lossy is not None else True,
                         fixed_wavevector_per_um=35.0)
    raise ExperimentError(f"unknown map figure {figure!r}")
