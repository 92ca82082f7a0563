"""Device-level experiments: STIRAP runs, comparator maps, robustness sweeps.

Sweeps are deterministic: cells are evaluated in a fixed order with a fixed
chunk size, so repeated runs of the same configuration produce bit-identical
grids. A "wavevector" axis is realized by inverting the dispersion relation
in closed form for the excitation frequency, so that couplings and loss stay
self-consistent with the material model; the wavevector is never treated as a
free parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import RunConfig, config_hash
from .coupling import coupling_at_separations, coupling_coefficient
from .dispersion import ConvergenceError, NoBoundModeError, SppMode
from .dynamics import (Trajectory, propagate, propagate_batch_three,
                       propagate_batch_two)
from .geometry import CouplingSchedule, _omega1_table, build_schedule
from .materials import CONSTANTS, MaterialDomainError, ev_to_joule

# Sweep axis -> (cell parameter it sets, factor from the axis unit to SI);
# the wavevector axis selects each cell's mode instead of a device parameter.
_AXES = {"wavevector_per_um": ("wavevector", 1e6),
         "length_um": ("length", 1e-6),
         "radius_nm": ("radius", 1e-9),
         "offset_nm": ("offset", 1e-9)}
AXIS_NAMES = tuple(_AXES)

_CHUNK = 512
# Step-doubling knot choice of three-sheet batches (_three_sheet_outputs):
# the first knot count probed and the output-intensity error estimate to
# reach.
_FIRST_KNOTS = 65
_KNOT_TOLERANCE = 2e-7
# Uniform-stretch scan (stirap_stretch_search): the output intensity to
# reach, and the fine step below the first coarse factor reaching it.
_STRETCH_TARGET = 0.95
_REFINE_STEP = 0.01
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


def wavevector_to_omega(config: RunConfig, target_q: float) -> float:
    """Angular frequency whose bound mode has Re q equal to target_q (1/m).

    The exact inverse of the forward model. The Drude sheet
    sigma = D/(gamma - i omega), D = 4 sigma0 E_F/(pi hbar), puts the
    closed-form root on k = b (omega^2 + i gamma omega), b = 2 eps eps0/D,
    and q^2 = k^2 + omega^2 eps/c^2 then has Re q = t exactly where
    s = omega^2 solves
        (b^4 gamma^2/t^2) s^3 + b^2 s^2 + (eps/c^2 - b^2 gamma^2) s - t^2 = 0.
    The signs (+, +, +-, -) give one positive root; the others have negative
    real part. In v = t/(b s) the cubic is monic with coefficients of order
    one, v^3 + (g - a) v^2 - v - g = 0 with g = b gamma^2/t and
    a = eps/(c^2 b t). Its roots are the reciprocals, so its root of largest
    real part is the one. The mode is then solved once at omega = sqrt(s).
    Raises ExperimentError for a target that is not finite and > 0, when b
    (at a Fermi level far outside the model) or the frequency is not
    representable, when that mode is unsolvable (e.g. below the light
    line), or when it misses the target by more than 1e-12 relative.
    """
    if not (math.isfinite(target_q) and target_q > 0):
        raise ExperimentError("target wavevector must be finite and > 0")
    where = f"wavevector {target_q * 1e-6:.4g} 1/um"
    unrepresentable = (f"{where} has no representable frequency for this "
                       "material")
    eps = config.medium().permittivity
    fermi = ev_to_joule(config.sheet().fermi_level_ev)
    drude = CONSTANTS.sigma0 * 4.0 * fermi / (math.pi * CONSTANTS.hbar)
    b = 2.0 * eps * CONSTANTS.eps0 / drude if drude > 0 else math.inf
    if not 0 < b < math.inf:
        raise ExperimentError(unrepresentable)
    gamma = config.gamma()
    g = b * gamma * gamma / target_q
    a = eps / (CONSTANTS.c**2 * b) / target_q
    cubic = [1.0, g - a, -1.0, -g]
    v = float(np.roots(cubic).real.max()) if math.isfinite(g - a) else math.nan
    # the cubic is -a < 0 at v = 1, so v > 1 unless the coefficients are
    # beyond what np.roots resolves
    omega = math.sqrt(target_q / (b * v)) if v > 1 else math.nan
    if not 0 < omega < math.inf:
        raise ExperimentError(unrepresentable)
    try:
        attained = config.solve_mode(omega=omega).q.real
    except _UNSOLVABLE as exc:
        raise ExperimentError(f"{where} has no bound mode for this material: "
                              f"{exc}") from exc
    if not abs(attained - target_q) <= 1e-12 * target_q:
        raise ExperimentError(f"inversion missed {where}: attained "
                              f"{attained * 1e-6:.17g} 1/um")
    return omega


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
    """Solve the mode, build the coupling schedule (knots and exact
    midpoints), and propagate (1, 0, 0) once, without loss, at 4th order."""
    mode = config.solve_mode()
    schedule = build_schedule(config.geometry(), mode, config.n_samples,
                              config.k0_convention)
    initial = np.array([1.0, 0.0, 0.0], dtype=complex)
    return DeviceRun(mode=mode, schedule=schedule,
                     trajectory=propagate(schedule, initial),
                     alpha=mode.q.imag)


def parallel_comparator(wavevector: float, length: float, separation: float,
                        config: RunConfig, lossy: bool = False) -> float:
    """Output intensity of two parallel sheets after length L (meters).

    The two-channel system is integrated as one cell of the figure 4a map
    (_two_sheet_outputs); for the lossless case the result matches
    sin^2(C L) to the integrator tolerance, and lossy multiplies it by
    exp(-2 Im q L), as the map does.
    """
    if not all(math.isfinite(v) and v > 0
               for v in (wavevector, length, separation)):
        raise ExperimentError("wavevector, length, and separation must be "
                              "finite and > 0")
    mode = mode_at_wavevector(config, wavevector)
    intensity = float(_two_sheet_outputs([mode], np.zeros(1, dtype=int),
                                         np.array([length]), separation,
                                         config)[0])
    return _damped(intensity, mode.q.imag, length) if lossy else intensity


def _damped(intensity, alpha, length):
    """Lossless output intensities damped at the uniform amplitude rate
    alpha over length: the exact envelope exp(-2 alpha L)."""
    return intensity * np.exp(-2.0 * alpha * length)


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
    """Per-cell SI arrays "length", "radius" and "offset" (flattened,
    axis2-major order) plus the mode table, each cell's index into it and
    the inversion record."""
    cfg = spec.config
    n1 = spec.axis1.values.size
    n2 = spec.axis2.values.size
    cells = {"length": np.full(n1 * n2, cfg.L_um * 1e-6),
             "radius": np.full(n1 * n2, cfg.R_nm * 1e-9),
             "offset": np.full(n1 * n2, cfg.delta_nm * 1e-9)}
    mode_index = np.zeros(n1 * n2, dtype=int)
    targets = ([spec.fixed_wavevector_per_um * 1e6]
               if spec.fixed_wavevector_per_um is not None else [])
    for axis, index in ((spec.axis1, np.tile(np.arange(n1), n2)),
                        (spec.axis2, np.repeat(np.arange(n2), n1))):
        key, scale = _AXES[axis.name]
        if key == "wavevector":
            targets, mode_index = axis.values * scale, index
        else:
            cells[key] = (axis.values * scale)[index]
    inversion = []
    modes = [_inverted_mode(cfg, target, inversion) for target in targets]
    return cells, modes or [cfg.solve_mode()], mode_index, inversion


def _two_sheet_outputs(modes, mode_index, length: np.ndarray,
                       separation: float, config: RunConfig) -> np.ndarray:
    """Lossless output-sheet intensities of a batch of parallel sheet pairs.

    Pair i carries modes[mode_index[i]] at the given separation (meters)
    over length[i] and starts in the input sheet; every pair is integrated
    in n_samples - 1 steps, in _CHUNK slices.
    """
    couplings = np.array([
        abs(coupling_coefficient(mode, separation,
                                 config.k0_convention).c12.real)
        for mode in modes])[mode_index]
    n_steps = max(config.n_samples - 1, 1)
    outputs = np.empty(length.size)
    for start in range(0, length.size, _CHUNK):
        part = slice(start, start + _CHUNK)
        amps = propagate_batch_two(couplings[part], length[part], n_steps)
        outputs[part] = np.abs(amps[:, 1]) ** 2
    return outputs


def _three_sheet_finals(cells: dict, modes, mode_index, config: RunConfig,
                        knots: int) -> np.ndarray:
    """Lossless output-sheet intensities of a batch of three-sheet devices.

    cells holds per-device SI arrays "length", "radius" and "offset"; device
    i carries modes[mode_index[i]] at the configured minimum gap and starts
    in the input sheet. Its row of one schedule table of 2 knots - 1
    samples (geometry._omega1_table, built per mode, not per device) holds
    the knots at even and the exact interval midpoints at odd indices.
    """
    length = cells["length"]
    omega1 = _omega1_table(length, cells["radius"], cells["offset"],
                           config.d_min_nm * 1e-9, modes, mode_index,
                           2 * knots - 1, config.k0_convention)
    omega2 = omega1[:, ::-1]
    h = length / (knots - 1)
    a_init = np.zeros((length.size, 3), dtype=complex)
    a_init[:, 0] = 1.0
    amps = propagate_batch_three(h, omega1[:, ::2], omega2[:, ::2],
                                 omega1[:, 1::2], omega2[:, 1::2], a_init)
    return np.abs(amps[:, 2]) ** 2


def _three_sheet_outputs(cells: dict, modes, mode_index, config: RunConfig,
                         probes: np.ndarray) -> tuple[np.ndarray, int, float]:
    """Lossless output intensities of a batch of three-sheet devices at a
    knot count chosen by step doubling on its probe rows.

    The batch is given as _three_sheet_finals takes it; probes indexes the
    rows that choose the knot count. Starting from _FIRST_KNOTS, the count
    doubles (k -> 2k - 1) until the Richardson estimate
    max |I_fine - I_coarse| / 15 of the 4th-order kernel's output-intensity
    error on the probes is at most _KNOT_TOLERANCE, or until the next count
    would exceed config.n_samples. The first pair is always run, so a batch
    uses at least 2 _FIRST_KNOTS - 1 knots and always has an estimate; a
    NaN estimate keeps doubling. The probes are lossless: the loss envelope
    scales every intensity, and so its error, by exp(-2 alpha L) <= 1.
    The whole batch then runs at that count in _CHUNK slices. Returns
    (outputs, knots, estimate of the error at knots).
    """
    def finals(rows, knots):
        return _three_sheet_finals(
            {key: values[rows] for key, values in cells.items()}, modes,
            mode_index[rows], config, knots)

    knots = _FIRST_KNOTS
    coarse = finals(probes, knots)
    while True:
        knots = 2 * knots - 1
        fine = finals(probes, knots)
        estimate = float(np.max(np.abs(fine - coarse))) / 15.0
        if estimate <= _KNOT_TOLERANCE or 2 * knots - 1 > config.n_samples:
            break
        coarse = fine
    outputs = np.concatenate([
        finals(slice(start, start + _CHUNK), knots)
        for start in range(0, mode_index.size, _CHUNK)])
    return outputs, knots, estimate


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the output intensity over the axis1 x axis2 grid.

    Three-layer cells violating the arc-validity constraint
    L/2 + offset/2 <= R are reported as NaN; a grid with no valid cell raises.
    Both devices are integrated without loss; a lossy spec then damps every
    cell by the exact envelope exp(-2 Im q L) of its mode and length.
    """
    cfg = spec.config
    cells, modes, mode_index, inversion = _cell_parameters(spec)
    n1 = spec.axis1.values.size
    total = mode_index.size
    length = cells["length"]

    if spec.layers == 2:
        flat = _two_sheet_outputs(modes, mode_index, length,
                                  cfg.d_min_nm * 1e-9, cfg)
        invalid = 0
    else:
        valid = length / 2.0 + cells["offset"] / 2.0 <= cells["radius"]
        idx = np.flatnonzero(valid)
        invalid = total - idx.size
        if invalid == total:
            raise ExperimentError("every grid cell violates the arc validity "
                                  "constraint L/2 + offset/2 <= R")
        # validity is monotone in L, offset and R along increasing axes, so
        # some corner is valid whenever any cell is
        corners = np.array(sorted({0, n1 - 1, total - n1, total - 1}))
        probes = np.searchsorted(idx, corners[valid[corners]])
        outputs, knots, estimate = _three_sheet_outputs(
            {key: values[idx] for key, values in cells.items()}, modes,
            mode_index[idx], cfg, probes)
        flat = np.full(total, np.nan)
        flat[idx] = outputs
        nonfinite = int(np.count_nonzero(~np.isfinite(outputs)))
    if spec.lossy:
        alpha = np.array([mode.q.imag for mode in modes])[mode_index]
        flat = _damped(flat, alpha, length)

    grid = flat.reshape(-1, n1)
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


def robustness_metric(result: SweepResult) -> tuple[float, float, float]:
    """(min, mean, stddev) of the output intensity over the grid, skipping
    NaN cells."""
    finite = result.grid[np.isfinite(result.grid)]
    if finite.size == 0:
        raise ExperimentError("grid contains only invalid cells")
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
    """Lossless output intensities for uniformly stretched (L, R, offset),
    at the knot count the two end stretches choose."""
    cells = {"length": config.L_um * 1e-6 * stretches,
             "radius": config.R_nm * 1e-9 * stretches,
             "offset": config.delta_nm * 1e-9 * stretches}
    ends = np.array(sorted({0, stretches.size - 1}))
    outputs, _, _ = _three_sheet_outputs(
        cells, [mode], np.zeros(stretches.size, dtype=int), config, ends)
    return outputs


def stirap_stretch_search(config: RunConfig,
                          mode: SppMode | None = None) -> StretchSearchResult:
    """Scan uniform stretches s of (L, R, offset), d_min held fixed.

    The arc validity constraint is invariant under the stretch, so every
    scanned geometry is admissible. A coarse pass over s = 1 to 4 in steps
    of 0.1 locates the first factor whose output reaches 0.95; a fine pass
    then tightens it to 0.01. A mode other than the configured one may be
    supplied to run the same scan at a different excitation.
    """
    if mode is None:
        mode = config.solve_mode()
    coarse = 1.0 + 0.1 * np.arange(31)
    outputs = _stretched_outputs(config, coarse, mode)

    hits = np.flatnonzero(outputs >= _STRETCH_TARGET)
    stretch = output = None
    if hits.size:
        upper = coarse[hits[0]]
        lower = coarse[max(hits[0] - 1, 0)]
        fine_steps = int(round((upper - lower) / _REFINE_STEP))
        fine = lower + _REFINE_STEP * np.arange(fine_steps + 1)
        fine_outputs = _stretched_outputs(config, fine, mode)
        fine_hits = np.flatnonzero(fine_outputs >= _STRETCH_TARGET)
        if fine_hits.size:
            stretch = float(fine[fine_hits[0]])
            output = float(fine_outputs[fine_hits[0]])
        else:
            stretch, output = float(upper), float(outputs[hits[0]])

    best = int(np.argmax(outputs))
    return StretchSearchResult(target=_STRETCH_TARGET, stretch=stretch,
                               output=output,
                               best_stretch=float(coarse[best]),
                               best_output=float(outputs[best]),
                               scanned_stretches=coarse,
                               scanned_outputs=outputs)


def figure_coupling_axes(config: RunConfig):
    """Coupling-vs-separation curves of figure 1b.

    Returns (d_nm grid, list of (E_F_eV, c12 array)): 96 separations from
    2 to 100 nm at Fermi levels 0.05, 0.10, 0.15 and 0.20 eV.
    """
    d_nm = np.linspace(2.0, 100.0, 96)
    curves = []
    for fermi in (0.05, 0.10, 0.15, 0.20):
        mode = replace(config, E_F_eV=fermi).solve_mode()
        c12, _ = coupling_at_separations(mode, d_nm * 1e-9,
                                         config.k0_convention)
        curves.append((fermi, c12))
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
