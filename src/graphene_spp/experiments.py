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
from .dispersion import (ConvergenceError, Excitation, NoBoundModeError,
                         SppMode)
from .dynamics import (Trajectory, propagate, propagate_batch_three,
                       propagate_batch_two)
from .geometry import (CouplingSchedule, _length_lattice, _member_breaks,
                       _omega1_table, _rider_lattice, build_schedule)
from .materials import CONSTANTS, MaterialDomainError, ev_to_joule

# Sweep axis -> (cell parameter it sets, factor from the axis unit to SI);
# the wavevector axis selects each cell's mode instead of a device parameter.
_AXES = {"wavevector_per_um": ("wavevector", 1e6),
         "length_um": ("length", 1e-6),
         "radius_nm": ("radius", 1e-9),
         "offset_nm": ("offset", 1e-9)}
AXIS_NAMES = tuple(_AXES)

# The one bound on a batch's memory: a three-sheet batch runs in slices
# whose schedule table holds at most the samples of _CHUNK one-member
# rows (_three_sheet_outputs), the probes riding along the first slice
# counted against its budget, and the kernel holds a fixed multiple of
# its table. A two-sheet batch holds a few complex numbers per pair (its
# RK4 step's (alpha, beta) and amplitudes) and runs whole.
_CHUNK = 512
# Step-doubling knot choice of three-sheet batches (_three_sheet_outputs):
# the first knot count probed, the last one allowed and the
# output-intensity error estimate to reach.
_FIRST_KNOTS = 65
_MAX_KNOTS = 2049
_KNOT_TOLERANCE = 5e-8
# Uniform-stretch scan (stirap_stretch_search): the output intensity to
# reach, and the fine step below the first coarse factor reaching it.
_STRETCH_TARGET = 0.95
_REFINE_STEP = 0.01
# Re q (1/um) of the published device, and figure 4c's fixed wavevector.
REFERENCE_WAVEVECTOR_PER_UM = 35.0
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

    Invalid-geometry cells hold NaN, and they are the only NaN cells: a
    three-sheet map that blows up or does not resolve is refused
    (_three_sheet_outputs). metadata records their count together with the
    wavevector inversion table and the config hash, and for the
    three-sheet device the step-doubling knot choice: knots,
    knot_error_estimate and knot_tolerance. modes are the modes run, in
    inversion-table order (else the configured mode).
    """

    spec: SweepSpec
    grid: np.ndarray
    metadata: dict
    modes: tuple


def wavevector_to_omega(config: RunConfig, target_q):
    """Angular frequency whose bound mode has Re q equal to target_q (1/m),
    and that mode, as (omega, mode); for a vector of targets, the array of
    frequencies and the tuple of modes, in target order.

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
    real part is the one. Every target's cubic is solved in one stacked
    eigenvalue call on np.roots' own companion matrices (_largest_roots),
    so a batch gives, bit for bit, the targets' one-by-one answers. The
    modes are then solved in one batch (RunConfig.solve_modes), each once
    at omega = sqrt(s), and returned with omega, the cubic's own, which the
    mode's excitation frequency may miss in the last bit.
    Raises ExperimentError naming the first failing target: one that is
    not finite and > 0, one without a representable frequency (also when
    b, at a Fermi level far outside the model, is not representable), one
    whose mode is unsolvable (e.g. below the light line), or one whose mode
    misses it by more than 1e-12 relative.
    """
    targets = np.asarray(target_q, dtype=float)
    if targets.ndim > 1:
        raise ExperimentError("target wavevectors must be a scalar or a "
                              "vector")
    flat = targets.reshape(-1)
    bad = np.flatnonzero(~(np.isfinite(flat) & (flat > 0)))
    if bad.size:
        raise ExperimentError(f"target {_named(flat[bad[0]])} must be "
                              "finite and > 0")
    eps = config.medium().permittivity
    fermi = ev_to_joule(config.sheet().fermi_level_ev)
    drude = CONSTANTS.sigma0 * 4.0 * fermi / (math.pi * CONSTANTS.hbar)
    b = 2.0 * eps * CONSTANTS.eps0 / drude if drude > 0 else math.inf
    gamma = config.gamma()
    v = (_largest_roots(b * gamma * gamma / flat,
                        eps / (CONSTANTS.c**2 * b) / flat)
         if 0 < b < math.inf else np.full(flat.size, math.nan))
    # the cubic is -a < 0 at v = 1, so v > 1 unless the coefficients are
    # beyond what the eigenvalue solver resolves
    omegas = [math.sqrt(target / (b * root)) if root > 1 else math.nan
              for target, root in zip(flat.tolist(), v.tolist())]
    # the targets before the first without a frequency are solved at once;
    # an unsolvable one stops the batch and carries the modes before it
    # (none for a conductivity or film error, which is the first target's)
    representable = next((i for i, omega in enumerate(omegas)
                          if not 0 < omega < math.inf), len(omegas))
    try:
        modes, failure = config.solve_modes(
            Excitation.at_angular_frequency(omega)
            for omega in omegas[:representable]), None
    except _UNSOLVABLE as exc:
        modes, failure = getattr(exc, "modes", ()), exc
    for i, target in enumerate(flat.tolist()):
        if i == representable:
            raise ExperimentError(f"{_named(target)} has no representable "
                                  "frequency for this material")
        if i == len(modes):
            raise ExperimentError(f"{_named(target)} has no bound mode for "
                                  f"this material: {failure}") from failure
        if not abs(modes[i].q.real - target) <= 1e-12 * target:
            raise ExperimentError(f"inversion missed {_named(target)}: "
                                  f"attained {modes[i].q.real * 1e-6:.17g} "
                                  "1/um")
    if targets.ndim == 0:
        return omegas[0], modes[0]
    return np.array(omegas), modes


def _named(target: float) -> str:
    return f"wavevector {target * 1e-6:.4g} 1/um"


def _largest_roots(g: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Largest real part of the roots of v^3 + (g - a) v^2 - v - g, per
    element, as np.roots finds them one cubic at a time; NaN where a
    coefficient is not finite.

    np.roots takes the eigenvalues of the companion matrix with first row
    -p[1:] and ones below the diagonal, after dropping trailing zero
    coefficients as roots at 0: a zero g (a lossless sheet) leaves
    v^2 - a v - 1, whose positive root outranks that 0. The same matrices,
    stacked, go to one np.linalg.eigvals call per degree, and LAPACK
    solves each matrix of a stack as it solves it alone.
    """
    with np.errstate(invalid="ignore"):
        lead = g - a
    v = np.full(g.size, math.nan)
    solvable = np.isfinite(lead)
    for degree, rows in ((3, solvable & (g != 0)), (2, solvable & (g == 0))):
        rows = np.flatnonzero(rows)
        if not rows.size:
            continue
        companion = np.zeros((rows.size, degree, degree))
        companion[:, 0, 0] = -lead[rows]
        companion[:, 0, 1] = 1.0
        if degree == 3:
            companion[:, 0, 2] = g[rows]
            companion[:, 2, 1] = 1.0
        companion[:, 1, 0] = 1.0
        v[rows] = np.linalg.eigvals(companion).real.max(axis=1)
    return v


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


def run_device(config: RunConfig, mode: SppMode) -> DeviceRun:
    """Build the device's coupling schedule at mode (knots and exact
    midpoints), and propagate (1, 0, 0) once, without loss, at 4th order."""
    schedule = build_schedule(config.geometry(), mode, config.n_samples,
                              config.k0_convention)
    initial = np.array([1.0, 0.0, 0.0], dtype=complex)
    return DeviceRun(mode=mode, schedule=schedule,
                     trajectory=propagate(schedule, initial),
                     alpha=mode.q.imag)


def parallel_comparator(config: RunConfig, mode: SppMode, length: float,
                        lossy: bool = False) -> float:
    """Output intensity of two parallel sheets after length L (meters).

    The pair carries mode at the configured minimum gap and is integrated
    as one cell of the figure 4a map (_two_sheet_outputs); for the lossless
    case the result matches sin^2(C L) to the integrator tolerance, and
    lossy multiplies it by exp(-2 Im q L), as the map does.
    """
    if not (math.isfinite(length) and length > 0):
        raise ExperimentError("length must be finite and > 0")
    intensity = float(_two_sheet_outputs([mode], np.zeros(1, dtype=int),
                                         np.array([length]), config)[0])
    return _damped(intensity, mode.q.imag, length) if lossy else intensity


def _damped(intensity, alpha, length):
    """Lossless output intensities damped at the uniform amplitude rate
    alpha over length: the exact envelope exp(-2 alpha L)."""
    return intensity * np.exp(-2.0 * alpha * length)


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
    targets = np.array([spec.fixed_wavevector_per_um * 1e6]
                       if spec.fixed_wavevector_per_um is not None else [])
    for axis, index in ((spec.axis1, np.tile(np.arange(n1), n2)),
                        (spec.axis2, np.repeat(np.arange(n2), n1))):
        key, scale = _AXES[axis.name]
        if key == "wavevector":
            targets, mode_index = axis.values * scale, index
        else:
            cells[key] = (axis.values * scale)[index]
    if not targets.size:
        return cells, (cfg.solve_mode(),), mode_index, []
    omegas, modes = wavevector_to_omega(cfg, targets)
    inversion = [{"target_per_um": target * 1e-6,
                  "omega_rad_per_s": omega,
                  "lambda0_um": 2 * math.pi * CONSTANTS.c / omega * 1e6,
                  "attained_Re_q_per_um": mode.q.real * 1e-6}
                 for target, omega, mode in zip(targets.tolist(),
                                                omegas.tolist(), modes)]
    return cells, modes, mode_index, inversion


def _two_sheet_outputs(modes, mode_index, length: np.ndarray,
                       config: RunConfig) -> np.ndarray:
    """Lossless output-sheet intensities of a batch of parallel sheet pairs.

    Pair i carries modes[mode_index[i]] at the configured minimum gap over
    length[i] and starts in the input sheet; every pair is integrated in
    n_samples - 1 steps, all in one batch.
    """
    couplings = np.array([
        abs(coupling_coefficient(mode, config.d_min_nm * 1e-9,
                                 config.k0_convention).c12.real)
        for mode in modes])[mode_index]
    amps = propagate_batch_two(couplings, length, config.n_samples - 1)
    return np.abs(amps[:, 1]) ** 2


def _three_sheet_finals(cells: dict, modes, mode_index, config: RunConfig,
                        knots: int, riders=None):
    """Lossless output-sheet intensities of a batch of groups of three-sheet
    devices that differ only in length.

    cells holds per-group SI arrays "radius" and "offset" and the lengths
    "length", (G,) for one device per group or (G, M) for M members,
    strictly increasing along each row and the same in every row; group g
    carries modes[mode_index[g]] at the
    configured minimum gap, and every device starts in the input sheet.
    Each group is one row of one schedule table (geometry._omega1_table,
    couplings computed per mode, not per group) on its mirrored lattice
    (geometry._length_lattice): the shortest member's knots-knot grid, then
    the gaps up to each longer member's end, with the knots at even and
    the exact interval midpoints at odd indices. The kernel integrates the
    row's right half once and records every member at its breakpoint, so a
    one-member group is its device's knots-knot run. Each axis value's work
    is done once: groups of equal lengths (every 4b and 4c map) share one
    lattice row, passed on as read-only views that no step writes into.

    riders, as (cells, mode_index) of R one-device groups, ride along in
    the same table and kernel call as rows after the batch's
    (geometry._rider_lattice): each device's run alone at (knots + 1)/2
    knots and at knots, bit for bit. Returns the intensities shaped like
    cells["length"], and with riders also the riders' (2, R) intensities,
    coarse then fine.
    """
    length = np.asarray(cells["length"], dtype=float)
    groups = len(mode_index)
    x, h, breaks = _length_lattice(length.reshape(groups, -1), knots)
    radius, offset = cells["radius"], cells["offset"]
    if riders is not None:
        rider_cells, rider_index = riders
        coarse, fine = (_rider_lattice(rider_cells["length"], k, breaks)
                        for k in ((knots + 1) // 2, knots))
        x = np.concatenate([x, coarse[0], fine[0]])
        h = np.concatenate([h, coarse[1], fine[1]])
        radius, offset, mode_index = (
            np.concatenate([batch, rider, rider])
            for batch, rider in ((radius, rider_cells["radius"]),
                                 (offset, rider_cells["offset"]),
                                 (mode_index, rider_index)))
    omega1 = _omega1_table(x, radius, offset, config.d_min_nm * 1e-9, modes,
                           mode_index, config.k0_convention)
    amps = propagate_batch_three(h, omega1[:, ::2], omega1[:, 1::2],
                                 breaks=breaks)
    finals = (np.abs(amps[:, 2]) ** 2).reshape(-1, breaks.size)
    outputs = finals[:groups].reshape(length.shape)
    if riders is None:
        return outputs
    # a rider is whole at the first breakpoint, where its own pairs end
    return outputs, finals[groups:, 0].reshape(2, -1)


def _three_sheet_outputs(cells: dict, modes, mode_index, config: RunConfig,
                         probes: np.ndarray) -> tuple[np.ndarray, int, float]:
    """Lossless output intensities of a batch of groups of three-sheet
    devices at a knot count chosen by step doubling on its probes.

    The batch is given as _three_sheet_finals takes it; probes indexes the
    devices that choose the knot count, in the order of the flattened
    lengths, and each probe runs as a one-member group, its own device.
    Starting from _FIRST_KNOTS, the count doubles (k -> 2k - 1, which keeps
    k = 1 (mod 4) for the kernel's pair steps) until the Richardson
    estimate max |I_fine - I_coarse| / 63 of the output-intensity error on
    the probes is at most _KNOT_TOLERANCE; at _MAX_KNOTS knots it raises
    ExperimentError naming the estimate. The divisor is 2^6 - 1 because
    the kernel is 6th order: halving h shrinks the error 64x, so the fine
    run's error is 1/63 of the difference. The first pair (_FIRST_KNOTS,
    2 _FIRST_KNOTS - 1) runs in the same pass as the batch's first slice
    at 2 _FIRST_KNOTS - 1 knots, each probe as two rider rows of it
    (_three_sheet_finals), so a batch uses at least that count and always
    has an estimate; when the estimate misses, that slice is dropped and
    the probes double alone. A NaN estimate (a probe the kernel refused)
    keeps doubling. The probes are lossless: the loss envelope scales
    every intensity, and so its error, by exp(-2 alpha L) <= 1. The
    estimate is the shortest member's: a longer member's pairs are no
    wider than its own device's, so its error is no larger.

    The whole batch then runs at that count, in slices of groups whose
    table holds at most the samples of _CHUNK one-member rows, riders
    included: the first slice at 2 _FIRST_KNOTS - 1 knots gives up two
    rows per probe, keeping at least one group. Any non-finite device
    raises ExperimentError naming the count. Returns (outputs shaped like
    cells["length"], knots, estimate of the error at knots).
    """
    length = np.asarray(cells["length"], dtype=float)
    rows = length.reshape(len(mode_index), -1)

    def finals(part, knots, riders=None):
        return _three_sheet_finals(
            {"length": rows[part], "radius": cells["radius"][part],
             "offset": cells["offset"][part]}, modes, mode_index[part],
            config, knots, riders)

    def step(knots):
        samples = 8 * int(_member_breaks(rows[0], knots)[-1]) + 1
        return max(1, _CHUNK * (2 * knots - 1) // samples)

    group, member = np.divmod(probes, rows.shape[1])
    probe_cells = {"length": rows[group, member],
                   "radius": cells["radius"][group],
                   "offset": cells["offset"][group]}
    knots = 2 * _FIRST_KNOTS - 1
    head = max(1, step(knots) - 2 * probes.size)
    first, (coarse, fine) = finals(slice(0, head), knots,
                                   (probe_cells, mode_index[group]))
    estimate = float(np.max(np.abs(fine - coarse))) / 63.0
    while not estimate <= _KNOT_TOLERANCE:
        if knots >= _MAX_KNOTS:
            raise ExperimentError(f"knot error estimate {estimate:.3g} is "
                                  f"over {_KNOT_TOLERANCE:g} at {knots} knots")
        coarse, knots = fine, 2 * knots - 1
        fine = _three_sheet_finals(probe_cells, modes, mode_index[group],
                                   config, knots)
        estimate = float(np.max(np.abs(fine - coarse))) / 63.0
        # the first slice ran at a coarser count than the batch's
        first, head = first[:0], 0
    size = step(knots)
    outputs = np.concatenate([first] + [
        finals(slice(start, start + size), knots)
        for start in range(head, len(mode_index), size)])
    nonfinite = np.count_nonzero(~np.isfinite(outputs))
    if nonfinite:
        raise ExperimentError(f"{nonfinite} of {outputs.size} three-sheet "
                              f"devices are non-finite at {knots} knots")
    return outputs.reshape(length.shape), knots, estimate


def _device_groups(spec: SweepSpec, valid: np.ndarray) -> np.ndarray:
    """Flat cell indices of the valid cells as a (G, M) batch.

    When one axis is the length, the valid cells fill a rectangle and a
    group is cheaper than its members run one by one, a group is one value
    of the other axis (one mode, radius and offset) and its members are
    the valid lengths, increasing. Otherwise each valid cell is a
    one-member group. A group's pairs are at most the shortest member's
    width, so its right half takes about (K - 1)/4 x L_max/L_0 pairs
    against M (K - 1)/4 for its M members one by one: it is cheaper when
    L_max/L_0 < M.
    """
    n1, n2 = spec.axis1.values.size, spec.axis2.values.size
    grid = valid.reshape(n2, n1)
    rows, cols = grid.any(axis=1), grid.any(axis=0)
    per_device = np.flatnonzero(valid)[:, None]
    if ("length_um" not in (spec.axis1.name, spec.axis2.name)
            or not np.array_equal(grid, np.outer(rows, cols))):
        return per_device
    lengths = (spec.axis2.values[rows] if spec.axis2.name == "length_um"
               else spec.axis1.values[cols])
    if lengths[-1] / lengths[0] >= lengths.size:
        return per_device
    index = np.arange(n1 * n2).reshape(n2, n1)[np.ix_(rows, cols)]
    return index.T if spec.axis2.name == "length_um" else index


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the output intensity over the axis1 x axis2 grid.

    Three-layer cells violating the arc-validity constraint
    L/2 + offset/2 <= R are reported as NaN; a grid with no valid cell
    raises, and so does one whose valid cells do not resolve or blow up
    (_three_sheet_outputs).
    Both devices are integrated without loss; a lossy spec then damps every
    cell by the exact envelope exp(-2 Im q L) of its mode and length. The
    three-layer cells of a length axis run as groups (_device_groups), one
    integration per value of the other axis, where that costs less than
    running them one by one.
    """
    cfg = spec.config
    cells, modes, mode_index, inversion = _cell_parameters(spec)
    n1 = spec.axis1.values.size
    total = mode_index.size
    length = cells["length"]

    if spec.layers == 2:
        flat = _two_sheet_outputs(modes, mode_index, length, cfg)
        invalid = 0
    else:
        valid = length / 2.0 + cells["offset"] / 2.0 <= cells["radius"]
        if not valid.any():
            raise ExperimentError("every grid cell violates the arc validity "
                                  "constraint L/2 + offset/2 <= R")
        invalid = total - np.count_nonzero(valid)
        index = _device_groups(spec, valid)
        # validity is monotone in L, offset and R along increasing axes, so
        # some corner is valid whenever any cell is
        corners = np.array(sorted({0, n1 - 1, total - n1, total - 1}))
        probes = np.flatnonzero(np.isin(index, corners[valid[corners]]))
        outputs, knots, estimate = _three_sheet_outputs(
            {"length": length[index], "radius": cells["radius"][index[:, 0]],
             "offset": cells["offset"][index[:, 0]]}, modes,
            mode_index[index[:, 0]], cfg, probes)
        flat = np.full(total, np.nan)
        flat[index] = outputs
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
        "invalid_cells": invalid,
        "wavevector_inversion": inversion,
        "dispersion_residual_contract": "< 1e-10, enforced at solve time",
    }
    if spec.layers == 2:
        # the comparator's n_samples - 1 steps; a three-sheet map's knots
        # are chosen by step doubling instead
        metadata["n_samples"] = cfg.n_samples
    else:
        metadata["knots"] = knots
        metadata["knot_error_estimate"] = estimate
        metadata["knot_tolerance"] = _KNOT_TOLERANCE
    return SweepResult(spec=spec, grid=grid, metadata=metadata, modes=modes)


def robustness_metric(result: SweepResult) -> tuple[float, float, float]:
    """(min, mean, stddev) of the output intensity over the grid, skipping
    invalid-geometry cells, the only NaN cells run_sweep returns.

    run_sweep never returns a grid without a finite cell (it raises
    first), but a SweepResult built by hand can hold one; that is the case
    the ExperimentError guards.
    """
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
                          mode: SppMode) -> StretchSearchResult:
    """Scan uniform stretches s of (L, R, offset) at mode, d_min held fixed.

    The arc validity constraint is invariant under the stretch, so every
    scanned geometry is admissible. A coarse pass over s = 1 to 4 in steps
    of 0.1 locates the first factor whose output reaches 0.95; a fine pass
    then tightens it to 0.01.
    """
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
                         fixed_wavevector_per_um=REFERENCE_WAVEVECTOR_PER_UM)
    raise ExperimentError(f"unknown map figure {figure!r}")
