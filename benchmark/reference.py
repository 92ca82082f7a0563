"""Accuracy references for the benchmark workloads.

Each reference recomputes a workload's output intensities without the
package's propagation kernels (`graphene_spp.dynamics` is never called):

* the two-sheet comparator map (figure 4a) against the closed form
  sin^2(C L) of a constant two-channel coupler;
* the three-sheet device (figure 4b cells, the figure 3 device run and the
  `verify` STIRAP runs) against an adaptive DOP853 solve of the continuous
  device, in which the couplings are evaluated at the exact arc separations
  rather than interpolated between schedule knots.

The material, dispersion and coupling layers are used as they are: the
references judge the integrator and the schedule it is fed, which is what
fewer knots or a new kernel would change.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.integrate import solve_ivp

from graphene_spp.config import RunConfig
from graphene_spp.coupling import coupling_at_separations, coupling_coefficient
from graphene_spp.io import read_csv

# Self-consistency of the DOP853 reference at these tolerances is about 3e-14
# in intensity, far below the integrator errors it is compared with.
RTOL = 1e-12
ATOL = 1e-14


def device_final_intensities(config: RunConfig, mode, length_m: float,
                             lossy: bool) -> np.ndarray:
    """|a_i|^2 at x = +L/2 of the continuous three-sheet device started in
    (1, 0, 0) at x = -L/2, with loss alpha = Im q when lossy."""
    radius = config.R_nm * 1e-3
    offset = config.delta_nm * 1e-3
    base = config.d_min_nm * 1e-3 + radius
    half = length_m * 1e6 / 2.0
    alpha = mode.q.imag * 1e-6 if lossy else 0.0

    def rhs(x_um, a):
        u = np.array([x_um - offset / 2.0, x_um + offset / 2.0])
        d_m = (base - np.sqrt(radius * radius - u * u)) * 1e-6
        c12, _ = coupling_at_separations(mode, d_m, config.k0_convention)
        w1, w2 = np.abs(c12.real) * 1e-6
        return np.array([-1j * w1 * a[1] - alpha * a[0],
                         -1j * (w1 * a[0] + w2 * a[2]) - alpha * a[1],
                         -1j * w2 * a[1] - alpha * a[2]])

    start = np.array([1.0, 0.0, 0.0], dtype=complex)
    sol = solve_ivp(rhs, (-half, half), start, method="DOP853", rtol=RTOL,
                    atol=ATOL)
    if not sol.success:
        raise RuntimeError(f"reference solve failed: {sol.message}")
    return np.abs(sol.y[:, -1]) ** 2


def _map_grid(csv_path: str) -> np.ndarray:
    _, rows = read_csv(csv_path)
    return np.array([row[1:] for row in rows], dtype=float)


def _map_metadata(json_path: str) -> dict:
    with open(json_path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _inverted_modes(config: RunConfig, metadata: dict) -> list:
    return [config.solve_mode(omega=entry["omega_rad_per_s"])
            for entry in metadata["wavevector_inversion"]]


def comparator_map_error(config: RunConfig, out_dir: str) -> tuple[float, int]:
    """Max |grid - sin^2(C L)| over every cell of the figure 4a map."""
    grid = _map_grid(f"{out_dir}/fig_4a.csv")
    metadata = _map_metadata(f"{out_dir}/fig_4a.json")
    modes = _inverted_modes(config, metadata)
    d_min = config.d_min_nm * 1e-9
    strength = np.array([abs(coupling_coefficient(m, d_min,
                                                  config.k0_convention).c12.real)
                         for m in modes])
    lengths = np.array(metadata["axis2"]["values"]) * 1e-6
    exact = np.sin(strength[None, :] * lengths[:, None]) ** 2
    return float(np.max(np.abs(grid - exact))), int(grid.size)


def sample_cells(shape: tuple[int, int], count: int,
                 rng: np.random.Generator) -> list[tuple[int, int]]:
    """The four corners of the map, where the axes' extremes meet and the
    integrator error peaks, plus one seed-chosen cell in each block of a
    near-square block partition, so every region of the (wavevector,
    length) plane is sampled; at most `count` cells in all."""
    rows, cols = shape
    corners = {(0, 0), (0, cols - 1), (rows - 1, 0), (rows - 1, cols - 1)}
    count = max(0, min(count, rows * cols) - len(corners))
    block_rows = max(1, min(rows, round(math.sqrt(count * rows / cols))))
    block_cols = max(1, min(cols, count // block_rows))
    row_edges = np.linspace(0, rows, block_rows + 1).astype(int)
    col_edges = np.linspace(0, cols, block_cols + 1).astype(int)
    cells = sorted(corners)
    for r0, r1 in zip(row_edges[:-1], row_edges[1:]):
        for c0, c1 in zip(col_edges[:-1], col_edges[1:]):
            if r1 <= r0 or c1 <= c0:
                continue
            cell = (int(rng.integers(r0, r1)), int(rng.integers(c0, c1)))
            if cell not in cells:
                cells.append(cell)
    return cells


def device_map_error(config: RunConfig, out_dir: str, count: int,
                     rng: np.random.Generator) -> tuple[float, int]:
    """Max |grid - reference| of the figure 4b map over `count` cells of
    `sample_cells` (row = length index, column = wavevector index)."""
    grid = _map_grid(f"{out_dir}/fig_4b.csv")
    cells = sample_cells(grid.shape, count, rng)
    metadata = _map_metadata(f"{out_dir}/fig_4b.json")
    modes = _inverted_modes(config, metadata)
    lengths = np.array(metadata["axis2"]["values"]) * 1e-6
    errors = [grid[row, col] - device_final_intensities(
        config, modes[col], lengths[row], lossy=False)[2]
        for row, col in cells]
    return float(np.max(np.abs(errors))), len(cells)


def _final_row(csv_path: str) -> np.ndarray:
    _, rows = read_csv(csv_path)
    return np.array(rows[-1][1:], dtype=float)


def _device_error(config: RunConfig, computed: dict) -> tuple[float, int]:
    """Max error of the configured device's final intensities, keyed by
    lossy; NaN in the output propagates into the error."""
    mode = config.solve_mode()
    errors = [computed[lossy] - device_final_intensities(
        config, mode, config.L_um * 1e-6, lossy) for lossy in computed]
    return float(np.max(np.abs(errors))), sum(e.size for e in errors)


def device_run_error(config: RunConfig, out_dir: str) -> tuple[float, int]:
    """Max error of the lossless and lossy final intensities of figure 3."""
    return _device_error(config, {
        lossy: _final_row(f"{out_dir}/device_run_{label}.csv")
        for label, lossy in (("lossless", False), ("lossy", True))})


def verify_error(config: RunConfig, out_dir: str) -> tuple[float, int]:
    """Max error of the STIRAP final intensities in the validation report."""
    with open(f"{out_dir}/validation.json", "r", encoding="utf-8") as handle:
        stirap = json.load(handle)["stirap_default"]
    return _device_error(config, {
        False: np.array(stirap["lossless_final_intensities"], dtype=float),
        True: np.array(stirap["lossy_final_intensities"], dtype=float)})
