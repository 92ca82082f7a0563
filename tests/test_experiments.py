"""Device runs, wavevector targeting, parameter sweeps, stretch search."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphene_spp.config import RunConfig
from graphene_spp.dispersion import Excitation
from graphene_spp.dynamics import propagate_batch_three
from graphene_spp.experiments import (_CHUNK, _KNOT_TOLERANCE,
                                      ExperimentError, SweepAxis,
                                      SweepResult, SweepSpec,
                                      _cell_parameters, _device_groups,
                                      _largest_roots, _three_sheet_finals,
                                      _three_sheet_outputs,
                                      figure_coupling_axes, figure_map_spec,
                                      parallel_comparator, robustness_metric,
                                      run_device, run_sweep,
                                      stirap_stretch_search,
                                      wavevector_to_omega)
from graphene_spp.geometry import _antisymmetric_grid, _omega1_table
from graphene_spp.materials import CONSTANTS, ev_to_joule
from tests.conftest import (blow_up_kernel_rows, continuous_device_finals,
                            count_mode_solves)


def test_wavevector_inversion_hits_target(default_config):
    omega, _ = wavevector_to_omega(default_config, 35e6)
    mode = default_config.solve_mode(omega=omega)
    assert mode.q.real == pytest.approx(35e6, rel=1e-12)


def test_wavevector_inversion_matches_mode_helper(default_config):
    # the returned mode is the one solved at the returned frequency
    omega, mode = wavevector_to_omega(default_config, 50e6)
    assert mode.q.real == pytest.approx(50e6, rel=1e-12)
    assert mode == default_config.solve_mode(omega=omega)


def test_wavevector_inversion_rejects_absurd_target(default_config):
    # below the light line; a frequency below or above double range; a
    # relaxation rate whose square overflows; a lossless mode whose
    # transverse constant cancels to 0; Fermi levels whose b = 2 eps eps0/D
    # underflows to 0 or overflows
    for config, target in ((default_config, 1e-3), (default_config, 1e-300),
                           (default_config, 1e300),
                           (replace(default_config, gamma_per_s=1e300),
                            35e6),
                           (replace(default_config, gamma_per_s=0.0),
                            2.3e-16),
                           (replace(default_config, E_F_eV=1e300), 35e6),
                           (replace(default_config, E_F_eV=1e-310), 35e6)):
        with pytest.raises(ExperimentError):
            wavevector_to_omega(config, target)


@pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf, 0.0,
                                    -35e6])
def test_wavevector_inversion_rejects_bad_targets(default_config, target):
    with pytest.raises(ExperimentError, match="finite and > 0"):
        wavevector_to_omega(default_config, target)


@settings(max_examples=200, deadline=None, derandomize=True)
@example(fermi=0.15, eps_h=3.9, gamma=0.0, target=35e6)
@example(fermi=0.15, eps_h=3.9, gamma="auto", target=35e6)
@example(fermi=0.15, eps_h=3.9, gamma=2e12, target=35e6)
@given(fermi=st.floats(0.02, 0.6), eps_h=st.floats(1.0, 12.0),
       gamma=st.just(0.0) | st.just("auto") | st.floats(0.0, 1e13),
       target=st.floats(1e6, 5e8))
def test_wavevector_inversion_round_trips(fermi, eps_h, gamma, target):
    config = RunConfig(E_F_eV=fermi, eps_h=eps_h, gamma_per_s=gamma)
    omega, mode = wavevector_to_omega(config, target)
    assert mode == config.solve_mode(omega=omega)
    assert abs(mode.q.real - target) <= 1e-12 * target


@settings(max_examples=100, deadline=None, derandomize=True)
@example(fermi=0.15, eps_h=3.9, gamma=0.0,
         targets=[25e6, 35e6, 50e6, 1e6, 5e8])
@example(fermi=0.15, eps_h=3.9, gamma="auto", targets=[35e6, 25e6, 35e6])
@given(fermi=st.floats(0.02, 0.6), eps_h=st.floats(1.0, 12.0),
       gamma=st.just(0.0) | st.just("auto") | st.floats(0.0, 1e13),
       targets=st.lists(st.floats(1e6, 5e8), min_size=1, max_size=12))
def test_wavevector_batch_is_bitwise_the_scalar_path(fermi, eps_h, gamma,
                                                     targets):
    # one stacked eigenvalue call gives each target's own answer, and the
    # cubic's largest root is np.roots' own, lossless quadratic included
    config = RunConfig(E_F_eV=fermi, eps_h=eps_h, gamma_per_s=gamma)
    omegas, modes = wavevector_to_omega(config, np.array(targets))
    assert isinstance(omegas, np.ndarray) and len(modes) == len(targets)
    for target, omega, mode in zip(targets, omegas.tolist(), modes):
        assert (omega, mode) == wavevector_to_omega(config, target)
        assert mode == config.solve_mode(omega=omega)
    eps = config.medium().permittivity
    drude = (CONSTANTS.sigma0 * 4.0 * ev_to_joule(config.E_F_eV)
             / (math.pi * CONSTANTS.hbar))
    b = 2.0 * eps * CONSTANTS.eps0 / drude
    g = b * config.gamma() ** 2 / np.array(targets)
    a = eps / (CONSTANTS.c**2 * b) / np.array(targets)
    expected = [np.roots([1.0, gi - ai, -1.0, -gi]).real.max()
                for gi, ai in zip(g, a)]
    assert np.array_equal(_largest_roots(g, a), expected)


@pytest.mark.parametrize("bad, message", [
    (1e-3, "wavevector 1e-09 1/um has no bound mode"),
    (math.nan, "target wavevector nan 1/um must be finite and > 0"),
    (-5e6, "target wavevector -5 1/um must be finite and > 0")])
def test_wavevector_batch_names_its_failing_target(default_config,
                                                   monkeypatch, bad,
                                                   message):
    # a bad target in the middle of a batch fails the batch, named: an
    # unsolvable one fails the one batch solve of all five, which names
    # it; a target that is not a wavevector is refused before any solve
    calls = count_mode_solves(monkeypatch)
    with pytest.raises(ExperimentError, match=message):
        wavevector_to_omega(default_config,
                            np.array([30e6, 35e6, bad, 40e6, 45e6]))
    assert len(calls) == (5 if math.isfinite(bad) and bad > 0 else 0)


@pytest.mark.parametrize("failing", [[1e-3, 1e300, 2e-3], [1e300, 1e-3]],
                         ids=["unsolvable-first", "unrepresentable-first"])
@pytest.mark.parametrize("position", [0, 2, 4])
def test_wavevector_batch_reports_the_first_failing_target(default_config,
                                                           position,
                                                           failing):
    # targets without a bound mode or without a frequency, in either
    # order: the batch raises what the one-at-a-time inversions raise for
    # the first of them
    targets = [30e6, 35e6, 40e6, 45e6, 50e6]
    targets[position:position] = failing
    messages = []
    for target in targets:
        try:
            wavevector_to_omega(default_config, target)
        except ExperimentError as exc:
            messages.append(str(exc))
    with pytest.raises(ExperimentError) as caught:
        wavevector_to_omega(default_config, np.array(targets))
    assert str(caught.value) == messages[0]


def test_wavevector_inversion_solves_the_mode_once(default_config,
                                                   monkeypatch):
    calls = count_mode_solves(monkeypatch)
    omega, _ = wavevector_to_omega(default_config, 35e6)
    assert calls == [Excitation.at_angular_frequency(omega)]


@pytest.mark.parametrize("figure, solves", [("4b", 4), ("4c", 1)])
def test_map_solves_each_mode_once(default_config, monkeypatch, figure,
                                   solves):
    # one solve per wavevector target, the inversion's own; the map takes
    # each target's mode from it
    calls = count_mode_solves(monkeypatch)
    result = run_sweep(figure_map_spec(figure, default_config, (4, 3)))
    assert len(calls) == solves
    assert len(result.metadata["wavevector_inversion"]) == solves


def test_validation_report_solves_each_mode_once(default_config,
                                                 monkeypatch):
    # the configured mode and the reference-scale inversion's; the device
    # runs, the searches and the oracle suite take the mode they are given
    from graphene_spp import validation

    monkeypatch.setattr(validation, "run_oracle_suite",
                        lambda config, mode, seed=0: {})
    calls = count_mode_solves(monkeypatch)
    validation.build_validation_report(default_config)
    assert len(calls) == 2


def test_validation_report_solve_count_with_oracle_suite(default_config,
                                                         monkeypatch):
    # the 60 residual-oracle draws at seed 0 add one solve each to the two
    # of the report itself; the staircase check takes the configured mode
    from graphene_spp import validation

    calls = count_mode_solves(monkeypatch)
    validation.build_validation_report(default_config, seed=0)
    assert len(calls) == 62


def test_wavevector_inversion_propagates_programming_errors(
        default_config, monkeypatch):
    # only an unsolvable mode becomes an ExperimentError; a bug must surface
    def broken(self, excitations):
        raise TypeError("broken solver")

    monkeypatch.setattr(RunConfig, "solve_modes", broken)
    with pytest.raises(TypeError, match="broken solver"):
        wavevector_to_omega(default_config, 35e6)


def test_run_device_lossless_default(default_config, default_mode):
    run = run_device(default_config, default_mode)
    assert run.mode is default_mode
    assert run.alpha == run.mode.q.imag
    assert run.trajectory.amplitudes.shape[0] == default_config.n_samples
    # feasibility pins for the default configuration
    final = run.trajectory.final_intensities
    assert final[0] == pytest.approx(0.79736794, abs=1e-6)
    assert final[2] == pytest.approx(0.16217238, abs=1e-6)
    assert np.sum(final) == pytest.approx(1.0, abs=1e-9)


def test_run_device_lossy_default(default_config, default_mode):
    run = run_device(default_config, default_mode)
    assert run.alpha > 0
    lossy = run.trajectory.damped(run.alpha)
    final = lossy.final_intensities
    assert final[2] == pytest.approx(0.00851436, abs=1e-6)
    totals = np.sum(lossy.intensities, axis=1)
    assert np.all(np.diff(totals) <= 1e-12)


def test_parallel_comparator_follows_rabi_formula(default_config):
    from graphene_spp.coupling import coupling_coefficient

    _, mode = wavevector_to_omega(default_config, 35e6)
    gap = default_config.d_min_nm * 1e-9
    strength = abs(coupling_coefficient(mode, gap).c12.real)
    for length in (0.2e-6, 0.5e-6):
        output = parallel_comparator(default_config, mode, length)
        assert output == pytest.approx(math.sin(strength * length) ** 2,
                                       abs=1e-6)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0])
def test_parallel_comparator_rejects_nonfinite_input(default_config,
                                                     default_mode, bad):
    # a NaN length used to come back as a NaN intensity
    with pytest.raises(ExperimentError, match="finite and > 0"):
        parallel_comparator(default_config, default_mode, bad)


def test_sweep_axis_validation():
    with pytest.raises(ExperimentError):
        SweepAxis("length_um", np.array([2.0, 1.0]))
    with pytest.raises(ExperimentError):
        SweepAxis("bogus_axis", np.array([1.0, 2.0]))
    axis = SweepAxis("length_um", np.array([0.5, 1.0, 2.0]))
    assert axis.values.shape == (3,)


def test_sweep_spec_validation(default_config):
    wavevector = SweepAxis("wavevector_per_um", np.array([30.0, 35.0]))
    length = SweepAxis("length_um", np.array([0.8, 1.0]))
    with pytest.raises(ExperimentError):
        SweepSpec(axis1=wavevector, axis2=wavevector, config=default_config)
    with pytest.raises(ExperimentError):
        SweepSpec(axis1=wavevector, axis2=length, config=default_config,
                  layers=4)


def test_three_layer_sweep_matches_direct_runs(default_config):
    wavevector = SweepAxis("wavevector_per_um", np.array([30.0, 40.0]))
    length = SweepAxis("length_um", np.array([0.9, 1.1]))
    spec = SweepSpec(axis1=wavevector, axis2=length, config=default_config)
    result = run_sweep(spec)
    assert result.grid.shape == (2, 2)
    assert result.metadata["layers"] == 3

    # cross-check one cell against a direct single-device run
    from graphene_spp.dynamics import propagate
    from graphene_spp.geometry import build_schedule

    _, mode = wavevector_to_omega(default_config, 40e6)
    geom = replace(default_config, L_um=1.1).geometry()
    schedule = build_schedule(geom, mode, default_config.n_samples,
                              default_config.k0_convention)
    trajectory = propagate(schedule, np.array([1, 0, 0], dtype=complex))
    expected = trajectory.final_intensities[2]
    assert result.grid[1, 1] == pytest.approx(expected, rel=1e-6)


def test_three_sheet_finals_follow_their_cells_bitwise(default_config):
    # rows grouped by mode and by layout must land back on their own cells:
    # shuffling a batch of interleaved modes permutes the outputs exactly,
    # and each output equals its device run alone
    modes = [wavevector_to_omega(default_config, q)[1]
             for q in (30e6, 40e6)]
    lengths = np.array([0.9e-6, 1.0e-6, 1.1e-6])
    cells = {"length": np.tile(lengths, 4),
             "radius": np.repeat([800e-9, 900e-9], 6),
             "offset": np.tile(np.repeat([200e-9, 150e-9], 3), 2)}
    mode_index = np.tile([0, 1], 6)
    finals = _three_sheet_finals(cells, modes, mode_index, default_config,
                                 65)
    order = np.random.default_rng(3).permutation(mode_index.size)
    shuffled = _three_sheet_finals(
        {key: values[order] for key, values in cells.items()}, modes,
        mode_index[order], default_config, 65)
    assert np.array_equal(shuffled, finals[order])
    for i in range(mode_index.size):
        alone = _three_sheet_finals(
            {key: values[[i]] for key, values in cells.items()},
            [modes[mode_index[i]]], np.zeros(1, dtype=int), default_config,
            65)
        assert alone[0] == finals[i]
    assert len(set(finals.tolist())) == finals.size


def test_three_sheet_outputs_are_chunk_independent(default_config):
    # more than two _CHUNK slices of stretched devices: the chunked batch
    # equals one call over the whole batch at the chosen knot count
    stretches = np.linspace(1.0, 2.0, 2 * _CHUNK + 3)
    cells = {"length": default_config.L_um * 1e-6 * stretches,
             "radius": default_config.R_nm * 1e-9 * stretches,
             "offset": default_config.delta_nm * 1e-9 * stretches}
    modes = [default_config.solve_mode()]
    mode_index = np.zeros(stretches.size, dtype=int)
    outputs, knots, estimate = _three_sheet_outputs(
        cells, modes, mode_index, default_config,
        np.array([0, stretches.size - 1]))
    assert outputs.shape == stretches.shape
    assert estimate <= _KNOT_TOLERANCE
    whole = _three_sheet_finals(cells, modes, mode_index, default_config,
                                knots)
    assert np.array_equal(outputs, whole)


# Largest error of the lossless 12x12 map against the same map at four
# times the knot intervals, measured with the 4th-order Magnus kernel that
# preceded the 6th-order pair steps, both maps at 257 knots. The RK4 kernel
# before it measured 1.49822e-7 (4b, 257 knots) and 2.95955e-8 (4c, 513).
_FOURTH_ORDER_MAP_ERROR = {"4b": 7.38e-9, "4c": 5.06e-9}


@pytest.mark.parametrize("figure", ["4b", "4c"])
def test_map_error_is_at_most_the_fourth_order_kernels(default_config,
                                                       figure):
    spec = figure_map_spec(figure, default_config, (12, 12), lossy=False)
    result = run_sweep(spec)
    cells, modes, mode_index, _ = _cell_parameters(spec)
    valid = np.isfinite(result.grid.ravel())
    assert np.count_nonzero(valid) + result.metadata["invalid_cells"] == 144
    knots = result.metadata["knots"]
    reference = _three_sheet_finals(
        {key: values[valid] for key, values in cells.items()}, modes,
        mode_index[valid], default_config, 4 * (knots - 1) + 1)
    error = np.abs(result.grid.ravel()[valid] - reference).max()
    assert knots == 129
    assert error <= _FOURTH_ORDER_MAP_ERROR[figure]


def test_length_rows_are_one_integration_per_wavevector(default_config):
    # each wavevector's lengths are one integration on the shortest
    # length's pairs, so the shortest row is the per-device run bit for
    # bit, and no row is further than the per-device map from a map at
    # four times the knot intervals. Largest row errors, measured: 2.3e-9
    # per device at 1.2 um, 2.0e-10 grouped
    spec = figure_map_spec("4b", default_config, (12, 12), lossy=False)
    result = run_sweep(spec)
    knots = result.metadata["knots"]
    assert knots == 129 and result.metadata["invalid_cells"] == 0
    cells, modes, mode_index, _ = _cell_parameters(spec)

    def per_device(knots):
        return _three_sheet_finals(cells, modes, mode_index, default_config,
                                   knots).reshape(result.grid.shape)

    flat, fine = per_device(knots), per_device(4 * (knots - 1) + 1)
    assert np.array_equal(result.grid[0], flat[0])
    grouped_error = np.abs(result.grid - fine).max(axis=1)
    flat_error = np.abs(flat - fine).max(axis=1)
    assert np.all(grouped_error <= flat_error)
    assert grouped_error[-1] < 0.2 * flat_error[-1]
    # with the length as the first axis the groups are the grid's rows
    swapped = run_sweep(replace(spec, axis1=spec.axis2, axis2=spec.axis1))
    assert np.array_equal(swapped.grid, result.grid.T)


def _per_device_outputs(cells, modes, mode_index, config, knots):
    """Output intensities built device by device: each on its own
    knots-knot grid at uniform h, one kernel row with one member each."""
    x = _antisymmetric_grid(cells["length"], 2 * knots - 1)
    table = _omega1_table(x, cells["radius"], cells["offset"],
                          config.d_min_nm * 1e-9, modes, mode_index,
                          config.k0_convention)
    amps = propagate_batch_three(cells["length"] / (knots - 1),
                                 table[:, ::2], table[:, 1::2])
    return np.abs(amps[:, 2]) ** 2


def test_batches_without_a_length_axis_run_per_device(default_config):
    # figure 4c and the stretch search have no group of lengths: their
    # outputs are the per-device runs, bit for bit
    spec = figure_map_spec("4c", default_config, (6, 5), lossy=False)
    result = run_sweep(spec)
    cells, modes, mode_index, _ = _cell_parameters(spec)
    valid = np.isfinite(result.grid.ravel())
    assert 0 < np.count_nonzero(valid) < valid.size
    expected = _per_device_outputs(
        {key: values[valid] for key, values in cells.items()}, modes,
        mode_index[valid], default_config, result.metadata["knots"])
    assert np.array_equal(result.grid.ravel()[valid], expected)

    mode = default_config.solve_mode()
    search = stirap_stretch_search(default_config, mode)
    stretches = search.scanned_stretches
    cells = {"length": default_config.L_um * 1e-6 * stretches,
             "radius": default_config.R_nm * 1e-9 * stretches,
             "offset": default_config.delta_nm * 1e-9 * stretches}
    mode_index = np.zeros(stretches.size, dtype=int)
    _, knots, _ = _three_sheet_outputs(cells, [mode], mode_index,
                                       default_config,
                                       np.array([0, stretches.size - 1]))
    assert np.array_equal(search.scanned_outputs, _per_device_outputs(
        cells, [mode], mode_index, default_config, knots))


def test_length_axes_group_only_where_cheaper(default_config):
    # a group's right half takes about L_max/L_0 times its shortest
    # member's pairs, its M members one by one M times: two lengths 100x
    # apart run per device, bit for bit, and two lengths 1.5x apart group
    config = replace(default_config, R_nm=6000.0)
    wavevector = SweepAxis("wavevector_per_um", np.array([30.0, 40.0]))

    def spec(lengths):
        return SweepSpec(axis1=wavevector, axis2=SweepAxis(
            "length_um", np.array(lengths)), config=config)

    valid = np.ones(4, dtype=bool)
    assert _device_groups(spec([0.8, 1.2]), valid).tolist() == [[0, 2],
                                                                [1, 3]]
    wide = spec([0.1, 10.0])
    assert _device_groups(wide, valid).tolist() == [[0], [1], [2], [3]]
    result = run_sweep(wide)
    cells, modes, mode_index, _ = _cell_parameters(wide)
    assert np.array_equal(result.grid.ravel(), _per_device_outputs(
        cells, modes, mode_index, config, result.metadata["knots"]))


def test_a_length_gap_below_rounding_takes_one_pair(default_config):
    # two lengths 2e-14 apart, far below the pair count's rounding slack,
    # still group, their gap taking one pair, and read the same output
    lengths = SweepAxis("length_um", np.array([1.0, 1.0 + 2e-14]))
    spec = figure_map_spec("4b", default_config, (3, 2), lossy=False)
    spec = replace(spec, axis2=lengths)
    assert _device_groups(spec, np.ones(6, dtype=bool)).shape == (3, 2)
    grid = run_sweep(spec).grid
    assert np.isfinite(grid).all()
    np.testing.assert_allclose(grid[1], grid[0], rtol=0.0, atol=1e-12)


def test_invalid_geometry_cells_are_nan(default_config):
    radius = SweepAxis("radius_nm", np.array([400.0, 800.0]))
    offset = SweepAxis("offset_nm", np.array([100.0, 200.0]))
    spec = SweepSpec(axis1=radius, axis2=offset, config=default_config,
                     fixed_wavevector_per_um=35.0)
    result = run_sweep(spec)
    # L/2 + delta/2 = 550 or 600 nm exceeds a 400 nm radius
    assert np.isnan(result.grid[0, 0]) and np.isnan(result.grid[1, 0])
    assert np.isfinite(result.grid[:, 1]).all()
    assert result.metadata["invalid_cells"] == 2


def test_nonfinite_cells_are_counted_apart_from_invalid(default_config,
                                                        monkeypatch):
    # the first device of every batch blows up, the probes too: a NaN
    # estimate keeps doubling the knots up to the cap (65, 129, ..., 2049),
    # and the map is refused there, not returned with the blow-up read as
    # one more invalid-geometry cell
    blow_up_kernel_rows(monkeypatch, 0)
    radius = SweepAxis("radius_nm", np.array([400.0, 800.0]))
    offset = SweepAxis("offset_nm", np.array([100.0, 200.0]))
    spec = SweepSpec(axis1=radius, axis2=offset, config=default_config,
                     fixed_wavevector_per_um=35.0)
    with pytest.raises(ExperimentError, match="estimate nan .* at 2049 knots"):
        run_sweep(spec)


def test_a_map_unresolved_at_the_knot_cap_is_refused(default_config,
                                                     monkeypatch):
    import graphene_spp.experiments as experiments

    monkeypatch.setattr(experiments, "_KNOT_TOLERANCE", 1e-300)
    spec = figure_map_spec("4b", default_config, (4, 3), lossy=False)
    with pytest.raises(ExperimentError,
                       match=r"estimate \d\S* is over 1e-300 at 2049 knots"):
        run_sweep(spec)


def test_a_blow_up_off_the_probes_is_refused(default_config, monkeypatch):
    # the 4x3 map's four wavevectors are one integration each, 12 members
    # in all; the probes (its four corners) stay finite, so the estimate
    # stops the doubling at 129 knots, and member 4 of the main pass is
    # the one non-finite device
    blow_up_kernel_rows(monkeypatch, 4, batch=12)
    spec = figure_map_spec("4b", default_config, (4, 3), lossy=False)
    with pytest.raises(ExperimentError,
                       match="1 of 12 three-sheet devices .* at 129 knots"):
        run_sweep(spec)


def test_map_resolution_does_not_depend_on_n_samples():
    # n_samples is the device run's knot count, not the maps' cap: this
    # long device needs 257 knots, and its map is the same at 256 samples
    # as at the default 4096
    long_device = RunConfig(L_um=2.0, R_nm=1500.0, delta_nm=400.0,
                            d_min_nm=35.0)
    results = [run_sweep(figure_map_spec("4b", replace(
        long_device, n_samples=n_samples), (3, 3), lossy=False))
        for n_samples in (256, 4096)]
    assert [result.metadata["knots"] for result in results] == [257, 257]
    for row, reference in zip(results[0].grid, results[1].grid):
        assert np.array_equal(row, reference)


def test_robustness_metric_skips_invalid_cells(default_config):
    radius = SweepAxis("radius_nm", np.array([400.0, 800.0]))
    offset = SweepAxis("offset_nm", np.array([100.0, 200.0]))
    spec = SweepSpec(axis1=radius, axis2=offset, config=default_config,
                     fixed_wavevector_per_um=35.0)
    result = run_sweep(spec)
    low, mean, spread = robustness_metric(result)
    finite = result.grid[np.isfinite(result.grid)]
    assert low == pytest.approx(float(finite.min()))
    assert mean == pytest.approx(float(finite.mean()))


def test_robustness_metric_rejects_a_grid_without_finite_cells(
        default_config):
    # run_sweep raises before it returns such a grid, but a hand-built
    # result can hold one
    spec = figure_map_spec("4b", default_config, (3, 3))
    result = SweepResult(spec=spec, grid=np.full((3, 3), np.nan),
                         metadata={}, modes=())
    with pytest.raises(ExperimentError, match="only invalid cells"):
        robustness_metric(result)


@pytest.mark.parametrize("length_um, radius_nm, invalid, knots", [
    (8.0, 5000.0, 0, 513), (16.0, 9000.0, 6, 1025)],
    ids=["8.0-5000.0-0", "16.0-9000.0-6"])
def test_robustness_metric_rejects_nonfinite_cells(length_um, radius_nm,
                                                   invalid, knots):
    # these long 4b devices blew up when n_samples = 64 stopped the knot
    # doubling at 129; doubled to their own resolution they come out
    # finite, so the metric sees no NaN but the invalid-geometry cells
    config = RunConfig(L_um=length_um, R_nm=radius_nm, n_samples=64)
    result = run_sweep(figure_map_spec("4b", config, (6, 5)))
    assert result.metadata["invalid_cells"] == invalid
    assert result.metadata["knots"] == knots
    assert (result.metadata["knot_error_estimate"]
            <= result.metadata["knot_tolerance"])
    assert np.count_nonzero(np.isnan(result.grid)) == invalid
    low, mean, _ = robustness_metric(result)
    assert 0.0 <= low <= mean <= 1.0


def test_two_layer_sweep_matches_comparator(default_config):
    wavevector = SweepAxis("wavevector_per_um", np.array([30.0, 35.0]))
    length = SweepAxis("length_um", np.array([0.5, 1.0]))
    spec = SweepSpec(axis1=wavevector, axis2=length, config=default_config,
                     layers=2)
    result = run_sweep(spec)
    direct = parallel_comparator(default_config, result.modes[1], 1.0e-6)
    assert result.grid[1, 1] == pytest.approx(direct, rel=1e-4, abs=1e-9)
    # the comparator runs the map's kernel at the map's step count
    assert result.grid[1, 1] == direct


def test_two_layer_sweep_is_one_batch_past_the_chunk(default_config):
    # more than _CHUNK cells run as one batch: a cell past index _CHUNK
    # equals its pair run alone, bit for bit
    wavevector = SweepAxis("wavevector_per_um", np.array([30.0, 35.0]))
    lengths = np.linspace(0.5, 2.0, _CHUNK // 2 + 44)
    spec = SweepSpec(axis1=wavevector,
                     axis2=SweepAxis("length_um", lengths),
                     config=default_config, layers=2)
    result = run_sweep(spec)
    # the last cell, at flat index 2 lengths.size - 1 = 599
    assert result.grid.size - 1 > _CHUNK
    direct = parallel_comparator(default_config, result.modes[1],
                                 lengths[-1] * 1e-6)
    assert result.grid[-1, 1] == direct


@pytest.mark.parametrize("layers", [2, 3])
def test_lossy_sweep_is_lossless_sweep_times_envelope(default_config, layers):
    # the kernels are lossless; a lossy sweep damps each cell once by
    # exp(-2 Im q L). L = 1.5 um breaks the three-sheet arc (NaN cells).
    wavevector = SweepAxis("wavevector_per_um", np.array([30.0, 40.0]))
    length = SweepAxis("length_um", np.array([0.9, 1.5]))
    spec = SweepSpec(axis1=wavevector, axis2=length, config=default_config,
                     layers=layers)
    lossless = run_sweep(spec).grid
    lossy = run_sweep(replace(spec, lossy=True)).grid
    alpha = np.array([wavevector_to_omega(default_config, q * 1e6)[1].q.imag
                      for q in wavevector.values])
    envelope = np.exp(-2.0 * alpha[None, :] * length.values[:, None] * 1e-6)
    assert np.array_equal(np.isnan(lossy), np.isnan(lossless))
    assert np.isnan(lossy).any() == (layers == 3)
    np.testing.assert_allclose(lossy, lossless * envelope, rtol=1e-14,
                               atol=0.0)
    assert np.nanmax(lossy / lossless) < 1.0


def test_figure_map_specs(default_config):
    spec_a = figure_map_spec("4a", default_config, (12, 9))
    assert spec_a.layers == 2
    assert spec_a.axis1.name == "wavevector_per_um"
    assert spec_a.axis1.values[0] == pytest.approx(25.0)
    assert spec_a.axis1.values[-1] == pytest.approx(50.0)
    assert spec_a.axis2.values[0] == pytest.approx(0.8)
    assert spec_a.axis2.values[-1] == pytest.approx(1.2)
    assert len(spec_a.axis1.values) == 12 and len(spec_a.axis2.values) == 9

    spec_b = figure_map_spec("4b", default_config, (12, 9))
    assert spec_b.layers == 3

    spec_c = figure_map_spec("4c", default_config, (8, 8))
    assert spec_c.axis1.name == "radius_nm"
    assert spec_c.axis2.name == "offset_nm"
    assert spec_c.lossy
    assert spec_c.fixed_wavevector_per_um == pytest.approx(35.0)

    with pytest.raises(ExperimentError):
        figure_map_spec("5", default_config, (8, 8))


def test_figure_coupling_axes(default_config):
    d_nm, curves = figure_coupling_axes(default_config)
    assert d_nm.size == 96
    assert d_nm[0] == pytest.approx(2.0)
    assert d_nm[-1] == pytest.approx(100.0)
    assert [fermi for fermi, _ in curves] == [0.05, 0.10, 0.15, 0.20]
    for _, c12 in curves:
        assert np.all(np.diff(np.abs(c12)) < 0)


def test_stretch_search_reports_scan(default_config, default_mode):
    result = stirap_stretch_search(default_config, default_mode)
    assert result.target == 0.95
    np.testing.assert_allclose(result.scanned_stretches,
                               np.arange(10, 41) / 10, rtol=0, atol=1e-14)
    assert len(result.scanned_stretches) == len(result.scanned_outputs)
    assert 0.0 <= result.best_output <= 1.0
    # the default-scale device transfers poorly and stretching only hurts;
    # the search must report that honestly rather than fabricate a stretch
    assert result.stretch is None
    assert result.output is None


def test_stretch_search_succeeds_at_reference_scale(default_config):
    _, mode = wavevector_to_omega(default_config, 35e6)
    result = stirap_stretch_search(default_config, mode)
    assert result.stretch is not None
    assert result.stretch <= 4.0
    assert result.best_output >= 0.95
    assert result.target <= result.output <= 1.0
    # output is the lossless output of the device stretched by s, within
    # the knot choice's error tolerance of an adaptive solve of it
    s = result.stretch
    geom = replace(default_config, L_um=default_config.L_um * s,
                   R_nm=default_config.R_nm * s,
                   delta_nm=default_config.delta_nm * s).geometry()
    exact = continuous_device_finals(geom, mode,
                                     default_config.k0_convention)
    assert result.output == pytest.approx(abs(exact[2]) ** 2,
                                          abs=_KNOT_TOLERANCE)


@pytest.mark.parametrize("wavevector", [None, 35e6],
                         ids=["default", "reference"])
def test_stretch_search_refuses_a_blow_up(default_config, monkeypatch,
                                          wavevector):
    # stretch 1.5 of the 31-stretch coarse scan blows up off the two end
    # probes; argmax would take its NaN as the best output
    mode = (default_config.solve_mode() if wavevector is None
            else wavevector_to_omega(default_config, wavevector)[1])
    blow_up_kernel_rows(monkeypatch, 5, batch=31)
    with pytest.raises(ExperimentError, match="1 of 31 three-sheet devices"):
        stirap_stretch_search(default_config, mode)


def test_sweep_metadata_records_inversion(default_config):
    wavevector = SweepAxis("wavevector_per_um", np.array([30.0, 35.0]))
    length = SweepAxis("length_um", np.array([1.0, 1.1]))
    spec = SweepSpec(axis1=wavevector, axis2=length, config=default_config)
    result = run_sweep(spec)
    inversions = result.metadata["wavevector_inversion"]
    assert len(inversions) == 2
    for record in inversions:
        assert record["attained_Re_q_per_um"] == pytest.approx(
            record["target_per_um"], rel=1e-12)
