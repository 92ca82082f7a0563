"""Device runs, wavevector targeting, parameter sweeps, stretch search."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphene_spp.config import RunConfig
from graphene_spp.experiments import (_CHUNK, _KNOT_TOLERANCE,
                                      ExperimentError, SweepAxis, SweepSpec,
                                      _three_sheet_finals,
                                      _three_sheet_outputs,
                                      figure_coupling_axes, figure_map_spec,
                                      mode_at_wavevector, parallel_comparator,
                                      robustness_metric, run_device,
                                      run_sweep, stirap_stretch_search,
                                      wavevector_to_omega)
from tests.conftest import continuous_device_finals


def test_wavevector_inversion_hits_target(default_config):
    omega = wavevector_to_omega(default_config, 35e6)
    mode = default_config.solve_mode(omega=omega)
    assert mode.q.real == pytest.approx(35e6, rel=1e-12)


def test_wavevector_inversion_matches_mode_helper(default_config):
    mode = mode_at_wavevector(default_config, 50e6)
    assert mode.q.real == pytest.approx(50e6, rel=1e-12)


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
    omega = wavevector_to_omega(config, target)
    attained = config.solve_mode(omega=omega).q.real
    assert abs(attained - target) <= 1e-12 * target


def test_wavevector_inversion_solves_the_mode_once(default_config,
                                                   monkeypatch):
    solve = RunConfig.solve_mode
    calls = []

    def counted(self, omega=None):
        calls.append(omega)
        return solve(self, omega)

    monkeypatch.setattr(RunConfig, "solve_mode", counted)
    omega = wavevector_to_omega(default_config, 35e6)
    assert calls == [omega]


def test_wavevector_inversion_propagates_programming_errors(
        default_config, monkeypatch):
    # only an unsolvable mode becomes an ExperimentError; a bug must surface
    def broken(self, omega=None):
        raise TypeError("broken solver")

    monkeypatch.setattr(RunConfig, "solve_mode", broken)
    with pytest.raises(TypeError, match="broken solver"):
        wavevector_to_omega(default_config, 35e6)


def test_run_device_lossless_default(default_config):
    run = run_device(default_config)
    assert run.alpha == run.mode.q.imag
    assert run.trajectory.amplitudes.shape[0] == default_config.n_samples
    # feasibility pins for the default configuration
    final = run.trajectory.final_intensities
    assert final[0] == pytest.approx(0.79736794, abs=1e-6)
    assert final[2] == pytest.approx(0.16217238, abs=1e-6)
    assert np.sum(final) == pytest.approx(1.0, abs=1e-9)


def test_run_device_lossy_default(default_config):
    run = run_device(default_config)
    assert run.alpha > 0
    lossy = run.trajectory.damped(run.alpha)
    final = lossy.final_intensities
    assert final[2] == pytest.approx(0.00851436, abs=1e-6)
    totals = np.sum(lossy.intensities, axis=1)
    assert np.all(np.diff(totals) <= 1e-12)


def test_parallel_comparator_follows_rabi_formula(default_config):
    from graphene_spp.coupling import coupling_coefficient
    from graphene_spp.experiments import mode_at_wavevector

    target = 35e6
    mode = mode_at_wavevector(default_config, target)
    strength = abs(coupling_coefficient(mode, 20e-9).c12.real)
    for length in (0.2e-6, 0.5e-6):
        output = parallel_comparator(target, length, 20e-9,
                                     config=default_config)
        assert output == pytest.approx(math.sin(strength * length) ** 2,
                                       abs=1e-6)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0])
@pytest.mark.parametrize("argument", [0, 1, 2])
def test_parallel_comparator_rejects_nonfinite_input(default_config, bad,
                                                     argument):
    # (wavevector, length, separation); a NaN length used to come back as a
    # NaN intensity, a NaN separation as a CouplingDomainError
    args = [35e6, 0.5e-6, 20e-9]
    args[argument] = bad
    with pytest.raises(ExperimentError, match="finite and > 0"):
        parallel_comparator(*args, config=default_config)


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

    mode = mode_at_wavevector(default_config, 40e6)
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
    modes = [mode_at_wavevector(default_config, q) for q in (30e6, 40e6)]
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
    assert result.metadata["nonfinite_cells"] == 0


def test_nonfinite_cells_are_counted_apart_from_invalid(default_config,
                                                        monkeypatch):
    import graphene_spp.experiments as experiments

    kernel = experiments.propagate_batch_three

    def blow_up_first_row(*args, **kwargs):
        amps = kernel(*args, **kwargs)
        amps[0] = np.nan
        return amps

    monkeypatch.setattr(experiments, "propagate_batch_three",
                        blow_up_first_row)
    radius = SweepAxis("radius_nm", np.array([400.0, 800.0]))
    offset = SweepAxis("offset_nm", np.array([100.0, 200.0]))
    spec = SweepSpec(axis1=radius, axis2=offset, config=default_config,
                     fixed_wavevector_per_um=35.0)
    result = run_sweep(spec)
    assert result.metadata["invalid_cells"] == 2
    assert result.metadata["nonfinite_cells"] == 1
    assert np.count_nonzero(np.isnan(result.grid)) == 3
    # the probes blow up too: a NaN estimate keeps doubling the knots up
    # to the n_samples cap (65, 129, ..., 2049; 4097 > 4096)
    assert math.isnan(result.metadata["knot_error_estimate"])
    assert result.metadata["knots"] == 2049


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


def test_two_layer_sweep_matches_comparator(default_config):
    wavevector = SweepAxis("wavevector_per_um", np.array([30.0, 35.0]))
    length = SweepAxis("length_um", np.array([0.5, 1.0]))
    spec = SweepSpec(axis1=wavevector, axis2=length, config=default_config,
                     layers=2)
    result = run_sweep(spec)
    direct = parallel_comparator(35e6, 1.0e-6, default_config.d_min_nm * 1e-9,
                                 config=default_config)
    assert result.grid[1, 1] == pytest.approx(direct, rel=1e-4, abs=1e-9)
    # the comparator runs the map's kernel at the map's step count
    assert result.grid[1, 1] == direct


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
    alpha = np.array([mode_at_wavevector(default_config, q * 1e6).q.imag
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


def test_stretch_search_reports_scan(default_config):
    result = stirap_stretch_search(default_config)
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
    mode = mode_at_wavevector(default_config, 35e6)
    result = stirap_stretch_search(default_config, mode=mode)
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
