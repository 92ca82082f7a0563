"""Device runs, wavevector targeting, parameter sweeps, stretch search."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import optimize

from graphene_spp.config import RunConfig
from graphene_spp.experiments import (_KNOT_TOLERANCE, ExperimentError,
                                      SweepAxis, SweepSpec, _bisect,
                                      figure_coupling_axes, figure_map_spec,
                                      mode_at_wavevector, parallel_comparator,
                                      robustness_metric, run_device,
                                      run_sweep, stirap_stretch_search,
                                      wavevector_to_omega)
from tests.conftest import continuous_device_finals


def test_wavevector_inversion_hits_target(default_config):
    omega = wavevector_to_omega(default_config, 35e6)
    mode = default_config.solve_mode(omega=omega)
    assert mode.q.real == pytest.approx(35e6, rel=1e-6)


def test_wavevector_inversion_matches_mode_helper(default_config):
    mode = mode_at_wavevector(default_config, 50e6)
    assert mode.q.real == pytest.approx(50e6, rel=1e-6)


def test_wavevector_inversion_rejects_absurd_target(default_config):
    with pytest.raises(ExperimentError):
        wavevector_to_omega(default_config, 1e-3)


@pytest.mark.parametrize("target, failing_trial", [
    (35e6, 1),    # the seed trial
    (35e6, 2),    # the seed overshoots, so the bracket widens downward
    (300e6, 2),   # the seed undershoots, so the bracket widens upward
])
def test_wavevector_inversion_propagates_programming_errors(
        default_config, monkeypatch, target, failing_trial):
    # only an unsolvable trial frequency may be skipped; a bug must surface
    solve = RunConfig.solve_mode
    trials = []

    def broken(self, omega=None):
        if omega is not None:
            trials.append(omega)
            if len(trials) == failing_trial:
                raise TypeError("broken solver")
        return solve(self, omega)

    monkeypatch.setattr(RunConfig, "solve_mode", broken)
    with pytest.raises(TypeError, match="broken solver"):
        wavevector_to_omega(default_config, target)


def _cubic(root, slope, cubic, sign):
    """Monotone f with its only root at root; increasing when sign > 0."""
    return lambda x: sign * (slope * (x - root) + cubic * (x - root) ** 3)


def _xtol_on_threshold(f, lo, hi, rtol, steps):
    """xtol for which the bisection's stopping test after `steps` halvings
    compares two equal numbers, or None when no such xtol exists."""
    a, fa, step = lo, f(lo), hi - lo
    for _ in range(steps):
        step *= 0.5
        xm = a + step
        if f(xm) * fa >= 0:
            a = xm
    xtol = step - rtol * abs(xm)
    return xtol if 0 < xtol and xtol + rtol * abs(xm) == step else None


_TOLERANCES = dict(xtol=st.floats(-30.0, -2.0).map(lambda p: 10.0 ** p),
                   rtol=st.floats(4.0 * np.finfo(float).eps, 1e-3))


@settings(max_examples=400, deadline=None)
@given(root=st.floats(-1e3, 1e3), below=st.floats(0.0, 1e3),
       above=st.floats(0.0, 1e3), slope=st.floats(1e-3, 1e3),
       cubic=st.floats(0.0, 1e3), sign=st.sampled_from([1.0, -1.0]),
       on_threshold=st.none() | st.integers(1, 50), **_TOLERANCES)
def test_bisect_matches_scipy_bitwise(root, below, above, slope, cubic, sign,
                                      on_threshold, xtol, rtol):
    f = _cubic(root, slope, cubic, sign)
    lo, hi = root - below, root + above
    if on_threshold is not None:
        # the comparison that ends the loop is decided by its strictness
        xtol = _xtol_on_threshold(f, lo, hi, rtol, on_threshold)
        assume(xtol is not None)
    try:
        expected = optimize.bisect(f, lo, hi, xtol=xtol, rtol=rtol)
    except RuntimeError:
        with pytest.raises(ExperimentError, match="converge"):
            _bisect(f, lo, hi, f(lo), f(hi), xtol, rtol)
        return
    assert _bisect(f, lo, hi, f(lo), f(hi), xtol, rtol).hex() \
        == float(expected).hex()


@settings(max_examples=100, deadline=None)
@given(lo=st.floats(-1e3, 1e3), width=st.floats(1e-6, 1e3),
       gap=st.floats(1e-3, 1e3), slope=st.floats(1e-3, 1e3),
       sign=st.sampled_from([1.0, -1.0]), **_TOLERANCES)
def test_bisect_rejects_same_sign_bracket(lo, width, gap, slope, sign, xtol,
                                          rtol):
    f = _cubic(lo - gap, slope, 0.0, sign)
    hi = lo + width
    with pytest.raises(ValueError):
        optimize.bisect(f, lo, hi, xtol=xtol, rtol=rtol)
    with pytest.raises(ExperimentError, match="same sign"):
        _bisect(f, lo, hi, f(lo), f(hi), xtol, rtol)


def test_bisect_failures_raise():
    with pytest.raises(ExperimentError, match="NaN"):
        _bisect(lambda x: math.nan, 0.0, 1.0, -1.0, 1.0, 1e-12, 1e-9)
    with pytest.raises(ExperimentError, match="NaN"):
        _bisect(lambda x: x, 0.0, 1.0, math.nan, 1.0, 1e-12, 1e-9)
    # no midpoint of [-1, 2] is 0, and the step never drops below
    # 1e-300 + 1e-15 |midpoint|: scipy gives up after 100 steps as well
    with pytest.raises(RuntimeError):
        optimize.bisect(lambda x: x, -1.0, 2.0, xtol=1e-300, rtol=1e-15)
    with pytest.raises(ExperimentError, match="converge"):
        _bisect(lambda x: x, -1.0, 2.0, -1.0, 2.0, 1e-300, 1e-15)


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
    from graphene_spp.dynamics import AmplitudeState, propagate
    from graphene_spp.geometry import build_schedule

    mode = mode_at_wavevector(default_config, 40e6)
    geom = replace(default_config, L_um=1.1).geometry()
    schedule = build_schedule(geom, mode, default_config.n_samples,
                              default_config.k0_convention)
    trajectory = propagate(schedule,
                           AmplitudeState(np.array([1, 0, 0], dtype=complex)))
    expected = trajectory.final_intensities[2]
    assert result.grid[1, 1] == pytest.approx(expected, rel=1e-6)


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
    d_nm, curves = figure_coupling_axes(default_config, n_points=24)
    assert d_nm[0] == pytest.approx(2.0)
    assert d_nm[-1] == pytest.approx(100.0)
    assert [fermi for fermi, _ in curves] == [0.05, 0.10, 0.15, 0.20]
    for _, c12 in curves:
        assert np.all(np.diff(np.abs(c12)) < 0)


def test_stretch_search_reports_scan(default_config):
    result = stirap_stretch_search(default_config, max_stretch=2.0,
                                   coarse_step=0.5)
    assert result.scanned_stretches[0] == pytest.approx(1.0)
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
            record["target_per_um"], rel=1e-6)
