"""Arc geometry, separation profiles, coupling schedules, adiabaticity."""

from dataclasses import replace

import numpy as np
import pytest

from graphene_spp import geometry
from graphene_spp.coupling import coupling_at_separations
from graphene_spp.geometry import (CouplingSchedule, DeviceGeometry,
                                   GeometryError,
                                   _omega1_table, adiabaticity_report,
                                   build_schedule, sheet_separations)


def _geom(radius=800e-9, offset=200e-9, min_gap=20e-9, length=1e-6):
    return DeviceGeometry(radius=radius, offset=offset, min_gap=min_gap,
                          length=length)


def test_waist_positions_and_values():
    geom = _geom()
    # sheet 1 is closest at x = +delta/2, sheet 2 at x = -delta/2
    d1, d2 = sheet_separations(geom, np.array([100e-9, -100e-9]))
    assert d1[0] == pytest.approx(20e-9, rel=1e-12)
    assert d2[1] == pytest.approx(20e-9, rel=1e-12)


def test_mirror_symmetry_of_profiles():
    geom = _geom()
    x = np.linspace(-0.5e-6, 0.5e-6, 101)
    d1, d2 = sheet_separations(geom, x)
    assert d1 == pytest.approx(d2[::-1], rel=1e-12)


def test_separation_formula_off_waist():
    geom = _geom()
    x = 0.0
    d1, _ = sheet_separations(geom, x)
    expected = (20e-9 + 800e-9) - np.sqrt(800e-9**2 - 100e-9**2)
    assert d1 == pytest.approx(expected, rel=1e-12)


def test_validity_bound_enforced():
    # L/2 + delta/2 must stay within the arc radius
    with pytest.raises(GeometryError):
        _geom(radius=500e-9, length=1e-6, offset=200e-9)


def test_validity_bound_is_stretch_invariant():
    geom = _geom()
    for s in (0.5, 1.0, 2.0, 4.0):
        stretched = DeviceGeometry(radius=geom.radius * s,
                                   offset=geom.offset * s,
                                   min_gap=geom.min_gap,
                                   length=geom.length * s)
        assert stretched.length / 2 + stretched.offset / 2 \
            <= stretched.radius * (1 + 1e-12)


def test_geometry_validation():
    with pytest.raises(GeometryError):
        _geom(radius=-5e-9)
    with pytest.raises(GeometryError):
        _geom(min_gap=0.0)
    with pytest.raises(GeometryError):
        _geom(length=0.0)


def test_schedule_counterintuitive_ordering(default_mode):
    schedule = build_schedule(_geom(), default_mode, 2001)
    assert np.argmax(schedule.omega2) < np.argmax(schedule.omega1)


def test_schedule_mirror_is_bitwise(default_mode):
    # omega2 is omega1 reversed; on the antisymmetric grid that is exactly
    # the coupling evaluated on d2, for odd and even knot counts
    for n in (64, 501, 2001, 4096):
        for geom in (_geom(), _geom(radius=1.1e-6, offset=130e-9,
                                    length=1.3e-6)):
            schedule = build_schedule(geom, default_mode, n)
            x = schedule.x_grid
            assert np.array_equal(x[::-1], -x)
            assert x[0] == pytest.approx(-geom.length / 2, rel=1e-15)
            _, d2 = sheet_separations(geom, x)
            c2, _ = coupling_at_separations(default_mode, d2)
            assert np.array_equal(schedule.omega2, np.abs(c2.real))


def test_schedule_knots_are_even_samples_of_the_midpoint_table(
        default_config):
    # one table row of 2n - 1 samples: even samples are the knots, bit for
    # bit the n-sample row a sweep builds, and odd samples the midpoints
    config = replace(default_config, E_F_eV=0.12, R_nm=950.0, delta_nm=170.0,
                     d_min_nm=24.0, L_um=1.1, k0_convention="film")
    geom = config.geometry()
    mode = config.solve_mode()

    def row(n):
        return _omega1_table(np.array([geom.length]), np.array([geom.radius]),
                             np.array([geom.offset]), geom.min_gap, [mode],
                             np.zeros(1, dtype=int), n,
                             config.k0_convention)[0]

    for n in (64, 129, 500, 1025, 4096):
        schedule = build_schedule(geom, mode, n, config.k0_convention)
        table = row(2 * n - 1)
        assert np.array_equal(schedule.omega1, table[::2])
        assert np.array_equal(schedule.omega1_mid, table[1::2])
        assert np.array_equal(schedule.omega2, table[::-1][::2])
        assert np.array_equal(schedule.omega2_mid, table[::-1][1::2])
        assert np.array_equal(schedule.omega1, row(n))
        assert np.array_equal(
            schedule.x_grid,
            geometry._antisymmetric_grid(np.array([geom.length]), n)[0])


def test_schedule_rejects_bad_midpoints(default_mode):
    schedule = build_schedule(_geom(), default_mode, 65)
    fields = {name: getattr(schedule, name)
              for name in ("x_grid", "omega1", "omega2", "omega1_mid",
                           "omega2_mid")}
    for name, bad, message in (
            ("omega1_mid", schedule.omega1, "one sample per interval"),
            ("omega2_mid", schedule.omega2_mid[:-1],
             "one sample per interval"),
            ("omega1_mid", np.r_[np.nan, schedule.omega1_mid[1:]], "finite"),
            ("omega2_mid", -schedule.omega2_mid, "non-negative")):
        with pytest.raises(ValueError, match=message):
            CouplingSchedule(**{**fields, name: bad})


def test_schedule_peaks_at_waists(default_mode):
    schedule = build_schedule(_geom(), default_mode, 2001)
    x = schedule.x_grid
    assert x[np.argmax(schedule.omega1)] == pytest.approx(100e-9, abs=1e-9)
    assert x[np.argmax(schedule.omega2)] == pytest.approx(-100e-9, abs=1e-9)


def test_schedule_couplings_positive_and_finite(default_mode):
    schedule = build_schedule(_geom(), default_mode, 501)
    assert np.all(schedule.omega1 > 0)
    assert np.all(schedule.omega2 > 0)
    assert np.all(np.isfinite(schedule.omega1))


def test_schedule_spacing_uniform(default_mode):
    schedule = build_schedule(_geom(), default_mode, 501)
    assert schedule.spacing == pytest.approx(1e-6 / 500, rel=1e-12)
    assert np.diff(schedule.x_grid) == pytest.approx(schedule.spacing,
                                                     rel=1e-9)


def test_adiabaticity_report_fields(default_mode):
    schedule = build_schedule(_geom(), default_mode, 2001)
    report = adiabaticity_report(schedule)
    assert report.x_grid.shape == report.margin.shape
    assert report.mixing_angle.shape == report.margin.shape
    assert np.all(report.margin[~report.unreliable] >= 0)
    assert np.isfinite(report.max_margin)


def test_mixing_angle_monotone_section(default_mode):
    # theta = atan2(omega1, omega2) rises from near 0 to near pi/2 across
    # the device as the coupling weight moves from omega2 to omega1
    schedule = build_schedule(_geom(), default_mode, 2001)
    report = adiabaticity_report(schedule)
    assert report.mixing_angle[0] < 0.2
    assert report.mixing_angle[-1] > np.pi / 2 - 0.2


def _layouts():
    """Per-device SI arrays of five valid layouts, two of them shared."""
    return {"length": np.array([1.0e-6, 0.8e-6, 1.2e-6, 1.0e-6, 0.9e-6]),
            "radius": np.array([800e-9, 700e-9, 1.1e-6, 800e-9, 650e-9]),
            "offset": np.array([200e-9, 150e-9, 130e-9, 200e-9, 0.0])}


@pytest.mark.parametrize("field, row, value, message", [
    ("radius", 1, np.nan, "radius must be finite"),
    ("offset", 2, np.inf, "offset must be finite"),
    ("length", 4, -np.inf, "length must be finite"),
    ("radius", 0, -5e-9, "radius must be > 0"),
    ("offset", 3, -1e-9, "offset must be >= 0"),
    ("length", 1, 0.0, "length must be > 0"),
    ("radius", 2, 500e-9, "arcs do not span the device"),
])
def test_table_rejects_any_bad_row_like_device_geometry(default_mode, field,
                                                        row, value, message):
    cells = _layouts()
    cells[field][row] = value
    fields = {"radius": cells["radius"][row], "offset": cells["offset"][row],
              "min_gap": 20e-9, "length": cells["length"][row]}
    with pytest.raises(GeometryError, match=message):
        DeviceGeometry(**fields)
    with pytest.raises(GeometryError, match=message):
        _omega1_table(cells["length"], cells["radius"], cells["offset"],
                      20e-9, [default_mode], np.zeros(5, dtype=int), 129,
                      "vacuum")


@pytest.mark.parametrize("min_gap, message", [
    (np.nan, "min_gap must be finite"), (0.0, "min_gap must be > 0")])
def test_table_rejects_bad_min_gap(default_mode, min_gap, message):
    cells = _layouts()
    with pytest.raises(GeometryError, match=message):
        _omega1_table(cells["length"], cells["radius"], cells["offset"],
                      min_gap, [default_mode], np.zeros(5, dtype=int), 129,
                      "vacuum")


def test_table_rejects_short_grids(default_mode):
    cells = _layouts()
    with pytest.raises(ValueError, match="at least 64"):
        _omega1_table(cells["length"], cells["radius"], cells["offset"],
                      20e-9, [default_mode], np.zeros(5, dtype=int), 63,
                      "vacuum")


@pytest.mark.parametrize("n_samples", [129, 4097])
def test_table_rows_are_bitwise_per_device_schedules(default_config,
                                                     monkeypatch, n_samples):
    # a shuffled batch: three interleaved modes on layouts that repeat
    # across modes, so separations are shared and couplings are grouped;
    # at 4097 samples each mode's rows take several capped calls
    sizes = []

    def recorded(mode, d, k0_convention):
        sizes.append(np.size(d))
        return coupling_at_separations(mode, d, k0_convention)

    monkeypatch.setattr(geometry, "coupling_at_separations", recorded)
    modes = [replace(default_config, E_F_eV=fermi).solve_mode()
             for fermi in (0.1, 0.15, 0.2)]
    cells = {key: np.tile(values, 3) for key, values in _layouts().items()}
    mode_index = np.repeat(np.arange(3), 5)
    order = np.random.default_rng(7).permutation(mode_index.size)
    cells = {key: values[order] for key, values in cells.items()}
    mode_index = mode_index[order]
    for convention in ("vacuum", "film"):
        sizes.clear()
        table = _omega1_table(cells["length"], cells["radius"],
                              cells["offset"], 20e-9, modes, mode_index,
                              n_samples, convention)
        assert sum(sizes) == table.size
        assert max(sizes) <= geometry._COUPLING_BLOCK
        for i in range(mode_index.size):
            geom = _geom(radius=cells["radius"][i], offset=cells["offset"][i],
                         length=cells["length"][i])
            mode = modes[mode_index[i]]
            schedule = build_schedule(geom, mode, n_samples, convention)
            assert np.array_equal(table[i], schedule.omega1)
            # and the per-device separations path, bit for bit
            d1, _ = sheet_separations(geom, schedule.x_grid)
            c1, _ = coupling_at_separations(mode, d1, convention)
            assert np.array_equal(table[i], np.abs(c1.real))


@pytest.mark.parametrize("block", [8192, 4096, 1000, 777])
def test_long_rows_go_out_in_column_blocks(default_mode, monkeypatch, block):
    # a device at 8192 knots samples one row of 16,383 separations, longer
    # than the block; it must be split, and equal one unsplit call
    sizes = []

    def recorded(mode, d, k0_convention):
        sizes.append(np.size(d))
        return coupling_at_separations(mode, d, k0_convention)

    monkeypatch.setattr(geometry, "coupling_at_separations", recorded)
    monkeypatch.setattr(geometry, "_COUPLING_BLOCK", block)
    geom = _geom()
    schedule = build_schedule(geom, default_mode, 8192)
    samples = 2 * 8192 - 1
    assert sum(sizes) == samples
    assert max(sizes) <= block
    x = geometry._antisymmetric_grid(np.array([geom.length]), samples)[0]
    d1, _ = sheet_separations(geom, x)
    c1, _ = coupling_at_separations(default_mode, d1, "vacuum")
    omega1 = np.abs(c1.real)
    assert np.array_equal(schedule.omega1, omega1[::2])
    assert np.array_equal(schedule.omega1_mid, omega1[1::2])
    assert np.array_equal(schedule.omega2, omega1[::-1][::2])
