"""Arc geometry, separation profiles, coupling schedules, adiabaticity."""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphene_spp import coupling, geometry
from graphene_spp.coupling import coupling_at_separations, overlap_integral
from graphene_spp.geometry import (CouplingSchedule, DeviceGeometry,
                                   GeometryError, _antisymmetric_grid,
                                   _length_lattice, _omega1_table,
                                   adiabaticity_report,
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


def test_separations_outside_or_off_the_arcs_are_refused():
    # a NaN position is in no arc's domain: a named error, not (nan, nan)
    geom = _geom()
    for x in (np.nan, np.array([0.0, np.nan]), np.inf, 1e-6):
        with pytest.raises(GeometryError, match="outside the arc domain"):
            sheet_separations(geom, x)


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


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(radius_nm=st.floats(300.0, 5000.0), offset=st.floats(0.0, 1.0),
       length=st.floats(0.05, 0.999), d_min_nm=st.floats(5.0, 60.0),
       samples=st.integers(64, 700),
       convention=st.sampled_from(["vacuum", "film"]))
def test_arcs_mirror_bit_for_bit(default_mode, radius_nm, offset, length,
                                 d_min_nm, samples, convention):
    # the batch kernel integrates half of each device and takes omega2 as
    # omega1 reversed: on the antisymmetric grid, the coupling at the
    # second arc's separation d2(x) must be that reversal, bit for bit, in
    # build_schedule's rows and in a table row
    radius = radius_nm * 1e-9
    offset *= radius
    length *= 2.0 * radius - offset
    geom = _geom(radius=radius, offset=offset, min_gap=d_min_nm * 1e-9,
                 length=length)

    def omega2_on(n):
        x = _antisymmetric_grid(np.array([length]), n)[0]
        d1, d2 = sheet_separations(geom, x)
        assert np.array_equal(d2, d1[::-1])
        c2, _ = coupling_at_separations(default_mode, d2, convention)
        return np.abs(c2.real)

    schedule = build_schedule(geom, default_mode, samples, convention)
    omega2 = omega2_on(2 * samples - 1)
    assert np.array_equal(schedule.omega2, omega2[::2])
    assert np.array_equal(schedule.omega2_mid, omega2[1::2])
    assert np.array_equal(schedule.omega2, schedule.omega1[::-1])
    table = _omega1_table(_antisymmetric_grid(np.full(2, length), samples),
                          np.full(2, radius), np.full(2, offset),
                          geom.min_gap, [default_mode],
                          np.zeros(2, dtype=int), convention)
    assert np.array_equal(table[1][::-1], omega2_on(samples))


def test_schedule_knots_are_even_samples_of_the_midpoint_table(
        default_config):
    # one table row of 2n - 1 samples: even samples are the knots, bit for
    # bit the n-sample row a sweep builds, and odd samples the midpoints
    config = replace(default_config, E_F_eV=0.12, R_nm=950.0, delta_nm=170.0,
                     d_min_nm=24.0, L_um=1.1, k0_convention="film")
    geom = config.geometry()
    mode = config.solve_mode()

    def row(n):
        return _omega1_table(_antisymmetric_grid(np.array([geom.length]), n),
                             np.array([geom.radius]), np.array([geom.offset]),
                             geom.min_gap, [mode], np.zeros(1, dtype=int),
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


@pytest.mark.parametrize("lengths, expected", [
    # 15, 35 and 150 nm gaps at 25 nm per pair: the last is exactly six
    # pairs and gains none by rounding
    ([0.8e-6, 0.83e-6, 0.9e-6, 1.2e-6], [16, 17, 19, 25]),
    # a first gap of 500 nm at 21.9 nm per pair more than doubles the
    # half-length, where the gap's last fraction alone would miss its end
    # (0.35e-6 + 0.5e-6 != 0.85e-6)
    ([0.7e-6, 1.7e-6, 1.75e-6, 1.8e-6], [16, 39, 41, 43]),
    # a gap far below the rounding slack still takes one pair
    ([1.0e-6, 1.0e-6 * (1.0 + 2e-14)], [16, 17]),
])
def test_length_lattice_extends_the_shortest_members_grid(lengths,
                                                         expected):
    # a group's row: the shortest member's own grid, then each gap in equal
    # pairs no wider than that grid's, ending exactly at every member's
    # half-length; every group of a batch holds the same lengths
    knots = 65
    length = np.array([lengths, lengths])
    x, h, breaks = _length_lattice(length, knots)
    assert breaks.tolist() == expected
    assert x.shape == (2, 8 * breaks[-1] + 1) and h.shape == (2, breaks[-1])
    assert np.array_equal(x[:, ::-1], -x)
    assert np.all(np.diff(x, axis=1) >= 0)
    centre = x.shape[1] // 2
    grid = _antisymmetric_grid(length[:, 0], 2 * knots - 1)
    assert np.array_equal(x[:, centre - knots + 1:centre + knots], grid)
    assert np.array_equal(x[:, centre + 4 * breaks], length / 2.0)
    h0 = length[:, :1] / (knots - 1)
    assert np.array_equal(h[:, :breaks[0]], np.broadcast_to(h0, (2, 16)))
    assert np.all((0.0 < h) & (h <= h0 * (1.0 + 1e-12)))
    # each pair's knots are 2 h apart, its midpoints halfway
    pair_span = x[:, centre + 4:: 4] - x[:, centre:-4:4]
    np.testing.assert_allclose(pair_span, 2.0 * h, rtol=1e-9)
    # one member per group: each group's own grid, bit for bit
    length = np.array([[lengths[0]], [lengths[-1]]])
    x, h, breaks = _length_lattice(length, knots)
    assert np.array_equal(x, _antisymmetric_grid(length[:, 0],
                                                 2 * knots - 1))
    assert breaks.tolist() == [16]
    assert np.array_equal(h, np.broadcast_to(length / (knots - 1), (2, 16)))


@pytest.mark.parametrize("lengths", [[1.0e-6], [0.8e-6, 0.9e-6, 1.2e-6]],
                         ids=["one-member", "three-members"])
def test_shared_lattice_row_is_bitwise_the_per_row_build(lengths):
    # groups of equal lengths (4c's one-member groups, 4b's columns) take
    # one row, as read-only views; each row is the group's own build
    knots = 129
    length = np.tile(lengths, (6, 1))
    x, h, breaks = _length_lattice(length, knots)
    rows = [_length_lattice(length[i:i + 1], knots) for i in range(6)]
    assert np.array_equal(x, np.vstack([row[0] for row in rows]))
    assert np.array_equal(h, np.vstack([row[1] for row in rows]))
    assert all(np.array_equal(breaks, row[2]) for row in rows)
    for view in (x, h):
        assert not view.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            view[1, 0] = 0.0
    # a differing row takes the per-row build
    length[-1] *= 1.5
    x, h, _ = _length_lattice(length, knots)
    assert x.flags.writeable and h.flags.writeable
    assert np.array_equal(x[0], rows[0][0][0])


def test_read_only_lattice_runs_as_writable_copies(default_config,
                                                   monkeypatch):
    # the kernel and _three_sheet_finals write into neither x nor h: a 4b
    # batch on its shared, read-only lattice gives the same bits as the
    # same lattice copied into writable arrays
    from graphene_spp import experiments
    from graphene_spp.dynamics import propagate_batch_three
    from graphene_spp.experiments import _three_sheet_finals

    modes = [replace(default_config, E_F_eV=fermi).solve_mode()
             for fermi in (0.1, 0.15, 0.2)]
    cells = {"length": np.tile([0.9e-6, 1.0e-6, 1.1e-6], (3, 1)),
             "radius": np.full(3, 800e-9), "offset": np.full(3, 200e-9)}
    seen = []

    def kernel(h, omega1, omega1_mid, substeps=1, breaks=None):
        seen.append(h.flags.writeable)
        shared = propagate_batch_three(h, omega1, omega1_mid, substeps,
                                       breaks)
        copied = propagate_batch_three(np.array(h), np.array(omega1),
                                       np.array(omega1_mid), substeps,
                                       np.array(breaks))
        assert np.array_equal(shared, copied)
        return shared

    monkeypatch.setattr(experiments, "propagate_batch_three", kernel)
    finals = _three_sheet_finals(cells, modes, np.arange(3), default_config,
                                 65)
    assert seen == [False]
    for group in range(3):
        alone = _three_sheet_finals(
            {key: values[[group]] for key, values in cells.items()},
            [modes[group]], np.zeros(1, dtype=int), default_config, 65)
        assert np.array_equal(alone, finals[[group]])


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
    # an infinite length makes its row's positions infinite or NaN
    with np.errstate(invalid="ignore"):
        x = _antisymmetric_grid(cells["length"], 129)
    with pytest.raises(GeometryError, match=message):
        _omega1_table(x, cells["radius"], cells["offset"], 20e-9,
                      [default_mode], np.zeros(5, dtype=int), "vacuum")


@pytest.mark.parametrize("min_gap, message", [
    (np.nan, "min_gap must be finite"), (0.0, "min_gap must be > 0")])
def test_table_rejects_bad_min_gap(default_mode, min_gap, message):
    cells = _layouts()
    with pytest.raises(GeometryError, match=message):
        _omega1_table(_antisymmetric_grid(cells["length"], 129),
                      cells["radius"], cells["offset"], min_gap,
                      [default_mode], np.zeros(5, dtype=int), "vacuum")


def test_table_rejects_short_grids(default_mode):
    cells = _layouts()
    with pytest.raises(ValueError, match="at least 64"):
        _omega1_table(_antisymmetric_grid(cells["length"], 63),
                      cells["radius"], cells["offset"], 20e-9,
                      [default_mode], np.zeros(5, dtype=int), "vacuum")


@pytest.mark.parametrize("mode_index", [
    np.zeros(4, dtype=int), np.zeros(6, dtype=int), np.array([0, 0, -1, 0, 0]),
    np.array([0, 1, 0, 2, 0]), np.zeros(5)],
    ids=["short", "long", "negative", "out-of-range", "float"])
def test_table_rejects_a_mode_index_that_misses_a_row(default_mode,
                                                      mode_index):
    # the table is allocated unfilled: every row must name one of the modes
    cells = _layouts()
    with pytest.raises(ValueError, match="mode_index"):
        _omega1_table(_antisymmetric_grid(cells["length"], 129),
                      cells["radius"], cells["offset"], 20e-9,
                      [default_mode, default_mode], mode_index, "vacuum")


def _shaped_layouts(shape):
    """Fifteen per-device layouts: _layouts' five, three times ("mixed");
    one layout ("4b", a wavevector column's devices, whose rows are equal
    but for their modes); or one length over _layouts' radii and offsets
    ("4c", a radius x offset map's devices, sharing only their lattice)."""
    cells = {key: np.tile(values, 3) for key, values in _layouts().items()}
    if shape != "mixed":
        cells["length"] = np.full(15, 1e-6)
    if shape == "4b":
        cells["radius"], cells["offset"] = np.full(15, 800e-9), np.full(
            15, 200e-9)
    return cells


@pytest.mark.parametrize("n_samples, block", [
    (129, 8192), (4097, 8192), (129, 300), (129, 100), (4097, 1000)],
    ids=["129", "4097", "129-mixed-rows", "129-columns", "4097-columns"])
def test_table_rows_are_bitwise_per_device_schedules(default_config,
                                                     monkeypatch, n_samples,
                                                     block):
    # a shuffled batch: three interleaved modes on layouts that repeat
    # across modes, so a block of rows carries several modes; at 4097
    # samples, or under a smaller block, the rows take several capped
    # calls, and a block below a row's width splits it into column blocks;
    # rows of one layout on one grid (4b) and rows that share only the
    # grid (4c) each give their own device's schedule
    sizes = []

    def recorded(k, d):
        sizes.append(np.size(d))
        return overlap_integral(k, d)

    monkeypatch.setattr(coupling, "overlap_integral", recorded)
    monkeypatch.setattr(geometry, "_COUPLING_BLOCK", block)
    modes = [replace(default_config, E_F_eV=fermi).solve_mode()
             for fermi in (0.1, 0.15, 0.2)]
    mode_index = np.repeat(np.arange(3), 5)
    order = np.random.default_rng(7).permutation(mode_index.size)
    mode_index = mode_index[order]
    for shape, convention in itertools.product(("mixed", "4b", "4c"),
                                               ("vacuum", "film")):
        cells = {key: values[order]
                 for key, values in _shaped_layouts(shape).items()}
        sizes.clear()
        table = _omega1_table(
            _antisymmetric_grid(cells["length"], n_samples), cells["radius"],
            cells["offset"], 20e-9, modes, mode_index, convention)
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

    def recorded(k, d):
        sizes.append(np.size(d))
        return overlap_integral(k, d)

    monkeypatch.setattr(coupling, "overlap_integral", recorded)
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
