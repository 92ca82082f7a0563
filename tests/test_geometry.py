"""Arc geometry, separation profiles, coupling schedules, adiabaticity."""

import numpy as np
import pytest

from graphene_spp.coupling import coupling_at_separations
from graphene_spp.geometry import (DeviceGeometry, GeometryError,
                                   adiabaticity_report, build_schedule,
                                   sheet_separations)


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
