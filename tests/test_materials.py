"""Drude conductivity, relaxation-rate conventions, thin-film permittivity."""

import dataclasses
import math

import pytest
from scipy import constants as const

from graphene_spp import oracles
from graphene_spp.dispersion import Excitation
from graphene_spp.geometry import DeviceGeometry, GeometryError
from graphene_spp.materials import (CONSTANTS, GrapheneSheet,
                                    MaterialDomainError, Medium,
                                    default_relaxation_rate,
                                    drude_conductivity,
                                    effective_graphene_permittivity)

NAN = float("nan")
INF = float("inf")
OMEGA = 2.0 * math.pi * const.c / 10e-6


def test_default_relaxation_rate_no_two_pi():
    sheet = GrapheneSheet()
    gamma = default_relaxation_rate(sheet, "no_two_pi")
    # e * v_F^2 / (mu_e * E_F) with mu_e in SI units
    mu_si = 6e4 * 1e-4
    expected = const.e * 1e6**2 / (mu_si * 0.15 * const.e)
    assert gamma == pytest.approx(expected, rel=1e-12)
    assert gamma == pytest.approx(1.1111e12, rel=1e-4)


def test_relaxation_rate_literal_two_pi_scales_by_2pi():
    sheet = GrapheneSheet()
    base = default_relaxation_rate(sheet, "no_two_pi")
    literal = default_relaxation_rate(sheet, "literal_two_pi")
    assert literal == pytest.approx(2.0 * math.pi * base, rel=1e-12)


def test_relaxation_rate_rejects_unknown_convention():
    with pytest.raises((ValueError, KeyError)):
        default_relaxation_rate(GrapheneSheet(), "half_pi")


@pytest.mark.parametrize("sheet", [
    GrapheneSheet(mobility_cm2=1e-300), GrapheneSheet(fermi_velocity=1e300),
    GrapheneSheet(fermi_velocity=1e-200)],
    ids=["rate-overflows", "velocity-squared-overflows", "rate-underflows"])
@pytest.mark.parametrize("convention", ["no_two_pi", "literal_two_pi"])
def test_relaxation_rate_outside_double_range_is_a_domain_error(sheet,
                                                               convention):
    with pytest.raises(MaterialDomainError, match="finite and > 0"):
        default_relaxation_rate(sheet, convention)


def test_drude_conductivity_matches_formula():
    omega = 2.0 * math.pi * const.c / 10e-6
    sheet = GrapheneSheet()
    gamma = 2e12
    sigma = drude_conductivity(omega, sheet, gamma)
    sigma0 = math.pi * const.e**2 / (2.0 * const.h)
    expected = sigma0 * (4.0 * 0.15 * const.e / math.pi) / (
        const.hbar * gamma - 1j * const.hbar * omega)
    assert sigma == pytest.approx(expected, rel=1e-12)


def test_drude_conductivity_inductive_at_mid_infrared():
    # far above gamma the sheet responds inductively: Im(sigma) > 0
    omega = 2.0 * math.pi * const.c / 10e-6
    sigma = drude_conductivity(omega, GrapheneSheet(), 2e12)
    assert sigma.imag > 0
    assert sigma.real > 0


def test_drude_conductivity_lossless_limit_is_purely_imaginary():
    omega = 2.0 * math.pi * const.c / 10e-6
    sigma = drude_conductivity(omega, GrapheneSheet(), 0.0)
    assert sigma.real == 0.0
    assert sigma.imag > 0


def test_effective_permittivity_is_metal_like():
    omega = 2.0 * math.pi * const.c / 10e-6
    sigma = drude_conductivity(omega, GrapheneSheet(), 2e12)
    eps_g = effective_graphene_permittivity(omega, sigma, 0.33e-9)
    assert eps_g.real < 0
    assert eps_g.imag > 0


def test_effective_permittivity_formula():
    omega = 1e14
    sigma = 1e-4 + 2e-4j
    thickness = 0.33e-9
    eps_g = effective_graphene_permittivity(omega, sigma, thickness)
    expected = 1.0 + 1j * sigma / (const.epsilon_0 * omega * thickness)
    assert eps_g == pytest.approx(expected, rel=1e-12)


def test_sheet_validation():
    with pytest.raises(MaterialDomainError):
        GrapheneSheet(fermi_level_ev=0.0)
    with pytest.raises(MaterialDomainError):
        GrapheneSheet(mobility_cm2=-1.0)
    with pytest.raises(MaterialDomainError):
        GrapheneSheet(thickness=0.0)


def test_medium_validation():
    assert Medium(permittivity=3.9).permittivity == 3.9
    with pytest.raises(MaterialDomainError):
        Medium(permittivity=0.0)


def _arc(**overrides):
    fields = dict(radius=1.5e-6, offset=0.5e-6, min_gap=20e-9, length=2e-6)
    fields.update(overrides)
    return DeviceGeometry(**fields)


@pytest.mark.parametrize("build, error", [
    (lambda: Medium(NAN), MaterialDomainError),
    (lambda: GrapheneSheet(fermi_level_ev=NAN), MaterialDomainError),
    (lambda: GrapheneSheet(mobility_cm2=NAN), MaterialDomainError),
    (lambda: GrapheneSheet(fermi_velocity=NAN), MaterialDomainError),
    (lambda: GrapheneSheet(thickness=NAN), MaterialDomainError),
    (lambda: drude_conductivity(NAN, GrapheneSheet(), 2e12),
     MaterialDomainError),
    (lambda: drude_conductivity(OMEGA, GrapheneSheet(), NAN),
     MaterialDomainError),
    (lambda: effective_graphene_permittivity(NAN, 1e-4j, 0.33e-9),
     MaterialDomainError),
    (lambda: effective_graphene_permittivity(OMEGA, 1e-4j, NAN),
     MaterialDomainError),
    (lambda: Excitation(vacuum_wavelength=NAN), ValueError),
    (lambda: _arc(radius=NAN), GeometryError),
    (lambda: _arc(offset=NAN), GeometryError),
    (lambda: _arc(min_gap=NAN), GeometryError),
    (lambda: _arc(length=NAN), GeometryError),
], ids=["medium", "fermi_level", "mobility", "fermi_velocity", "thickness",
        "drude_omega", "drude_gamma", "film_omega", "film_thickness",
        "excitation", "radius", "offset", "min_gap", "length"])
def test_nan_parameters_raise_named_errors(build, error):
    with pytest.raises(error):
        build()


@pytest.mark.parametrize("build, error", [
    (lambda: Medium(INF), MaterialDomainError),
    (lambda: GrapheneSheet(fermi_level_ev=INF), MaterialDomainError),
    (lambda: GrapheneSheet(mobility_cm2=INF), MaterialDomainError),
    (lambda: GrapheneSheet(fermi_velocity=INF), MaterialDomainError),
    (lambda: GrapheneSheet(thickness=INF), MaterialDomainError),
    (lambda: Excitation(vacuum_wavelength=INF), ValueError),
    (lambda: _arc(radius=INF), GeometryError),
    (lambda: _arc(offset=INF), GeometryError),
    (lambda: _arc(min_gap=INF), GeometryError),
    (lambda: _arc(length=INF), GeometryError),
    (lambda: _arc(radius=INF, offset=0.0, length=INF), GeometryError),
], ids=["medium", "fermi_level", "mobility", "fermi_velocity", "thickness",
        "excitation", "radius", "offset", "min_gap", "length",
        "radius_and_length"])
def test_infinite_parameters_raise_named_errors(build, error):
    with pytest.raises(error, match="finite"):
        build()


def test_drude_rejects_nonpositive_frequency():
    with pytest.raises(MaterialDomainError):
        drude_conductivity(0.0, GrapheneSheet(), 2e12)


def test_constants_are_codata():
    # the package writes its constants as literals; they must equal
    # scipy.constants bit for bit (rerun after a scipy/CODATA update)
    expected = {"e": const.e, "h": const.h, "hbar": const.hbar,
                "c": const.c, "eps0": const.epsilon_0,
                "eta0": math.sqrt(const.mu_0 / const.epsilon_0),
                "sigma0": math.pi * const.e**2 / (2.0 * const.h)}
    assert {f.name for f in dataclasses.fields(CONSTANTS)} == set(expected)
    for name, value in expected.items():
        assert getattr(CONSTANTS, name).hex() == value.hex(), name
    assert oracles._C.hex() == const.c.hex()
    assert oracles._EPSILON_0.hex() == const.epsilon_0.hex()
