"""Bound-mode solver: residuals, closed forms, derived lengths."""

import cmath
import math
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphene_spp.config import RunConfig
from graphene_spp.dispersion import (INFINITE_PROPAGATION, ConvergenceError,
                                     Excitation, NoBoundModeError, SppMode,
                                     _closed_form_root, _transverse_constant,
                                     confinement_length, propagation_length,
                                     solve_dispersion, solve_dispersion_batch)
from graphene_spp.materials import (CONSTANTS, MaterialDomainError, Medium,
                                    drude_conductivity,
                                    effective_graphene_permittivity)
from graphene_spp.oracles import dispersion_residual
from tests.conftest import as_complex


def _sigma(config: RunConfig):
    return drude_conductivity(config.excitation().angular_frequency,
                              config.sheet(), config.gamma())


def test_golden_pins(default_config, goldens):
    for pin in goldens["dispersion_pins"]:
        config = replace(default_config, **{k: v for k, v in
                                            pin["overrides"].items()})
        mode = config.solve_mode()
        assert mode.q == pytest.approx(as_complex(pin["q_per_m"]), rel=1e-12)
        assert mode.k == pytest.approx(as_complex(pin["k_per_m"]), rel=1e-12)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(lam=st.floats(5.0, 15.0), fermi=st.floats(0.05, 0.3),
       gamma=st.floats(0.0, 5e12), eps_h=st.floats(1.0, 12.0))
def test_residual_small_across_parameter_grid(default_config, lam, fermi,
                                              gamma, eps_h):
    # every case either raises a named error or returns a bound root of the
    # dispersion relation; nothing fails silently
    config = replace(default_config, lambda0_um=lam, E_F_eV=fermi,
                     gamma_per_s=gamma, eps_h=eps_h)
    try:
        mode = config.solve_mode()
    except (NoBoundModeError, ConvergenceError, MaterialDomainError):
        return
    assert dispersion_residual(mode, _sigma(config)) < 1e-10
    assert mode.k.real > 0


def test_perturbed_root_has_large_residual(default_config, default_mode):
    shifted = replace(default_mode, q=default_mode.q * 1.01)
    assert dispersion_residual(shifted, _sigma(default_config)) > 1e-3


def test_imaginary_q_nonnegative(default_mode):
    assert default_mode.q.imag >= 0


def test_normalization_definition(default_mode):
    expected = math.sqrt(1.0 / default_mode.k.real)
    assert default_mode.normalization == pytest.approx(expected, rel=1e-12)


def test_propagation_length_definition(default_mode):
    assert propagation_length(default_mode) == pytest.approx(
        1.0 / (2.0 * default_mode.q.imag), rel=1e-12)


def test_propagation_length_lossless_sentinel(default_config):
    config = replace(default_config, gamma_per_s=0.0)
    mode = config.solve_mode()
    assert propagation_length(mode) == INFINITE_PROPAGATION


def test_confinement_length_definition(default_mode):
    assert confinement_length(default_mode) == pytest.approx(
        1.0 / default_mode.k.real, rel=1e-12)


def test_wavelength_scaling_of_wavevector(default_config):
    # q scales like omega^2 for the Drude sheet: longer wavelength, weaker q
    short = replace(default_config, lambda0_um=8.0).solve_mode()
    long = replace(default_config, lambda0_um=12.0).solve_mode()
    assert short.q.real > long.q.real
    ratio = short.q.real / long.q.real
    assert ratio == pytest.approx((12.0 / 8.0) ** 2, rel=0.05)


def test_excitation_validation():
    with pytest.raises(ValueError):
        Excitation(vacuum_wavelength=0.0)


def test_capacitive_sheet_has_no_bound_mode(default_config):
    with pytest.raises(NoBoundModeError):
        solve_dispersion(default_config.excitation(),
                         Medium(permittivity=3.9), 1e-4 - 1e-4j)


@pytest.mark.parametrize("sigma", [complex(math.nan, 1e-3),
                                   complex(1e-5, math.nan)])
def test_nan_conductivity_fails_the_residual_contract(default_config, sigma):
    with pytest.raises(ConvergenceError) as caught:
        solve_dispersion(default_config.excitation(),
                         Medium(permittivity=3.9), sigma)
    assert math.isnan(caught.value.residual)


@pytest.mark.parametrize("omega", [1e3, 1e-10])
def test_lossless_mode_far_below_light_line_fails_named(omega):
    # the recomputed transverse constant cancels to 0 here; the residual
    # 2 eps/k used to raise a bare ZeroDivisionError
    with pytest.raises(ConvergenceError, match="evanescent"):
        RunConfig(gamma_per_s=0.0).solve_mode(omega=omega)


def _scalar_mode(config: RunConfig, excitation: Excitation):
    """The mode as one solve at a time takes it: every numpy call on 0-d
    arguments, every other step in Python's complex arithmetic."""
    omega = excitation.angular_frequency
    sigma = drude_conductivity(omega, config.sheet(), config.gamma())
    eps = config.medium().permittivity
    q = _closed_form_root(omega, eps, sigma)
    if q.imag < 0:
        q = q.conjugate()
    k = _transverse_constant(q, omega, eps)
    eps_g = effective_graphene_permittivity(omega, sigma,
                                            config.thickness_nm * 1e-9)
    k0 = cmath.sqrt(q * q - omega * omega * eps_g / CONSTANTS.c**2)
    return SppMode(q=q, k=k, eps_g=eps_g, k0=-k0 if k0.real < 0 else k0,
                   normalization=math.sqrt(1.0 / k.real),
                   excitation=excitation, medium=config.medium())


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(omegas=st.lists(st.floats(1.2e14, 3.8e14), min_size=1, max_size=8),
       fermi=st.floats(0.05, 0.3),
       gamma=st.sampled_from([0.0, 2e12, "auto"]))
def test_batch_is_bitwise_the_one_at_a_time_solves(omegas, fermi, gamma):
    # the batch's conductivities and film permittivities are array calls,
    # its roots per element; each mode is the 0-d solve's to the last bit
    config = RunConfig(E_F_eV=fermi, gamma_per_s=gamma)
    excitations = [Excitation.at_angular_frequency(omega)
                   for omega in omegas]
    batch = config.solve_modes(excitations)
    assert repr(batch) == repr(tuple(_scalar_mode(config, excitation)
                                     for excitation in excitations))
    assert repr(batch) == repr(tuple(config.solve_mode(omega=omega)
                                     for omega in omegas))


_BAD_SIGMAS = [1e-4 - 1e-4j, complex(math.nan, 1e-3), complex(1e-5, math.nan)]


@pytest.mark.parametrize("bad", _BAD_SIGMAS + ["below the light line"])
@pytest.mark.parametrize("position", [0, 1, 3])
def test_batch_raises_the_scalar_error_of_its_first_bad_element(
        default_config, bad, position):
    lambdas = (6.0, 8.0, 10.0, 12.0, 14.0)
    excitations = [Excitation(vacuum_wavelength=lam * 1e-6)
                   for lam in lambdas]
    sigmas = [_sigma(replace(default_config, lambda0_um=lam))
              for lam in lambdas]
    if bad == "below the light line":
        # a lossless sheet driven at omega = 1e3: k cancels to 0
        excitations[position] = Excitation.at_angular_frequency(1e3)
        bad = drude_conductivity(1e3, default_config.sheet(), 0.0)
    sigmas[position] = bad
    medium = default_config.medium()
    with pytest.raises(Exception) as alone:
        solve_dispersion(excitations[position], medium, bad)
    with pytest.raises(type(alone.value)) as caught:
        solve_dispersion_batch(excitations, medium, sigmas)
    assert str(caught.value) == str(alone.value)
    # it carries the modes before it, each its one-at-a-time solve
    assert repr(caught.value.modes) == repr(tuple(
        solve_dispersion(excitation, medium, sigma)
        for excitation, sigma in zip(excitations[:position],
                                     sigmas[:position])))
    # and a later bad element also fails the batch, after this one
    sigmas[-1] = _BAD_SIGMAS[0]
    with pytest.raises(type(alone.value), match=re.escape(str(alone.value))):
        solve_dispersion_batch(excitations, medium, sigmas)


def test_batch_checks_the_thickness_where_one_at_a_time_solves_do(
        default_config):
    # a bad shared thickness fails the first element whose root holds, as
    # one-at-a-time solves do: before a later bad element, after an
    # earlier one
    excitation = default_config.excitation()
    medium = default_config.medium()
    good, bad = _sigma(default_config), 1e-4 - 1e-4j
    with pytest.raises(MaterialDomainError, match="thickness"):
        solve_dispersion_batch([excitation] * 2, medium, [good, bad], 0.0)
    with pytest.raises(NoBoundModeError):
        solve_dispersion_batch([excitation] * 2, medium, [bad, good], 0.0)


def test_batch_needs_one_conductivity_per_excitation(default_config):
    with pytest.raises(ValueError, match="one conductivity per excitation"):
        solve_dispersion_batch([default_config.excitation()] * 2,
                               default_config.medium(),
                               [_sigma(default_config)])
    assert solve_dispersion_batch([], default_config.medium(), []) == ()
