"""Bound-mode solver: residuals, closed forms, derived lengths."""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphene_spp.config import RunConfig
from graphene_spp.dispersion import (INFINITE_PROPAGATION, ConvergenceError,
                                     Excitation, NoBoundModeError,
                                     confinement_length, propagation_length,
                                     solve_dispersion)
from graphene_spp.materials import (MaterialDomainError, Medium,
                                    drude_conductivity)
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
