"""Independent reference implementations: quadrature, residuals, expm."""

import math

import numpy as np
import pytest

from graphene_spp.coupling import overlap_integral
from graphene_spp.dynamics import (ChainHamiltonian, propagate,
                                   two_level_analytic)
from graphene_spp.geometry import build_schedule
from graphene_spp.materials import drude_conductivity
from graphene_spp.oracles import (OracleFailure, QuadratureSpec,
                                  dispersion_residual, expm_reference,
                                  overlap_quadrature, staircase_evolution)

TIGHT = QuadratureSpec(absolute_tolerance=1e-300, relative_tolerance=1e-11,
                       max_subdivisions=65536)


def test_overlap_quadrature_against_closed_form_seeded():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        k = complex(rng.uniform(0.2e8, 3.0e8), rng.uniform(-0.3e8, 0.3e8))
        d = rng.uniform(1e-9, 100e-9)
        numeric = overlap_quadrature(k, k, d, TIGHT)
        closed = overlap_integral(k, d)
        worst = max(worst, abs(numeric - closed) / abs(numeric))
    assert worst < 1e-8


def test_overlap_quadrature_known_integral():
    # equal real constants: integral is (d + 1/k) exp(-k d)
    k = 2.0e8
    d = 25e-9
    expected = (d + 1.0 / k) * math.exp(-k * d)
    value = overlap_quadrature(k, k, d, TIGHT)
    assert value.real == pytest.approx(expected, rel=1e-10)
    assert abs(value.imag) < 1e-20


@pytest.mark.parametrize("k, d", [
    (1e8, float("nan")),
    (float("nan"), 20e-9),
    (complex(1e8, float("nan")), 20e-9),
])
def test_overlap_quadrature_rejects_nan_up_front(k, d):
    # a NaN separation must not integrate to a fake 0j reference, and a NaN
    # constant must not spend the subdivision budget before failing
    with pytest.raises(ValueError):
        overlap_quadrature(k, k, d, TIGHT)


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(absolute_tolerance=-1.0)
    with pytest.raises(ValueError):
        QuadratureSpec(max_subdivisions=0)


def test_dispersion_residual_contract(default_config, default_mode):
    sigma = drude_conductivity(default_config.excitation().angular_frequency,
                               default_config.sheet(),
                               default_config.gamma())
    assert dispersion_residual(default_mode, sigma) < 1e-10


def test_dispersion_residual_detects_perturbation(default_config,
                                                  default_mode):
    from dataclasses import replace
    sigma = drude_conductivity(default_config.excitation().angular_frequency,
                               default_config.sheet(),
                               default_config.gamma())
    shifted = replace(default_mode, q=default_mode.q * 1.01)
    assert dispersion_residual(shifted, sigma) > 1e-3


def test_expm_identity_at_zero_coupling():
    ham = ChainHamiltonian((0.0,))
    final = expm_reference(ham, [0.6, 0.8], 1.0)
    assert final == pytest.approx([0.6, 0.8], abs=1e-14)


def test_expm_matches_two_level_analytic():
    worst = 0.0
    for area in np.linspace(0.1, 20 * math.pi, 23):
        coupling = 1.0e6
        span = area / coupling
        final = expm_reference(ChainHamiltonian((coupling,)), [1.0, 0.0],
                               span)
        exact = np.array([math.cos(area), -1j * math.sin(area)])
        worst = max(worst, float(np.abs(final - exact).max()))
        i0, i1 = two_level_analytic(coupling, span)
        worst = max(worst, abs(abs(final[0]) ** 2 - i0),
                    abs(abs(final[1]) ** 2 - i1))
    assert worst < 1e-10


def test_expm_damps_with_loss():
    lossy = ChainHamiltonian((1.0e6,)).matrix() - 1j * 2.0e5 * np.eye(2)
    final = expm_reference(lossy, [1.0, 0.0], 1.0e-6)
    norm = float(np.sum(np.abs(final) ** 2))
    assert norm == pytest.approx(math.exp(-2 * 2.0e5 * 1.0e-6), rel=1e-10)


def test_expm_rejects_large_chains():
    with pytest.raises((OracleFailure, ValueError)):
        expm_reference(ChainHamiltonian(tuple([1.0] * 9)), [1.0] + [0.0] * 9,
                       1.0)


def test_staircase_converges_to_integrator(default_config, default_mode):
    schedule_for = lambda n: build_schedule(default_config.geometry(),
                                            default_mode, n,
                                            default_config.k0_convention)
    start = np.array([1.0, 0.0, 0.0], dtype=complex)
    errors = []
    for knots in (513, 1025, 2049):
        schedule = schedule_for(knots)
        integrated = propagate(schedule, start)
        reference = staircase_evolution(schedule.x_grid, schedule.omega1,
                                        schedule.omega2, start)
        errors.append(float(np.abs(integrated.amplitudes[-1]
                                   - reference).max()))
    # the staircase is the second-order side of the comparison: quartering
    # per grid doubling, with headroom for the fourth-order integrator's bias
    assert errors[1] < 0.30 * errors[0]
    assert errors[2] < 0.30 * errors[1]
    assert errors[2] < 5e-6


def test_staircase_with_uniform_loss(default_config, default_mode):
    schedule = build_schedule(default_config.geometry(), default_mode, 1025,
                              default_config.k0_convention)
    start = np.array([1.0, 0.0, 0.0], dtype=complex)
    alpha = default_mode.q.imag
    lossless = staircase_evolution(schedule.x_grid, schedule.omega1,
                                   schedule.omega2, start)
    lossy = staircase_evolution(schedule.x_grid, schedule.omega1,
                                schedule.omega2, start, loss=alpha)
    span = schedule.x_grid[-1] - schedule.x_grid[0]
    predicted = lossless * math.exp(-alpha * span)
    assert np.abs(lossy - predicted).max() < 1e-10
