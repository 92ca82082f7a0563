"""Mode-overlap closed form and CMT coupling coefficients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphene_spp.coupling import (CouplingDomainError, PairCoupling,
                                   coupling_at_separations,
                                   coupling_coefficient, coupling_vs_distance,
                                   overlap_integral)
from graphene_spp.oracles import QuadratureSpec, overlap_quadrature
from tests.conftest import as_complex


def test_overlap_closed_form_matches_quadrature_goldens(goldens):
    for case in goldens["overlap_cases"]:
        value = overlap_integral(as_complex(case["k"]), case["d_m"])
        reference = as_complex(case["quadrature"])
        assert abs(value - reference) <= 1e-8 * abs(reference)


def test_overlap_decays_with_separation():
    k = 1.4e8 + 0.0j
    values = [abs(overlap_integral(k, d)) for d in (10e-9, 20e-9, 40e-9)]
    assert values[0] > values[1] > values[2]


def test_overlap_rejects_negative_separation():
    with pytest.raises(CouplingDomainError):
        overlap_integral(1e8, -1e-9)
    # touching sheets are still integrable; only d < 0 is meaningless
    assert overlap_integral(1e8, 0.0).real > 0


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(real=st.floats(1e6, 1e9), imag=st.floats(-1.0, 1.0),
       depths=st.lists(st.floats(0.0, 40.0), min_size=1, max_size=20))
def test_overlap_matches_its_complex_exp_form(real, imag, depths):
    # the real-argument evaluation stays within 4 eps of the closed form
    # written with numpy's complex exp, over couplers' k and separations
    # up to 40 decay lengths, scalar or array
    k = complex(real, imag * real)
    d = np.array(depths) / real
    reference = (d + 1.0 / k) * np.exp(-k * d)
    bound = 4.0 * np.finfo(float).eps * np.abs(reference)
    assert np.all(np.abs(overlap_integral(k, d) - reference) <= bound)
    scalar = overlap_integral(k, float(d[0]))
    assert type(scalar) is complex
    assert type(overlap_integral(k, d[0])) is complex
    assert abs(scalar - reference[0]) <= bound[0]


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(real=st.floats(1e6, 1e9), imag=st.floats(-1.0, 1.0),
       depths=st.lists(st.floats(0.0, 40.0), max_size=9))
def test_overlap_closed_form_matches_quadrature(real, imag, depths):
    # the oracle suite's quadrature spec; touching sheets (d = 0) in every
    # draw. Its error estimate is not asserted to bound the error: at
    # rounding level it does not always.
    k = complex(real, imag * real)
    d = np.array([0.0, *depths]) / real
    tight = QuadratureSpec(absolute_tolerance=1e-300,
                           relative_tolerance=5e-14, max_subdivisions=65536)
    reference = overlap_quadrature(k, k, d, tight)
    error = np.abs(overlap_integral(k, d) - reference) / np.abs(reference)
    assert np.all(error <= 1e-12)


@pytest.mark.parametrize("k, d", [
    (float("nan"), 20e-9),
    (complex(float("nan"), 1e7), 20e-9),
    (complex(1e8, float("nan")), 20e-9),
    (1e8, float("nan")),
    (1e8, [1e-9, float("nan")]),
])
def test_overlap_rejects_nan(k, d):
    with pytest.raises(CouplingDomainError):
        overlap_integral(k, d)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(ks=st.lists(st.tuples(st.floats(1e6, 1e9), st.floats(-1.0, 1.0)),
                   min_size=1, max_size=6),
       depths=st.lists(st.floats(0.0, 40.0), min_size=1, max_size=20))
def test_overlap_with_array_k_is_bitwise_the_scalar_calls(ks, depths):
    # a (rows, 1) column of k gives each row of d its own k, bit for bit
    # the scalar call on that row; so does an elementwise k against d
    k = np.array([complex(real, imag * real) for real, imag in ks])
    d = np.array(depths)[None, :] / k.real[:, None]
    rows = overlap_integral(k[:, None], d)
    assert rows.shape == d.shape
    for i, value in enumerate(k):
        assert np.array_equal(rows[i], overlap_integral(complex(value), d[i]))
    pairs = overlap_integral(k, d[:, 0])
    assert np.array_equal(pairs, [overlap_integral(complex(value), depth)
                                  for value, depth in zip(k, d[:, 0])])


@pytest.mark.parametrize("bad", [complex(float("nan"), 1e7),
                                 complex(1e8, float("inf")), -1e8, 0.0])
def test_overlap_rejects_a_bad_element_of_an_array_k(bad):
    k = np.array([1e8 + 1e6j, bad, 2e8 + 0j])[:, None]
    with pytest.raises(CouplingDomainError, match="Re k > 0"):
        overlap_integral(k, np.full((3, 4), 20e-9))


def test_coupling_coefficient_rejects_zero_separation(default_mode):
    with pytest.raises(CouplingDomainError):
        coupling_coefficient(default_mode, 0.0)


def test_coupling_rejects_nan_separation(default_mode):
    nan = float("nan")
    with pytest.raises(CouplingDomainError):
        coupling_coefficient(default_mode, nan)
    with pytest.raises(CouplingDomainError):
        coupling_vs_distance(default_mode, [1e-8, nan])
    with pytest.raises(CouplingDomainError):
        PairCoupling(c12=1.0 + 0j, separation=nan)


def test_coupling_vacuum_reference_value(default_mode):
    pair = coupling_coefficient(default_mode, 20e-9)
    # feasibility pin at the default configuration, vacuum light-line k0
    assert pair.c12 == pytest.approx(
        16320855.545452982 - 353624.3483778762j, rel=1e-9)


def test_coupling_conventions_differ(default_mode):
    vacuum = coupling_coefficient(default_mode, 20e-9, k0_convention="vacuum")
    film = coupling_coefficient(default_mode, 20e-9, k0_convention="film")
    assert abs(vacuum.c12) > 100 * abs(film.c12)


def test_coupling_at_separations_vectorizes(default_mode):
    d = np.array([15e-9, 20e-9, 30e-9])
    c12, _ = coupling_at_separations(default_mode, d)
    scalar = coupling_coefficient(default_mode, 20e-9)
    assert c12.shape == (3,)
    assert c12[1] == pytest.approx(scalar.c12, rel=1e-12)


def test_coupling_decays_monotonically(default_mode):
    d_grid = np.linspace(10e-9, 100e-9, 40)
    couplings = coupling_vs_distance(default_mode, d_grid)
    magnitudes = np.array([abs(pair.c12) for pair in couplings])
    assert np.all(np.diff(magnitudes) < 0)


def test_coupling_tail_is_exponential(default_mode):
    # far tail behaves like exp(-Re(k) d) once the algebraic prefactor of
    # the overlap has flattened out
    d1, d2 = 200e-9, 220e-9
    c1 = coupling_coefficient(default_mode, d1).c12
    c2 = coupling_coefficient(default_mode, d2).c12
    measured = np.log(abs(c1) / abs(c2)) / (d2 - d1)
    assert measured == pytest.approx(default_mode.k.real, rel=0.05)


def test_unknown_k0_convention_rejected(default_mode):
    with pytest.raises(ValueError):
        coupling_coefficient(default_mode, 20e-9, k0_convention="sheet")
