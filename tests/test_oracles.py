"""Independent reference implementations: quadrature, residuals, expm."""

import ast
import math
import pathlib
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphene_spp
from graphene_spp import oracles, validation
from graphene_spp.config import RunConfig
from graphene_spp.coupling import overlap_integral
from graphene_spp.dynamics import propagate, two_level_analytic
from graphene_spp.geometry import build_schedule
from graphene_spp.materials import drude_conductivity
from graphene_spp.oracles import (OracleFailure, QuadratureSpec,
                                  dispersion_residual, expm_reference,
                                  overlap_quadrature, staircase_evolution)
from tests.conftest import as_complex, chain_matrix

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
    (1e8, float("inf")),
    (float("nan"), 20e-9),
    (complex(1e8, float("nan")), 20e-9),
])
def test_overlap_quadrature_rejects_nan_up_front(k, d):
    # a NaN separation must not integrate to a fake 0j reference, and a NaN
    # constant must not spend the subdivision budget before failing
    with pytest.raises(ValueError):
        overlap_quadrature(k, k, d, TIGHT)


def test_overlap_quadrature_matches_simpson_goldens_and_closed_form(goldens):
    # the goldens hold the values of the adaptive Simpson rule this
    # Gauss-Kronrod rule replaced (about 1e-11 from the closed form)
    for case in goldens["overlap_cases"]:
        k = as_complex(case["k"])
        value = overlap_quadrature(k, k, case["d_m"], TIGHT)
        simpson = as_complex(case["quadrature"])
        closed = as_complex(case["closed_form"])
        assert abs(value - simpson) <= 1e-10 * abs(simpson)
        assert abs(value - closed) <= 1e-12 * abs(closed)


@pytest.mark.parametrize("relative", [1e-11, 1e-13])
def test_overlap_error_estimate_bounds_true_error(relative):
    spec = QuadratureSpec(absolute_tolerance=1e-300,
                          relative_tolerance=relative, max_subdivisions=65536)
    rng = np.random.default_rng(5)
    for _ in range(40):
        k = complex(rng.uniform(0.2e8, 3.0e8), rng.uniform(-0.3e8, 0.3e8))
        d = rng.uniform(1e-9, 100e-9)
        value, details = overlap_quadrature(k, k, d, spec,
                                            return_details=True)
        assert details["error_estimate"] >= abs(value - overlap_integral(k, d))
        assert details["tail_bound"] < 1e-12 * abs(value)


def test_overlap_quadrature_panel_budget_runs_out():
    spec = QuadratureSpec(absolute_tolerance=1e-300, relative_tolerance=1e-15,
                          max_subdivisions=16)
    with pytest.raises(OracleFailure):
        overlap_quadrature(2.0e8, 2.0e8, 25e-9, spec)


def _suite_overlap_cases(seed):
    # the overlap check's draws in validation.run_oracle_suite
    rng = random.Random(f"overlap:{seed}")
    cases = [(complex(rng.uniform(0.2, 3.0) * 1e8,
                      rng.uniform(-0.3, 0.3) * 1e8),
              rng.uniform(1.0, 100.0) * 1e-9) for _ in range(100)]
    return tuple(np.array(column) for column in zip(*cases))


SUITE_SPEC = QuadratureSpec(absolute_tolerance=1e-300,
                            relative_tolerance=5e-14, max_subdivisions=65536)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_overlap_batch_matches_scalar_calls(seed):
    k, d = _suite_overlap_cases(seed)
    values, details = overlap_quadrature(k, k, d, SUITE_SPEC,
                                         return_details=True)
    assert values.shape == d.shape
    assert all(details[key].shape == d.shape for key in details)
    for i in range(d.size):
        value, alone = overlap_quadrature(complex(k[i]), complex(k[i]),
                                          float(d[i]), SUITE_SPEC,
                                          return_details=True)
        assert isinstance(value, complex)
        assert alone["subdivisions_used"] == details["subdivisions_used"][i]
        assert abs(value - values[i]) <= 1e-15 * abs(value)
        assert (abs(alone["error_estimate"] - details["error_estimate"][i])
                <= 1e-15 * alone["error_estimate"])


def test_overlap_case_is_bitwise_independent_of_its_batch():
    # a case's panels keep their order within any batch, and its sums are
    # taken in that order, so its bits do not depend on its neighbours
    k, d = _suite_overlap_cases(0)
    forward = overlap_quadrature(k, k, d, SUITE_SPEC, return_details=True)
    backward = overlap_quadrature(k[::-1], k[::-1], d[::-1], SUITE_SPEC,
                                  return_details=True)
    for i in (0, 17, 58, 99):
        alone = overlap_quadrature(k[i:i + 1], k[i:i + 1], d[i:i + 1],
                                   SUITE_SPEC, return_details=True)
        for batch, j in ((forward, i), (backward, d.size - 1 - i)):
            assert batch[0][j] == alone[0][0]
            for key in alone[1]:
                assert batch[1][key][j] == alone[1][key][0]


def test_overlap_panel_budget_is_per_case():
    spec = QuadratureSpec(absolute_tolerance=1e-300, relative_tolerance=1e-6,
                          max_subdivisions=16)
    easy = np.full(8, 2.0e8 + 0j)
    d = np.full(9, 25e-9)
    # eight cases of 15 panels each fit a budget of 16 per case
    _, details = overlap_quadrature(easy, easy, d[:8], spec,
                                    return_details=True)
    assert np.all(details["subdivisions_used"] <= 16)
    # one case that needs more fails the whole call
    mixed = np.r_[easy[:4], 1.0e8 + 3.0e8j, easy[4:]]
    with pytest.raises(OracleFailure):
        overlap_quadrature(mixed, mixed, d, spec)


@pytest.mark.parametrize("field, value", [
    ("k", complex(float("nan"), 0.0)), ("k", complex(1e8, float("inf"))),
    ("k", -1e8), ("d", float("nan")), ("d", float("inf")), ("d", -1e-9)])
def test_overlap_batch_rejects_any_bad_entry_before_work(monkeypatch, field,
                                                         value):
    def no_work(*args):
        raise AssertionError("panels evaluated before the input check")

    monkeypatch.setattr(oracles, "_node_sum", no_work)
    k, d = _suite_overlap_cases(0)
    k, d = k[:10].copy(), d[:10].copy()
    {"k": k, "d": d}[field][6] = value
    with pytest.raises(ValueError):
        overlap_quadrature(k, k, d, SUITE_SPEC)


def test_oracles_import_only_stdlib_and_numpy():
    # agreement with an oracle is evidence only while the oracle shares no
    # code with the paths it checks
    path = pathlib.Path(graphene_spp.__file__).with_name("oracles.py")
    roots = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import in oracles"
            roots.add(node.module.split(".")[0])
    assert "numpy" in roots
    assert roots - {"numpy"} <= set(sys.stdlib_module_names)
    assert not roots & {"graphene_spp", "scipy"}


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
    final = expm_reference(chain_matrix([0.0]), [0.6, 0.8], 1.0)
    assert final == pytest.approx([0.6, 0.8], abs=1e-14)


def test_expm_matches_two_level_analytic():
    worst = 0.0
    for area in np.linspace(0.1, 20 * math.pi, 23):
        coupling = 1.0e6
        span = area / coupling
        final = expm_reference(chain_matrix([coupling]), [1.0, 0.0], span)
        exact = np.array([math.cos(area), -1j * math.sin(area)])
        worst = max(worst, float(np.abs(final - exact).max()))
        i0, i1 = two_level_analytic(coupling, span)
        worst = max(worst, abs(abs(final[0]) ** 2 - i0),
                    abs(abs(final[1]) ** 2 - i1))
    assert worst < 1e-10


def test_expm_damps_with_loss():
    lossy = chain_matrix([1.0e6]) - 1j * 2.0e5 * np.eye(2)
    final = expm_reference(lossy, [1.0, 0.0], 1.0e-6)
    norm = float(np.sum(np.abs(final) ** 2))
    assert norm == pytest.approx(math.exp(-2 * 2.0e5 * 1.0e-6), rel=1e-10)


@pytest.mark.parametrize("matrix, span", [
    ([[0.0, float("nan")], [1.0, 0.0]], 1.0),
    ([[0.0, 1.0], [1.0, float("inf")]], 1.0),
    ([[0.0, 1.0], [1.0, 0.0]], float("nan")),
    ([[0.0, 1.0], [1.0, 0.0]], [1.0, float("inf")]),
])
def test_expm_rejects_non_finite_input(matrix, span):
    with pytest.raises(ValueError):
        expm_reference(matrix, [1.0, 0.0], span)


def test_expm_stack_equals_per_matrix_calls():
    rng = np.random.default_rng(4)
    stack = (rng.normal(size=(2, 5, 3, 3))
             + 1j * rng.normal(size=(2, 5, 3, 3))) * 1e6
    spans = rng.uniform(0.1, 2.0, 5) * 1e-6  # broadcast over the first axis
    start = [1.0, 0.0, 0.0]
    stacked = expm_reference(stack, start, spans)
    assert stacked.shape == (2, 5, 3)
    for i in range(2):
        for j in range(5):
            assert np.array_equal(
                stacked[i, j], expm_reference(stack[i, j], start, spans[j]))


def test_expm_rejects_large_chains():
    with pytest.raises((OracleFailure, ValueError)):
        expm_reference(chain_matrix([1.0] * 9), [1.0] + [0.0] * 9, 1.0)


@pytest.mark.parametrize("matrix", [
    [[0.0, 1.0e6], [0.0, 0.0]],
    [[1.0e6, 1.0e6], [0.0, 1.0e6]],
    [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]],
], ids=["nilpotent-2", "jordan-2", "nilpotent-3"])
def test_expm_refuses_a_defective_matrix(matrix):
    # a Jordan block has no eigenbasis: no propagator is better than a
    # wrong one
    start = [1.0] + [0.0] * (len(matrix) - 1)
    with pytest.raises(OracleFailure):
        expm_reference(matrix, start, 1.0e-6)


def _eig_propagators(stack, spans):
    # exp(-i M h) from the general eigendecomposition, as the lossy path
    # forms it
    vals, vecs = np.linalg.eig(stack)
    phases = np.exp(-1j * vals * spans[..., None])
    return (vecs * phases[..., None, :]) @ np.linalg.inv(vecs)


class _Spy:
    """Records each call of a numpy.linalg routine, then delegates."""

    def __init__(self, monkeypatch, name):
        self.real, self.dtypes = getattr(np.linalg, name), []
        monkeypatch.setattr(np.linalg, name, self)

    def __call__(self, stack, *args, **kwargs):
        self.dtypes.append(stack.dtype)
        return self.real(stack, *args, **kwargs)


@pytest.mark.parametrize("complex_entries", [False, True],
                         ids=["real-symmetric", "complex-hermitian"])
@pytest.mark.parametrize("m", [2, 3])
def test_hermitian_stack_takes_eigh_and_matches_eig(monkeypatch, m,
                                                    complex_entries):
    rng = np.random.default_rng(31 + m)
    stack = rng.normal(size=(64, m, m))
    if complex_entries:
        stack = stack + 1j * rng.normal(size=(64, m, m))
    stack = stack + np.swapaxes(stack, -1, -2).conj()
    spans = rng.uniform(0.1, 2.0, 64)
    expected = _eig_propagators(stack, spans)
    eigh, eig = _Spy(monkeypatch, "eigh"), _Spy(monkeypatch, "eig")
    steps = oracles._propagators(stack, spans)
    assert eigh.dtypes == [stack.dtype] and eig.dtypes == []
    assert np.abs(steps - expected).max() <= 1e-13


def test_one_ulp_off_hermitian_takes_eig(monkeypatch):
    # exactly Hermitian or not: a stack off by one ulp in one element is
    # not diagonalized by eigh, which would read only one triangle of it
    rng = np.random.default_rng(7)
    stack = rng.normal(size=(16, 3, 3))
    stack = stack + np.swapaxes(stack, -1, -2)
    stack[9, 2, 1] = np.nextafter(stack[9, 2, 1], np.inf)
    spans = rng.uniform(0.1, 2.0, 16)
    eigh, eig = _Spy(monkeypatch, "eigh"), _Spy(monkeypatch, "eig")
    steps = oracles._propagators(stack, spans)
    assert eigh.dtypes == [] and eig.dtypes == [stack.dtype]
    assert np.array_equal(steps, _eig_propagators(stack, spans))


def test_expm_keeps_a_real_chain_real(monkeypatch):
    # a lossless chain is diagonalized as the real symmetric matrix it is;
    # H - i alpha I is not Hermitian and goes to eig
    eigh, eig = _Spy(monkeypatch, "eigh"), _Spy(monkeypatch, "eig")
    expm_reference(chain_matrix([1.0e6, 2.0e6]), [1.0, 0.0, 0.0], 1.0e-6)
    expm_reference(chain_matrix([1.0e6]) - 1j * 2.0e5 * np.eye(2),
                   [1.0, 0.0], 1.0e-6)
    assert eigh.dtypes == [np.dtype(float)]
    assert eig.dtypes == [np.dtype(complex)]


def test_lossless_staircase_diagonalizes_real_stacks(monkeypatch,
                                                     default_config,
                                                     default_mode):
    # lossless: one real symmetric eigh per 128-interval block; lossy: the
    # matrices H - i diag(loss) are not Hermitian and stay on eig
    schedule = build_schedule(default_config.geometry(), default_mode, 257,
                              default_config.k0_convention)
    start = np.array([1.0, 0.0, 0.0], dtype=complex)
    args = (schedule.x_grid, schedule.omega1_mid, schedule.omega2_mid, start)
    eigh, eig = _Spy(monkeypatch, "eigh"), _Spy(monkeypatch, "eig")
    staircase_evolution(*args)
    assert eigh.dtypes == [np.dtype(float)] * 2 and eig.dtypes == []
    staircase_evolution(*args, loss=default_mode.q.imag)
    assert eigh.dtypes == [np.dtype(float)] * 2
    assert eig.dtypes == [np.dtype(complex)] * 2


def _knot_averages(omega):
    return 0.5 * (omega[:-1] + omega[1:])


def test_staircase_converges_to_integrator(default_config, default_mode):
    schedule_for = lambda n: build_schedule(default_config.geometry(),
                                            default_mode, n,
                                            default_config.k0_convention)
    start = np.array([1.0, 0.0, 0.0], dtype=complex)
    errors = []
    for knots in (513, 1025, 2049):
        schedule = schedule_for(knots)
        integrated = propagate(schedule, start)
        reference = staircase_evolution(schedule.x_grid, schedule.omega1_mid,
                                        schedule.omega2_mid, start)
        errors.append(float(np.abs(integrated.amplitudes[-1]
                                   - reference).max()))
    # the midpoint staircase is the second-order side of the comparison:
    # quartering per grid doubling, with headroom for the fourth-order
    # integrator's own error
    assert errors[1] < 0.30 * errors[0]
    assert errors[2] < 0.30 * errors[1]
    assert errors[2] < 5e-6


def test_staircase_with_uniform_loss(default_config, default_mode):
    schedule = build_schedule(default_config.geometry(), default_mode, 1025,
                              default_config.k0_convention)
    start = np.array([1.0, 0.0, 0.0], dtype=complex)
    alpha = default_mode.q.imag
    lossless = staircase_evolution(schedule.x_grid, schedule.omega1_mid,
                                   schedule.omega2_mid, start)
    lossy = staircase_evolution(schedule.x_grid, schedule.omega1_mid,
                                schedule.omega2_mid, start, loss=alpha)
    span = schedule.x_grid[-1] - schedule.x_grid[0]
    predicted = lossless * math.exp(-alpha * span)
    assert np.abs(lossy - predicted).max() < 1e-10


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(fermi=st.floats(0.1, 0.3), gap_nm=st.floats(10.0, 40.0),
       length_um=st.floats(0.5, 1.4), rate=st.floats(0.0, 5.0))
def test_loss_envelope_identity_on_three_sheet_chain(fermi, gap_nm,
                                                     length_um, rate):
    # uniform loss commutes with the chain's coupling matrix, so it is the
    # envelope exp(-alpha L) on the staircase and on the integrator alike
    config = RunConfig(E_F_eV=fermi, d_min_nm=gap_nm, L_um=length_um)
    mode = config.solve_mode()
    schedule = build_schedule(config.geometry(), mode, 257,
                              config.k0_convention)
    start = np.array([1.0, 0.0, 0.0], dtype=complex)
    alpha = rate * mode.q.imag
    x = schedule.x_grid
    envelope = math.exp(-alpha * (x[-1] - x[0]))
    lossless = staircase_evolution(x, schedule.omega1_mid,
                                   schedule.omega2_mid, start)
    lossy = staircase_evolution(x, schedule.omega1_mid, schedule.omega2_mid,
                                start, loss=alpha)
    assert np.abs(lossy - envelope * lossless).max() <= 1e-13
    integrated = propagate(schedule, start)
    gap = integrated.amplitudes[-1] - lossless
    damped = integrated.damped(alpha).amplitudes[-1]
    assert np.abs((damped - lossy) - envelope * gap).max() <= 1e-13


@pytest.mark.parametrize("lossy", [False, True], ids=["lossless", "lossy"])
def test_staircase_stack_matches_stepwise_expm(default_config, default_mode,
                                               lossy):
    schedule = build_schedule(default_config.geometry(), default_mode, 257,
                              default_config.k0_convention)
    alpha = default_mode.q.imag if lossy else 0.0
    start = np.array([1.0, 0.0, 0.0], dtype=complex)
    x = schedule.x_grid
    # the linearly interpolated reference: one knot-average coupling and
    # one expm_reference call per interval
    w1 = _knot_averages(schedule.omega1)
    w2 = _knot_averages(schedule.omega2)
    expected = start
    for j in range(len(x) - 1):
        m = np.array([[0.0, w1[j], 0.0], [w1[j], 0.0, w2[j]],
                      [0.0, w2[j], 0.0]],
                     dtype=complex) - 1j * alpha * np.eye(3)
        expected = expm_reference(m, expected, x[j + 1] - x[j])
    stacked = staircase_evolution(x, w1, w2, start, loss=alpha)
    assert np.abs(stacked - expected).max() < 1e-13


_GRID = np.linspace(0.0, 1e-6, 5)
_RAMP = np.linspace(1e6, 2e6, 4)  # one coupling per interval of _GRID


@pytest.mark.parametrize("x, o1, o2, loss", [
    (np.r_[_GRID[:-1], np.nan], _RAMP, _RAMP, 0.0),
    (_GRID, np.r_[_RAMP[:-1], np.inf], _RAMP, 0.0),
    (_GRID, _RAMP, np.r_[np.nan, _RAMP[1:]], 0.0),
    (_GRID, _RAMP[:-1], _RAMP, 0.0),
    (_GRID, _RAMP, _RAMP[1:], 0.0),
    (_GRID[::-1], _RAMP, _RAMP, 0.0),
    (np.r_[_GRID[:2], _GRID[1:-1]], _RAMP, _RAMP, 0.0),
    (_GRID[:1], _RAMP[:0], _RAMP[:0], 0.0),
    (_GRID, _RAMP, _RAMP, float("nan")),
    (_GRID, _RAMP, _RAMP, [0.0, float("inf"), 0.0]),
    (_GRID, np.r_[_RAMP, 2e6], np.r_[_RAMP, 2e6], 0.0),
], ids=["nan-grid", "inf-omega1", "nan-omega2", "short-omega1",
        "short-omega2", "decreasing", "repeated-knot", "one-knot",
        "nan-loss", "inf-loss", "knot-couplings"])
def test_staircase_rejects_bad_input(x, o1, o2, loss):
    with pytest.raises(ValueError):
        staircase_evolution(x, o1, o2, [1.0, 0.0, 0.0], loss=loss)


def _nan_overlap(k_a, k_b, d, *args, **kwargs):
    nan = np.full(np.shape(d), math.nan)
    return nan + 0j, {"error_estimate": nan}


def _nan_chains(coupling, span, n_steps):
    return np.full((len(coupling), 2), math.nan)


@pytest.mark.parametrize("module, name, fake, check", [
    (oracles, "overlap_quadrature", _nan_overlap, "overlap"),
    (oracles, "dispersion_residual", lambda *args: math.nan, "dispersion"),
    (validation, "propagate_batch_two", _nan_chains, "two_level"),
    (oracles, "expm_reference", lambda *args: np.full(2, math.nan), "expm"),
], ids=["overlap", "dispersion", "two-level", "expm"])
def test_oracle_suite_fails_a_nan_error(default_config, default_mode,
                                        monkeypatch, module, name, fake,
                                        check):
    # a NaN error is not a small error: the check that met it fails, and
    # only that one
    monkeypatch.setattr(module, name, fake)
    suite = validation.run_oracle_suite(default_config, default_mode, seed=0)
    flags = {key: value for key, value in suite.items()
             if key.endswith("_pass")}
    assert flags.pop(f"{check}_pass") is False
    assert all(flags.values())


def test_oracle_suite_staircase_runs_the_given_mode(default_config,
                                                    monkeypatch):
    # the staircase check builds its schedules from the caller's mode, not
    # from the last random trial of the residual check
    _, mode = validation.wavevector_to_omega(default_config, 35e6)
    seen = []
    real = validation.build_schedule

    def recording(geometry, schedule_mode, *args):
        seen.append(schedule_mode)
        return real(geometry, schedule_mode, *args)

    monkeypatch.setattr(validation, "build_schedule", recording)
    suite = validation.run_oracle_suite(default_config, mode, seed=0)
    assert len(seen) == 2
    assert all(schedule_mode is mode for schedule_mode in seen)
    assert suite["staircase_pass"]
