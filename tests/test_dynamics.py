"""Propagation integrators, dark state, loss handling, field maps."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphene_spp.dynamics import (_MAX_STEP_ANGLE, _STEP_BLOCK,
                                   PropagationError, Trajectory,
                                   _pair_quaternions, _prefix_products,
                                   _quaternion_product, _rotation_matrices,
                                   dark_state, field_map,
                                   propagate, propagate_batch_three,
                                   propagate_batch_two, propagate_constant,
                                   two_level_analytic)
from graphene_spp.geometry import (CouplingSchedule, _length_lattice,
                                   _rider_lattice, build_schedule)
from graphene_spp.oracles import expm_reference
from tests.conftest import (as_complex, chain_matrix,
                            continuous_device_finals)

START = np.array([1.0, 0.0, 0.0], dtype=complex)


def _schedule(config, mode, n=1025):
    return build_schedule(config.geometry(), mode, n, config.k0_convention)


def test_two_level_matches_analytic_up_to_large_pulse_area():
    worst = 0.0
    for area in np.linspace(0.05, 20.0 * math.pi, 37):
        coupling = 3.0e6
        span = area / coupling
        i0, i1 = np.abs(propagate_constant([coupling], span)) ** 2
        exact0, exact1 = two_level_analytic(coupling, span)
        worst = max(worst, abs(i0 - exact0), abs(i1 - exact1))
    assert worst < 1e-6


def test_two_level_matches_expm_goldens(goldens):
    for pin in goldens["expm_pins"]:
        final = propagate_constant([pin["coupling_per_m"]], pin["span_m"])
        reference = np.array([as_complex(z) for z in pin["final"]])
        assert np.abs(final - reference).max() < 1e-6


def test_lossless_norm_conserved(default_config, default_mode):
    schedule = _schedule(default_config, default_mode, 4096)
    trajectory = propagate(schedule, START)
    norms = np.sum(trajectory.intensities, axis=1)
    assert np.abs(norms - 1.0).max() < 1e-9


def test_default_device_endpoint_matches_staircase_golden(
        default_config, default_mode, goldens):
    pins = goldens["staircase"]
    schedule = _schedule(default_config, default_mode, pins["knots"])
    lossless = propagate(schedule, START)
    reference = np.array([as_complex(z) for z in pins["lossless_final"]])
    assert np.abs(lossless.amplitudes[-1] - reference).max() < 2e-6

    lossy = lossless.damped(pins["alpha_per_m"])
    reference = np.array([as_complex(z) for z in pins["lossy_final"]])
    assert np.abs(lossy.amplitudes[-1] - reference).max() < 2e-6


def test_dark_state_annihilated_everywhere(default_config, default_mode):
    schedule = _schedule(default_config, default_mode, 513)
    for o1, o2 in zip(schedule.omega1[::16], schedule.omega2[::16]):
        h = chain_matrix((o1, o2))
        dark = dark_state(o1, o2)
        h_norm = np.linalg.norm(h, 2)
        assert np.linalg.norm(h @ dark) < 1e-12 * h_norm
        assert dark[1] == 0.0


def test_dark_state_undefined_at_zero_coupling():
    with pytest.raises(ValueError):
        dark_state(0.0, 0.0)


def _quadratic(start, mid, end, t):
    """The quadratic through an interval's start, midpoint and end samples,
    at fraction t of the interval."""
    return ((2.0 * t - 1.0) * (t - 1.0) * start
            + 4.0 * t * (1.0 - t) * mid + t * (2.0 * t - 1.0) * end)


def _generator(u1, u2):
    """Real generator G of ds/dx = G s for the couplings (u1, u2), in the
    basis s = (a0, i a1, a2)."""
    return np.array([[0.0, -u1, 0.0], [u1, 0.0, u2], [0.0, -u2, 0.0]])


def _magnus_exponent(h, u_start, u_mid, u_end):
    """The 4th-order Magnus exponent h/6 (G0 + 4 Gm + G1)
    - h^2/12 [Gm, G1 - G0] of a step of width h, from the coupling pairs
    at its start, midpoint and end, as a 3x3 matrix."""
    g0, gm, g1 = (_generator(*u) for u in (u_start, u_mid, u_end))
    dg = g1 - g0
    return h / 6.0 * (g0 + 4.0 * gm + g1) - h * h / 12.0 * (gm @ dg - dg @ gm)


def _angle(omega):
    """Rotation angle of an antisymmetric 3x3 exponent."""
    return math.sqrt(0.5 * float(np.sum(omega * omega)))


def _rotation(omega):
    """exp(Omega) of an antisymmetric 3x3 exponent, by Rodrigues' formula."""
    theta = _angle(omega)
    k = omega / theta
    return np.eye(3) + math.sin(theta) * k + (1.0 - math.cos(theta)) * (k @ k)


def _magnus_rotation(h, u_start, u_mid, u_end, loss=0.0):
    """exp(Omega - loss h I): one Magnus step of ds/dx = (G - loss I) s."""
    return math.exp(-loss * h) * _rotation(
        _magnus_exponent(h, u_start, u_mid, u_end))


def _substep_samples(samples1, samples2, s, m):
    """Coupling pairs at the start, midpoint and end of substep s of m,
    from the quadratic through an interval's start, midpoint and end."""
    return [(_quadratic(*samples1, t), _quadratic(*samples2, t))
            for t in (s / m, (s + 0.5) / m, (s + 1.0) / m)]


def _propagate_stepwise(schedule, initial, loss, step=None):
    """propagate with the uniform loss rate inside every Magnus step, one
    rotation per interval (per substep when step is given) applied in a
    Python loop; substep s of m takes its couplings from the quadratic
    through the interval's start, exact midpoint and end samples at
    fractions s/m, (s + 1/2)/m, (s + 1)/m."""
    x = schedule.x_grid
    m = 1 if step is None else max(1, math.ceil(schedule.spacing / step
                                                - 1e-12))
    basis = np.array([1.0, 1j, 1.0])
    state = basis * np.asarray(initial, dtype=complex)
    out = [state / basis]
    for j in range(len(x) - 1):
        h = (x[j + 1] - x[j]) / m
        samples1 = (schedule.omega1[j], schedule.omega1_mid[j],
                    schedule.omega1[j + 1])
        samples2 = (schedule.omega2[j], schedule.omega2_mid[j],
                    schedule.omega2[j + 1])
        for s in range(m):
            state = _magnus_rotation(
                h, *_substep_samples(samples1, samples2, s, m), loss) @ state
        out.append(state / basis)
    return np.array(out)


def test_propagate_matches_stepwise_loss_loop(default_config, default_mode):
    # the loss envelope outside the kernel must agree with damping inside
    # every Magnus step, over whole trajectories: uniform loss commutes
    # with the chain, so the two differ by rounding only. The schedule spans
    # several blocks of the scan, so each block must start from the last
    # state of the one before.
    schedule = _schedule(default_config, default_mode, 4096)
    assert len(schedule.x_grid) - 1 > _STEP_BLOCK
    alpha = default_mode.q.imag
    for step in (None, schedule.spacing / 2, schedule.spacing / 3):
        for loss in (0.0, alpha):
            got = propagate(schedule, START,
                            step=step).damped(loss).amplitudes
            expected = _propagate_stepwise(schedule, START, loss, step)
            assert got.shape == expected.shape
            assert _relative_gap(got, expected) < 1e-12


def test_uniform_loss_factorizes(default_config, default_mode):
    schedule = _schedule(default_config, default_mode, 1025)
    alpha = default_mode.q.imag
    lossless = propagate(schedule, START)
    lossy = _propagate_stepwise(schedule, START, alpha)
    factor = np.exp(-alpha * (schedule.x_grid - schedule.x_grid[0]))
    predicted = lossless.amplitudes * factor[:, None]
    assert np.abs(lossy - predicted).max() < 1e-8


def test_damped_rejects_vector_or_negative_loss(default_config,
                                                default_mode):
    schedule = _schedule(default_config, default_mode, 129)
    alpha = default_mode.q.imag
    trajectory = propagate(schedule, START)
    for loss in ((0.0, alpha, 0.0), np.full(3, alpha), -alpha):
        with pytest.raises(ValueError):
            trajectory.damped(loss)


def test_nan_loss_is_rejected(default_config, default_mode):
    # a NaN rate is no rate >= 0; it must not turn amplitudes into NaN
    schedule = _schedule(default_config, default_mode, 129)
    trajectory = propagate(schedule, START)
    with pytest.raises(ValueError):
        trajectory.damped(math.nan)


def test_propagate_rejects_bad_initial_states(default_config, default_mode):
    schedule = _schedule(default_config, default_mode, 129)
    with pytest.raises(ValueError, match="three-channel"):
        propagate(schedule, np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="unit norm"):
        propagate(schedule, np.array([2.0, 0.0, 0.0], dtype=complex))
    # a NaN state has no norm; it is bad input, not a numerical blow-up
    with pytest.raises(ValueError, match="unit norm"):
        propagate(schedule, np.array([math.nan, 0.0, 0.0]))


def test_propagate_step_subdivides(default_config, default_mode):
    schedule = _schedule(default_config, default_mode, 513)
    coarse = propagate(schedule, START)
    fine = propagate(schedule, START,
                     step=schedule.spacing / 4)
    # both converged; the step option must not change the answer materially
    assert np.abs(coarse.amplitudes[-1] - fine.amplitudes[-1]).max() < 1e-7
    with pytest.raises(ValueError):
        propagate(schedule, START, step=schedule.spacing * 2)


@pytest.mark.parametrize("fraction", [math.nan, 0.0, -0.25],
                         ids=["nan", "zero", "negative"])
def test_propagate_rejects_bad_steps(default_config, default_mode, fraction):
    # a NaN step is bad input, named as such, not a failed float-to-int
    # conversion
    schedule = _schedule(default_config, default_mode, 129)
    with pytest.raises(ValueError, match=r"step must be > 0"):
        propagate(schedule, START, step=schedule.spacing * fraction)


def test_propagate_memory_does_not_grow_with_substeps(default_config,
                                                      default_mode):
    # a scan block holds about _STEP_BLOCK steps, substeps included, so the
    # heap peak does not grow with the substep count m
    schedule = _schedule(default_config, default_mode, 4096)
    peaks = {}
    for m in (1, 16):
        tracemalloc.start()
        try:
            propagate(schedule, START,
                      step=None if m == 1 else schedule.spacing / m)
            peaks[m] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[16] <= 1.5 * peaks[1]


def test_propagate_complex_initial_state_matches_stepwise_loop(
        default_config, default_mode):
    # the kernel runs in the real basis (a0, i a1, a2); any complex state
    # must come back in the channel basis
    schedule = _schedule(default_config, default_mode, 1025)
    rng = np.random.default_rng(3)
    for _ in range(3):
        initial = rng.normal(size=3) + 1j * rng.normal(size=3)
        initial /= np.linalg.norm(initial)
        got = propagate(schedule, initial).amplitudes
        expected = _propagate_stepwise(schedule, initial, 0.0)
        assert _relative_gap(got, expected) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 5, 1023, 1024, 1025])
def test_prefix_products_match_sequential_products(n):
    # the scan's log2 levels associate the products differently from a
    # left-to-right loop, so the two agree to rounding, at lengths on both
    # sides of a power of two
    rng = np.random.default_rng(n)
    q = rng.normal(size=(4, n))
    q /= np.linalg.norm(q, axis=0)
    expected = q.copy()
    for j in range(1, n):
        expected[:, j:j + 1] = _quaternion_product(q[:, j:j + 1],
                                                   expected[:, j - 1:j])
    assert np.abs(_prefix_products(q.copy()) - expected).max() < 1e-14


def test_resolution_guard_stops_at_first_interval_over_limit():
    # stable couplings, then h * omega = 3 from knot 1400 of 2049 (past the
    # first block of propagate's scan, in the batch kernel's right half): a
    # rotation never overflows, so the guard, not a blow-up, must stop the
    # run where a step turns by more than the limit. propagate raises at
    # the end of that interval, and the batch kernel returns NaN for the
    # device and only for it.
    x = np.linspace(-0.5e-6, 0.5e-6, 2049)
    h = x[1] - x[0]
    omega = np.full(x.size, 1e6)
    omega[1400:] = 3.0 / h
    mid = 0.5 * (omega[:-1] + omega[1:])
    schedule = CouplingSchedule(x, omega, 0.5 * omega, mid, 0.5 * mid)
    angles = [_angle(_magnus_exponent(
        h, (omega[j], 0.5 * omega[j]), (mid[j], 0.5 * mid[j]),
        (omega[j + 1], 0.5 * omega[j + 1]))) for j in range(x.size - 1)]
    first = np.flatnonzero(np.array(angles) > _MAX_STEP_ANGLE)[0]
    assert first == 1399
    assert first > _STEP_BLOCK
    with pytest.raises(PropagationError, match="resolution limit") as caught:
        propagate(schedule, START)
    assert caught.value.position == x[first + 1]

    # the batch kernel takes mirrored tables (omega2 is omega1 reversed)
    # and integrates their right half, where the over-limit steps are
    stable = np.full(x.size, 1e6)
    rows = np.stack([omega, stable])
    mids = np.stack([mid, stable[1:]])
    finals = propagate_batch_three(np.full(2, h), rows, mids)
    assert np.isnan(finals[0]).all()
    assert np.isfinite(finals[1]).all()
    # a non-finite coupling is over any limit, in the left half as well
    rows[1, 3] = math.nan
    finals = propagate_batch_three(np.full(2, h), rows, mids)
    assert np.isnan(finals).all()


def test_batch_three_guard_sees_the_left_half():
    # over-limit steps only in omega1's left half: the kernel meets them
    # as omega2 on the right half it integrates, and the device gets NaN
    x = np.linspace(-0.5e-6, 0.5e-6, 1025)
    h = x[1] - x[0]
    omega = np.full(x.size, 1e6)
    omega[:300] = 3.0 / h
    stable = np.full(x.size, 1e6)
    rows = np.stack([omega, stable])
    mids = 0.5 * (rows[:, :-1] + rows[:, 1:])
    finals = propagate_batch_three(np.full(2, h), rows, mids)
    assert np.isnan(finals[0]).all()
    assert np.isfinite(finals[1]).all()


@pytest.mark.parametrize("knots", [2, 1, 256, 7, 131])
def test_batch_three_needs_an_odd_knot_count(knots):
    # x = 0 must be a knot, where the two mirrored halves meet, and each
    # half must be whole pairs of intervals: 7 and 131 are odd but 3 (mod 4)
    with pytest.raises(ValueError, match=r"1 \(mod 4\) and >= 5"):
        propagate_batch_three(np.full(1, 1e-9), np.full((1, knots), 1e6),
                              np.full((1, max(knots - 1, 0)), 1e6))


@pytest.mark.parametrize("substeps", [0, -1, 1.5, math.nan])
def test_batch_three_rejects_bad_substeps(substeps):
    # a named error, not an IndexError or a broadcast error from the kernel
    with pytest.raises(ValueError, match=r"substeps must be an integer >= 1"):
        propagate_batch_three(np.full(1, 1e-9), np.full((1, 5), 1e6),
                              np.full((1, 4), 1e6), substeps=substeps)


@pytest.mark.parametrize("margin, accepted", [(0.99, True), (1.01, False)])
def test_pair_limit_is_the_interval_limit_per_length(margin, accepted):
    # constant couplings: every interval step turns by margin x
    # _MAX_STEP_ANGLE and every pair step by exactly twice that, so the two
    # kernels accept and refuse the same devices, and agree where they run
    x = np.linspace(-0.5e-6, 0.5e-6, 65)
    h = x[1] - x[0]
    omega = np.full(x.size, margin * _MAX_STEP_ANGLE / (math.sqrt(2.0) * h))
    schedule = CouplingSchedule(x, omega, omega, omega[1:], omega[1:])
    finals = propagate_batch_three(np.array([h]), omega[None, :],
                                   omega[None, 1:])[0]
    if accepted:
        final = propagate(schedule, START).amplitudes[-1]
        assert np.abs(finals - final).max() < 1e-12
    else:
        with pytest.raises(PropagationError):
            propagate(schedule, START)
        assert np.isnan(finals).all()


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), half=st.integers(1, 150),
       turn=st.floats(0.0, 0.5), substeps=st.integers(1, 3))
def test_kernels_conserve_the_norm(seed, half, turn, substeps):
    # every step is a rotation, so the lossless norm holds to rounding for
    # any couplings with h * omega <= turn, which keeps every interval step
    # and every pair step of the batch kernel (about 2 sqrt(2) turn) well
    # inside the angle limits, substeps and their quadratic included
    knots = 2 * half + 1
    rng = np.random.default_rng(seed)
    x = np.linspace(-0.5e-6, 0.5e-6, knots)
    h = x[1] - x[0]
    omega = rng.uniform(0.0, turn / h, (4, knots))
    initial = rng.normal(size=3) + 1j * rng.normal(size=3)
    initial /= np.linalg.norm(initial)
    schedule = CouplingSchedule(x, omega[0], omega[1], omega[2, 1:],
                                omega[3, 1:])
    trajectory = propagate(schedule, initial, step=h / substeps)
    assert np.abs(trajectory.intensities.sum(axis=1) - 1.0).max() < 1e-13
    # the batch kernel takes knot counts 1 (mod 4) only, so it gets a table
    # of its own over the same length; its devices start in the input sheet
    knots = 4 * ((half + 1) // 2) + 1
    h = 1e-6 / (knots - 1)
    omega = rng.uniform(0.0, turn / h, (3, knots))
    omega_mid = rng.uniform(0.0, turn / h, (3, knots - 1))
    finals = propagate_batch_three(np.full(3, h), omega, omega_mid,
                                   substeps=substeps)
    assert np.abs(np.sum(np.abs(finals) ** 2, axis=1) - 1.0).max() < 1e-13


def test_propagate_is_fourth_order(default_config, default_mode):
    # the stages take the exact midpoint couplings, so the recorded device
    # run sees the continuous device: about 16x per halving of h
    exact = continuous_device_finals(default_config.geometry(), default_mode,
                                     default_config.k0_convention)
    errors = [np.abs(propagate(_schedule(default_config, default_mode,
                                         knots), START).amplitudes[-1]
                     - exact).max()
              for knots in (65, 129, 257)]
    assert errors[0] >= 12.0 * errors[1]
    assert errors[1] >= 12.0 * errors[2]


def _batch_three_of(schedule, substeps):
    """propagate_batch_three on the schedule's knots and exact midpoints;
    the schedule's omega2 is its omega1 reversed."""
    return propagate_batch_three(
        np.array([schedule.spacing]), schedule.omega1[None, :],
        schedule.omega1_mid[None, :], substeps=substeps)[0]


def test_batch_three_matches_scalar_integrator(default_config, default_mode):
    # fed the same exact midpoints at 257 knots, the batch kernel (6th
    # order over interval pairs) and the recorded run (4th order per
    # interval) take different steps, so each is held to the continuous
    # device at its own order, and the batch kernel is the closer. Substeps
    # take their couplings from the quadratic through an interval's start,
    # midpoint and end samples, whose integral is exact to h^5 per
    # interval, so they leave both kernels 4th order.
    exact = continuous_device_finals(default_config.geometry(), default_mode,
                                     default_config.k0_convention)
    schedule = _schedule(default_config, default_mode, 257)
    # largest error (scalar, batch): measured 4.69e-8, 9.76e-11 at one
    # substep and 1.11e-8, 8.72e-9 at two
    bounds = {1: (7e-8, 1.5e-10), 2: (1.7e-8, 1.3e-8)}
    for substeps, (scalar_bound, batch_bound) in bounds.items():
        step = None if substeps == 1 else schedule.spacing / substeps
        scalar = np.abs(propagate(schedule, START, step=step).amplitudes[-1]
                        - exact).max()
        batch = np.abs(_batch_three_of(schedule, substeps) - exact).max()
        assert scalar <= scalar_bound
        assert batch <= batch_bound
        assert batch < scalar


def test_batch_three_is_sixth_order(default_config, default_mode):
    # a pair step takes the 6th-order Magnus exponent from the pair's five
    # exact samples, so the error falls about 64x per halving of h
    # (measured 3.96e-7, 6.23e-9, 9.76e-11 at 65, 129, 257 knots; the 4th
    # order per-interval step fell 16x)
    exact = continuous_device_finals(default_config.geometry(), default_mode,
                                     default_config.k0_convention)
    errors = [np.abs(_batch_three_of(_schedule(default_config, default_mode,
                                               knots), 1) - exact).max()
              for knots in (65, 129, 257)]
    assert errors[0] >= 50.0 * errors[1]
    assert errors[1] >= 50.0 * errors[2]


def _pair_exponent(width, samples1, samples2):
    """The 6th-order Magnus exponent of Blanes, Casas & Ros of a pair of
    width H from the coupling pairs at tau = -1/2, -1/4, 0, 1/4, 1/2 of H,
    as a 3x3 matrix [Omega]x: Boole moments, alphas and brackets as cross
    products of the vectors (-omega2, 0, omega1), term by term."""
    tau = np.array([-0.5, -0.25, 0.0, 0.25, 0.5])
    weights = np.array([7.0, 32.0, 12.0, 32.0, 7.0]) / 90.0
    v = np.stack([-np.asarray(samples2), np.zeros(5),
                  np.asarray(samples1)], axis=1)
    b0, b1, b2 = (width * (weights * tau ** i) @ v for i in range(3))
    alpha1 = 9.0 / 4.0 * b0 - 15.0 * b2
    alpha2 = 12.0 * b1
    alpha3 = 180.0 * b2 - 15.0 * b0
    c1 = np.cross(alpha1, alpha2)
    c2 = -np.cross(alpha1, 2.0 * alpha3 + c1) / 60.0
    x, y, z = (alpha1 + alpha3 / 12.0
               + np.cross(-20.0 * alpha1 - alpha3 + c1, alpha2 + c2) / 240.0)
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def _batch_three_stepwise(h, omega1, omega2, omega1_mid, omega2_mid,
                          substeps):
    """The batch kernel written as one rotation per pair of consecutive
    substeps over the whole device, left half included, device by device,
    in a Python loop, from the input sheet; a substep's couplings come from
    the quadratic through its interval's start, midpoint and end samples."""
    basis = np.array([1.0, 1j, 1.0])
    out = []
    for b in range(len(h)):
        samples = []  # (start, midpoint, end) coupling pairs per substep
        for j in range(omega1.shape[1] - 1):
            samples1 = omega1[b, j], omega1_mid[b, j], omega1[b, j + 1]
            samples2 = omega2[b, j], omega2_mid[b, j], omega2[b, j + 1]
            samples += [_substep_samples(samples1, samples2, s, substeps)
                        for s in range(substeps)]
        state = basis * START
        for first, second in zip(samples[0::2], samples[1::2]):
            u1, u2 = zip(*(first + second[1:]))
            state = _rotation(_pair_exponent(2.0 * h[b] / substeps,
                                             u1, u2)) @ state
        out.append(state / basis)
    return np.array(out)


def test_batch_three_matches_stepwise_rotation_loop():
    # the mirrored right half and its quaternion tree must give the product
    # of the pair rotations over the whole device up to rounding, which
    # checks Omega_L = -M Omega_R for the pair step. Each device's row does
    # not depend on the rest of the batch, bit for bit: the 201 pairs of a
    # 805-knot half are one tree per row, whatever the batch size and the
    # substep count, including the 603 pair steps of substeps = 3
    rng = np.random.default_rng(5)
    batch, knots = 7, 805
    omega1 = rng.uniform(0.0, 3e7, (batch, knots))
    omega1_mid = rng.uniform(0.0, 3e7, (batch, knots - 1))
    h = rng.uniform(5e-10, 2e-9, batch)
    tables = (omega1, omega1_mid)
    for substeps in (1, 2):
        expected = _batch_three_stepwise(h, omega1, omega1[:, ::-1],
                                         omega1_mid, omega1_mid[:, ::-1],
                                         substeps)
        got = propagate_batch_three(h, *tables, substeps=substeps)
        assert _relative_gap(got, expected) < 1e-13
    batch = 600
    omega1 = rng.uniform(0.0, 3e7, (batch, knots))
    omega1_mid = rng.uniform(0.0, 3e7, (batch, knots - 1))
    h = rng.uniform(5e-10, 2e-9, batch)
    tables = (omega1, omega1_mid)
    for substeps in (1, 2, 3):
        got = propagate_batch_three(h, *tables, substeps=substeps)
        assert np.isfinite(got).all()
        for b in range(batch):
            alone = propagate_batch_three(h[[b]], *(t[[b]] for t in tables),
                                          substeps=substeps)
            assert np.array_equal(alone[0], got[b])


def test_batch_three_heap_is_a_fixed_multiple_of_its_tables():
    # the kernel integrates each row in one pass, so its heap peak is a
    # fixed multiple of the tables passed in; at the knot cap of a
    # 512-row batch that is about 3.1x omega1 and omega1_mid together
    rng = np.random.default_rng(9)
    batch, knots = 512, 2049
    omega1 = rng.uniform(0.0, 2e7, (batch, knots))
    omega1_mid = rng.uniform(0.0, 2e7, (batch, knots - 1))
    h = np.full(batch, 1e-9)
    tracemalloc.start()
    try:
        propagate_batch_three(h, omega1, omega1_mid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * (omega1.nbytes + omega1_mid.nbytes)


def _member_rows(lengths, knots=65, seed=11):
    """Random couplings on one group's lattice (geometry._length_lattice),
    as the kernel takes them: (h, knot couplings, midpoint couplings,
    breaks), each table of one row."""
    _, h, breaks = _length_lattice(np.array([lengths]), knots)
    samples = 8 * breaks[-1] + 1
    row = np.random.default_rng(seed).uniform(0.0, 2e7, (1, samples))
    return h, row[:, ::2], row[:, 1::2], breaks


def _truncated(h, knots, mids, pairs):
    """The tables of the same row's device whose right half is its first
    pairs pairs, and its mirror image."""
    centre = knots.shape[1] // 2
    return (h[:, :pairs], knots[:, centre - 2 * pairs:centre + 2 * pairs + 1],
            mids[:, centre - 2 * pairs:centre + 2 * pairs])


def test_batch_three_members_are_prefixes_of_their_row():
    # one integration records every member: member j equals, bit for bit,
    # the last member of the same lattice cut at its breakpoint, so it
    # depends on no later member; the shortest member is its own
    # one-member run. A longer member run alone reduces its pairs in one
    # tree instead of segment by segment, which agrees to rounding.
    lengths = [0.8e-6, 0.83e-6, 0.9e-6, 0.91e-6, 1.2e-6]
    h, knots, mids, breaks = _member_rows(lengths)
    assert breaks.tolist() == [16, 17, 19, 20, 26]
    members = propagate_batch_three(h, knots, mids, breaks=breaks)
    assert members.shape == (len(lengths), 3)
    assert np.isfinite(members).all()
    for j, pairs in enumerate(breaks):
        cut = _truncated(h, knots, mids, pairs)
        last = propagate_batch_three(*cut, breaks=breaks[:j + 1])[-1]
        assert np.array_equal(last, members[j])
        alone = propagate_batch_three(*cut)[0]
        assert _relative_gap(alone, members[j]) < 1e-14
        if j == 0:
            assert np.array_equal(alone, members[0])
            flat = propagate_batch_three(h[:, 0], cut[1], cut[2])[0]
            assert np.array_equal(flat, members[0])


def test_batch_three_members_past_an_over_limit_pair_are_nan():
    # the angle guard applies per member, to the pairs up to its own
    # breakpoint: an over-limit pair in the third member's first gap pair
    # fails it and every longer member, whichever half holds the pair
    h, knots, mids, breaks = _member_rows([0.8e-6, 0.9e-6, 1.0e-6, 1.1e-6])
    assert breaks.tolist() == [16, 18, 20, 22]
    centre = knots.shape[1] // 2
    pair = breaks[1]
    for knot in (centre + 2 * pair + 1, centre - 2 * pair - 1):
        over = knots.copy()
        over[0, knot] = 10.0 / h[0, pair]
        members = propagate_batch_three(h, over, mids, breaks=breaks)
        assert np.isfinite(members[:2]).all()
        assert np.isnan(members[2:]).all()


@pytest.mark.parametrize("breaks", [[4], [2, 2, 5], [0, 5], [3, 5.0],
                                    [[5]], []])
def test_batch_three_rejects_bad_breaks(breaks):
    with pytest.raises(ValueError, match="breaks must be"):
        propagate_batch_three(np.full(1, 1e-9), np.full((1, 21), 1e6),
                              np.full((1, 20), 1e6), breaks=breaks)


def _pulse_table(x):
    """A smooth coupling row at positions x from products and quotients
    alone, which round the same at any index, so that equal positions get
    equal couplings."""
    return 2e7 / (1.0 + ((x - 1e-7) / 2.5e-7) ** 2) + 5e6


@pytest.mark.parametrize("layout", ["alone", "4b"])
@pytest.mark.parametrize("factor", [1, 2])
@pytest.mark.parametrize("own", [16, 32, 64, 128, 256, 512])
def test_a_padded_rider_is_its_run_alone_bit_for_bit(own, factor, layout):
    # a one-device run of own pairs, padded as a rider into a first
    # segment of factor * own pairs: alone in a call of one one-member
    # row, or after 50 rows of a 4b map's 50-member lattice
    rider_knots, knots = 4 * own + 1, 4 * factor * own + 1
    length = np.array([1.0e-6])
    if layout == "alone":
        x, h = np.empty((0, 8 * factor * own + 1)), np.empty((0, factor * own))
        breaks = np.array([factor * own])
    else:
        lengths = np.linspace(0.8e-6, 1.2e-6, 50)
        x, h, breaks = _length_lattice(np.tile(lengths, (50, 1)), knots)
        assert breaks.size == 50 and breaks[0] == factor * own
    padded_x, padded_h = _rider_lattice(length, rider_knots, breaks)
    assert padded_x[0, -1] == length[0] / 2.0
    assert np.array_equal(padded_x[:, ::-1], -padded_x)
    table = _pulse_table(np.concatenate([x, padded_x]))
    members = propagate_batch_three(
        np.concatenate([h, padded_h]), table[:, ::2], table[:, 1::2],
        breaks=breaks).reshape(-1, breaks.size, 3)
    x_alone, h_alone, _ = _length_lattice(length[:, None], rider_knots)
    alone_table = _pulse_table(x_alone)
    alone = propagate_batch_three(h_alone, alone_table[:, ::2],
                                  alone_table[:, 1::2])
    assert np.isfinite(alone).all()
    assert np.array_equal(members[-1, 0], alone[0])


@pytest.mark.parametrize("knots", [97, 257, 66, 1])
def test_rider_lattice_refuses_riders_off_a_complete_subtree(knots):
    # 97 knots give 24 pairs, not a power of two; 257 give 64, more than
    # the first segment's 32; 66 is not 1 (mod 4); 1 gives no pair
    with pytest.raises(ValueError, match="power-of-two pair count"):
        _rider_lattice(np.array([1e-6]), knots, np.array([32, 40]))


def test_zero_width_steps_change_no_product_value():
    # a rider's padding pairs have width 0: each is the rotation by angle
    # 0, (1, -+0, +-0, +-0). Multiplied onto any quaternion it keeps every
    # part's value; only the sign of a zero part can change, and no
    # rotation matrix entry's magnitude sees that sign
    rng = np.random.default_rng(5)
    samples = [tuple(rng.uniform(0.0, 2e7, (5, 64))) for _ in range(2)]
    step, angle = _pair_quaternions(np.zeros(64), *samples)
    assert np.all(angle == 0.0) and np.all(step[0] == 1.0)
    assert np.all(step[1:] == 0.0)
    signs = np.array(np.meshgrid(*[[1.0, -1.0]] * 3)).reshape(3, -1)
    identities = np.concatenate([np.ones((1, signs.shape[1])), 0.0 * signs])
    assert np.signbit(identities[1:]).any()
    # every part of q from {+0, -0, a random nonzero value}
    parts = np.array(np.meshgrid(*[[0, 1, 2]] * 4)).reshape(4, -1)
    values = rng.normal(size=(4, parts.shape[1]))
    q = np.where(parts == 0, 0.0, np.where(parts == 1, -0.0, values))
    q[0, np.all(parts < 2, axis=0)] = 1.0  # no zero quaternion
    for identity in identities.T:
        product = _quaternion_product(identity[:, None], q)
        assert np.array_equal(product, q)
        assert np.array_equal(np.abs(_rotation_matrices(product)),
                              np.abs(_rotation_matrices(q)))


def test_batch_two_matches_analytic():
    coupling = np.array([1.0e6, 2.5e6, 4.0e6])
    span = np.array([2.0e-6, 1.0e-6, 0.5e-6])
    finals = propagate_batch_two(coupling, span, n_steps=2048)
    for c, s, row in zip(coupling, span, finals):
        exact0, exact1 = two_level_analytic(c, s)
        assert abs(row[0]) ** 2 == pytest.approx(exact0, abs=1e-8)
        assert abs(row[1]) ** 2 == pytest.approx(exact1, abs=1e-8)


def _constant_stepwise(couplings, span, n_steps):
    """propagate_constant written as one RK4 step per knot, from channel 1."""
    m = chain_matrix(couplings)
    h = span / n_steps
    a = np.eye(len(m))[0].astype(complex)
    out = [a]
    for _ in range(n_steps):
        k1 = -1j * (m @ a)
        k2 = -1j * (m @ (a + 0.5 * h * k1))
        k3 = -1j * (m @ (a + 0.5 * h * k2))
        k4 = -1j * (m @ (a + h * k3))
        a = a + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(a)
    return np.array(out)


def _batch_two_stepwise(coupling, span, n_steps):
    """propagate_batch_two written as one RK4 step per knot."""
    h = span / n_steps
    a0 = np.ones_like(coupling, dtype=complex)
    a1 = np.zeros_like(coupling, dtype=complex)

    def rate(b0, b1):
        return -1j * coupling * b1, -1j * coupling * b0

    for _ in range(n_steps):
        k = rate(a0, a1)
        l = rate(a0 + 0.5 * h * k[0], a1 + 0.5 * h * k[1])
        m = rate(a0 + 0.5 * h * l[0], a1 + 0.5 * h * l[1])
        n = rate(a0 + h * m[0], a1 + h * m[1])
        a0 = a0 + h / 6.0 * (k[0] + 2.0 * (l[0] + m[0]) + n[0])
        a1 = a1 + h / 6.0 * (k[1] + 2.0 * (l[1] + m[1]) + n[1])
    return np.stack([a0, a1], axis=1)


def _relative_gap(got, expected):
    return np.max(np.abs(got - expected) / np.maximum(1.0, np.abs(expected)))


# Pulse areas are drawn up to min(20 pi, n_steps), so hC <= 1 stays inside
# RK4's stability region even at a single step.
STEP_COUNTS = (1, 2, 3, 17, 4095, 4096)


def test_constant_step_matrix_matches_stepwise_loop():
    rng = np.random.default_rng(11)
    batch = 3
    for n_steps in STEP_COUNTS:
        for dim in (2, 3, 4):
            couplings = rng.uniform(0.5, 40.0, (batch, dim - 1)) * 1e6
            area = rng.uniform(0.1, min(20.0 * math.pi, float(n_steps)),
                               batch)
            span = area / couplings.max(axis=1)
            got = propagate_constant(couplings, span, n_steps)
            assert got.shape == (batch, dim)
            for b in range(batch):
                expected = _constant_stepwise(couplings[b], span[b], n_steps)
                assert _relative_gap(got[b], expected[-1]) < 1e-12


def test_batch_two_step_matrix_matches_stepwise_loop():
    rng = np.random.default_rng(12)
    batch = 16
    coupling = rng.uniform(0.5, 40.0, batch) * 1e6
    for n_steps in STEP_COUNTS:
        area = rng.uniform(0.1, min(20.0 * math.pi, float(n_steps)), batch)
        span = area / coupling
        got = propagate_batch_two(coupling, span, n_steps)
        expected = _batch_two_stepwise(coupling, span, n_steps)
        assert got.shape == (batch, 2)
        assert _relative_gap(got, expected) < 1e-12


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(coupling=st.floats(0.5e6, 40e6), area=st.floats(0.1, 20.0 * math.pi),
       alpha=st.floats(0.0, 2e6))
def test_batch_two_envelope_matches_lossy_expm(coupling, area, alpha):
    # uniform loss commutes with the chain, so the lossless kernel times
    # exp(-alpha L) is the evolution under H - i alpha I
    span = area / coupling
    lossless = propagate_batch_two(np.array([coupling]), np.array([span]),
                                   4096)[0]
    lossy = chain_matrix([coupling]) - 1j * alpha * np.eye(2)
    reference = expm_reference(lossy, [1.0, 0.0], span)
    assert np.abs(lossless * math.exp(-alpha * span) - reference).max() < 1e-6


def test_constant_propagation_reports_blow_up():
    # one step that overflows, and an unstable step (hC = 10) repeated
    for coupling, span, n_steps in ((1e80, 1.0, 1), (1e7, 1e-3, 1000)):
        with pytest.raises(PropagationError) as caught:
            propagate_constant([coupling], span, n_steps)
        assert 0.0 < caught.value.position <= span
    # in a batch, the error names the span of the first chain that blew up
    with pytest.raises(PropagationError) as caught:
        propagate_batch_two(np.array([1e6, 1e7, 1e80]),
                            np.array([1e-6, 1e-3, 1.0]), 1000)
    assert caught.value.position == 1e-3


@pytest.mark.parametrize("span, n_steps", [
    (1e-6, 0), (-1e-6, 16), (math.nan, 16), (math.inf, 16)],
    ids=["no-steps", "negative-span", "nan-span", "infinite-span"])
def test_constant_chains_reject_bad_input(span, n_steps):
    with pytest.raises(ValueError):
        propagate_constant([1e6], span, n_steps)
    with pytest.raises(ValueError):
        propagate_batch_two(np.full(4, 1e6), np.full(4, span), n_steps)


def test_constant_chains_need_a_coupling():
    for couplings in (1e6, np.empty((3, 0))):
        with pytest.raises(ValueError):
            propagate_constant(couplings, 1e-6)


def test_field_map_shape_and_concentration(default_config, default_mode):
    geom = default_config.geometry()
    schedule = _schedule(default_config, default_mode, 257)
    trajectory = propagate(schedule, START)
    extent = 350e-9
    z = np.linspace(-extent, extent, 161)
    intensity = field_map(trajectory, geom, default_mode, z, x_stride=4)
    assert intensity.shape == (len(trajectory.x_grid[::4]), len(z))
    assert np.all(intensity >= 0)
    # at the entrance all power sits in the input sheet, above the middle
    first = intensity[0]
    assert z[np.argmax(first)] > 0


def test_field_map_requires_z_coverage(default_config, default_mode):
    geom = default_config.geometry()
    schedule = _schedule(default_config, default_mode, 129)
    trajectory = propagate(schedule, START)
    with pytest.raises(ValueError):
        field_map(trajectory, geom, default_mode,
                  np.linspace(-10e-9, 10e-9, 11))


def test_trajectory_intensity_views():
    x = np.array([0.0, 1.0])
    amps = np.array([[1.0, 0.0], [0.0, 1j]])
    trajectory = Trajectory(x_grid=x, amplitudes=amps)
    assert np.allclose(trajectory.intensities, [[1, 0], [0, 1]])
    assert trajectory.final_intensities == pytest.approx([0, 1])
