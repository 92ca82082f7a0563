"""Acceptance gate: one test per published criterion, tolerances as stated.

Each test prints a [PASS]/[FAIL] detail line; the pytest -v status column is
the authoritative per-criterion verdict. Criterion 9 (lossy transfer band)
fails: the configured relaxation rate gives a propagation length far below
the published one, and the paper's loss parameters are not in the
repository. Criterion 6 is evaluated at the published 35 1/um device, since
the default 10 um excitation is four times stiffer. notes/decisions.md
carries the analysis of both and the validation report records the same
numbers.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from graphene_spp.config import RunConfig
from graphene_spp.coupling import coupling_coefficient, overlap_integral
from graphene_spp.dynamics import (dark_state, propagate,
                                   propagate_batch_two, propagate_constant,
                                   two_level_analytic)
from graphene_spp.experiments import (figure_map_spec, robustness_metric,
                                      run_device, run_sweep,
                                      stirap_stretch_search,
                                      wavevector_to_omega)
from graphene_spp.materials import (GrapheneSheet, default_relaxation_rate,
                                    drude_conductivity)
from graphene_spp.oracles import (QuadratureSpec, dispersion_residual,
                                  expm_reference, overlap_quadrature)
from graphene_spp.validation import (REFERENCE_WAVEVECTOR_PER_UM,
                                     build_validation_report)
from tests.conftest import chain_matrix


def _report(label: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")


@pytest.fixture(scope="module")
def validation_report():
    return build_validation_report(RunConfig())


def test_criterion_01_relaxation_rate():
    gamma = default_relaxation_rate(GrapheneSheet(), "no_two_pi")
    deviation = abs(gamma / 1.11e12 - 1.0)
    _report("criterion 1", deviation < 0.01,
            f"gamma = {gamma:.6g} 1/s, deviation {deviation:.3%} from "
            f"1.11e12")
    assert deviation < 0.01


def test_criterion_02_dispersion_residuals():
    config = RunConfig()
    started = time.perf_counter()
    worst = 0.0
    count = 0
    for lam in np.linspace(5.0, 15.0, 10):
        for fermi in np.linspace(0.05, 0.3, 50):
            for gamma in (0.0, 2e12):
                cfg = replace(config, lambda0_um=float(lam),
                              E_F_eV=float(fermi), gamma_per_s=gamma)
                mode = cfg.solve_mode()
                sigma = drude_conductivity(
                    cfg.excitation().angular_frequency, cfg.sheet(), gamma)
                worst = max(worst, dispersion_residual(mode, sigma))
                assert mode.k.real > 0
                count += 1
    elapsed = time.perf_counter() - started
    ok = worst < 1e-10 and elapsed < 5.0
    _report("criterion 2", ok,
            f"{count} combinations, worst residual {worst:.3e}, "
            f"{elapsed:.2f} s")
    assert count == 1000
    assert worst < 1e-10
    assert elapsed < 5.0


def test_criterion_03_published_number_ledger(validation_report):
    comparisons = {entry["name"]: entry
                   for entry in validation_report["comparisons"]}
    required = {"propagation_length": 4.092,
                "coupling_strength": 24.0,
                "confinement_length": 23.0,
                "propagation_constant": 35.0}
    lines = []
    for name, reference in required.items():
        entry = comparisons[name]
        assert entry["reference"] == pytest.approx(reference)
        recomputed = abs(entry["computed"] / entry["reference"] - 1.0)
        # a misreported flag or deviation would corrupt the ledger
        assert entry["relative_deviation"] == pytest.approx(recomputed,
                                                            rel=1e-9)
        assert entry["within_15_percent"] == bool(recomputed <= 0.15)
        lines.append(f"{name}: computed {entry['computed']:.4g} vs "
                     f"{reference:g} ({recomputed:.1%})")
    _report("criterion 3", True,
            "discrepancy report complete; " + "; ".join(lines))


def test_criterion_04_two_level_oracle():
    started = time.perf_counter()
    coupling = 3.0e6
    areas = np.linspace(0.05, 20.0 * math.pi, 61)
    spans = areas / coupling
    finals = propagate_batch_two(np.full(areas.size, coupling), spans,
                                 n_steps=4096)
    worst = 0.0
    for area, row in zip(areas, finals):
        worst = max(worst,
                    abs(abs(row[0]) ** 2 - math.cos(area) ** 2),
                    abs(abs(row[1]) ** 2 - math.sin(area) ** 2))
    # a single chain must agree at the extreme pulse area too
    span = 20.0 * math.pi / coupling
    final = np.abs(propagate_constant([coupling], span)) ** 2
    exact = two_level_analytic(coupling, span)
    worst = max(worst, abs(final[0] - exact[0]), abs(final[1] - exact[1]))

    expm_worst = 0.0
    for area in np.linspace(0.1, 20.0 * math.pi, 25):
        final = expm_reference(chain_matrix([coupling]), [1.0, 0.0],
                               area / coupling)
        analytic = np.array([math.cos(area), -1j * math.sin(area)])
        expm_worst = max(expm_worst, float(np.abs(final - analytic).max()))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-6 and expm_worst < 1e-10 and elapsed < 1.0
    _report("criterion 4", ok,
            f"integrator error {worst:.3e}, expm error {expm_worst:.3e}, "
            f"{elapsed:.2f} s")
    assert worst < 1e-6
    assert expm_worst < 1e-10
    assert elapsed < 1.0


def test_criterion_05_overlap_oracle():
    started = time.perf_counter()
    tight = QuadratureSpec(absolute_tolerance=1e-300,
                           relative_tolerance=1e-11,
                           max_subdivisions=65536)
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        k = complex(rng.uniform(0.2e8, 3.0e8), rng.uniform(-0.3e8, 0.3e8))
        d = rng.uniform(1e-9, 100e-9)
        numeric = overlap_quadrature(k, k, d, tight)
        worst = max(worst, abs(overlap_integral(k, d) - numeric)
                    / abs(numeric))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-8 and elapsed < 1.0
    _report("criterion 5", ok,
            f"100 cases, worst relative error {worst:.3e}, {elapsed:.2f} s")
    assert worst < 1e-8
    assert elapsed < 1.0


def test_criterion_06_stirap_transfer(validation_report):
    # The criterion is keyed to the published 35 1/um device: the default
    # 10 um excitation gives Re q near 139 1/um, where the coupling pulses
    # are too narrow for adiabatic transfer (see notes/decisions.md,
    # 'adiabatic transfer at the default scale', and the report's
    # stretch_search entry).
    base = RunConfig()
    _, mode = wavevector_to_omega(base, REFERENCE_WAVEVECTOR_PER_UM * 1e6)
    started = time.perf_counter()
    device = run_device(base, mode)
    assert device.mode.q.real == pytest.approx(
        REFERENCE_WAVEVECTOR_PER_UM * 1e6, rel=1e-5)
    final = device.trajectory.final_intensities
    norms = np.sum(device.trajectory.intensities, axis=1)
    norm_defect = float(np.abs(norms - 1.0).max())
    assert norm_defect < 1e-9

    search = stirap_stretch_search(base, mode)
    elapsed = time.perf_counter() - started

    direct_ok = final[2] >= 0.95 and final[1] <= 0.05
    rescued = search.stretch is not None and search.stretch <= 4.0
    found = "none" if search.stretch is None else f"s = {search.stretch:.2f}"
    _report("criterion 6", (direct_ok or rescued) and elapsed < 1.0,
            f"Re q = {device.mode.q.real * 1e-6:.4g} 1/um, "
            f"I_output = {final[2]:.4f}, I_middle = {final[1]:.4f}, "
            f"norm defect {norm_defect:.2e}; stretch search best "
            f"s = {search.best_stretch:g} -> {search.best_output:.4f}, "
            f"found = {found}, {elapsed:.2f} s")
    assert elapsed < 1.0
    assert direct_ok or rescued, (
        f"at Re q = {device.mode.q.real * 1e-6:.4g} 1/um the device leaves "
        f"I_output = {final[2]:.4f} and no uniform stretch s <= 4 reaches "
        f"{search.target:g} (best {search.best_output:.4f} at "
        f"s = {search.best_stretch:g})")
    recorded = validation_report["stretch_search"]["at_reference_wavevector"]
    assert search.stretch == recorded["stretch"]


def test_criterion_07_counterintuitive_ordering_and_dark_state():
    config = RunConfig()
    device = run_device(config, config.solve_mode())
    schedule = device.schedule
    assert np.argmax(schedule.omega2) < np.argmax(schedule.omega1)

    worst = 0.0
    for o1, o2 in zip(schedule.omega1, schedule.omega2):
        h = chain_matrix((o1, o2))
        h_norm = np.linalg.norm(h, 2)
        if h_norm == 0.0:
            continue
        worst = max(worst, float(np.linalg.norm(h @ dark_state(o1, o2))
                                 / h_norm))
    _report("criterion 7", worst < 1e-12,
            f"argmax ordering holds; worst |H dark|/|H| = {worst:.3e}")
    assert worst < 1e-12


def test_criterion_08_robustness_comparison():
    config = RunConfig()
    started = time.perf_counter()
    three = run_sweep(figure_map_spec("4b", config, (50, 50)))
    two = run_sweep(figure_map_spec("4a", config, (50, 50)))
    min3, _, std3 = robustness_metric(three)
    min2, _, std2 = robustness_metric(two)
    elapsed = time.perf_counter() - started
    ok = std3 < std2 and min3 > min2 and elapsed < 120.0
    _report("criterion 8", ok,
            f"3-layer min {min3:.4f} / std {std3:.4f} vs 2-layer min "
            f"{min2:.2e} / std {std2:.4f}, {elapsed:.1f} s")
    assert std3 < std2
    assert min3 > min2
    assert elapsed < 120.0


def test_criterion_09_loss_behavior(validation_report):
    config = RunConfig()
    started = time.perf_counter()
    device = run_device(config, config.solve_mode())
    lossy = device.trajectory.damped(device.alpha)
    totals = np.sum(lossy.intensities, axis=1)
    assert np.all(np.diff(totals) <= 1e-12), "total intensity grew under loss"

    x = device.trajectory.x_grid
    factor = np.exp(-device.alpha * (x - x[0]))
    predicted = device.trajectory.amplitudes * factor[:, None]
    factorization = float(np.abs(lossy.amplitudes - predicted).max())
    assert factorization < 1e-8
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0

    recorded = validation_report["lossy_default"]
    output = lossy.final_intensities[2]
    assert recorded["I_output"] == pytest.approx(output, rel=1e-9)
    assert recorded["paper_band"] == [0.6, 0.9]

    in_band = 0.4 <= output <= 1.0
    reference = recorded["at_reference_wavevector"]
    _report("criterion 9", in_band,
            f"monotone loss and factorization ({factorization:.2e}) hold; "
            f"lossy I_output = {output:.5f} vs acceptance band [0.4, 1.0], "
            f"published band [0.6, 0.9]")
    assert in_band, (
        f"lossy default output {output:.5f} is outside [0.4, 1.0]: the "
        f"uniform damping factor over the 1 um device is exp(-2 alpha L) = "
        f"{math.exp(-2 * device.alpha * 1e-6):.4f}, a modelled propagation "
        f"length of {0.5e6 / device.alpha:.3g} um; the band presumes the "
        "published 4.092 um, which the configured relaxation rate gives "
        "neither here nor at the 35 1/um wavevector scale "
        f"({reference['propagation_length_um']:.3g} um, I_output "
        f"{reference['I_output']:.4f}) - see notes/decisions.md, "
        "'lossy transfer band'")


def test_criterion_10_sweep_determinism(tmp_path):
    from graphene_spp.cli import main

    started = time.perf_counter()
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(["--out", str(out), "robustness-sweep",
                     "--figure", "4b", "--grid", "50x50"])
        assert code == 0
        outputs.append((out / "fig_4b.csv").read_bytes())
    elapsed = time.perf_counter() - started
    identical = outputs[0] == outputs[1]
    _report("criterion 10", identical and elapsed < 120.0,
            f"two 50x50 sweep runs byte-identical = {identical}, "
            f"{elapsed:.1f} s")
    assert identical
    assert elapsed < 120.0
