"""Self-consistency report: computed values against published references.

The published device numbers are internally inconsistent: the wavevector
scale of the robustness maps (Re q = 35 1/um, attributed to lambda0 = 10 um)
does not follow from the stated Drude parameters, which give Re q near
139 1/um at that wavelength. Every reference comparison below therefore
reports the self-consistent value, the reference, and where they disagree, a
second evaluation at the reference wavevector scale obtained by frequency
inversion. This report is a first-class output: the `verify` subcommand
writes it next to the oracle-suite results.
"""

from __future__ import annotations

import math
import random
from dataclasses import replace

import numpy as np

from .config import RunConfig, config_hash
from .coupling import coupling_coefficient, overlap_integral
from .dispersion import (Excitation, SppMode, confinement_length,
                         propagation_length, solve_dispersion_batch)
from .dynamics import propagate, propagate_batch_two, two_level_analytic
from .experiments import (REFERENCE_WAVEVECTOR_PER_UM, run_device,
                          stirap_stretch_search, wavevector_to_omega)
from .geometry import build_schedule
from .materials import (CONSTANTS, default_relaxation_rate,
                        drude_conductivity)

# The package version (graphene_spp.__version__); pyproject.toml reads it
# from here through `attr`.
VERSION = "0.1.0"

# Published reference values the implementation is compared against.
REFERENCE_VALUES = {
    "relaxation_rate_per_s": 1.11e12,
    "propagation_length_um": 4.092,
    "coupling_abs_per_um": 24.0,
    "confinement_nm": 23.0,
    "Re_q_per_um": REFERENCE_WAVEVECTOR_PER_UM,
}
LOSSY_PAPER_BAND = (0.6, 0.9)
LOSSY_ACCEPTANCE_BAND = (0.4, 1.0)
# Each oracle's pass flag is f"{name}_pass"; its reported error is named here.
ORACLE_METRICS = (("overlap", "overlap_vs_quadrature_max_relative"),
                  ("dispersion", "dispersion_residual_max"),
                  ("two_level", "two_level_vs_analytic_max"),
                  ("expm", "expm_vs_analytic_max"),
                  ("staircase", "staircase_vs_integrator_max"))


def _comparison(name: str, computed: float, reference: float, unit: str,
                note: str) -> dict:
    deviation = abs(computed - reference) / abs(reference)
    return {
        "name": name,
        "computed": computed,
        "reference": reference,
        "unit": unit,
        "relative_deviation": deviation,
        "within_15_percent": bool(deviation <= 0.15),
        "note": note,
    }


def build_validation_report(config: RunConfig, seed: int = 0) -> dict:
    """Assemble the full comparison/discrepancy report as a JSON-ready dict,
    with the oracle suite run at seed; the configured mode is solved once,
    and it and the inversion's mode serve every run at their scale."""
    sheet = config.sheet()
    mode = config.solve_mode()
    device = run_device(config, mode)
    gamma_no_two_pi = default_relaxation_rate(sheet, "no_two_pi")
    gamma_literal = default_relaxation_rate(sheet, "literal_two_pi")

    # INFINITE_PROPAGATION is inf, and stays inf when scaled
    lx_um = propagation_length(mode) * 1e6
    confinement_nm = confinement_length(mode) * 1e9
    d_min = config.d_min_nm * 1e-9
    pair_vacuum = coupling_coefficient(mode, d_min, "vacuum")
    pair_film = coupling_coefficient(mode, d_min, "film")

    # The same quantities evaluated at the reference wavevector scale.
    _, paper_mode = wavevector_to_omega(config,
                                        REFERENCE_WAVEVECTOR_PER_UM * 1e6)
    paper_pair = coupling_coefficient(paper_mode, d_min, "vacuum")
    paper_lambda0_um = (2 * math.pi * CONSTANTS.c
                        / paper_mode.excitation.angular_frequency * 1e6)
    paper_lx = propagation_length(paper_mode)

    comparisons = [
        _comparison(
            "relaxation_rate", gamma_no_two_pi,
            REFERENCE_VALUES["relaxation_rate_per_s"], "1/s",
            "mobility-derived rate, e v_F^2 / (mu E_F) without the 2 pi "
            "factor; the alternative convention gives "
            f"{gamma_literal:.4g} 1/s"),
        _comparison(
            "propagation_length", lx_um,
            REFERENCE_VALUES["propagation_length_um"], "um",
            "L_x = 1/(2 Im q) at the configured excitation; at the reference "
            f"wavevector scale (Re q = 35 1/um) it is {paper_lx * 1e6:.4g} um"),
        _comparison(
            "coupling_strength", abs(pair_vacuum.c12) * 1e-6,
            REFERENCE_VALUES["coupling_abs_per_um"], "1/um",
            "|C| at the minimum gap, vacuum k0 convention; at the reference "
            f"wavevector scale it is {abs(paper_pair.c12) * 1e-6:.4g} 1/um; "
            "both sit on the published order of magnitude, unlike the film "
            "convention"),
        _comparison(
            "confinement_length", confinement_nm,
            REFERENCE_VALUES["confinement_nm"], "nm",
            "1/Re k at the configured excitation; at the reference wavevector "
            f"scale it is {confinement_length(paper_mode) * 1e9:.4g} nm"),
        _comparison(
            "propagation_constant", mode.q.real * 1e-6,
            REFERENCE_VALUES["Re_q_per_um"], "1/um",
            "self-consistent Re q at lambda0 = "
            f"{config.lambda0_um:g} um; the reference scale corresponds to "
            f"lambda0 = {paper_lambda0_um:.4g} um instead"),
    ]

    lossless_final = device.trajectory.final_intensities
    lossy_final = device.trajectory.damped(device.alpha).final_intensities
    norm_defect = abs(float(lossless_final.sum()) - 1.0)

    stretch_default = stirap_stretch_search(config, mode)
    stretch_paper = stirap_stretch_search(config, paper_mode)

    lossy_output = float(lossy_final[2])
    paper_device = run_device(config, paper_mode)
    paper_lossy = paper_device.trajectory.damped(paper_device.alpha)
    return {
        "config_hash": config_hash(config),
        "version": VERSION,
        "comparisons": comparisons,
        "coupling_conventions": {
            "vacuum_abs_per_um": abs(pair_vacuum.c12) * 1e-6,
            "film_abs_per_um": abs(pair_film.c12) * 1e-6,
            "note": "the film convention subtracts the graphene thin-film "
                    "permittivity inside k0^2 and yields couplings two "
                    "orders of magnitude below the published curve; the "
                    "vacuum convention is the default",
        },
        "gamma_conventions": {
            "no_two_pi_per_s": gamma_no_two_pi,
            "literal_two_pi_per_s": gamma_literal,
        },
        "wavevector_consistency": {
            "Re_q_at_configured_lambda0_per_um": mode.q.real * 1e-6,
            "configured_lambda0_um": config.lambda0_um,
            "lambda0_at_reference_wavevector_um": paper_lambda0_um,
            "reference_wavevector_per_um": REFERENCE_WAVEVECTOR_PER_UM,
            "note": "the stated wavelength and wavevector scale cannot both "
                    "hold under the stated Drude parameters; figures keyed "
                    "to the wavevector use the inverted frequency",
        },
        "stirap_default": {
            "lossless_final_intensities": [float(v) for v in lossless_final],
            "norm_defect": norm_defect,
            "lossy_final_intensities": [float(v) for v in lossy_final],
        },
        "stretch_search": {
            "target": stretch_default.target,
            "stretch": stretch_default.stretch,
            "output": stretch_default.output,
            "best_stretch": stretch_default.best_stretch,
            "best_output": stretch_default.best_output,
            "note": "uniform stretch of (L, R, offset) at the configured "
                    "excitation; the centre gap grows with the stretch, so "
                    "the transfer degrades monotonically at this wavevector "
                    "scale",
            "at_reference_wavevector": {
                "stretch": stretch_paper.stretch,
                "output": stretch_paper.output,
                "best_stretch": stretch_paper.best_stretch,
                "best_output": stretch_paper.best_output,
            },
        },
        "lossy_default": {
            "I_output": lossy_output,
            "acceptance_band": list(LOSSY_ACCEPTANCE_BAND),
            "paper_band": list(LOSSY_PAPER_BAND),
            "within_acceptance_band": bool(
                LOSSY_ACCEPTANCE_BAND[0] <= lossy_output
                <= LOSSY_ACCEPTANCE_BAND[1]),
            "within_paper_band": bool(
                LOSSY_PAPER_BAND[0] <= lossy_output <= LOSSY_PAPER_BAND[1]),
            "note": "uniform alpha = Im q at the configured excitation damps "
                    "the device by exp(-2 Im q L) before any transfer "
                    "physics; the band presumes the published propagation "
                    "length of 4.092 um (compare the propagation_length "
                    "comparison and at_reference_wavevector)",
            "at_reference_wavevector": {
                "I_output": float(paper_lossy.final_intensities[2]),
                "propagation_length_um": paper_lx * 1e6,
            },
        },
        "oracle_suite": run_oracle_suite(config, mode, seed=seed),
    }


def run_oracle_suite(config: RunConfig, mode: SppMode,
                     seed: int = 0) -> dict:
    """Exercise every oracle against the production code paths (the
    staircase check on config's device at mode).

    Returns per-check maximum errors and pass flags; raises OracleFailure if
    an oracle cannot produce a trustworthy reference. The overlap, residual
    and chain checks each draw from their own stdlib generator, seeded by
    the check's name and the seed, so changing what one check draws leaves
    the others' inputs unchanged.
    """
    # Only verify runs an oracle, so only it loads the module.
    from . import oracles

    # random is loaded with the CLI already; numpy.random is not
    overlap_rng, residual_rng, chain_rng = (
        random.Random(f"{check}:{seed}")
        for check in ("overlap", "residual", "chain"))

    # Tight enough that the quadrature's own error estimate stays below
    # 1e-12 relative on every case (notes/decisions.md, "Oracles as stacks").
    tight = oracles.QuadratureSpec(absolute_tolerance=1e-300,
                                   relative_tolerance=5e-14,
                                   max_subdivisions=65536)
    # Errors are folded with numpy, so that a NaN error fails its check.
    cases = [(complex(overlap_rng.uniform(0.2, 3.0) * 1e8,
                      overlap_rng.uniform(-0.3, 0.3) * 1e8),
              overlap_rng.uniform(1.0, 100.0) * 1e-9) for _ in range(100)]
    k, d = (np.array(column) for column in zip(*cases))
    closed = overlap_integral(k, d)
    reference, details = oracles.overlap_quadrature(k, k, d, tight,
                                                    return_details=True)
    overlap_max = float(np.max(np.abs(closed - reference)
                               / np.abs(reference)))
    overlap_estimate_max = float(np.max(details["error_estimate"]
                                        / np.abs(reference)))

    # 60 sheets of the default device, each at its own wavelength, Fermi
    # level and relaxation rate, solved in one batch
    default = RunConfig()
    default_sheet = default.sheet()
    excitations, sigmas = [], []
    for _ in range(60):
        excitation = Excitation(
            vacuum_wavelength=residual_rng.uniform(5.0, 15.0) * 1e-6)
        sheet = replace(default_sheet,
                        fermi_level_ev=residual_rng.uniform(0.05, 0.3))
        gamma = float(residual_rng.choice([0.0, 2e12]))
        excitations.append(excitation)
        sigmas.append(drude_conductivity(excitation.angular_frequency,
                                         sheet, gamma))
    trial_modes = solve_dispersion_batch(
        excitations, default.medium(), sigmas,
        thickness=default.thickness_nm * 1e-9)
    residual_max = float(np.max([
        oracles.dispersion_residual(trial_mode, sigma)
        for trial_mode, sigma in zip(trial_modes, sigmas)]))

    chains = np.empty((25, 2))
    for row in chains:
        strength = chain_rng.uniform(0.5, 40.0) * 1e6
        row[:] = strength, chain_rng.uniform(0.1, 20.0 * math.pi) / strength
    finals = propagate_batch_two(*chains.T, 4096)
    exact = np.array([two_level_analytic(c, x) for c, x in chains])
    two_level_max = float(np.abs(np.abs(finals) ** 2 - exact).max())
    # The eigen-decomposition oracle is held to the closed form, which is
    # far tighter than the integrator's own truncation error.
    stack = np.zeros((25, 2, 2))
    stack[:, 0, 1] = stack[:, 1, 0] = chains[:, 0]
    reference = oracles.expm_reference(stack, [1.0, 0.0], chains[:, 1])
    analytic = np.array([(math.cos(c * x), -1j * math.sin(c * x))
                         for c, x in chains])
    expm_max = float(np.abs(reference - analytic).max())

    start_vec = np.array([1.0, 0.0, 0.0], dtype=complex)
    staircase_errors = []
    for knots in (1025, 2049):
        schedule = build_schedule(config.geometry(), mode, knots,
                                  config.k0_convention)
        integrated = propagate(schedule, start_vec).amplitudes[-1]
        staircase = oracles.staircase_evolution(
            schedule.x_grid, schedule.omega1_mid, schedule.omega2_mid,
            start_vec)
        staircase_errors.append(float(np.abs(integrated - staircase).max()))
    staircase_max = staircase_errors[0]
    # The midpoint staircase is second order and the integrator fourth:
    # doubling the grid must cut the gap about 4x.
    staircase_order_ok = staircase_errors[1] < 0.5 * staircase_errors[0]

    return {
        "seed": seed,
        "overlap_vs_quadrature_max_relative": overlap_max,
        "overlap_error_estimate_max": overlap_estimate_max,
        "overlap_pass": bool(overlap_max < 1e-8),
        "dispersion_residual_max": residual_max,
        "dispersion_pass": bool(residual_max < 1e-10),
        "two_level_vs_analytic_max": two_level_max,
        "two_level_pass": bool(two_level_max < 1e-6),
        "expm_vs_analytic_max": expm_max,
        "expm_pass": bool(expm_max < 1e-10),
        "staircase_vs_integrator_max": staircase_max,
        "staircase_vs_integrator_refined": staircase_errors[1],
        "staircase_pass": bool(staircase_max < 2e-5 and staircase_order_ok),
    }


def _found(search: dict) -> str:
    """A stretch-search record's result: the stretch and its output."""
    if search["stretch"] is None:
        return "none within reach"
    return f"s = {search['stretch']:.2f} with output {search['output']:.4f}"


def render_validation_text(report: dict) -> str:
    """Human-readable rendering of the validation report."""
    lines = []
    lines.append("validation report")
    lines.append(f"config hash: {report['config_hash']}")
    lines.append("")
    lines.append("reference comparisons (within 15% or documented):")
    for entry in report["comparisons"]:
        flag = "ok " if entry["within_15_percent"] else "DOC"
        lines.append(
            f"  [{flag}] {entry['name']}: computed {entry['computed']:.6g} "
            f"{entry['unit']} vs reference {entry['reference']:.6g} "
            f"{entry['unit']} (deviation {entry['relative_deviation']:.1%})")
        lines.append(f"        {entry['note']}")
    wv = report["wavevector_consistency"]
    lines.append("")
    lines.append(
        f"wavevector consistency: Re q = "
        f"{wv['Re_q_at_configured_lambda0_per_um']:.4g} 1/um at lambda0 = "
        f"{wv['configured_lambda0_um']:g} um; the reference scale "
        f"{wv['reference_wavevector_per_um']:g} 1/um corresponds to "
        f"lambda0 = {wv['lambda0_at_reference_wavevector_um']:.4g} um")
    st = report["stirap_default"]
    lines.append("")
    lines.append("default device, lossless final intensities "
                 "(input, middle, output): "
                 + ", ".join(f"{v:.4f}"
                             for v in st["lossless_final_intensities"]))
    lines.append(f"norm defect: {st['norm_defect']:.3e}")
    ss = report["stretch_search"]
    lines.append(
        f"stretch search (target {ss['target']:g}): {_found(ss)}; best "
        f"scanned s = {ss['best_stretch']:.2f} with output "
        f"{ss['best_output']:.4f}")
    ref = ss["at_reference_wavevector"]
    lines.append(f"  at the reference wavevector scale: {_found(ref)} "
                 f"(best output {ref['best_output']:.4f})")
    lo = report["lossy_default"]
    lines.append("")
    lines.append(
        f"lossy default output intensity: {lo['I_output']:.6g} "
        f"(acceptance band {lo['acceptance_band']}, within: "
        f"{lo['within_acceptance_band']}; published band {lo['paper_band']}, "
        f"within: {lo['within_paper_band']})")
    lo_ref = lo["at_reference_wavevector"]
    lines.append(
        f"  at the reference wavevector scale: {lo_ref['I_output']:.6g} "
        f"(propagation length {lo_ref['propagation_length_um']:.4g} um; "
        f"the band presumes "
        f"{REFERENCE_VALUES['propagation_length_um']:g} um)")
    suite = report["oracle_suite"]
    lines.append("")
    lines.append(f"oracle suite (seed {suite['seed']}):")
    for key, metric in ORACLE_METRICS:
        status = "pass" if suite[f"{key}_pass"] else "FAIL"
        lines.append(f"  [{status}] {key}: max error "
                     f"{suite[metric]:.3e} ({metric})")
        if key == "overlap":
            lines.append("         quadrature error estimate "
                         f"{suite['overlap_error_estimate_max']:.3e} "
                         "(overlap_error_estimate_max)")
    lines.append("")
    return "\n".join(lines)
