"""Evanescent coupling between two stacked graphene sheets.

The coupled-mode coefficient follows from the overlap of one sheet's
evanescent tail with its neighbour, so it decays exponentially with the
gap. This script tabulates the coefficient against separation, checks the
tail slope against Re(k) of the transverse decay, and writes a log-scale
SVG of the curves for a few doping levels.
"""

import os

import numpy as np

from graphene_spp import (GrapheneSheet, RunConfig, config_hash,
                          coupling_coefficient, coupling_vs_distance,
                          drude_conductivity, solve_dispersion)
from graphene_spp import svg as gsvg

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

config = RunConfig()
mode = config.solve_mode()

pair = coupling_coefficient(mode, 20e-9)
print(f"mode at lambda0 = {config.lambda0_um} um: "
      f"q = {mode.q * 1e-6:.4f} 1/um, k = {mode.k * 1e-6:.4f} 1/um")
print(f"coupling at d = 20 nm: C12 = {pair.c12 * 1e-6:.4f} 1/um "
      f"(|C12| = {abs(pair.c12) * 1e-6:.3f} 1/um)")

# the far tail must decay like exp(-Re(k) d)
d_far = np.array([200e-9, 220e-9])
table = coupling_vs_distance(mode, d_far)
slope = np.log(abs(table[0].c12) / abs(table[1].c12)) / (d_far[1] - d_far[0])
print(f"\ntail slope {slope:.4g} 1/m vs Re(k) = {mode.k.real:.4g} 1/m "
      f"({abs(slope / mode.k.real - 1):.1%} off, prefactor drift)")

d_grid = np.linspace(2e-9, 100e-9, 96)
curves = []
for fermi in (0.05, 0.10, 0.15, 0.20):
    sheet = GrapheneSheet(fermi_level_ev=fermi,
                          mobility_cm2=config.mobility_cm2_per_V_s,
                          fermi_velocity=config.v_F_m_per_s,
                          thickness=config.thickness_nm * 1e-9)
    exc = config.excitation()
    sigma = drude_conductivity(exc.angular_frequency, sheet, config.gamma())
    scan_mode = solve_dispersion(exc, config.medium(), sigma,
                                 thickness=sheet.thickness)
    mags = [abs(p.c12) * 1e-6 for p in coupling_vs_distance(scan_mode, d_grid)]
    curves.append((f"E_F = {fermi:.2f} eV", np.array(mags)))
    print(f"E_F = {fermi:.2f} eV: |C12|(20 nm) = "
          f"{np.interp(20, d_grid * 1e9, mags):8.3f} 1/um")

path = os.path.join(OUT, "coupling_vs_gap.svg")
gsvg.emit_svg_lines(path, d_grid * 1e9, curves,
                    x_label="separation (nm)", y_label="|C12| (1/um)",
                    title="pair coupling vs gap",
                    config_hash=config_hash(config), log_y=True)
print(f"\nwrote {path}")
