"""Survey the bound plasmon mode of a single graphene sheet.

Solves the dispersion relation for the sheet in its host dielectric (the
same medium above and below), then reports how the propagation constant, the
propagation length, and the field confinement move with excitation
wavelength and Fermi level.
"""

import os

import numpy as np

from graphene_spp import (INFINITE_PROPAGATION, Excitation, GrapheneSheet,
                          RunConfig, confinement_length, drude_conductivity,
                          propagation_length, solve_dispersion)
from graphene_spp import io as gio

OUT = os.path.join(os.path.dirname(__file__), "out")

config = RunConfig()
sheet = config.sheet()
medium = config.medium()
gamma = config.gamma()

print(f"sheet: E_F = {sheet.fermi_level_ev} eV, "
      f"mobility = {sheet.mobility_cm2:.0f} cm^2/Vs, "
      f"relaxation rate = {gamma:.4g} 1/s")
print(f"host medium: eps = {medium.permittivity} on both sides")


def solve_at(lambda0_um, scan_sheet):
    exc = Excitation(vacuum_wavelength=lambda0_um * 1e-6)
    sigma = drude_conductivity(exc.angular_frequency, scan_sheet, gamma)
    return solve_dispersion(exc, medium, sigma,
                            thickness=scan_sheet.thickness)


# one medium on both sides: one transverse decay constant k, and the
# confinement length is 1/Re k
mode = solve_at(config.lambda0_um, sheet)
print(f"at lambda0 = {config.lambda0_um} um: k = {mode.k * 1e-6:.4f} 1/um")
print()


# wavelength scan at the default Fermi level
rows = []
print(f"{'lambda0 (um)':>13} {'Re q (1/um)':>12} {'L_x (um)':>10} "
      f"{'conf (nm)':>10}")
for lam in np.linspace(5.0, 15.0, 11):
    mode = solve_at(lam, sheet)
    lx = propagation_length(mode)
    conf = confinement_length(mode)
    print(f"{lam:13.1f} {mode.q.real * 1e-6:12.3f} {lx * 1e6:10.3f} "
          f"{conf * 1e9:10.2f}")
    rows.append([lam, mode.q.real * 1e-6, mode.q.imag * 1e-6,
                 lx * 1e6, conf * 1e9])

gio.ensure_directory(OUT)
gio.emit_csv(os.path.join(OUT, "dispersion_scan.csv"),
             ["lambda0_um", "Re_q_per_um", "Im_q_per_um", "L_x_um",
              "confinement_nm"], rows)
print(f"\nwrote {os.path.join(OUT, 'dispersion_scan.csv')}")

# Fermi-level scan: q drops roughly as 1/E_F, so higher doping means a
# longer, less confined plasmon
print(f"\n{'E_F (eV)':>9} {'Re q (1/um)':>12} {'L_x (um)':>10}")
for fermi in (0.05, 0.10, 0.15, 0.20, 0.30):
    scan_sheet = GrapheneSheet(fermi_level_ev=fermi,
                               mobility_cm2=sheet.mobility_cm2,
                               fermi_velocity=sheet.fermi_velocity,
                               thickness=sheet.thickness)
    mode = solve_at(config.lambda0_um, scan_sheet)
    print(f"{fermi:9.2f} {mode.q.real * 1e-6:12.3f} "
          f"{propagation_length(mode) * 1e6:10.3f}")

# without damping the conductivity is purely imaginary and q comes out real
exc = Excitation(vacuum_wavelength=config.lambda0_um * 1e-6)
sigma0 = drude_conductivity(exc.angular_frequency, sheet, 0.0)
lossless = solve_dispersion(exc, medium, sigma0, thickness=sheet.thickness)
assert propagation_length(lossless) is INFINITE_PROPAGATION
print("\ngamma = 0 gives a purely real q: propagation length is infinite")
