"""Regenerate tests/data/goldens.json from the oracle module.

Every [frozen] number in the test suite that is not a hand-checkable constant
comes from this script, so a regression in the production code cannot silently
regenerate its own expectations. Run from the repository root:

    python3 tools/generate_goldens.py
"""

from __future__ import annotations

import json
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from graphene_spp import __version__  # noqa: E402
from graphene_spp.config import RunConfig, config_hash  # noqa: E402
from graphene_spp.coupling import overlap_integral  # noqa: E402
from graphene_spp.geometry import build_schedule  # noqa: E402
from graphene_spp import oracles  # noqa: E402

STAIRCASE_KNOTS = 4097


def _complex(z: complex) -> list:
    return [float(np.real(z)), float(np.imag(z))]


def overlap_cases(rng: np.random.Generator, count: int = 8) -> list:
    """Closed-form-independent overlap values from adaptive quadrature.

    Each case must agree with the closed form to 1e-8 relative before it is
    written, the bound the overlap tests hold it to.
    """
    spec = oracles.QuadratureSpec(absolute_tolerance=1e-300,
                                  relative_tolerance=1e-11,
                                  max_subdivisions=65536)
    cases = []
    for _ in range(count):
        k = complex(rng.uniform(0.2e8, 3.0e8), rng.uniform(-0.3e8, 0.3e8))
        d = rng.uniform(1e-9, 100e-9)
        value = oracles.overlap_quadrature(k, k, d, spec)
        closed = overlap_integral(k, d)
        error = abs(closed - value) / abs(value)
        if not error <= 1e-8:
            raise SystemExit(f"overlap case k={k}, d={d}: closed form is "
                             f"{error:.3e} relative from quadrature")
        cases.append({"k": _complex(k), "d_m": d,
                      "quadrature": _complex(value),
                      "closed_form": _complex(closed)})
    return cases


def dispersion_pins(config: RunConfig) -> list:
    """Solver outputs pinned after the residual oracle certifies them."""
    from dataclasses import replace

    from graphene_spp.materials import drude_conductivity

    pins = []
    for label, overrides in (("defaults", {}),
                             ("low_fermi", {"E_F_eV": 0.05}),
                             ("lossless", {"gamma_per_s": 0.0})):
        cfg = replace(config, **overrides) if overrides else config
        mode = cfg.solve_mode()
        sigma = drude_conductivity(cfg.excitation().angular_frequency,
                                   cfg.sheet(), cfg.gamma())
        residual = oracles.dispersion_residual(mode, sigma)
        if residual >= 1e-10:
            raise SystemExit(f"dispersion pin {label}: residual {residual}")
        pins.append({"label": label, "overrides": overrides,
                     "q_per_m": _complex(mode.q),
                     "k_per_m": _complex(mode.k),
                     "residual": residual})
    return pins


def staircase_pins(config: RunConfig) -> dict:
    """Default-schedule endpoint amplitudes from the expm staircase."""
    mode = config.solve_mode()
    schedule = build_schedule(config.geometry(), mode, STAIRCASE_KNOTS,
                              config.k0_convention)
    a0 = np.array([1.0, 0.0, 0.0], dtype=complex)
    lossless = oracles.staircase_evolution(schedule.x_grid, schedule.omega1,
                                           schedule.omega2, a0)
    alpha = float(np.imag(mode.q))
    lossy = oracles.staircase_evolution(schedule.x_grid, schedule.omega1,
                                        schedule.omega2, a0, loss=alpha)
    return {"knots": STAIRCASE_KNOTS,
            "alpha_per_m": alpha,
            "lossless_final": [_complex(z) for z in lossless],
            "lossy_final": [_complex(z) for z in lossy]}


def expm_pins() -> list:
    """Two-level rotations at exact pulse areas, eigen-decomposition path."""
    from graphene_spp.dynamics import ChainHamiltonian

    pins = []
    for area in (0.25 * np.pi, 2.0 * np.pi, 20.0 * np.pi):
        coupling = 2.0e6
        span = area / coupling
        final = oracles.expm_reference(ChainHamiltonian((coupling,)),
                                       [1.0, 0.0], span)
        pins.append({"pulse_area_rad": area, "coupling_per_m": coupling,
                     "span_m": span,
                     "final": [_complex(z) for z in final]})
    return pins


def main() -> None:
    config = RunConfig()
    rng = np.random.default_rng(123)
    payload = {
        "generated_by": f"tools/generate_goldens.py (version {__version__})",
        "config_hash": config_hash(config),
        "rng_seed": 123,
        "overlap_cases": overlap_cases(rng),
        "dispersion_pins": dispersion_pins(config),
        "staircase": staircase_pins(config),
        "expm_pins": expm_pins(),
    }
    out = pathlib.Path(__file__).resolve().parents[1] / "tests" / "data"
    out.mkdir(parents=True, exist_ok=True)
    path = out / "goldens.json"
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(path)


if __name__ == "__main__":
    main()
