"""Regenerate tests/data/goldens.json from the oracle module.

Every [frozen] number in the test suite that is not a hand-checkable constant
comes from this script, so a regression in the production code cannot silently
regenerate its own expectations. Run from the repository root:

    python3 tools/generate_goldens.py [OUT]

OUT defaults to tests/data/goldens.json. The stored overlap quadrature values
come from the adaptive Simpson rule that preceded today's Gauss-Kronrod rule,
and `tests/test_oracles.py` checks the Gauss-Kronrod rule against them; so
when OUT already holds the drawn cases (same k and d_m), their quadrature
values and the rule named for them are kept. A stored file with other cases
is refused rather than mixed; without one, the values come from
`oracles.overlap_quadrature`. `generated_by` names the rule behind each
section.
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


GAUSS_KRONROD = "oracles.overlap_quadrature (adaptive G7-K15)"


def overlap_cases(rng: np.random.Generator, stored: dict,
                  count: int = 8) -> tuple[list, str]:
    """Closed-form-independent overlap values from adaptive quadrature, and
    the rule that produced them. Fresh values come from one batched
    quadrature call over every drawn case.

    stored is the goldens file being replaced ({} if there is none); its
    quadrature values and their rule are kept. Each case must agree with
    the closed form to 1e-8 relative before it is written, the bound the
    overlap tests hold it to.
    """
    kept = {(tuple(case["k"]), case["d_m"]): case["quadrature"]
            for case in stored.get("overlap_cases", [])}
    spec = oracles.QuadratureSpec(absolute_tolerance=1e-300,
                                  relative_tolerance=1e-11,
                                  max_subdivisions=65536)
    drawn = [(complex(rng.uniform(0.2e8, 3.0e8), rng.uniform(-0.3e8, 0.3e8)),
              rng.uniform(1e-9, 100e-9)) for _ in range(count)]
    keys = [(tuple(_complex(k)), d) for k, d in drawn]
    if kept and not all(key in kept for key in keys):
        raise SystemExit("the stored overlap cases differ from the "
                         "drawn ones; write to a new path instead")
    k, d = (np.array(column) for column in zip(*drawn))
    values = ([complex(*kept[key]) for key in keys] if kept
              else oracles.overlap_quadrature(k, k, d, spec).tolist())
    cases = []
    for (k, d), value in zip(drawn, values):
        closed = overlap_integral(k, d)
        error = abs(closed - value) / abs(value)
        if not error <= 1e-8:
            raise SystemExit(f"overlap case k={k}, d={d}: closed form is "
                             f"{error:.3e} relative from quadrature")
        cases.append({"k": _complex(k), "d_m": d,
                      "quadrature": _complex(value),
                      "closed_form": _complex(closed)})
    if kept:
        return cases, stored["generated_by"]["overlap_cases.quadrature"]
    return cases, GAUSS_KRONROD


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
    """Default-schedule endpoint amplitudes from the expm staircase, with
    the knot averages of the couplings on each interval."""
    mode = config.solve_mode()
    schedule = build_schedule(config.geometry(), mode, STAIRCASE_KNOTS,
                              config.k0_convention)
    a0 = np.array([1.0, 0.0, 0.0], dtype=complex)
    w1, w2 = (0.5 * (omega[:-1] + omega[1:])
              for omega in (schedule.omega1, schedule.omega2))
    lossless = oracles.staircase_evolution(schedule.x_grid, w1, w2, a0)
    alpha = float(np.imag(mode.q))
    lossy = oracles.staircase_evolution(schedule.x_grid, w1, w2, a0,
                                        loss=alpha)
    return {"knots": STAIRCASE_KNOTS,
            "alpha_per_m": alpha,
            "lossless_final": [_complex(z) for z in lossless],
            "lossy_final": [_complex(z) for z in lossy]}


def expm_pins() -> list:
    """Two-level rotations at exact pulse areas, eigen-decomposition path."""
    pins = []
    for area in (0.25 * np.pi, 2.0 * np.pi, 20.0 * np.pi):
        coupling = 2.0e6
        span = area / coupling
        final = oracles.expm_reference([[0.0, coupling], [coupling, 0.0]],
                                       [1.0, 0.0], span)
        pins.append({"pulse_area_rad": area, "coupling_per_m": coupling,
                     "span_m": span,
                     "final": [_complex(z) for z in final]})
    return pins


def main(argv: list[str]) -> None:
    root = pathlib.Path(__file__).resolve().parents[1]
    path = (pathlib.Path(argv[0]) if argv
            else root / "tests" / "data" / "goldens.json")
    stored = json.loads(path.read_text()) if path.exists() else {}
    config = RunConfig()
    rng = np.random.default_rng(123)
    cases, quadrature_rule = overlap_cases(rng, stored)
    payload = {
        "generated_by": {
            "tool": f"tools/generate_goldens.py (version {__version__})",
            "overlap_cases.quadrature": quadrature_rule,
            "overlap_cases.closed_form": "coupling.overlap_integral",
            "dispersion_pins": "RunConfig.solve_mode, certified by "
                               "oracles.dispersion_residual < 1e-10",
            "staircase": "oracles.staircase_evolution on knot-average "
                         "couplings (the linearly interpolated system)",
            "expm_pins": "oracles.expm_reference",
        },
        "config_hash": config_hash(config),
        "rng_seed": 123,
        "overlap_cases": cases,
        "dispersion_pins": dispersion_pins(config),
        "staircase": staircase_pins(config),
        "expm_pins": expm_pins(),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(path)


if __name__ == "__main__":
    main(sys.argv[1:])
