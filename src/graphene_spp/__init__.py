"""Coupled-mode simulation of SPP transfer between stacked graphene sheets.

The package models the bound plasmon mode of a conducting sheet in a host
dielectric, the evanescent coupling of two such sheets, and the three-sheet
curved device in which two counterintuitively ordered coupling pulses move
power adiabatically from the input sheet to the output sheet.
"""

from .config import ConfigError, RunConfig, config_hash, load_config, parse_config
from .coupling import (CouplingDomainError, PairCoupling,
                       coupling_at_separations, coupling_coefficient,
                       coupling_vs_distance, overlap_integral)
from .dispersion import (INFINITE_PROPAGATION, ConvergenceError, Excitation,
                         NoBoundModeError, SppMode, confinement_length,
                         propagation_length, solve_dispersion,
                         solve_dispersion_batch)
from .dynamics import (PropagationError, Trajectory, dark_state, field_map,
                       propagate, propagate_constant, two_level_analytic)
from .experiments import (DeviceRun, ExperimentError, StretchSearchResult,
                          SweepAxis, SweepResult, SweepSpec,
                          parallel_comparator, robustness_metric, run_device,
                          run_sweep, stirap_stretch_search,
                          wavevector_to_omega)
from .geometry import (AdiabaticityReport, CouplingSchedule, DeviceGeometry,
                       GeometryError, adiabaticity_report, build_schedule,
                       sheet_separations)
from .materials import (CONSTANTS, GrapheneSheet, MaterialDomainError, Medium,
                        default_relaxation_rate, drude_conductivity,
                        effective_graphene_permittivity)
from .validation import VERSION as __version__
from .validation import build_validation_report, render_validation_text, run_oracle_suite

__all__ = [
    "AdiabaticityReport", "CONSTANTS", "ConfigError", "ConvergenceError",
    "CouplingDomainError",
    "CouplingSchedule", "DeviceGeometry", "DeviceRun", "Excitation",
    "ExperimentError", "GeometryError", "GrapheneSheet",
    "INFINITE_PROPAGATION", "MaterialDomainError", "Medium",
    "NoBoundModeError", "PairCoupling", "PropagationError", "RunConfig",
    "SppMode", "StretchSearchResult", "SweepAxis", "SweepResult", "SweepSpec",
    "Trajectory", "adiabaticity_report", "build_schedule",
    "build_validation_report", "config_hash", "confinement_length",
    "coupling_at_separations", "coupling_coefficient", "coupling_vs_distance",
    "dark_state", "default_relaxation_rate", "drude_conductivity",
    "effective_graphene_permittivity", "field_map",
    "load_config", "overlap_integral",
    "parallel_comparator", "parse_config", "propagate", "propagate_constant",
    "propagation_length", "render_validation_text", "robustness_metric",
    "run_device", "run_oracle_suite", "run_sweep", "sheet_separations",
    "solve_dispersion", "solve_dispersion_batch", "stirap_stretch_search",
    "two_level_analytic", "wavevector_to_omega",
]
