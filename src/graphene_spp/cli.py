"""Command line surface: figure reproduction and verification drivers.

Every artifact embeds the configuration hash (CSV comment line, JSON field,
SVG comment) so a figure can always be traced back to the exact run
parameters. Emission order and formatting are fixed; repeated runs of the
same configuration produce byte-identical files.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from .config import ConfigError, RunConfig, config_hash, load_config
from .coupling import CouplingDomainError
from .dispersion import (ConvergenceError, NoBoundModeError,
                         confinement_length, propagation_length)
from .dynamics import PropagationError, field_map
from .experiments import (ExperimentError, figure_coupling_axes,
                          figure_map_spec, parallel_comparator, run_device,
                          run_sweep)
from .geometry import (GeometryError, adiabaticity_report, build_schedule,
                       sheet_separations)
from .io import emit_csv, emit_json, ensure_directory
from .materials import MaterialDomainError
from .svg import emit_svg_heatmap, emit_svg_lines
from .validation import (VERSION, build_validation_report,
                         render_validation_text)


class VerificationError(RuntimeError):
    """verify stopped: an oracle could not produce a trustworthy reference."""


_USER_ERRORS = (ConfigError, ExperimentError, GeometryError,
                CouplingDomainError, MaterialDomainError, NoBoundModeError,
                ConvergenceError, PropagationError, VerificationError, OSError)


def _shared_flags(parser: argparse.ArgumentParser, suppress: bool) -> None:
    """--config/--out/--loss/--seed-free, accepted before or after the
    subcommand. The subcommand copies default to SUPPRESS so they only
    override the top-level values when actually given."""
    default = argparse.SUPPRESS if suppress else None
    parser.add_argument("--config", metavar="PATH", default=default,
                        help="flat key = value configuration file")
    parser.add_argument("--out", metavar="DIR", default=default,
                        help="output directory (default: config out_dir)")
    parser.add_argument("--loss", choices=("on", "off"), default=default,
                        help="force damping on or off where a figure has a "
                             "choice")
    if suppress:
        parser.add_argument("--seed-free", action="store_true",
                            default=argparse.SUPPRESS,
                            help=argparse.SUPPRESS)
    else:
        parser.add_argument(
            "--seed-free", action="store_true", default=False,
            help="assert that the invocation draws no random numbers: "
                 "every pipeline is deterministic except `verify`, which "
                 "samples the oracle suite and so refuses this flag")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphene-spp",
        description="Coupled-mode simulation of stacked graphene sheet "
                    "plasmon couplers and the curved three-sheet adiabatic "
                    "transfer device.")
    _shared_flags(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    _shared_flags(common, suppress=True)

    sub.add_parser("dispersion", parents=[common],
                   help="bound-mode table over the validated wavelength band")
    sub.add_parser("coupling-sweep", parents=[common],
                   help="coupling vs separation at several Fermi levels")
    sub.add_parser("schedule", parents=[common],
                   help="device coupling schedule and adiabaticity margin")
    p = sub.add_parser("device-run", parents=[common],
                       help="propagate the three-sheet device, with and "
                            "without loss")
    p.add_argument("--field-map", action="store_true",
                   help="also emit the |field|^2 map over (x, z)")
    p = sub.add_parser("robustness-sweep", parents=[common],
                       help="reproduce a published figure")
    p.add_argument("--figure", required=True,
                   choices=("1b", "3", "4a", "4b", "4c"))
    p.add_argument("--grid", default="50x50", metavar="NxM",
                   help="axis1 x axis2 sample counts for the map figures")
    p = sub.add_parser("verify", parents=[common],
                       help="run the oracle suite and write the validation "
                            "report")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the oracle property sampling")
    return parser


def _parse_grid(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise ExperimentError(f"grid must look like 50x50, got {text!r}")
    try:
        n1, n2 = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ExperimentError(f"grid must look like 50x50, got "
                              f"{text!r}") from exc
    if n1 < 1 or n2 < 1:
        raise ExperimentError("grid counts must be >= 1")
    return n1, n2


def _formats(config: RunConfig) -> set:
    return {f.strip() for f in config.formats.split(",") if f.strip()}


def _run_dispersion(config: RunConfig, out: str) -> list[str]:
    chash = config_hash(config)
    lambdas = np.union1d(np.linspace(5.0, 15.0, 101),
                         np.array([config.lambda0_um]))
    modes = [replace(config, lambda0_um=float(lam)).solve_mode()
             for lam in lambdas]
    q = np.array([mode.q for mode in modes])
    # INFINITE_PROPAGATION is inf, and stays inf when scaled
    table = np.column_stack([
        lambdas, np.full(lambdas.shape, config.E_F_eV),
        np.full(lambdas.shape, config.gamma()), q.real * 1e-6,
        q.imag * 1e-6, np.array([mode.k.real for mode in modes]) * 1e-6,
        np.array([propagation_length(mode) for mode in modes]) * 1e6,
        np.array([confinement_length(mode) for mode in modes]) * 1e9])
    path = os.path.join(out, "dispersion.csv")
    emit_csv(path, ["lambda0_um", "E_F_eV", "gamma_per_s", "Re_q_per_um",
                    "Im_q_per_um", "Re_k_per_um", "L_x_um",
                    "confinement_nm"], table, chash)
    return [path]


def _run_coupling_sweep(config: RunConfig, out: str) -> list[str]:
    chash = config_hash(config)
    formats = _formats(config)
    d_nm, curves = figure_coupling_axes(config)
    # Python's abs per value: np.abs differs from it in the last bit
    table = np.vstack([
        np.column_stack([d_nm, np.full(d_nm.shape, fermi),
                         np.array([abs(c) for c in c12]) * 1e-6,
                         c12.real * 1e-6, c12.imag * 1e-6])
        for fermi, c12 in curves])
    written = []
    if "csv" in formats:
        path = os.path.join(out, "coupling_sweep.csv")
        emit_csv(path, ["d_nm", "E_F_eV", "abs_C_per_um", "Re_C_per_um",
                        "Im_C_per_um"], table, chash)
        written.append(path)
    if "svg" in formats:
        path = os.path.join(out, "coupling_sweep.svg")
        series = [(f"E_F = {fermi:g} eV", np.abs(c12) * 1e-6)
                  for fermi, c12 in curves]
        emit_svg_lines(path, d_nm, series, "separation d (nm)",
                       "|C| (1/um)", "coupling vs separation", chash,
                       log_y=True)
        written.append(path)
    return written


def _run_schedule(config: RunConfig, out: str) -> list[str]:
    """The schedule alone: the mode is solved, nothing is propagated."""
    schedule = build_schedule(config.geometry(), config.solve_mode(),
                              config.n_samples, config.k0_convention)
    return _emit_schedule(config, out, schedule)


def _emit_schedule(config: RunConfig, out: str, schedule) -> list[str]:
    chash = config_hash(config)
    formats = _formats(config)
    geom = config.geometry()
    report = adiabaticity_report(schedule)
    d1, d2 = sheet_separations(geom, schedule.x_grid)
    table = np.column_stack([schedule.x_grid * 1e9, d1 * 1e9, d2 * 1e9,
                             schedule.omega1 * 1e-6, schedule.omega2 * 1e-6,
                             report.mixing_angle, report.margin])
    written = []
    if "csv" in formats:
        path = os.path.join(out, "schedule.csv")
        emit_csv(path, ["x_nm", "d1_nm", "d2_nm", "omega1_per_um",
                        "omega2_per_um", "theta_rad", "margin"], table,
                 chash)
        written.append(path)
    if "svg" in formats:
        path = os.path.join(out, "schedule.svg")
        x_nm = schedule.x_grid * 1e9
        emit_svg_lines(path, x_nm,
                       [("omega1", schedule.omega1 * 1e-6),
                        ("omega2", schedule.omega2 * 1e-6)],
                       "x (nm)", "coupling (1/um)",
                       "coupling schedule", chash)
        written.append(path)
    return written


def _run_device_cmd(config: RunConfig, out: str,
                    with_field_map: bool) -> list[str]:
    return _emit_device(config, out, run_device(config), with_field_map)


def _emit_device(config: RunConfig, out: str, device,
                 with_field_map: bool) -> list[str]:
    chash = config_hash(config)
    formats = _formats(config)
    written = []
    runs = {"lossless": device.trajectory,
            "lossy": device.trajectory.damped(device.alpha)}
    for label, trajectory in runs.items():
        if "csv" not in formats:
            continue
        table = np.column_stack([trajectory.x_grid * 1e9,
                                 trajectory.intensities])
        path = os.path.join(out, f"device_run_{label}.csv")
        emit_csv(path, ["x_nm", "I_input", "I_middle", "I_output"], table,
                 chash)
        written.append(path)
    if "svg" in formats:
        path = os.path.join(out, "device_run.svg")
        x_nm = device.trajectory.x_grid * 1e9
        series = []
        for label, trajectory in runs.items():
            intensities = trajectory.intensities
            for channel, name in enumerate(("I_input", "I_middle",
                                            "I_output")):
                series.append((f"{name} ({label})",
                               intensities[:, channel]))
        emit_svg_lines(path, x_nm, series, "x (nm)", "intensity",
                       "three-sheet transfer", chash)
        written.append(path)
    if with_field_map:
        written.extend(_emit_field_map(config, device, out, chash, formats))
    return written


def _emit_field_map(config: RunConfig, device, out: str, chash: str,
                    formats: set) -> list[str]:
    geom = config.geometry()
    d1, d2 = sheet_separations(geom, device.schedule.x_grid)
    extent = max(float(np.max(d1)), float(np.max(d2)))
    pad = 3.0 * confinement_length(device.mode)
    z = np.linspace(-(extent + pad), extent + pad, 181)
    stride = max(1, len(device.schedule.x_grid) // 256)
    intensity = field_map(device.trajectory, geom, device.mode, z,
                          x_stride=stride)
    x_nm = device.schedule.x_grid[::stride] * 1e9
    z_nm = z * 1e9
    matrix = intensity.T  # rows indexed by z for the heatmap convention
    written = []
    if "csv" in formats:
        path = os.path.join(out, "field_map.csv")
        header = ["z_nm_over_x_nm"] + [f"{v:.6g}" for v in x_nm]
        emit_csv(path, header, np.column_stack([z_nm, matrix]), chash)
        written.append(path)
    if "svg" in formats:
        path = os.path.join(out, "field_map.svg")
        emit_svg_heatmap(path, matrix, x_nm, z_nm, "x (nm)", "z (nm)",
                         "field intensity map", chash,
                         value_label="|field|^2")
        written.append(path)
    return written


def _run_robustness(config: RunConfig, out: str, figure: str,
                    grid: tuple[int, int], loss: str | None) -> list[str]:
    if figure == "1b":
        return _run_coupling_sweep(config, out)
    if figure == "3":
        # one mode solve, one schedule build, one propagation
        device = run_device(config)
        written = _emit_schedule(config, out, device.schedule)
        written.extend(_emit_device(config, out, device, with_field_map=True))
        return written

    chash = config_hash(config)
    formats = _formats(config)
    lossy = None if loss is None else (loss == "on")
    spec = figure_map_spec(figure, config, grid, lossy=lossy)
    result = run_sweep(spec)
    axis1 = spec.axis1
    axis2 = spec.axis2
    written = []
    if "csv" in formats:
        path = os.path.join(out, f"fig_{figure}.csv")
        header = ([f"{axis2.name}_over_{axis1.name}"]
                  + [f"{v:.10g}" for v in axis1.values])
        emit_csv(path, header, np.column_stack([axis2.values, result.grid]),
                 chash)
        written.append(path)
    if "json" in formats:
        path = os.path.join(out, f"fig_{figure}.json")
        metadata = dict(result.metadata)
        metadata["figure"] = figure
        if figure == "4c":
            reference = parallel_comparator(
                spec.fixed_wavevector_per_um * 1e6, config.L_um * 1e-6,
                config.d_min_nm * 1e-9, config, lossy=spec.lossy)
            metadata["comparator_reference"] = reference
            metadata["comparator_note"] = (
                "two parallel sheets at the minimum gap, same wavevector "
                "and length; the published band 0.6-0.9 presumes the "
                "published propagation length of 4.092 um, while the "
                "map damps with the modelled one at this wavevector (see "
                "the verify report's lossy_default)")
        emit_json(path, metadata, chash, VERSION)
        written.append(path)
    if "svg" in formats:
        path = os.path.join(out, f"fig_{figure}.svg")
        emit_svg_heatmap(path, result.grid, axis1.values, axis2.values,
                         axis1.name, axis2.name,
                         f"figure {figure}: output_intensity", chash)
        written.append(path)
    return written


def _run_verify(config: RunConfig, out: str, seed: int) -> list[str]:
    # Only verify runs an oracle, so only it imports the module.
    from .oracles import OracleFailure

    chash = config_hash(config)
    try:
        report = build_validation_report(config, seed=seed)
    except OracleFailure as exc:
        raise VerificationError(f"oracle failure: {exc}") from exc
    text = render_validation_text(report)
    json_path = os.path.join(out, "validation.json")
    emit_json(json_path, report, chash, VERSION)
    text_path = os.path.join(out, "validation.txt")
    with open(text_path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)
    sys.stdout.write(text)
    return [json_path, text_path]


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.seed_free and args.command == "verify":
        print("error: --seed-free conflicts with verify, whose oracle suite "
              "draws random numbers (from --seed)", file=sys.stderr)
        return 2
    if args.command == "verify" and args.seed < 0:
        print(f"error: --seed must be >= 0, got {args.seed}",
              file=sys.stderr)
        return 2
    try:
        config = (load_config(args.config) if args.config is not None
                  else RunConfig())
        out = args.out if args.out is not None else config.out_dir
        ensure_directory(out)
        if args.command == "dispersion":
            written = _run_dispersion(config, out)
        elif args.command == "coupling-sweep":
            written = _run_coupling_sweep(config, out)
        elif args.command == "schedule":
            written = _run_schedule(config, out)
        elif args.command == "device-run":
            written = _run_device_cmd(config, out, args.field_map)
        elif args.command == "robustness-sweep":
            written = _run_robustness(config, out, args.figure,
                                      _parse_grid(args.grid), args.loss)
        else:
            written = _run_verify(config, out, args.seed)
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
