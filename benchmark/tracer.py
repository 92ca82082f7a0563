"""Span tracer for the package's layers, installed from outside the package.

`Tracer.install` wraps every public function of every layer module wherever
any `graphene_spp` module binds it, so `graphene_spp.experiments` calling
`propagate_batch_three` goes through the wrapper, as does a module calling
its own public functions. Nothing is looked up by a hard-coded call site: a
function that a later change removes or renames simply records no spans, and
the metrics that depended on it are reported missing instead of failing.

Spans (layer, function, parent, start, end, counts) are kept in memory and
written out once, when the traced run ends. `derive` turns them into the
per-layer metrics: busy time of each layer (calls entering it from another
layer), self time (busy time minus the time its callees' spans cover), and
work counts taken from the call arguments.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import sys
import time

import numpy as np

PACKAGE = "graphene_spp"
LAYERS = ("config", "materials", "dispersion", "coupling", "geometry",
          "dynamics", "experiments", "validation", "oracles", "io", "svg",
          "cli")

_LAYER, _NAME, _PARENT, _START, _END, _COUNTS = range(6)


def _propagate_steps(args):
    step = args["step"]
    x = args["schedule"].x_grid
    substeps = 1
    if step is not None:
        substeps = max(1, math.ceil((x[1] - x[0]) / step - 1e-12))
    return {"cell_steps": (len(x) - 1) * substeps}


def _file_bytes(args):
    path = args.get("path")
    if not isinstance(path, (str, os.PathLike)) or not os.path.isfile(path):
        return {}
    return {"bytes": os.path.getsize(path)}


def _verdicts(value, found):
    if isinstance(value, bool):
        found.append(value)
    elif isinstance(value, dict):
        for item in value.values():
            _verdicts(item, found)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _verdicts(item, found)
    return found


def _checks(args, result):
    verdicts = _verdicts(result, [])
    return {"checks": len(verdicts),
            "checks_failed": sum(1 for v in verdicts if not v)}


def _sweep_cells(args, result):
    spec = args["spec"]
    grid = np.asarray(result.grid)
    return {"cells": spec.axis1.values.size * spec.axis2.values.size,
            "cells_invalid": int(result.metadata["invalid_cells"]),
            "cells_nonfinite": int(np.count_nonzero(~np.isfinite(grid)))}


# Work counts per function, from the bound call arguments (and, where the
# count is a property of the answer, the return value). Keys are
# "layer.function"; a rule that no longer matches the function's signature
# records an error, which makes the dependent metric missing.
COUNT_RULES = {
    "dynamics.propagate": lambda a, r: _propagate_steps(a),
    "dynamics.propagate_batch_three": lambda a, r: {
        "cell_steps": (np.shape(a["omega1"])[0]
                       * (np.shape(a["omega1"])[1] - 1) * a["substeps"])},
    "dynamics.propagate_batch_two": lambda a, r: {
        "cell_steps": np.size(a["coupling"]) * a["n_steps"]},
    "dynamics.propagate_constant": lambda a, r: {
        "cell_steps": a["n_steps"]},
    "coupling.coupling_at_separations": lambda a, r: {
        "samples": np.size(a["d"])},
    "coupling.coupling_coefficient": lambda a, r: {"samples": 1},
    "coupling.coupling_vs_distance": lambda a, r: {
        "samples": np.size(a["d_grid"])},
    "coupling.overlap_integral": lambda a, r: {"samples": np.size(a["d"])},
    "geometry.sheet_separations": lambda a, r: {"samples": np.size(a["x"])},
    "geometry.build_schedule": lambda a, r: {"samples": a["n_samples"]},
    "experiments.run_sweep": lambda a, r: _sweep_cells(a, r),
    "validation.build_validation_report": lambda a, r: _checks(a, r),
    "validation.run_oracle_suite": lambda a, r: _checks(a, r),
}
# Public functions that do no work of the kind their layer counts (no
# integration steps, no schedule samples).
UNCOUNTED = {"dynamics": ("dark_state", "field_map", "two_level_analytic"),
             "geometry": ("adiabaticity_report",)}
# Functions whose spans the metrics single out besides COUNT_RULES.
NAMED_SPANS = ("cli.main", "experiments.wavevector_to_omega",
               "dispersion.solve_dispersion")
# Layers whose every public function is counted by the files it names.
FILE_LAYERS = ("io", "svg")


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self):
        self.spans: list[list] = []
        self.functions: dict[str, list[str]] = {}
        self._stack: list[int] = []

    def _wrap(self, layer: str, name: str, fn):
        key = f"{layer}.{name}"
        rule = COUNT_RULES.get(key)
        if rule is None and layer in FILE_LAYERS:
            rule = lambda a, r: _file_bytes(a)  # noqa: E731
        signature = inspect.signature(fn) if rule is not None else None
        # A module's calls to its own functions are spans only where a
        # metric needs them: a span per call of a hot helper such as
        # io.format_number would cost more than the work it measures.
        home = (None if key in COUNT_RULES or key in NAMED_SPANS
                else fn.__globals__)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if home is not None and sys._getframe(1).f_globals is home:
                return fn(*args, **kwargs)
            record = [layer, name, stack[-1] if stack else -1, clock(), 0.0,
                      None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[_END] = clock()
                stack.pop()
            if rule is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    record[_COUNTS] = {k: int(v) for k, v in
                                       rule(bound.arguments, result).items()}
                except (TypeError, KeyError, AttributeError, IndexError,
                        ValueError) as exc:
                    record[_COUNTS] = {"error": f"{type(exc).__name__}: {exc}"}
            return result

        return traced

    def install(self) -> None:
        """Wrap each layer's public functions at every binding site."""
        wrappers = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"{PACKAGE}.{layer}")
            except ModuleNotFoundError:
                continue
            names = []
            for name, obj in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self._wrap(layer, name, obj)
                    names.append(name)
            self.functions[layer] = sorted(names)
        for module_name, module in list(sys.modules.items()):
            if module_name != PACKAGE and not module_name.startswith(
                    PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])

    def dump(self) -> dict:
        return {"functions": self.functions, "spans": self.spans}


def _metric(value, unit, reason=None):
    if reason is not None:
        return {"value": None, "unit": unit, "missing": reason}
    return {"value": value, "unit": unit}


def _ratio(numerator, denominator, scale):
    return numerator / denominator * scale if denominator else 0.0


def derive(trace: dict) -> dict:
    """Per-layer metrics from one traced run (see BENCHMARK.json)."""
    functions = trace["functions"]
    spans = trace["spans"]
    duration = [s[_END] - s[_START] for s in spans]
    own = self_times(trace)

    def has_ancestor(i, predicate):
        p = spans[i][_PARENT]
        while p >= 0:
            if predicate(spans[p]):
                return True
            p = spans[p][_PARENT]
        return False

    calls = dict.fromkeys(LAYERS, 0)
    busy = dict.fromkeys(LAYERS, 0.0)
    counts: dict[str, dict[str, int]] = {layer: {} for layer in LAYERS}
    errors: dict[str, str] = {}
    kernel_s = 0.0
    solves = solves_in_inversion = inversions = 0
    solve_s = inversion_s = 0.0
    for i, s in enumerate(spans):
        layer, name = s[_LAYER], s[_NAME]
        outer = not has_ancestor(i, lambda p: p[_LAYER] == layer)
        if outer:
            calls[layer] += 1
            busy[layer] += duration[i]
            for key, value in (s[_COUNTS] or {}).items():
                if key == "error":
                    errors[f"{layer}.{name}"] = value
                else:
                    counts[layer][key] = counts[layer].get(key, 0) + value
            if layer == "dynamics" and s[_COUNTS]:
                kernel_s += duration[i]
        if (layer, name) == ("dispersion", "solve_dispersion"):
            solves += 1
            solve_s += duration[i]
            if has_ancestor(i, lambda p: p[_NAME] == "wavevector_to_omega"):
                solves_in_inversion += 1
        if (layer, name) == ("experiments", "wavevector_to_omega"):
            inversions += 1
            if not has_ancestor(i, lambda p: p[_NAME] == name):
                inversion_s += duration[i]

    called = {(s[_LAYER], s[_NAME]) for s in spans}

    def needs(layer, names=(), complete=False):
        """Reason a metric is missing, or None when its sources exist: the
        layer's module, each named function, and for a layer whose work is
        counted, a counting rule for every function the run called."""
        if layer not in functions:
            return f"module {PACKAGE}.{layer} not found"
        gone = [f for f in names if f not in functions[layer]]
        if gone:
            return (f"{', '.join(gone)} no longer public in "
                    f"{PACKAGE}.{layer}; update the tracer's rules")
        broken = [errors[f"{layer}.{f}"] for f in names
                  if f"{layer}.{f}" in errors]
        if broken:
            return f"counting rule failed: {broken[0]}"
        if complete:
            uncounted = sorted(name for lay, name in called if lay == layer
                               and name not in names
                               and name not in UNCOUNTED.get(layer, ()))
            if uncounted:
                return f"no counting rule for {', '.join(uncounted)}"
        return None

    def counted(layer):
        return [k.split(".", 1)[1] for k in COUNT_RULES
                if k.startswith(layer + ".")]

    dyn = needs("dynamics", counted("dynamics"), complete=True)
    cpl = needs("coupling", counted("coupling"), complete=True)
    geo = needs("geometry", counted("geometry"), complete=True)
    inv = needs("experiments", ["wavevector_to_omega"])
    sol = needs("dispersion", ["solve_dispersion"])
    swp = needs("experiments", ["run_sweep"])
    val = needs("validation", ["build_validation_report",
                               "run_oracle_suite"])
    cell_steps = counts["dynamics"].get("cell_steps", 0)
    cpl_samples = counts["coupling"].get("samples", 0)
    geo_samples = counts["geometry"].get("samples", 0)
    exp = counts["experiments"]
    checks = counts["validation"]
    return {
        "dynamics.calls": _metric(calls["dynamics"], "count",
                                  needs("dynamics")),
        "dynamics.cell_steps": _metric(cell_steps, "count", dyn),
        "dynamics.busy_s": _metric(busy["dynamics"], "s", needs("dynamics")),
        "dynamics.ns_per_cell_step": _metric(
            _ratio(kernel_s, cell_steps, 1e9), "ns", dyn),
        "coupling.calls": _metric(calls["coupling"], "count",
                                  needs("coupling")),
        "coupling.samples": _metric(cpl_samples, "count", cpl),
        "coupling.busy_s": _metric(busy["coupling"], "s", needs("coupling")),
        "coupling.ns_per_sample": _metric(
            _ratio(busy["coupling"], cpl_samples, 1e9), "ns", cpl),
        "geometry.samples": _metric(geo_samples, "count", geo),
        "geometry.busy_s": _metric(busy["geometry"], "s", needs("geometry")),
        "geometry.schedule_ns_per_sample": _metric(
            _ratio(own["geometry"] + own["coupling"], geo_samples, 1e9), "ns",
            geo or cpl),
        "experiments.inversions": _metric(inversions, "count", inv),
        "experiments.solves_per_inversion": _metric(
            _ratio(solves_in_inversion, inversions, 1.0), "count",
            inv or sol),
        "experiments.inversion_s": _metric(inversion_s, "s", inv),
        "dispersion.solves": _metric(solves, "count", sol),
        "dispersion.busy_s": _metric(busy["dispersion"], "s",
                                     needs("dispersion")),
        "dispersion.us_per_solve": _metric(_ratio(solve_s, solves, 1e6),
                                           "us", sol),
        "experiments.self_s": _metric(own["experiments"], "s",
                                      needs("experiments")),
        "experiments.cells": _metric(exp.get("cells", 0), "count", swp),
        "experiments.cells_invalid": _metric(exp.get("cells_invalid", 0),
                                             "count", swp),
        "experiments.cells_nonfinite": _metric(exp.get("cells_nonfinite", 0),
                                               "count", swp),
        "oracles.calls": _metric(calls["oracles"], "count", needs("oracles")),
        "oracles.busy_s": _metric(busy["oracles"], "s", needs("oracles")),
        "validation.checks": _metric(checks.get("checks", 0), "count", val),
        "validation.checks_failed": _metric(checks.get("checks_failed", 0),
                                            "count", val),
        "validation.self_s": _metric(own["validation"], "s",
                                     needs("validation")),
        "io.busy_s": _metric(busy["io"], "s", needs("io")),
        "io.bytes": _metric(counts["io"].get("bytes", 0), "B", needs("io")),
        "svg.busy_s": _metric(busy["svg"], "s", needs("svg")),
        "svg.bytes": _metric(counts["svg"].get("bytes", 0), "B",
                             needs("svg")),
        "cli.self_s": _metric(own["cli"], "s", needs("cli")),
    }


def self_times(trace: dict) -> dict:
    """Self time of every layer; together they cover the root span."""
    spans = trace["spans"]
    own = dict.fromkeys(LAYERS, 0.0)
    covered = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[_PARENT] >= 0:
            covered[s[_PARENT]] += s[_END] - s[_START]
    for i, s in enumerate(spans):
        own[s[_LAYER]] += s[_END] - s[_START] - covered[i]
    return own
