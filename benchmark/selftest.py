"""Quick self-test of the benchmark itself, on tiny inputs.

    python3 benchmark/selftest.py

Runs every workload once with tracing (maps on a 4x3 grid) and checks that

* the run passes its own correctness gate and each reference agrees with
  the program within run.ACCURACY_LIMIT;
* the layers' self times add up to the traced wall time within 5 %;
* every per-layer metric is present, and a trace whose functions were
  renamed away reports the dependent metrics missing instead of failing;
* the same seed gives the same draw and identical deterministic metrics
  (max_abs_err and every count), and a different seed a different draw.

Exits 1 if a check fails. Takes about half a minute on two cores.
"""

from __future__ import annotations

import sys

import run
import tracer

GRID = "4x3"


def traced_run(name: str, seed: int) -> dict:
    return run.measure(run.WORKLOADS[name], seed, seconds=0, trace=True,
                       grid=GRID)


def deterministic(result: dict) -> dict:
    counts = {key: metric["value"]
              for key, metric in result["line"]["metrics"].items()
              if metric["unit"] in ("count", "B")}
    return {"draw": result["record"]["draw"],
            "max_abs_err": result["record"]["max_abs_err"], **counts}


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    failures: list[str] = []

    def check(condition: bool, label: str) -> None:
        print(f"{'PASS' if condition else 'FAIL'}  {label}", flush=True)
        if not condition:
            failures.append(label)

    results = {}
    for name in run.WORKLOADS:
        result = traced_run(name, seed=1)
        results[name] = result
        record, line = result["record"], result["line"]
        check(line["correct"] and line["failed"] == 0,
              f"{name}: correct, {line['attempted']} calls, failures "
              f"{record['failures']}")
        check(record["max_abs_err"] <= run.ACCURACY_LIMIT,
              f"{name}: reference agrees, max_abs_err "
              f"{record['max_abs_err']:.3g}")
        coverage = record["self_time_coverage"] or [0.0]
        check(all(abs(c - 1.0) <= 0.05 for c in coverage),
              f"{name}: self times cover the traced wall, {coverage}")
        missing = [k for k, m in line["metrics"].items() if m["value"] is None]
        check(not missing, f"{name}: no per-layer metric missing {missing}")

    renamed = tracer.derive({
        "functions": {layer: [] for layer in tracer.LAYERS
                      if layer != "coupling"},
        "spans": []})
    check(renamed["dynamics.cell_steps"]["value"] is None
          and "propagate" in renamed["dynamics.cell_steps"]["missing"]
          and renamed["coupling.busy_s"]["value"] is None,
          "removed functions and modules give missing metrics: "
          f"{renamed['dynamics.cell_steps']['missing']}")

    again = traced_run("fig4b-map", seed=1)
    check(deterministic(again) == deterministic(results["fig4b-map"]),
          "same seed, same draw and deterministic metrics")
    check(run.draw_device(1) != run.draw_device(2),
          "different seeds, different draws")
    check(all(abs(v / run.draw_device(0)[k] - 1.0) <= run.DRAW_SPREAD
              for seed in range(1, 50)
              for k, v in run.draw_device(seed).items()),
          f"draws stay within {run.DRAW_SPREAD:.0%} of the reference device")
    print(f"{len(failures)} check(s) failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
