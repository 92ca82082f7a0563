"""The benchmark's span tracer must find every function its metrics count.

`benchmark/tracer.py` reads argument names of the package's public functions
(`propagate_batch_three`'s `substeps`, `propagate`'s `step`, ...). Renaming
one makes the dependent per-layer metric missing, which the benchmark
reports only when it is run; this test reports it in the ordinary suite,
for the benchmark's workloads and for every other CLI command.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import graphene_spp

ROOT = pathlib.Path(__file__).resolve().parents[1]

_TRACED_RUN = """
import json, sys
sys.path.insert(0, sys.argv[1])
from tracer import Tracer, derive
import graphene_spp.cli as cli
tracer = Tracer()
tracer.install()
code = cli.main(sys.argv[2:])
metrics = derive(tracer.dump())
print(json.dumps({"code": code, "metrics": len(metrics),
                  "missing": {name: metric["missing"]
                              for name, metric in metrics.items()
                              if metric["value"] is None}}))
"""


@pytest.mark.parametrize("command", [
    ["robustness-sweep", "--figure", "4b", "--grid", "4x3"],
    ["--config", "long.cfg", "robustness-sweep", "--figure", "4b",
     "--grid", "6x5"],
    ["robustness-sweep", "--figure", "4c", "--grid", "3x2"],
    ["robustness-sweep", "--figure", "4a", "--grid", "4x3"],
    ["robustness-sweep", "--figure", "3"],
    ["verify", "--seed", "1"],
    ["dispersion"],
    ["coupling-sweep"],
    ["schedule"],
    ["device-run", "--field-map"],
], ids=["fig4b-map", "fig4b-map-long-device", "fig4c-map", "fig4a-map",
        "fig3-device", "verify", "dispersion", "coupling-sweep", "schedule",
        "device-run-field-map"])
def test_benchmark_workload_has_every_per_layer_metric(tmp_path, command):
    # a fresh interpreter, as the benchmark runs each workload; no bytecode
    # is written next to the benchmark's sources. The long device's 4b map
    # doubles its knots three times, to 513
    (tmp_path / "long.cfg").write_text("n_samples = 64\nL_um = 8\n"
                                       "R_nm = 5000\n")
    src = pathlib.Path(graphene_spp.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    argv = ["--out", str(tmp_path / "out"), *command]
    done = subprocess.run([sys.executable, "-c", _TRACED_RUN,
                           str(ROOT / "benchmark"), *argv], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["code"] == 0
    assert result["metrics"] > 0
    assert result["missing"] == {}
