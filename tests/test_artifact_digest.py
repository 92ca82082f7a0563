"""tools/artifact_digest.py: the byte-identity check between revisions."""

import hashlib
import importlib.util
import json
import math
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "artifact_digest.py"


def _digests():
    done = subprocess.run([sys.executable, str(TOOL), "--grid", "4x3"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def _tool():
    spec = importlib.util.spec_from_file_location("artifact_digest", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_two_runs_print_the_same_digests():
    first = _digests()
    assert first == _digests()
    for name in ("dispersion/dispersion.csv", "schedule/schedule.csv",
                 "device-run/field_map.csv",
                 "fig1b/coupling_sweep.csv", "fig3/schedule.csv",
                 "fig3/device_run_lossy.csv", "fig4a/fig_4a.csv",
                 "fig4b/fig_4b.json", "fig4b-lossless/fig_4b.csv",
                 "fig4b-lossless/fig_4b.json", "fig4c/fig_4c.svg",
                 "verify/validation.json", "verify/validation.txt",
                 "verify-lossless/validation.json",
                 "dispersion-auto/dispersion.csv", "fig4b-auto/fig_4b.csv",
                 "fig4b-auto/fig_4b.json", "fig4b-long/fig_4b.csv",
                 "fig4b-long/fig_4b.json", "fig4b-long/fig_4b.svg"):
        assert len(first[name]) == 64
    # figure 3 writes the same schedule and device run as the commands
    assert first["fig3/schedule.csv"] == first["schedule/schedule.csv"]
    assert (first["fig3/field_map.csv"]
            == first["device-run/field_map.csv"])
    assert (first["verify-lossless/validation.json"]
            != first["verify/validation.json"])
    # the mobility-derived relaxation rate is not the configured one
    assert (first["dispersion-auto/dispersion.csv"]
            != first["dispersion/dispersion.csv"])
    assert first["fig4b-auto/fig_4b.csv"] != first["fig4b/fig_4b.csv"]
    # the 8 um device's map is its own, resolved past the first doubling
    assert first["fig4b-long/fig_4b.csv"] != first["fig4b/fig_4b.csv"]


def test_keep_creates_a_missing_directory(tmp_path):
    keep = tmp_path / "not" / "yet"
    done = subprocess.run([sys.executable, str(TOOL), "--grid", "2x2",
                           "--keep", str(keep)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    kept = json.loads(done.stdout)
    assert "verify/validation.txt" in kept
    for name, digest in kept.items():
        assert hashlib.sha256((keep / name).read_bytes()).hexdigest() \
            == digest


def test_every_json_artifact_is_strict_json(tmp_path):
    # NaN and Infinity are not JSON; the lossless verify report holds
    # infinite propagation lengths, which must arrive as "inf" strings
    tool = _tool()

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    artifacts = tool.run_commands("4x3", tmp_path)
    documents = {name: json.loads(path.read_text(), parse_constant=reject)
                 for name, path in artifacts.items()
                 if name.endswith(".json")}
    assert {"fig4a/fig_4a.json", "fig4b/fig_4b.json", "fig4c/fig_4c.json",
            "verify/validation.json",
            "verify-lossless/validation.json"} <= set(documents)
    lossless = documents["verify-lossless/validation.json"]
    lengths = {entry["name"]: entry["computed"]
               for entry in lossless["comparisons"]}
    assert lengths["propagation_length"] == "inf"
    # the 8 um map's first knot error estimate misses, so the digests also
    # cover the probes doubling alone and a batch past the first pass
    assert documents["fig4b/fig_4b.json"]["knots"] == 129
    assert documents["fig4b-long/fig_4b.json"]["knots"] == 513


def test_numeric_move_aligns_numbers_only():
    move = _tool().numeric_move
    # hex colours, hashes and version strings are text, not numbers
    old = ('# config_hash=304ce6be v0.1.0\nx,1.5,nan,inf\n'
           '<rect fill="#3b4cc0"/>')
    assert move(old, old.replace("1.5", "1.25")) == {
        "largest_move": 0.25, "largest_relative_move": 0.25 / 1.5,
        "values_moved": 1}
    assert move("1,nan,-inf", "1,nan,-inf")["values_moved"] == 0
    assert move("1,nan", "1,2")["largest_move"] == math.inf
    assert move(old, old.replace("#3b4cc0", "#3b4cc1")) == {"lines_differ": 1}


def test_comparing_a_tree_with_itself_moves_nothing():
    src = str(ROOT / "src")
    done = subprocess.run([sys.executable, str(TOOL), "--grid", "4x3",
                           "--src", src, "--src", src],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {}
