"""tools/generate_goldens.py: safe to rerun over the stored goldens."""

import json
import pathlib
import shutil
import subprocess
import sys

import numpy as np

from tests.conftest import DATA_DIR, as_complex

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _run_tool(path):
    return subprocess.run([sys.executable,
                           str(ROOT / "tools" / "generate_goldens.py"),
                           str(path)], capture_output=True, text=True,
                          timeout=300)


def _generate(path):
    done = _run_tool(path)
    assert done.returncode == 0, done.stderr
    return json.loads(path.read_text())


def _complex_array(pairs):
    return np.array([as_complex(pair) for pair in pairs])


def test_fresh_run_matches_stored_goldens_within_consuming_tolerances(
        tmp_path, goldens):
    fresh = _generate(tmp_path / "goldens.json")
    assert set(fresh) == set(goldens)
    assert fresh["config_hash"] == goldens["config_hash"]
    assert fresh["rng_seed"] == goldens["rng_seed"]
    # with nothing stored, the quadrature is today's Gauss-Kronrod rule:
    # within the 1e-10 that tests/test_oracles.py allows it from the
    # stored adaptive-Simpson values
    assert fresh["generated_by"]["overlap_cases.quadrature"].startswith(
        "oracles.overlap_quadrature")
    assert len(fresh["overlap_cases"]) == len(goldens["overlap_cases"])
    for new, old in zip(fresh["overlap_cases"], goldens["overlap_cases"]):
        assert new["k"] == old["k"] and new["d_m"] == old["d_m"]
        stored = as_complex(old["quadrature"])
        assert abs(as_complex(new["quadrature"]) - stored) <= 1e-10 * abs(
            stored)
        closed = as_complex(old["closed_form"])
        assert abs(as_complex(new["closed_form"]) - closed) <= 1e-12 * abs(
            closed)
    # tests/test_dispersion.py: q and k to 1e-12 relative
    for new, old in zip(fresh["dispersion_pins"], goldens["dispersion_pins"],
                        strict=True):
        assert new["overrides"] == old["overrides"]
        for key in ("q_per_m", "k_per_m"):
            assert abs(as_complex(new[key]) - as_complex(old[key])) <= (
                1e-12 * abs(as_complex(old[key])))
    # tests/test_dynamics.py: the staircase endpoints to 2e-6, the expm
    # pins to 1e-6
    new, old = fresh["staircase"], goldens["staircase"]
    assert new["knots"] == old["knots"]
    assert new["alpha_per_m"] == old["alpha_per_m"]
    for key in ("lossless_final", "lossy_final"):
        assert np.abs(_complex_array(new[key])
                      - _complex_array(old[key])).max() < 2e-6
    for new, old in zip(fresh["expm_pins"], goldens["expm_pins"],
                        strict=True):
        assert new["span_m"] == old["span_m"]
        assert np.abs(_complex_array(new["final"])
                      - _complex_array(old["final"])).max() < 1e-6


def test_rerun_keeps_stored_simpson_values(tmp_path, goldens):
    path = tmp_path / "goldens.json"
    shutil.copy(DATA_DIR / "goldens.json", path)
    rerun = _generate(path)
    assert rerun["overlap_cases"] == goldens["overlap_cases"]
    assert rerun["generated_by"] == goldens["generated_by"]


def test_rerun_reproduces_the_stored_file_byte_for_byte(tmp_path):
    # the stored goldens are what the tool writes today: a rerun over them
    # changes no byte, so a refresh shows only what the code moved
    path = tmp_path / "goldens.json"
    shutil.copy(DATA_DIR / "goldens.json", path)
    done = _run_tool(path)
    assert done.returncode == 0, done.stderr
    assert path.read_bytes() == (DATA_DIR / "goldens.json").read_bytes()


def test_rerun_refuses_a_file_with_other_overlap_cases(tmp_path, goldens):
    # mixing kept Simpson values with new Gauss-Kronrod ones would leave a
    # section that no single rule produced
    altered = json.loads(json.dumps(goldens))
    altered["overlap_cases"][3]["d_m"] *= 1.5
    path = tmp_path / "goldens.json"
    path.write_text(json.dumps(altered))
    before = path.read_text()
    done = _run_tool(path)
    assert done.returncode != 0
    assert "write to a new path" in done.stderr
    assert path.read_text() == before
