"""End-to-end CLI runs against temp directories with a small sample count."""

import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import graphene_spp
from graphene_spp.cli import main
from graphene_spp.io import read_csv
from graphene_spp.validation import ORACLE_METRICS


def _cfg(tmp_path, extra=""):
    path = tmp_path / "run.cfg"
    path.write_text("n_samples = 256\n" + extra)
    return str(path)


def test_dispersion_columns_and_grid(tmp_path):
    out = tmp_path / "out"
    code = main(["--config", _cfg(tmp_path), "--out", str(out), "dispersion"])
    assert code == 0
    header, rows = read_csv(out / "dispersion.csv")
    assert header == ["lambda0_um", "E_F_eV", "gamma_per_s", "Re_q_per_um",
                      "Im_q_per_um", "Re_k_per_um", "L_x_um",
                      "confinement_nm"]
    lams = [row[0] for row in rows]
    assert lams == sorted(lams)
    assert any(abs(lam - 10.0) < 1e-9 for lam in lams)
    for row in rows:
        assert row[3] > 0 and row[5] > 0


def test_flags_work_before_and_after_subcommand(tmp_path):
    cfg = _cfg(tmp_path)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["--config", cfg, "--out", str(out_a), "dispersion"]) == 0
    assert main(["dispersion", "--config", cfg, "--out", str(out_b)]) == 0
    assert (out_a / "dispersion.csv").read_bytes() \
        == (out_b / "dispersion.csv").read_bytes()


def test_coupling_sweep_long_table(tmp_path):
    out = tmp_path / "out"
    assert main(["--config", _cfg(tmp_path), "--out", str(out),
                 "coupling-sweep"]) == 0
    header, rows = read_csv(out / "coupling_sweep.csv")
    assert header == ["d_nm", "E_F_eV", "abs_C_per_um", "Re_C_per_um",
                      "Im_C_per_um"]
    fermis = sorted({row[1] for row in rows})
    assert fermis == [0.05, 0.10, 0.15, 0.20]
    assert (out / "coupling_sweep.svg").exists()


def test_schedule_emits_profile_and_margin(tmp_path):
    out = tmp_path / "out"
    assert main(["--config", _cfg(tmp_path), "--out", str(out),
                 "schedule"]) == 0
    header, rows = read_csv(out / "schedule.csv")
    assert header[:3] == ["x_nm", "d1_nm", "d2_nm"]
    data = np.asarray(rows)
    # minimum separations hit the configured 20 nm gap at the waists,
    # up to the sampling grid landing a knot next to the true minimum
    assert data[:, 1].min() == pytest.approx(20.0, rel=1e-3)
    assert data[:, 2].min() == pytest.approx(20.0, rel=1e-3)
    omega1, omega2 = data[:, 3], data[:, 4]
    assert np.argmax(omega2) < np.argmax(omega1)


def test_device_run_both_loss_settings(tmp_path):
    out = tmp_path / "out"
    assert main(["--config", _cfg(tmp_path), "--out", str(out),
                 "device-run"]) == 0
    for label in ("lossless", "lossy"):
        header, rows = read_csv(out / f"device_run_{label}.csv")
        assert header == ["x_nm", "I_input", "I_middle", "I_output"]
        x = [row[0] for row in rows]
        assert x == sorted(x)
        assert rows[0][1] == pytest.approx(1.0, abs=1e-12)
        assert rows[0][2] == 0.0 and rows[0][3] == 0.0
    lossless = np.asarray(read_csv(out / "device_run_lossless.csv")[1])
    lossy = np.asarray(read_csv(out / "device_run_lossy.csv")[1])
    assert lossy[-1, 1:].sum() < lossless[-1, 1:].sum()
    assert (out / "device_run.svg").exists()


def test_device_run_field_map(tmp_path):
    out = tmp_path / "out"
    assert main(["--config", _cfg(tmp_path), "--out", str(out),
                 "device-run", "--field-map"]) == 0
    header, rows = read_csv(out / "field_map.csv")
    assert header[0] == "z_nm_over_x_nm"
    assert len(rows) == 181
    assert all(len(row) == len(header) for row in rows)
    assert (out / "field_map.svg").exists()


def test_robustness_sweep_matrix_and_sidecar(tmp_path):
    out = tmp_path / "out"
    assert main(["--config", _cfg(tmp_path), "--out", str(out),
                 "robustness-sweep", "--figure", "4b",
                 "--grid", "6x5"]) == 0
    header, rows = read_csv(out / "fig_4b.csv")
    assert header[0] == "length_um_over_wavevector_per_um"
    assert len(header) == 7 and len(rows) == 5
    meta = json.loads((out / "fig_4b.json").read_text())
    assert meta["figure"] == "4b"
    assert meta["layers"] == 3
    assert meta["lossy"] is False
    assert meta["config_hash"]
    assert len(meta["wavevector_inversion"]) == 6
    for record in meta["wavevector_inversion"]:
        assert record["attained_Re_q_per_um"] == pytest.approx(
            record["target_per_um"], rel=1e-12)
    assert (out / "fig_4b.svg").exists()


def test_robustness_sweep_records_knot_choice(tmp_path):
    # the step-doubling knot choice is recorded as it came out: at the
    # default n_samples the estimate meets the tolerance, while
    # n_samples = 256 stops the doubling at 129 knots, short of it
    default_cfg = tmp_path / "default.cfg"
    default_cfg.write_text("")
    metas = {}
    for label, cfg in (("default", str(default_cfg)),
                       ("capped", _cfg(tmp_path))):
        out = tmp_path / label
        assert main(["--config", cfg, "--out", str(out), "robustness-sweep",
                     "--figure", "4b", "--grid", "3x3"]) == 0
        metas[label] = json.loads((out / "fig_4b.json").read_text())
    default, capped = metas["default"], metas["capped"]
    assert default["knot_tolerance"] == capped["knot_tolerance"] == 2e-7
    assert 0.0 <= default["knot_error_estimate"] <= default["knot_tolerance"]
    assert default["knots"] <= default["n_samples"]
    assert capped["knots"] == 129
    assert capped["knot_error_estimate"] > capped["knot_tolerance"]


def test_robustness_sweep_fig4c_comparator_reference(tmp_path):
    out = tmp_path / "out"
    assert main(["--config", _cfg(tmp_path), "--out", str(out),
                 "robustness-sweep", "--figure", "4c",
                 "--grid", "4x4"]) == 0
    meta = json.loads((out / "fig_4c.json").read_text())
    assert meta["lossy"] is True
    assert 0.0 <= meta["comparator_reference"] <= 1.0
    header, rows = read_csv(out / "fig_4c.csv")
    cells = np.asarray(rows)[:, 1:]
    # tight arcs cannot span the device: those cells are the NaN sentinel
    assert np.isnan(cells).any()
    assert np.isfinite(cells).any()


def test_robustness_sweep_loss_flag(tmp_path):
    out = tmp_path / "out"
    assert main(["--config", _cfg(tmp_path), "--out", str(out), "--loss",
                 "on", "robustness-sweep", "--figure", "4b",
                 "--grid", "3x3"]) == 0
    meta = json.loads((out / "fig_4b.json").read_text())
    assert meta["lossy"] is True


def test_robustness_sweep_figure_3_bundle(tmp_path):
    out = tmp_path / "out"
    assert main(["--config", _cfg(tmp_path), "--out", str(out),
                 "robustness-sweep", "--figure", "3"]) == 0
    for name in ("schedule.csv", "device_run_lossless.csv",
                 "device_run_lossy.csv", "field_map.csv"):
        assert (out / name).exists()


def test_verify_writes_validation_reports(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["--config", _cfg(tmp_path), "--out", str(out), "verify",
                 "--seed", "3"]) == 0
    report = json.loads((out / "validation.json").read_text())
    assert "comparisons" in report
    assert report["oracle_suite"]["seed"] == 3
    assert report["oracle_suite"]["overlap_error_estimate_max"] <= 1e-12
    text = (out / "validation.txt").read_text()
    assert "oracle suite" in text
    lines = text.splitlines()
    for name, metric in ORACLE_METRICS:
        line, = [entry for entry in lines if f"] {name}: " in entry]
        assert line.endswith(f"({metric})")
        assert metric in report["oracle_suite"]
    assert any("(overlap_error_estimate_max)" in entry for entry in lines)
    captured = capsys.readouterr()
    assert "validation.json" in captured.out


def test_seed_free_flag_accepted(tmp_path):
    out = tmp_path / "out"
    assert main(["--config", _cfg(tmp_path), "--out", str(out), "--seed-free",
                 "dispersion"]) == 0


@pytest.mark.parametrize("where", ["before", "after"])
def test_seed_free_verify_exits_2(tmp_path, capsys, where):
    # verify samples the oracle suite, so the no-draw guard must refuse it
    out = tmp_path / "out"
    args = ["--config", _cfg(tmp_path), "--out", str(out), "verify",
            "--seed", "1"]
    args.insert(0 if where == "before" else len(args), "--seed-free")
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--seed-free" in err
    assert "verify" in err
    assert not (out / "validation.json").exists()


def test_negative_seed_exits_2_before_any_work(tmp_path, capsys,
                                              monkeypatch):
    import graphene_spp.cli as cli

    def unreachable(config, seed=0):
        raise AssertionError("the report was built")

    monkeypatch.setattr(cli, "build_validation_report", unreachable)
    out = tmp_path / "out"
    assert main(["--config", _cfg(tmp_path), "--out", str(out), "verify",
                 "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--seed" in err
    assert not out.exists()


def test_bad_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("R_nm = -5\n")
    code = main(["--config", str(bad), "--out", str(tmp_path / "out"),
                 "dispersion"])
    assert code == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert "radius > 0" in captured.err


@pytest.mark.parametrize("command", ["dispersion", "schedule", "device-run"])
@pytest.mark.parametrize("line", ["lambda0_um = nan", "E_F_eV = nan",
                                  "L_um = nan", "d_min_nm = nan",
                                  "gamma_per_s = nan", "R_nm = inf"])
def test_nonfinite_config_value_exits_2(tmp_path, capsys, command, line):
    out = tmp_path / "out"
    code = main(["--config", _cfg(tmp_path, line + "\n"), "--out", str(out),
                 command])
    assert code == 2
    key = line.split("=")[0].strip()
    assert f"error: {key}: expected a finite number" in capsys.readouterr().err
    assert not out.exists()


_SWEEP = ["robustness-sweep", "--grid", "2x2", "--figure"]


@pytest.mark.parametrize("lines, argv, message", [
    ("mobility_cm2_per_V_s = 1e-300\ngamma_per_s = auto", ["dispersion"],
     "relaxation rate"),
    ("mobility_cm2_per_V_s = 1e-300", ["verify"], "relaxation rate"),
    ("v_F_m_per_s = 1e300\ngamma_per_s = auto", ["schedule"],
     "relaxation rate"),
    ("E_F_eV = 1e300", _SWEEP + ["4a"], "no representable frequency"),
    ("E_F_eV = 1e300", _SWEEP + ["4b"], "no representable frequency"),
    ("E_F_eV = 1e300", _SWEEP + ["4c"], "no representable frequency"),
], ids=["auto-rate-overflows", "verify-rate-overflows",
        "velocity-squared-overflows", "4a", "4b", "4c"])
def test_extreme_material_value_exits_2(tmp_path, capsys, lines, argv,
                                        message):
    code = main(["--config", _cfg(tmp_path, lines + "\n"), "--out",
                 str(tmp_path / "out"), *argv])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_missing_config_file_exits_2(tmp_path, capsys):
    code = main(["--config", str(tmp_path / "absent.cfg"),
                 "--out", str(tmp_path / "out"), "dispersion"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_oracle_failure_in_verify_exits_2(tmp_path, monkeypatch, capsys):
    # an oracle that cannot produce a reference is a named failure of
    # verify, reported like any other, never a traceback or a pass
    import graphene_spp.validation as validation
    from graphene_spp.oracles import OracleFailure

    def failing(config, seed=0):
        raise OracleFailure("panel budget exhausted")

    monkeypatch.setattr(validation, "run_oracle_suite", failing)
    out = tmp_path / "out"
    assert main(["--config", _cfg(tmp_path), "--out", str(out), "verify",
                 "--seed", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: oracle failure: panel budget exhausted")
    assert not (out / "validation.json").exists()


def test_internal_value_error_escapes_main(tmp_path, monkeypatch):
    # only the named user-input errors exit 2; a bare ValueError is a bug
    import graphene_spp.cli as cli

    def broken(*args, **kwargs):
        raise ValueError("internal")

    monkeypatch.setattr(cli, "run_device", broken)
    with pytest.raises(ValueError, match="internal"):
        main(["--config", _cfg(tmp_path), "--out", str(tmp_path / "out"),
              "device-run"])


def test_removed_step_divisor_is_an_unknown_key(tmp_path, capsys):
    code = main(["--config", _cfg(tmp_path, "step_divisor = 2\n"),
                 "--out", str(tmp_path / "out"), "dispersion"])
    assert code == 2
    assert "unknown key 'step_divisor'" in capsys.readouterr().err


@pytest.mark.parametrize("argv, expected", [
    (["schedule"], 0),
    (["device-run"], 1),
    (["robustness-sweep", "--figure", "3"], 1),
    # the default and the reference-scale device, two staircase checks
    (["verify"], 4),
])
def test_each_device_is_propagated_once(tmp_path, monkeypatch, argv,
                                        expected):
    # loss is an envelope on the lossless trajectory, never a second run
    import graphene_spp.experiments as experiments
    import graphene_spp.validation as validation

    calls = []
    for module in (experiments, validation):
        def counted(*args, _propagate=module.propagate, **kwargs):
            calls.append(1)
            return _propagate(*args, **kwargs)
        monkeypatch.setattr(module, "propagate", counted)
    assert main(["--config", _cfg(tmp_path), "--out", str(tmp_path / "out")]
                + argv) == 0
    assert len(calls) == expected


@pytest.mark.parametrize("argv", [
    ["schedule"],
    ["device-run", "--field-map"],
    ["robustness-sweep", "--figure", "3"],
])
def test_each_command_solves_and_builds_one_schedule(tmp_path, monkeypatch,
                                                     argv):
    # figure 3 writes the schedule of the device it propagates
    import graphene_spp.cli as cli
    import graphene_spp.experiments as experiments
    from graphene_spp.config import RunConfig

    calls = []
    for module in (cli, experiments):
        def counted(*args, _build=module.build_schedule, **kwargs):
            calls.append("schedule")
            return _build(*args, **kwargs)
        monkeypatch.setattr(module, "build_schedule", counted)
    solve = RunConfig.solve_mode

    def counted_solve(self, omega=None):
        calls.append("mode")
        return solve(self, omega)

    monkeypatch.setattr(RunConfig, "solve_mode", counted_solve)
    assert main(["--config", _cfg(tmp_path), "--out", str(tmp_path / "out")]
                + argv) == 0
    assert sorted(calls) == ["mode", "schedule"]


def test_formats_gate_emission(tmp_path):
    out = tmp_path / "out"
    cfg = _cfg(tmp_path, "formats = csv\n")
    assert main(["--config", cfg, "--out", str(out), "schedule"]) == 0
    assert (out / "schedule.csv").exists()
    assert not (out / "schedule.svg").exists()


def test_consecutive_sweeps_are_byte_identical(tmp_path):
    cfg = _cfg(tmp_path)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["--config", cfg, "--out", str(out), "robustness-sweep",
                     "--figure", "4a", "--grid", "5x4"]) == 0
    assert (out_a / "fig_4a.csv").read_bytes() \
        == (out_b / "fig_4a.csv").read_bytes()


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_package_version_matches_pyproject():
    # pyproject.toml declares the version dynamic, read from
    # graphene_spp.validation.VERSION; setuptools resolves it statically
    from setuptools.config.pyprojecttoml import read_configuration

    pyproject = pathlib.Path(__file__).parents[1] / "pyproject.toml"
    declared = read_configuration(pyproject)["project"]["version"]
    assert graphene_spp.__version__ == declared


_SCIPY_PROBE = """
import json, sys
def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
import graphene_spp.cli as cli
loaded = {"import": scipy_modules()}
out = sys.argv[1]
codes = [cli.main(["--out", out, "robustness-sweep", "--figure", "4b",
                   "--grid", "3x3"]),
         cli.main(["--out", out, "verify", "--seed", "0"])]
loaded["runs"] = scipy_modules()
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def test_cli_runs_without_importing_scipy(tmp_path):
    # scipy is a test dependency only; a lazy import inside a command would
    # add its start-up cost to the command's own run time
    src = pathlib.Path(graphene_spp.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", _SCIPY_PROBE,
                           str(tmp_path / "out")], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["codes"] == [0, 0]
    assert result["loaded"] == {"import": [], "runs": []}


_ORACLES_PROBE = """
import json, sys
import graphene_spp.cli as cli
loaded = {"import": "graphene_spp.oracles" in sys.modules}
code = cli.main(["--out", sys.argv[1], "robustness-sweep", "--figure", "4b",
                 "--grid", "3x3"])
loaded["fig4b"] = "graphene_spp.oracles" in sys.modules
print(json.dumps({"code": code, "loaded": loaded}))
"""


def test_only_verify_loads_the_oracles(tmp_path):
    # the oracles serve verify alone; every other command would pay for
    # importing (and, without bytecode caches, compiling) them
    src = pathlib.Path(graphene_spp.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", _ORACLES_PROBE,
                           str(tmp_path / "out")], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result == {"code": 0, "loaded": {"import": False, "fig4b": False}}
