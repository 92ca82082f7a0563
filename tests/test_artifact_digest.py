"""tools/artifact_digest.py: the byte-identity check between revisions."""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _digests():
    done = subprocess.run([sys.executable, str(ROOT / "tools" /
                                               "artifact_digest.py"),
                           "--grid", "4x3"], capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_two_runs_print_the_same_digests():
    first = _digests()
    assert first == _digests()
    for name in ("dispersion/dispersion.csv", "schedule/schedule.csv",
                 "device-run/field_map.csv",
                 "fig1b/coupling_sweep.csv", "fig3/schedule.csv",
                 "fig3/device_run_lossy.csv", "fig4a/fig_4a.csv",
                 "fig4b/fig_4b.json", "fig4c/fig_4c.svg",
                 "verify/validation.json", "verify/validation.txt"):
        assert len(first[name]) == 64
    # figure 3 writes the same schedule and device run as the commands
    assert first["fig3/schedule.csv"] == first["schedule/schedule.csv"]
    assert (first["fig3/field_map.csv"]
            == first["device-run/field_map.csv"])
