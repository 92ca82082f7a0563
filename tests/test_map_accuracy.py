"""tools/map_accuracy.py: the maps' errors against per-device references."""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "map_accuracy.py"


def test_map_accuracy_reports_every_row():
    done = subprocess.run([sys.executable, str(TOOL), "--grid", "3x2"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert set(result) == {"4b", "4c"}
    for figure, axis2 in (("4b", "length_um"), ("4c", "offset_nm")):
        report = result[figure]
        assert report["axis2"] == axis2
        assert report["knots"] == 129 and report["reference_knots"] == 2049
        rows = [row["max_abs_err"] for row in report["rows"]]
        assert len(rows) == 2
        # every row of the reference device's maps has a valid cell
        assert 0.0 < report["max_abs_err"] == max(rows) < 1e-8
