"""Print the SHA-256 of every artifact of the standard command set as JSON.

The commands are `dispersion`, `schedule`, `device-run --field-map`, the
figures 1b, 3, 4a, 4b and 4c (the maps at `--grid`), `verify --seed 0`, and
`verify --seed 0` again under a lossless config (`gamma_per_s = 0`, whose
report holds infinite propagation lengths). Each runs in process into its
own subdirectory of a temporary directory, which is removed afterwards; the
output is one JSON object mapping "<command>/<file>" to the hex digest.
Byte-identity between two revisions is then one diff:

    python3 tools/artifact_digest.py > new.json
    python3 tools/artifact_digest.py --src ../other-checkout/src > old.json
    diff old.json new.json

--src selects the package source tree (default: this checkout's `src`).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]


def commands(grid: str, lossless_config: str) -> dict[str, list[str]]:
    """Subdirectory name -> CLI arguments after --out; lossless_config is
    the path of a config file setting gamma_per_s = 0."""
    table = {"dispersion": ["dispersion"], "schedule": ["schedule"],
             "device-run": ["device-run", "--field-map"]}
    for figure in ("1b", "3", "4a", "4b", "4c"):
        table[f"fig{figure}"] = ["robustness-sweep", "--figure", figure,
                                 "--grid", grid]
    table["verify"] = ["verify", "--seed", "0"]
    table["verify-lossless"] = ["--config", lossless_config, "verify",
                                "--seed", "0"]
    return table


def run_commands(grid: str, root: pathlib.Path) -> dict[str, pathlib.Path]:
    """Run every command into its subdirectory of root; returns
    "<command>/<file>" -> path of each artifact."""
    from graphene_spp import cli

    config = root / "lossless.cfg"
    config.write_text("gamma_per_s = 0\n")
    found = {}
    for name, argv in commands(grid, str(config)).items():
        out = root / name
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["--out", str(out), *argv])
        if code != 0:
            raise SystemExit(f"{name}: exit code {code}")
        for path in sorted(out.iterdir()):
            found[f"{name}/{path.name}"] = path
    return found


def digests(grid: str) -> dict[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        return {name: hashlib.sha256(path.read_bytes()).hexdigest()
                for name, path in run_commands(grid,
                                               pathlib.Path(tmp)).items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--grid", default="50x50", metavar="NxM",
                        help="map grid for figures 4a, 4b and 4c")
    parser.add_argument("--src", default=str(ROOT / "src"), metavar="DIR",
                        help="package source tree to run")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(pathlib.Path(args.src).resolve()))
    print(json.dumps(digests(args.grid), indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
