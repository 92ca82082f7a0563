"""Print the SHA-256 of every artifact of the standard command set as JSON.

The commands are `dispersion`, `schedule`, `device-run --field-map`, the
figures 1b, 3, 4a, 4b and 4c (the maps at `--grid`) and `verify --seed 0`.
Each runs in process into its own subdirectory of a temporary directory,
which is removed afterwards; the output is one JSON object mapping
"<command>/<file>" to the hex digest. Byte-identity between two revisions
is then one diff:

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


def commands(grid: str) -> dict[str, list[str]]:
    """Subdirectory name -> CLI arguments after --out."""
    table = {"dispersion": ["dispersion"], "schedule": ["schedule"],
             "device-run": ["device-run", "--field-map"]}
    for figure in ("1b", "3", "4a", "4b", "4c"):
        table[f"fig{figure}"] = ["robustness-sweep", "--figure", figure,
                                 "--grid", grid]
    table["verify"] = ["verify", "--seed", "0"]
    return table


def digests(grid: str) -> dict[str, str]:
    from graphene_spp import cli

    found = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in commands(grid).items():
            out = pathlib.Path(tmp) / name
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["--out", str(out), *argv])
            if code != 0:
                raise SystemExit(f"{name}: exit code {code}")
            for path in sorted(out.iterdir()):
                found[f"{name}/{path.name}"] = hashlib.sha256(
                    path.read_bytes()).hexdigest()
    return found


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
