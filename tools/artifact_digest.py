"""Print the SHA-256 of every artifact of the standard command set as JSON.

The commands are `dispersion`, `schedule`, `device-run --field-map`, the
figures 1b, 3, 4a, 4b and 4c (the maps at `--grid`), `verify --seed 0`,
the 4b map and `verify --seed 0` again under a lossless config
(`gamma_per_s = 0`: the wavevector inversion solves a quadratic there, not
a cubic, and the report holds infinite propagation lengths), `dispersion`
and the 4b map under a config whose relaxation rate is derived from the
mobility (`gamma_per_s = auto`), and the 4b map of an 8 um device
(`L_um = 8`, `R_nm = 5000`), whose first knot error estimate misses, so
that its probes double alone (to 513 knots at 50x50). Each runs in
process into its own subdirectory of a temporary directory, which is
removed afterwards; the output is one JSON object mapping
"<command>/<file>" to the hex digest.
Byte-identity between two revisions is then one diff:

    python3 tools/artifact_digest.py > new.json
    python3 tools/artifact_digest.py --src ../other-checkout/src > old.json
    diff old.json new.json

--src selects the package source tree (default: this checkout's `src`).
Given twice, the tool compares the two trees instead:

    python3 tools/artifact_digest.py --src ../other-checkout/src --src src

runs the commands once per tree, each in its own interpreter, and prints
one JSON object with an entry for every artifact whose bytes differ. An
artifact whose text differs only in its numbers gets its largest absolute
and relative moves and the count of numbers that moved; one whose other
text differs too (an SVG colour) gets the count of lines that differ.
Artifacts that only one tree writes are listed under "only_in_first" and
"only_in_second".
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import pathlib
import re
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
# A number that stands alone: not part of a word, a hex colour, a hash or a
# dotted version string.
NUMBER = re.compile(r"(?<![\w#.])(?:[-+]?(?:\d+(?:\.\d*)?|\.\d+)"
                    r"(?:[eE][-+]?\d+)?|-?(?:nan|inf))(?![\w.])")


def commands(grid: str, lossless_config: str, auto_config: str,
             long_config: str) -> dict[str, list[str]]:
    """Subdirectory name -> CLI arguments after --out; lossless_config,
    auto_config and long_config are the paths of config files setting
    gamma_per_s = 0, gamma_per_s = auto, and L_um = 8 with R_nm = 5000."""
    table = {"dispersion": ["dispersion"], "schedule": ["schedule"],
             "device-run": ["device-run", "--field-map"]}
    for figure in ("1b", "3", "4a", "4b", "4c"):
        table[f"fig{figure}"] = ["robustness-sweep", "--figure", figure,
                                 "--grid", grid]
    table["fig4b-lossless"] = ["--config", lossless_config,
                               "robustness-sweep", "--figure", "4b",
                               "--grid", grid]
    table["verify"] = ["verify", "--seed", "0"]
    table["verify-lossless"] = ["--config", lossless_config, "verify",
                                "--seed", "0"]
    table["dispersion-auto"] = ["--config", auto_config, "dispersion"]
    table["fig4b-auto"] = ["--config", auto_config, "robustness-sweep",
                           "--figure", "4b", "--grid", grid]
    table["fig4b-long"] = ["--config", long_config, "robustness-sweep",
                           "--figure", "4b", "--grid", grid]
    return table


def run_commands(grid: str, root: pathlib.Path) -> dict[str, pathlib.Path]:
    """Run every command into its subdirectory of root; returns
    "<command>/<file>" -> path of each artifact. root is created if it
    does not exist."""
    from graphene_spp import cli

    root.mkdir(parents=True, exist_ok=True)
    lossless, auto = root / "lossless.cfg", root / "auto.cfg"
    long_device = root / "long.cfg"
    lossless.write_text("gamma_per_s = 0\n")
    auto.write_text("gamma_per_s = auto\n")
    long_device.write_text("L_um = 8\nR_nm = 5000\n")
    found = {}
    for name, argv in commands(grid, str(lossless), str(auto),
                               str(long_device)).items():
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


def numeric_move(old: str, new: str) -> dict:
    """How far the text new moved from old, when only their numbers differ:
    the largest absolute move, the largest move relative to the larger
    magnitude of its pair, and the count of numbers that moved (NaN to NaN
    and equal infinities count as no move). Else {"lines_differ"}."""
    if NUMBER.sub("#", old) != NUMBER.sub("#", new):
        old_lines, new_lines = old.splitlines(), new.splitlines()
        differ = sum(a != b for a, b in zip(old_lines, new_lines))
        return {"lines_differ": differ + abs(len(old_lines) - len(new_lines))}
    largest, relative, moved = 0.0, 0.0, 0
    for a, b in zip(NUMBER.findall(old), NUMBER.findall(new)):
        a, b = float(a), float(b)
        if a == b or (math.isnan(a) and math.isnan(b)):
            continue
        moved += 1
        if not math.isfinite(a - b):
            largest = relative = math.inf
            continue
        largest = max(largest, abs(a - b))
        relative = max(relative, abs(a - b) / max(abs(a), abs(b)))
    return {"largest_move": largest, "largest_relative_move": relative,
            "values_moved": moved}


def compare(first_src: str, second_src: str, grid: str) -> dict:
    """Run the commands under both trees; the moves of every artifact whose
    bytes differ, keyed "<command>/<file>"."""
    with tempfile.TemporaryDirectory() as tmp:
        artifacts = []
        for i, src in enumerate((first_src, second_src)):
            root = pathlib.Path(tmp) / str(i)
            subprocess.run([sys.executable, __file__, "--src", src, "--grid",
                            grid, "--keep", str(root)], check=True,
                           stdout=subprocess.DEVNULL)
            artifacts.append({path.relative_to(root).as_posix(): path
                              for path in root.glob("*/*")})
        first, second = artifacts
        moves = {name: numeric_move(first[name].read_text(),
                                    second[name].read_text())
                 for name in sorted(first.keys() & second.keys())
                 if first[name].read_bytes() != second[name].read_bytes()}
        for key, names in (("only_in_first", first.keys() - second.keys()),
                           ("only_in_second", second.keys() - first.keys())):
            if names:
                moves[key] = sorted(names)
        return moves


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--grid", default="50x50", metavar="NxM",
                        help="map grid for figures 4a, 4b and 4c")
    parser.add_argument("--src", action="append", metavar="DIR",
                        help="package source tree to run; twice to compare "
                        "two trees")
    parser.add_argument("--keep", metavar="DIR",
                        help="write the artifacts under DIR (created if "
                        "missing) and keep them")
    args = parser.parse_args(argv)
    trees = args.src or [str(ROOT / "src")]
    if len(trees) > 2:
        parser.error("--src takes one tree, or two to compare")
    if len(trees) == 2:
        print(json.dumps(compare(*trees, args.grid), indent=1))
        return 0
    sys.path.insert(0, str(pathlib.Path(trees[0]).resolve()))
    if args.keep:
        found = run_commands(args.grid, pathlib.Path(args.keep))
        result = {name: hashlib.sha256(path.read_bytes()).hexdigest()
                  for name, path in found.items()}
    else:
        result = digests(args.grid)
    print(json.dumps(result, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
