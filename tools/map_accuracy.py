"""Print the error of the three-sheet maps against per-device references as
JSON.

For figures 4b and 4c at --grid, both lossless, the map's largest
|I - I_ref| over its geometry-valid cells, and the largest in each row of
the grid (one value of the second axis: a length for 4b, an offset for
4c). I_ref runs every valid cell alone, as a one-member group, at
REFERENCE_KNOTS knots, far finer than the 129 the reference device's maps
take. A row without a valid cell reads null; a cell that is not finite
makes its row and the map read NaN.

    python3 tools/map_accuracy.py --grid 50x50
    python3 tools/map_accuracy.py --grid 50x50 --src ../other-checkout/src

--src selects the package source tree (default: this checkout's `src`);
the references come from the same tree's per-device path, which is
bit-identical across revisions that keep one-member groups unchanged.
Both maps are of the default device (RunConfig()).
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
REFERENCE_KNOTS = 2049
FIGURES = ("4b", "4c")


def _reference(config, spec, valid):
    """I_ref of the valid cells, in _CHUNK slices of one-member groups."""
    import numpy as np
    from graphene_spp.experiments import (_CHUNK, _cell_parameters,
                                          _three_sheet_finals)

    cells, modes, mode_index, _ = _cell_parameters(spec)
    index = np.flatnonzero(valid)
    return np.concatenate([
        _three_sheet_finals({key: values[part] for key, values in
                             cells.items()}, modes, mode_index[part],
                            config, REFERENCE_KNOTS)
        for part in (index[start:start + _CHUNK]
                     for start in range(0, index.size, _CHUNK))])


def map_accuracy(config, figure: str, grid: tuple[int, int]) -> dict:
    """The map's knots, its largest error and each row's largest error."""
    import numpy as np
    from graphene_spp.experiments import (_cell_parameters, figure_map_spec,
                                          run_sweep)

    spec = figure_map_spec(figure, config, grid, lossy=False)
    result = run_sweep(spec)
    cells, _, _, _ = _cell_parameters(spec)
    valid = cells["length"] / 2.0 + cells["offset"] / 2.0 <= cells["radius"]
    error = np.full(valid.size, -math.inf)
    error[valid] = np.abs(result.grid.ravel()[valid]
                          - _reference(config, spec, valid))
    rows = np.max(error.reshape(result.grid.shape), axis=1)

    def number(value):
        return None if value == -math.inf else float(value)

    return {"knots": result.metadata["knots"],
            "reference_knots": REFERENCE_KNOTS,
            "max_abs_err": number(np.max(error)),
            "axis2": spec.axis2.name,
            "rows": [{"value": float(value), "max_abs_err": number(row)}
                     for value, row in zip(spec.axis2.values, rows)]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--grid", default="50x50", metavar="NxM",
                        help="map grid for figures 4b and 4c")
    parser.add_argument("--src", default=str(ROOT / "src"), metavar="DIR",
                        help="package source tree to run")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(pathlib.Path(args.src).resolve()))
    from graphene_spp.cli import _parse_grid
    from graphene_spp.config import RunConfig

    config = RunConfig()
    grid = _parse_grid(args.grid)
    result = {figure: map_accuracy(config, figure, grid)
              for figure in FIGURES}
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
