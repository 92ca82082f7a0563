"""Deterministic CSV and JSON emission.

Numbers are written with 17 significant digits so parsing them back recovers
the exact float64; every artifact embeds the config hash it was produced from.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np


def format_number(value) -> str:
    """17-significant-digit decimal rendering; round-trips float64 exactly.

    `nan`, `inf`, `-inf` and `-0` come out of the format itself."""
    return format(float(value), ".17g")


def emit_csv(path, header, table, config_hash: str | None = None) -> None:
    """Write a 2-D float table: optional hash comment, header row, data rows.

    Raises ValueError for a table that is not 2-D or not real-numeric."""
    table = np.asarray(table)
    if table.ndim != 2 or table.dtype.kind not in "iuf":
        raise ValueError(f"emit_csv needs a 2-D real table, got shape "
                         f"{table.shape} of dtype {table.dtype}")
    lines = []
    if config_hash is not None:
        lines.append(f"# config_hash={config_hash}")
    lines.append(",".join(str(name) for name in header))
    # one printf template per table: "%.17g" writes what format_number
    # writes (nan, +-inf, -0 and subnormals included), without a format
    # call per cell
    template = ",".join(["%.17g"] * table.shape[1])
    lines.extend(template % tuple(row) for row in table.tolist())
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def read_csv(path):
    """Parse a CSV written by emit_csv: returns (header, rows of floats).

    Raises ValueError naming the line of a data cell that is not a number."""
    header = None
    rows = []
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            cells = line.split(",")
            if header is None:
                header = cells
                continue
            try:
                rows.append([float(cell) for cell in cells])
            except ValueError as exc:
                raise ValueError(f"{path}: line {number}: {exc}") from None
    return header, rows


def emit_json(path, payload: dict, config_hash: str, version: str) -> None:
    """Write metadata JSON with the config hash and tool version embedded.

    The file is strict JSON: a non-finite float is written as the string
    the CSV writes for it ("inf", "-inf" or "nan")."""
    document = {"config_hash": config_hash, "version": version}
    document.update(payload)
    # one string, one write: json.dump writes each of its chunks apart
    text = json.dumps(_json_ready(document), indent=2, sort_keys=True,
                      allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text + "\n")


def _json_ready(value):
    """value with numpy scalars and arrays as Python numbers and lists,
    complex numbers as {"re", "im"} and non-finite floats as strings."""
    if isinstance(value, dict):
        return {key: _json_ready(item) for key, item in value.items()}
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return [_json_ready(item) for item in value]
    if isinstance(value, complex):
        return {"re": _json_ready(value.real), "im": _json_ready(value.imag)}
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return value if math.isfinite(value) else format_number(value)
    if isinstance(value, np.integer):
        return int(value)
    return value


def ensure_directory(path) -> str:
    os.makedirs(path, exist_ok=True)
    return path
