"""File emitters shared by the command-line front end.

CSV files carry '#'-prefixed metadata lines before the header row, with
numbers printed at 17 significant digits so values round-trip exactly.
Output is byte-identical across runs except for the timestamp line.
JSON is standard JSON: complex numbers are [re, im] pairs, numpy types
plain Python scalars and lists, infinities the strings "inf" and "-inf"
(the spelling potential configs use) and NaN null.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError

_FMT = "%.17g"
_FLOAT_TYPES = frozenset((float, np.float64))


def fmt_number(x) -> str:
    if isinstance(x, float):   # np.float64 included: it subclasses float
        return _FMT % x
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x)).lower()
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return _FMT % float(x)


def write_csv(path, columns, rows, meta=None) -> None:
    """Rows of numbers under a header line, '#' metadata on top."""
    lines = []
    for key, val in (meta or {}).items():
        lines.append(f"# {key}: {val}")
    lines.append(f"# timestamp: {time.strftime('%Y-%m-%dT%H:%M:%S')}")
    lines.append(",".join(columns))
    # one % per row of floats; it formats each entry as fmt_number does.
    # The exact-type test runs in C; a row with any other type in it,
    # other float subclasses too, takes the per-value path (same bytes)
    floats = ",".join([_FMT] * len(columns))
    for row in rows:
        if len(row) != len(columns):
            raise FormatError(
                f"row of width {len(row)} under {len(columns)} columns")
        if _FLOAT_TYPES.issuperset(map(type, row)):
            lines.append(floats % tuple(row))
        else:
            lines.append(",".join(fmt_number(v) for v in row))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def read_csv(path):
    """Inverse of write_csv: (columns, float array, metadata dict)."""
    meta, columns, data = {}, None, []
    with open(path) as f:
        for raw in f:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if ":" in body:
                    key, val = body.split(":", 1)
                    meta[key.strip()] = val.strip()
                continue
            if columns is None:
                columns = line.split(",")
                continue
            data.append([float(v) for v in line.split(",")])
    if columns is None:
        raise FormatError(f"{path} has no header row")
    width = len(columns)
    if any(len(r) != width for r in data):
        raise FormatError(f"{path} has ragged rows")
    arr = np.array(data, dtype=float) if data else np.empty((0, width))
    return columns, arr, meta


def _plain(obj):
    """obj as plain JSON values: complex as [re, im], numpy as Python
    values, +-inf as "inf"/"-inf" and NaN as null."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x):
            return None
        return x if math.isfinite(x) else ("inf" if x > 0 else "-inf")
    if isinstance(obj, (complex, np.complexfloating)):
        return [_plain(obj.real), _plain(obj.imag)]
    if obj is None or isinstance(obj, str):
        return obj
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def write_json(path, obj) -> None:
    with open(path, "w") as f:
        json.dump(_plain(obj), f, indent=2, sort_keys=True, allow_nan=False)
        f.write("\n")


def read_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


@dataclass
class RunManifest:
    """One manifest per command run; every output file appears in it."""

    command: str
    config: str | None
    overrides: dict
    outdir: str
    version: str
    wall_time_s: float = 0.0
    outputs: list = field(default_factory=list)

    def path(self, name: str) -> str:
        """The path of output `name` in outdir, listed among the outputs."""
        if name not in self.outputs:
            self.outputs.append(name)
        return os.path.join(self.outdir, name)

    def write(self, path) -> None:
        write_json(path, {
            "command": self.command,
            "config": self.config,
            "overrides": self.overrides,
            "outdir": self.outdir,
            "version": self.version,
            "wall_time_s": self.wall_time_s,
            "outputs": sorted(self.outputs),
        })
