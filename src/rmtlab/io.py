"""File emitters shared by the command-line front end.

CSV files carry '#'-prefixed metadata lines before the header row, with
numbers printed at 17 significant digits so values round-trip exactly.
Output is byte-identical across runs except for the timestamp line.
Rows are written in fixed chunks through a temporary file that replaces
the artifact only when complete, so memory does not grow with the row
count and a failed write leaves no partial file.
JSON is standard JSON: complex numbers are [re, im] pairs, numpy types
plain Python scalars and lists, infinities the strings "inf" and "-inf"
(the spelling potential configs use) and NaN null.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError

_FMT = "%.17g"
_FLOAT_TYPES = frozenset((float, np.float64))
_CHUNK = 1024   # rows formatted and written per write call


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
    """Rows of numbers under a header line, '#' metadata on top.

    Rows are formatted and written _CHUNK at a time into a temporary
    file beside path, which replaces path once every row is written:
    memory stays at one chunk whatever the row count, and a bad row
    leaves path as it was.
    """
    head = [f"# {key}: {val}" for key, val in (meta or {}).items()]
    head.append(f"# timestamp: {time.strftime('%Y-%m-%dT%H:%M:%S')}")
    head.append(",".join(columns))
    # one % per row of floats; it formats each entry as fmt_number does.
    # The exact-type test runs in C; a row with any other type in it,
    # other float subclasses too, takes the per-value path (same bytes)
    width = len(columns)
    floats = ",".join([_FMT] * width)

    def line(row):
        if len(row) != width:
            raise FormatError(f"row of width {len(row)} under {width} columns")
        if _FLOAT_TYPES.issuperset(map(type, row)):
            return floats % tuple(row)
        return ",".join(fmt_number(v) for v in row)

    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as f:
            f.write("\n".join(head) + "\n")
            it = iter(rows)
            while chunk := [line(row) for row in itertools.islice(it, _CHUNK)]:
                f.write("\n".join(chunk) + "\n")
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def column_rows(*columns):
    """Rows of Python floats from equal-length 1-d arrays, converted
    _CHUNK rows at a time, for write_csv's one-template path."""
    for lo in range(0, len(columns[0]), _CHUNK):
        yield from zip(*(c[lo:lo + _CHUNK].tolist() for c in columns))


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
