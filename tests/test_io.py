"""CSV and JSON emitters: formatting, round trips, manifests."""

import json
import math

import numpy as np
import pytest

from rmtlab.errors import FormatError
from rmtlab.io import (
    RunManifest,
    fmt_number,
    read_csv,
    read_json,
    write_csv,
    write_json,
)


def test_fmt_number_types():
    assert fmt_number(3) == "3"
    assert fmt_number(np.int64(7)) == "7"
    assert fmt_number(True) == "true"
    assert fmt_number("ok") == "ok"
    assert fmt_number(0.1) == "0.10000000000000001"


def test_fmt_number_strings_per_type():
    # the float fast path must print what the type dispatch printed
    cases = [
        (0.1, "0.10000000000000001"),
        (np.float64(0.1), "0.10000000000000001"),
        (np.float32(0.1), "0.10000000149011612"),
        (2.0, "2"),
        (-1.2345678901234567e150, "-1.2345678901234567e+150"),
        (7, "7"),
        (np.int64(-7), "-7"),
        (True, "true"),
        (False, "false"),
        (np.bool_(True), "true"),
        (np.bool_(False), "false"),
        ("ok", "ok"),
        (math.nan, "nan"),
        (np.float64(math.nan), "nan"),
        (math.inf, "inf"),
        (-math.inf, "-inf"),
        (np.float64(-math.inf), "-inf"),
        (-0.0, "-0"),
        (np.float64(-0.0), "-0"),
    ]
    for x, want in cases:
        assert fmt_number(x) == want, (x, type(x))


def test_csv_round_trip_exact():
    path = "/tmp/rmtlab_io_rt.csv"
    xs = [math.pi, 1.0 / 3.0, 2.0 ** -40, -1.2345678901234567e150]
    write_csv(path, ["x", "y"], [(x, x * x) for x in xs], {"label": "round trip"})
    cols, arr, meta = read_csv(path)
    assert cols == ["x", "y"]
    assert meta["label"] == "round trip"
    assert "timestamp" in meta
    for i, x in enumerate(xs):
        row = arr[i]
        assert row[0] == x
        assert row[1] == x * x


def test_csv_rows_print_as_fmt_number(tmp_path):
    # rows of floats take one % template; every row must still print
    # what the per-value fmt_number join prints
    rows = [
        (0.1, np.float64(-0.0), 0.0),
        [math.inf, -math.inf, math.nan],
        (np.float64(math.nan), 2.0, -1.2345678901234567e150),
        np.array([1.0 / 3.0, -2.0 ** -1074, 1e308]),
        (1.5, 7, np.int64(-7)),
        (True, np.bool_(False), 0.25),
        (False, 0.5, 1.0),
        (10 ** 20, np.int64(2 ** 62), 2.0),
        ("ok", -0.0, np.float32(0.1)),
        (np.float32(2.5), np.float64(3.0), np.uint8(4)),
        # one type per row: float, np.float64, int, np.int64, bool,
        # np.bool_, str
        (0.1, -0.0, 1e300),
        (np.float64(0.1), np.float64(-0.0), np.float64(1e300)),
        (3, -4, 10 ** 20),
        (np.int64(3), np.int64(-4), np.int64(2 ** 62)),
        (True, False, True),
        (np.bool_(True), np.bool_(False), np.bool_(True)),
        ("a", "b", "c"),
    ]
    path = tmp_path / "mixed.csv"
    write_csv(path, ["a", "b", "c"], rows)
    body = path.read_text().splitlines()[2:]
    assert body == [",".join(fmt_number(v) for v in row) for row in rows]
    assert body[0] == "0.10000000000000001,-0,0"
    assert body[1] == "inf,-inf,nan"
    assert body[4] == "1.5,7,-7"
    assert body[-7:] == [
        "0.10000000000000001,-0,1.0000000000000001e+300",
        "0.10000000000000001,-0,1.0000000000000001e+300",
        "3,-4,100000000000000000000",
        "3,-4,4611686018427387904",
        "true,false,true",
        "true,false,true",
        "a,b,c",
    ]


def test_csv_rejects_ragged_rows():
    with pytest.raises(FormatError, match="width"):
        write_csv("/tmp/rmtlab_io_bad.csv", ["a", "b"], [(1.0,)])


def test_csv_read_requires_header():
    path = "/tmp/rmtlab_io_nohdr.csv"
    with open(path, "w") as f:
        f.write("# only: meta\n")
    with pytest.raises(FormatError, match="header"):
        read_csv(path)


def test_json_complex_as_pairs():
    path = "/tmp/rmtlab_io.json"
    write_json(path, {"z": 1.5 - 2.0j, "v": np.array([1.0, 2.0]),
                      "k": np.int32(3), "f": np.float64(0.25)})
    out = read_json(path)
    assert out["z"] == [1.5, -2.0]
    assert out["v"] == [1.0, 2.0]
    assert out["k"] == 3 and out["f"] == 0.25


def test_json_rejects_unknown_types():
    with pytest.raises(TypeError):
        write_json("/tmp/rmtlab_io_badj.json", {"s": {1, 2}})


def test_manifest_records_and_writes():
    man = RunManifest(command="kernel", config="cfg.json", overrides={"n": 5},
                      outdir="/tmp", version="0.1.0")
    man.record("/tmp/a.csv")
    man.record("/tmp/a.csv")   # no duplicates
    man.record("/tmp/b.json")
    man.wall_time_s = 1.25
    path = "/tmp/rmtlab_manifest.json"
    man.write(path)
    doc = json.load(open(path))
    assert doc["outputs"] == ["a.csv", "b.json"]
    assert doc["command"] == "kernel"
    assert doc["overrides"] == {"n": 5}
    assert doc["wall_time_s"] == 1.25
