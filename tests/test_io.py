"""CSV and JSON emitters: formatting, round trips, manifests."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from rmtlab.errors import FormatError
from rmtlab.io import (
    _CHUNK,
    RunManifest,
    column_rows,
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


def test_csv_round_trip_exact(tmp_path):
    path = tmp_path / "rt.csv"
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


def test_csv_rejects_ragged_rows(tmp_path):
    with pytest.raises(FormatError, match="width"):
        write_csv(tmp_path / "bad.csv", ["a", "b"], [(1.0,)])
    assert list(tmp_path.iterdir()) == []


def chunk_rows(count):
    """count rows of three floats, with (int sweep, float, str verdict)
    rows on both sides of every chunk boundary."""
    for i in range(count):
        if i % _CHUNK in (_CHUNK - 2, _CHUNK - 1, 0, 1):
            yield (i, i / 7.0, "ok" if i % 2 else "fail")
        else:
            yield (i / 3.0, -i * 1e-300, math.pi * i)


@pytest.mark.parametrize("count", [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1,
                                   3 * _CHUNK + 7])
def test_streamed_csv_equals_one_shot(tmp_path, count):
    # the chunked write must give the bytes of one "\n".join(lines) + "\n"
    path = tmp_path / "chunks.csv"
    write_csv(path, ["a", "b", "c"], chunk_rows(count), {"k": 1, "label": "x"})
    data = path.read_bytes()
    head = data.decode().split("\n")[:4]
    assert head[0] == "# k: 1" and head[1] == "# label: x"
    assert head[2].startswith("# timestamp: ") and head[3] == "a,b,c"
    lines = head + [",".join(fmt_number(v) for v in row) for row in chunk_rows(count)]
    assert data == ("\n".join(lines) + "\n").encode()
    assert [f.name for f in tmp_path.iterdir()] == ["chunks.csv"]


def ragged_after_first_chunk():
    yield from chunk_rows(_CHUNK + 5)
    yield (1.0, 2.0)


def test_ragged_row_after_first_chunk_leaves_path_as_it_was(tmp_path):
    path = tmp_path / "ragged.csv"
    with pytest.raises(FormatError, match="width 2 under 3"):
        write_csv(path, ["a", "b", "c"], ragged_after_first_chunk())
    assert list(tmp_path.iterdir()) == []
    write_csv(path, ["a", "b", "c"], chunk_rows(3))
    old = path.read_bytes()
    with pytest.raises(FormatError, match="width 2 under 3"):
        write_csv(path, ["a", "b", "c"], ragged_after_first_chunk())
    assert path.read_bytes() == old
    assert list(tmp_path.iterdir()) == [path]


def test_csv_write_memory_is_bounded(tmp_path):
    # the whole file (50 000 rows, 2.4 MB) held as lines, their join and
    # a copy would peak near 10 MB
    rows = ((i / 3.0, i / 7.0, i / 11.0) for i in range(50_000))
    tracemalloc.start()
    try:
        write_csv(tmp_path / "big.csv", ["a", "b", "c"], rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "big.csv").stat().st_size > 2_400_000
    assert peak < 1e6


def test_column_rows_are_python_floats():
    a = np.arange(2 * _CHUNK + 3, dtype=float)
    rows = list(column_rows(a, -a, a / 3.0))
    assert rows == list(zip(a.tolist(), (-a).tolist(), (a / 3.0).tolist()))
    assert {type(v) for row in rows for v in row} == {float}
    assert list(column_rows(np.empty(0), np.empty(0))) == []


def test_csv_read_requires_header(tmp_path):
    path = tmp_path / "nohdr.csv"
    with open(path, "w") as f:
        f.write("# only: meta\n")
    with pytest.raises(FormatError, match="header"):
        read_csv(path)


def test_json_complex_as_pairs(tmp_path):
    path = tmp_path / "io.json"
    write_json(path, {"z": 1.5 - 2.0j, "v": np.array([1.0, 2.0]),
                      "k": np.int32(3), "f": np.float64(0.25)})
    out = read_json(path)
    assert out["z"] == [1.5, -2.0]
    assert out["v"] == [1.0, 2.0]
    assert out["k"] == 3 and out["f"] == 0.25


def test_json_rejects_unknown_types(tmp_path):
    with pytest.raises(TypeError):
        write_json(tmp_path / "badj.json", {"s": {1, 2}})


def test_manifest_records_and_writes(tmp_path):
    man = RunManifest(command="kernel", config="cfg.json", overrides={"n": 5},
                      outdir=str(tmp_path), version="0.1.0")
    assert man.path("b.json") == str(tmp_path / "b.json")
    assert man.path("a.csv") == str(tmp_path / "a.csv")
    man.path("a.csv")   # no duplicates
    man.wall_time_s = 1.25
    path = tmp_path / "manifest.json"
    man.write(path)
    doc = json.load(open(path))
    assert doc["outputs"] == ["a.csv", "b.json"]
    assert doc["command"] == "kernel"
    assert doc["overrides"] == {"n": 5}
    assert doc["wall_time_s"] == 1.25
