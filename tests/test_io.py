"""Output sinks: binary snapshots, CSV series, JSON summaries."""

import csv
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gmsim.io import (
    SNAPSHOT_MAGIC,
    experiment_paths,
    read_positions_bin,
    write_positions_bin,
    write_series_csv,
    write_snapshot_jsonl,
    write_summary,
)
from gmsim.io import _render


def test_positions_bin_round_trip(tmp_path, rng):
    path = tmp_path / "state.bin"
    x = rng.normal(size=(6, 3))
    write_positions_bin(path, x, time=1.25)
    back, t = read_positions_bin(path)
    np.testing.assert_array_equal(back, x)
    assert t == 1.25


def test_positions_bin_header_layout(tmp_path):
    path = tmp_path / "state.bin"
    write_positions_bin(path, np.zeros((2, 1)), time=0.0)
    raw = path.read_bytes()
    assert raw[:4] == SNAPSHOT_MAGIC
    assert len(raw) == 32 + 2 * 1 * 8


def test_positions_bin_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + bytes(40))
    with pytest.raises(ValueError, match="magic"):
        read_positions_bin(path)


def test_snapshot_jsonl(tmp_path, rng):
    path = tmp_path / "snaps.jsonl"
    pos = rng.normal(size=(2, 3, 4, 1))  # (n_obs, runs, N, d)
    write_snapshot_jsonl(path, [0.0, 0.5], pos, include_positions=True)
    recs = [json.loads(line) for line in path.read_text().splitlines()]
    assert [(rec["time"], rec["run"]) for rec in recs] == [
        (t, r) for t in (0.0, 0.5) for r in range(3)
    ]
    last = recs[-1]
    assert last["observables"] == {"mean_sq": float(np.mean(np.sum(pos[1, 2] ** 2, axis=-1)))}
    np.testing.assert_array_equal(last["positions"], pos[1, 2])
    write_snapshot_jsonl(path, [0.0], pos[:1])
    assert "positions" not in json.loads(path.read_text().splitlines()[0])


SPECIALS = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-05, 0.0001, 123.0, 1e16,
            9007199254740993.0, 1.7976931348623157e308 / 2]


def json_lines(times, positions, include_positions):
    """The oracle: json.dumps of each record, with mean_sq reduced per time
    as the plain numpy expression and null for a non-finite one."""
    for ti, t in enumerate(times):
        with np.errstate(over="ignore"):
            mean_sq = np.mean(np.sum(positions[ti] ** 2, axis=-1), axis=-1).tolist()
        for r, m in enumerate(mean_sq):
            rec = {"time": float(t), "run": r,
                   "observables": {"mean_sq": m if math.isfinite(m) else None}}
            if include_positions:
                rec["positions"] = positions[ti, r].tolist()
            yield json.dumps(rec) + "\n"


@pytest.mark.parametrize("include_positions", [False, True])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_snapshot_jsonl_is_json_dumps_of_each_record(tmp_path, rng, d, include_positions):
    # 60 times of 16 runs of 20 particles span several write chunks
    times = np.concatenate([[0.0, 1e-05, 0.1, 1e16], 0.2 + 0.005 * np.arange(56)])
    pos = rng.normal(size=(60, 16, 20, d)) * np.exp(4 * rng.normal(size=(60, 16, 20, d)))
    specials = np.array(SPECIALS + [-v for v in SPECIALS])
    pos.reshape(-1)[rng.choice(pos.size, size=len(specials), replace=False)] = specials
    pos[1, 3] = 0.0
    path = tmp_path / "snaps.jsonl"
    write_snapshot_jsonl(path, times, pos, include_positions)
    lines = path.read_text().splitlines(keepends=True)
    assert lines == list(json_lines(times, pos, include_positions))


def test_snapshot_jsonl_is_strict_json_when_squares_overflow(tmp_path):
    pos = np.ones((2, 2, 3, 2))
    pos[1, 0, 2, 1] = 1e300  # finite, but its square is not
    path = tmp_path / "snaps.jsonl"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        write_snapshot_jsonl(path, [0.0, 0.5], pos, include_positions=True)

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    recs = [json.loads(line, parse_constant=refuse) for line in path.read_text().splitlines()]
    assert [rec["observables"]["mean_sq"] for rec in recs] == [2.0, 2.0, None, 2.0]
    assert recs[2]["positions"][2] == [1.0, 1e300]


def rendered(x) -> list:
    """_render's text for each value of x."""
    rows = _render(x)
    text = np.concatenate([rows, np.full((len(rows), 1), ord("\n"), np.uint8)], axis=1)
    return text.tobytes().translate(None, b"\0").decode().splitlines()


def assert_renders_as_repr(x):
    x = np.asarray(x, dtype=float)
    got, want = rendered(x), [repr(v) if math.isfinite(v) else "null" for v in x.tolist()]
    bad = [(v, g, w) for v, g, w in zip(x.tolist(), got, want) if g != w]
    assert len(got) == len(want) and not bad, bad[:5]


def test_render_matches_repr_on_random_bit_patterns():
    bits = np.random.default_rng(11).integers(0, 2 ** 64, size=10 ** 6, dtype=np.uint64)
    x = bits.view(np.float64)
    assert_renders_as_repr(x[np.isfinite(x)])


def test_render_matches_repr_on_its_exhaustive_families():
    powers_of_two = np.ldexp(1.0, np.arange(-1074, 1024))  # the irregular spacing
    powers_of_ten = [float(f"1e{k}") for k in range(-323, 309)]
    edges = np.array([1e-05, 0.0001, 1e15, 1e16])  # where repr's layout switches
    subnormals = np.random.default_rng(5).integers(1, 2 ** 52, size=10 ** 4,
                                                   dtype=np.uint64).view(np.float64)
    for x in (powers_of_two, powers_of_ten, subnormals, SPECIALS):
        assert_renders_as_repr(x)
        assert_renders_as_repr(np.negative(x))
    assert_renders_as_repr(np.concatenate([np.nextafter(edges, 0), edges, np.nextafter(edges, 1e300)]))
    assert rendered([np.inf, -np.inf, np.nan]) == ["null"] * 3


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=64))
@settings(max_examples=200, deadline=None)
def test_render_matches_repr(values):
    assert_renders_as_repr(values)


def test_snapshot_writer_memory_is_bounded(tmp_path):
    pos = np.random.default_rng(3).normal(size=(401, 64, 16, 3))
    _render([1.0])  # build the lazy tables outside the measurement
    tracemalloc.start()
    try:
        write_snapshot_jsonl(tmp_path / "snaps.jsonl", 0.005 * np.arange(401), pos, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # chunks of 2^13 floats; the 9.8 MB of positions and the 28 MB file are not held
    assert peak < 4 * 2 ** 20


def test_series_csv(tmp_path):
    path = tmp_path / "series.csv"
    write_series_csv(path, ("time", "value"), [(0.0, 1.0), (1.0, 2.0)])
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["time", "value"]
    assert rows[1] == ["0.0", "1.0"]


def test_experiment_paths(tmp_path):
    jp, cp = experiment_paths(tmp_path / "out", "decay", "abc123")
    assert jp.endswith("decay-abc123.json")
    assert cp.endswith("decay-abc123.csv")
    assert (tmp_path / "out").is_dir()


def test_write_summary_handles_numpy(tmp_path):
    path = tmp_path / "summary.json"
    write_summary(path, {
        "arr": np.arange(3.0),
        "f": np.float64(1.5),
        "i": np.int64(2),
        "b": np.bool_(True),
    })
    back = json.loads(path.read_text())
    assert back == {"arr": [0.0, 1.0, 2.0], "f": 1.5, "i": 2, "b": True}
