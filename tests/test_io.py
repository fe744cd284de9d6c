"""Output sinks: binary snapshots, CSV series, JSON summaries."""

import csv
import json

import numpy as np
import pytest

from gmsim.io import (
    SNAPSHOT_MAGIC,
    experiment_paths,
    read_positions_bin,
    write_positions_bin,
    write_series_csv,
    write_snapshot_jsonl,
    write_summary,
)


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
