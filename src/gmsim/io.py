"""Output sinks: JSONL snapshot streams, CSV time series, binary position
dumps, and experiment summaries named by config hash."""

from __future__ import annotations

import csv
import json
import os
import struct

import numpy as np

SNAPSHOT_MAGIC = b"GMPE"
SNAPSHOT_VERSION = 1
_HEADER = struct.Struct("<4sIQQd")  # magic, version, N, d, time -> 32 bytes


def write_snapshot_jsonl(path, times, positions: np.ndarray, include_positions: bool = False):
    """One JSON object per (observation time, run) of positions shaped
    (n_obs, runs, N, d): time, run, the mean squared position, and
    optionally the raw positions."""
    with open(path, "w") as fh:
        for ti, t in enumerate(times):
            mean_sq = np.mean(np.sum(positions[ti] ** 2, axis=-1), axis=-1).tolist()
            for r in range(positions.shape[1]):
                rec = {
                    "time": float(t),
                    "run": r,
                    "observables": {"mean_sq": mean_sq[r]},
                }
                if include_positions:
                    rec["positions"] = positions[ti, r].tolist()
                fh.write(json.dumps(rec) + "\n")


def write_positions_bin(path, positions: np.ndarray, time: float):
    """Little-endian float64 row-major N x d block behind a 32-byte header."""
    x = np.ascontiguousarray(positions, dtype="<f8")
    n, d = x.shape
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, n, d, float(time)))
        fh.write(x.tobytes())


def read_positions_bin(path):
    with open(path, "rb") as fh:
        magic, version, n, d, time = _HEADER.unpack(fh.read(_HEADER.size))
        if magic != SNAPSHOT_MAGIC:
            raise ValueError(f"bad magic {magic!r} in {path}")
        if version != SNAPSHOT_VERSION:
            raise ValueError(f"unsupported snapshot version {version}")
        x = np.frombuffer(fh.read(n * d * 8), dtype="<f8").reshape(n, d)
    return x, time


def write_series_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow(row)


def experiment_paths(out_dir, experiment: str, cfg_hash: str):
    os.makedirs(out_dir, exist_ok=True)
    base = os.path.join(out_dir, f"{experiment}-{cfg_hash}")
    return base + ".json", base + ".csv"


def write_summary(path, summary: dict):
    """Strict JSON: numpy values become plain ones and a non-finite float,
    such as an undefined fit, becomes null."""
    with open(path, "w") as fh:
        json.dump(_plain(summary), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _plain(obj):
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, float) and not np.isfinite(obj):
        return None
    return obj
