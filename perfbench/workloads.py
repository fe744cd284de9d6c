"""The benchmark's workloads: the config text each one generates from a
seed, the gmsim command line it runs, the particle-steps it advances, and
how its verdict is read back from the output directory and compared with
the reference recorded at the seed commit.

The seed picks the gmsim master seed, `seed % REFERENCE_SEEDS`, so every
seed maps onto one of the recorded references in `reference.json`.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

REFERENCE_SEEDS = 16
REFERENCE_PATH = Path(__file__).with_name("reference.json")
_BIN_HEADER = struct.Struct("<4sIQQd")

# Drift may differ from the reference at the roundoff level (ROADMAP aim 1);
# noise may not, so the tolerance is far below any statistical effect.
RTOL = 1e-9

_QUARTIC_W = """\
[potential_V]
kind = zero

[potential_W]
kind = power_law
p = 4.0
m = 3
A = 4.0
alpha = 2.0
"""

_DECAY = _QUARTIC_W + """
[dynamics]
n = 32
dim = 1
mode = projected
scheme = tamed
dt = 0.005

[initial_law]
kind = gaussian
sigma = 1.0

[initial_law_b]
kind = gaussian
sigma = 0.3

[experiment]
horizon = 10.0
obs_stride = 1.0
obs_count = 11
runs = 64
seed = {seed}

[output]
dir = out
"""

_CHAOS = _QUARTIC_W + """
[dynamics]
n = 32
dim = 1
mode = projected
scheme = tamed
dt = 0.01

[initial_law]
kind = gaussian
sigma = 1.0

[experiment]
horizon = 2.0
obs_stride = 0.25
obs_count = 9
runs = 32
seed = {seed}

[output]
dir = out
"""

# m = 2 is the smallest growth exponent the A3 probe accepts for this W.
_BUMP3D = """\
[potential_V]
kind = zero

[potential_W]
kind = uniform_plus_bump
kappa = 1.0
amplitude = 0.7
radius = 2.0
m = 2

[dynamics]
n = 16
dim = 3
mode = projected
scheme = tamed
dt = 0.01

[initial_law]
kind = gaussian
sigma = 1.0

[experiment]
horizon = 4.0
obs_stride = 0.01
obs_count = 401
runs = 64
seed = {seed}

[output]
dir = out
formats = csv,jsonl,bin
"""

CHAOS_N = (8, 16, 32, 64)
CHAOS_M = 512
CHAOS_RUNS = 8


def _steps(horizon: float, dt: float) -> int:
    # Same snapping as gmsim.dynamics.observation_steps for the last time.
    return int(math.floor(horizon / dt + 1e-9))


def _summary(out_dir: Path, prefix: str) -> dict:
    (path,) = out_dir.glob(prefix + "-*.json")
    return json.loads(path.read_text())


def _decay_verdict(out_dir: Path) -> dict:
    s = _summary(out_dir, "decay")
    return {"flags": s["flags"], "values": s["result"]["xi"],
            "shape": {"times": s["result"]["times"]}}


def _chaos_verdict(out_dir: Path) -> dict:
    s = _summary(out_dir, "chaos-scan")
    return {"flags": s["flags"], "values": s["result"]["errors"],
            "shape": {"N": s["result"]["N_values"]}}


def _read_bin(path: Path):
    """One position snapshot: the 32-byte header (magic, version, N, d,
    time) and a little-endian float64 N x d block, as gmsim.io writes it."""
    raw = path.read_bytes()
    magic, version, n, d, time = _BIN_HEADER.unpack_from(raw)
    if (magic, version) != (b"GMPE", 1) or len(raw) != _BIN_HEADER.size + 8 * n * d:
        raise ValueError(f"{path.name} is not a version-1 snapshot of its size")
    return np.frombuffer(raw, "<f8", offset=_BIN_HEADER.size).reshape(n, d), time


def _simulate_verdict(out_dir: Path) -> dict:
    """The CSV mean_sq series, checked against everything else written:
    each JSONL record is the (time, run) that follows the previous one, its
    mean_sq is that of its positions, the mean over runs at each time is
    the CSV value, and run r's .bin holds run r's positions at the last
    time. The positions enter the verdict as a weighted sum per time, with
    weights that differ by run, particle and coordinate."""
    (csv_path,) = out_dir.glob("simulate-*.csv")
    with csv_path.open(newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    times = [float(r[0]) for r in rows]
    values = [float(r[1]) for r in rows]
    labels, mean_sq, positions = [], [], []
    with csv_path.with_suffix(".jsonl").open() as fh:
        for line in fh:
            rec = json.loads(line)
            labels.append((rec["time"], rec["run"]))
            mean_sq.append(rec["observables"]["mean_sq"])
            positions.append(np.array(rec["positions"], dtype=float))
    runs = len(labels) // len(times)
    if labels != [(t, r) for t in times for r in range(runs)]:
        raise ValueError("JSONL records are not one per run at each CSV time, in order")
    pos = np.stack(positions).reshape(len(times), runs, *positions[0].shape)
    sq = (pos ** 2).sum(-1).mean(-1)
    if not np.allclose(sq, np.reshape(mean_sq, sq.shape), rtol=RTOL, atol=0):
        raise ValueError("a JSONL mean_sq differs from that of its positions")
    if not np.allclose(sq.mean(1), values, rtol=RTOL, atol=0):
        raise ValueError("the CSV value differs from the mean of the JSONL mean_sq")
    bins = sorted(out_dir.glob("simulate-*-run*.bin"))
    for r in range(runs):
        x, t = _read_bin(out_dir / f"{csv_path.stem}-run{r}.bin")
        if t != times[-1] or not np.array_equal(x, pos[-1, r]):
            raise ValueError(f"run {r}'s .bin differs from its last JSONL positions")
    weights = np.arange(1, pos[0].size + 1, dtype=float).reshape(pos.shape[1:])
    return {
        "flags": {},
        "values": values,
        "position_sums": (pos * weights).sum((1, 2, 3)).tolist(),
        "position_scales": (np.abs(pos) * weights).sum((1, 2, 3)).tolist(),
        "shape": {"times": times, "positions": list(pos.shape), "bin_files": len(bins)},
    }


@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple          # gmsim subcommand and its fixed arguments
    config: str             # config template, formatted with the gmsim seed
    threads: int
    particle_steps: int     # computed from the parameters, never measured
    read_verdict: Callable[[Path], dict]  # -> {"flags", "values", "shape", ...}
    scale_to_first: bool    # tolerance relative to values[0], not per entry

    def gmsim_seed(self, seed: int) -> int:
        return int(seed) % REFERENCE_SEEDS

    def config_text(self, seed: int) -> str:
        return self.config.format(seed=self.gmsim_seed(seed))

    def argv(self, config_path: str, seed: int) -> list:
        return [self.command[0], "--config", config_path,
                "--seed", str(self.gmsim_seed(seed)),
                "--threads", str(self.threads), *self.command[1:]]

    def check(self, verdict: dict, exit_code: int, ref: dict) -> list:
        """Problems found comparing one invocation with its reference;
        an empty list means the output is correct."""
        problems = []
        if exit_code != ref["exit"]:
            problems.append(f"exit code {exit_code}, expected {ref['exit']}")
        if verdict["flags"] != ref["flags"]:
            problems.append(f"flags {verdict['flags']}, expected {ref['flags']}")
        if verdict["shape"] != ref["shape"]:
            problems.append("output shape differs from the reference")
        got, want = verdict["values"], ref["values"]
        if len(got) != len(want):
            return problems + [f"{len(got)} values, expected {len(want)}"]
        for i, (g, w) in enumerate(zip(got, want)):
            scale = abs(want[0]) if self.scale_to_first else abs(w)
            if not abs(g - w) <= RTOL * scale:
                problems.append(f"value {i}: {g!r}, expected {w!r}")
                break
        # positions: tolerance relative to the weighted sum of their magnitudes
        for i, (g, w, scale) in enumerate(zip(verdict.get("position_sums", ()),
                                              ref.get("position_sums", ()),
                                              verdict.get("position_scales", ()))):
            if not abs(g - w) <= RTOL * scale:
                problems.append(f"position sum {i}: {g!r}, expected {w!r}")
                break
        return problems


_decay_steps = _steps(10.0, 0.005)
_chaos_steps = _steps(2.0, 0.01)
_bump_steps = _steps(4.0, 0.01)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="decay-quartic",
            command=("decay",),
            config=_DECAY,
            threads=1,
            # both coupled copies
            particle_steps=2 * 64 * 32 * _decay_steps,
            read_verdict=_decay_verdict,
            # xi reaches the ~1e-32 floor long before the horizon
            scale_to_first=True,
        ),
        Workload(
            name="chaos-scan",
            command=("chaos-scan", "--n-values", ",".join(map(str, CHAOS_N)),
                     "--m-reference", str(CHAOS_M), "--runs-per-n", str(CHAOS_RUNS)),
            config=_CHAOS,
            threads=2,
            # auxiliary ensembles of M and M/2, every N-system with its proxy,
            # and the bias-check N-system with its proxy
            particle_steps=CHAOS_RUNS * _chaos_steps * (
                CHAOS_M + CHAOS_M // 2 + sum(n + 1 for n in CHAOS_N) + max(CHAOS_N) + 1
            ),
            read_verdict=_chaos_verdict,
            scale_to_first=False,
        ),
        Workload(
            name="simulate-bump3d",
            command=("simulate", "--positions"),
            config=_BUMP3D,
            threads=1,
            particle_steps=64 * 16 * _bump_steps,
            read_verdict=_simulate_verdict,
            scale_to_first=False,
        ),
    )
}


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())
