"""gmsim benchmark: time to verdict through the public CLI entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every invocation is a fresh interpreter (child.py) that calls
gmsim.cli.run_cli on config text generated here from the seed, in a fresh
directory under .perfbench_work/, one invocation at a time. Each
invocation's outputs are checked against the reference recorded at the
seed commit (reference.json) and then deleted.

--trace 0 times the workload: one warm-up set-up (bytecode compiled, page
cache filled), then rounds of a host-speed probe and an invocation until
the next round would end after --seconds, at least MIN_INVOCATIONS. Every
invocation sets up afresh. The end-to-end metrics are medians over the
invocations, with times scaled to the host speed of baseline.json: each
time is divided by the median probe time over PROBE_REF_S. The probe is a
fresh interpreter importing the libraries gmsim imports at start-up and
no repository code. On the shared 2-core host of baseline.json the
unscaled median wall time of one workload moved by up to 37 % between
sets of ten runs while the probe moved with it. Unscaled medians are
printed next to the scaled ones.

--trace 1 runs pairs of an untraced and a traced invocation, requires
their output files to be bit-identical, and reports the per-layer
metrics from the traced one (spans.py); trace.overhead_s is the traced
minus the untraced wall time.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans
from workloads import WORKLOADS, load_reference

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).with_name("child.py")
WORK = ROOT / ".perfbench_work"

# numpy links a threaded OpenBLAS; the harness's --threads must be the only
# parallelism in the child.
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_INVOCATIONS = 2  # timed invocations per run; a traced run makes at least one pair
RUN_LIMIT_S = 170.0  # a run must end within 180 s
PROBE = "import numpy, scipy.special, scipy.stats"
PROBE_REF_S = 1.1  # median probe time on the host of baseline.json

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
EXACT_COUNTS = ("rng.calls", "rng.values", "potentials.grad.calls",
                "potentials.grad.vectors", "io.bytes")


@dataclass
class Invocation:
    mode: str
    problems: list = field(default_factory=list)
    elapsed: float = 0.0       # spawn to reaped, as the parent sees it
    wall_s: float = 0.0        # spawn to run_cli's return
    setup_s: float = 0.0       # spawn to the end of validate_potentials
    rss_mb: float = 0.0
    exit: int | None = None
    verdict: dict | None = None
    digests: dict = field(default_factory=dict)
    io_bytes: int = 0
    spans: list | None = None

    @property
    def ok(self) -> bool:
        return not self.problems


def invoke(workload, seed: int, mode: str, reference, timeout: float) -> Invocation:
    """Run one child in a fresh directory; check and then delete its outputs.
    With reference None the verdict is read but not checked."""
    inv = Invocation(mode)
    WORK.mkdir(exist_ok=True)
    d = Path(tempfile.mkdtemp(prefix="inv", dir=WORK))
    try:
        (d / "workload.cfg").write_text(workload.config_text(seed))
        args = ["workload.cfg"] if mode == "setup" else workload.argv("workload.cfg", seed)
        cmd = [sys.executable, str(CHILD), mode, str(ROOT), "result.json", *args]
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=d, env={**os.environ, **PINNED_ENV},
                                  capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            inv.problems.append(f"{mode} invocation timed out after {timeout:.0f} s")
            return inv
        inv.elapsed = time.perf_counter() - start
        if proc.returncode != 0 or not (d / "result.json").is_file():
            inv.problems.append(f"{mode} invocation exited {proc.returncode}: "
                                f"{proc.stderr.strip()[-2000:]}")
            return inv
        res = json.loads((d / "result.json").read_text())
        inv.setup_s = res["setup_end"] - start
        inv.rss_mb = res["maxrss_kb"] / 1024.0
        if mode == "setup":
            return inv
        inv.wall_s = res["end"] - start
        inv.exit = res["exit"]
        inv.spans = res.get("spans")
        out = d / "out"
        files = sorted(p for p in out.rglob("*") if p.is_file()) if out.is_dir() else []
        inv.digests = {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
                       for p in files}
        inv.io_bytes = sum(p.stat().st_size for p in files)
        try:
            inv.verdict = workload.read_verdict(out)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            inv.problems.append(f"bad output: {exc!r}; stderr: {proc.stderr.strip()[-500:]}")
            return inv
        if reference is not None:
            ref = reference.get(str(workload.gmsim_seed(seed)))
            if ref is None:
                inv.problems.append(f"no reference for gmsim seed {workload.gmsim_seed(seed)}")
            else:
                inv.problems += workload.check(inv.verdict, inv.exit, ref)
        return inv
    finally:
        shutil.rmtree(d, ignore_errors=True)


def probe() -> float:
    """Seconds for a fresh interpreter to import gmsim's libraries."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", PROBE], env={**os.environ, **PINNED_ENV},
                   check=True, capture_output=True, timeout=60)
    return time.perf_counter() - start


def tail(values):
    """(percentile, value): the highest nearest-rank percentile that still
    has at least ten samples above it, or None with fewer than 11 samples."""
    n = len(values)
    if n < 11:
        return None
    k = n - 11
    return 100.0 * (k + 1) / n, sorted(values)[k]


class Runner:
    """Invocations of one workload within one time budget."""

    def __init__(self, workload, seed: int, seconds: float, reference):
        self.workload, self.seed, self.reference = workload, seed, reference
        self.start = time.perf_counter()
        self.deadline = self.start + seconds
        self.invocations = []

    def __call__(self, mode: str) -> Invocation:
        left = RUN_LIMIT_S - (time.perf_counter() - self.start)
        inv = invoke(self.workload, self.seed, mode, self.reference, max(left, 1.0))
        self.invocations.append(inv)
        return inv

    def more(self, costs, minimum: int) -> bool:
        """Whether to start another round, given the cost of each round so
        far: none after a failure, then at least `minimum`, then as many as
        are expected to end before the deadline."""
        if not all(i.ok for i in self.invocations):
            return False
        if len(costs) < minimum:
            return True
        return time.perf_counter() + statistics.median(costs) <= self.deadline


def timed_run(runner: Runner):
    runner("setup")  # warm-up
    runs, rounds, probes = [], [], []
    while runner.more(rounds, MIN_INVOCATIONS):
        start = time.perf_counter()
        probes.append(probe())
        runs.append(runner("run"))
        if runs[-1].ok and runs[-1].digests != runs[0].digests:
            runs[-1].problems.append("output files differ from the first invocation's")
        rounds.append(time.perf_counter() - start)
    good = [r for r in runs if r.ok]
    if not good:
        return None, {}
    steps = runner.workload.particle_steps
    samples = {
        "wall_s": [r.wall_s for r in good],
        "setup_s": [r.setup_s for r in good],
        "particle_steps_per_s": [steps / (r.wall_s - r.setup_s) for r in good],
        "peak_rss_mb": [r.rss_mb for r in good],
        "probe_s": probes,
    }
    slowness = statistics.median(probes) / PROBE_REF_S
    scale = {"wall_s": 1 / slowness, "setup_s": 1 / slowness,
             "particle_steps_per_s": slowness, "peak_rss_mb": 1.0}
    return {k: statistics.median(samples[k]) * f for k, f in scale.items()}, samples


def traced_run(runner: Runner):
    runner("setup")  # warm-up
    pairs = []
    while runner.more([u.elapsed + t.elapsed for u, t in pairs], 1):
        plain, traced = runner("run"), runner("trace")
        if plain.ok and traced.ok and plain.digests != traced.digests:
            traced.problems.append("traced outputs are not bit-identical to untraced ones")
        pairs.append((plain, traced))
    good = [(u, t) for u, t in pairs if u.ok and t.ok]
    if not good:
        return None, {}
    samples = {}
    for plain, traced in good:
        m = spans.layer_metrics(traced.spans, runner.workload.threads)
        m["io.bytes"] = traced.io_bytes
        m["trace.overhead_s"] = traced.wall_s - plain.wall_s
        for name in PER_LAYER:
            samples.setdefault(name, []).append(m.get(name, 0.0))
    values = {k: statistics.median(v) for k, v in samples.items()}
    for name in EXACT_COUNTS:
        if len(set(samples[name])) > 1:
            good[-1][1].problems.append(f"{name} differs between traced invocations")
        values[name] = samples[name][0]
    return values, samples


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if not (ROOT / "src" / "gmsim" / "__init__.py").is_file():
        print(f"error: no gmsim source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    reference = load_reference()[workload.name]
    runner = Runner(workload, args.seed, args.seconds, reference)
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        values, samples = (traced_run if args.trace else timed_run)(runner)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    invs = runner.invocations
    failed = sum(not i.ok for i in invs)
    for inv in invs:
        for problem in inv.problems:
            print(f"{workload.name}: {inv.mode}: {problem}", file=sys.stderr)
    if values is None:
        print(f"error: no invocation of {workload.name} succeeded", file=sys.stderr)
        return 1
    units = PER_LAYER if args.trace else END_TO_END
    for name, unit in units.items():
        raw = samples[name]
        line = (f"{workload.name} {name} = {values[name]} {unit} "
                f"(unscaled median {statistics.median(raw)} of {len(raw)}")
        t = tail(raw)
        line += f"; p{t[0]:.0f} {t[1]})" if t else "; no tail percentile below 11 samples)"
        print(line)
    print("# samples " + json.dumps(samples))
    print(f"{workload.name} failed_frac = {failed / len(invs)} ratio "
          f"({failed} of {len(invs)} invocations)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(invs),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
