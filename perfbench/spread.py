"""Run-to-run spread of the benchmark, and the baseline file.

    python3 perfbench/spread.py [--baseline]

Runs run.py once per seed 0 .. RUNS - 1 on each workload, one run at a
time, and prints for every end-to-end metric the median of the per-run
values and the distance between their first and third quartile as a
share of that median (statistics.quantiles, n=4), next to a third of the
metric's bound from BENCHMARK.json. The host-speed probe that scales
the times is reported the same way. With --baseline it also pools the
invocations of all runs (median and tail percentile), makes one traced
run per workload, and writes the machine, these figures, the per-layer
figures and the layer map to baseline.json.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import spans
from run import ROOT, SPEC, tail
from workloads import WORKLOADS

RUNS = 10
BASELINE = ROOT / "perfbench" / "baseline.json"


def bench(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {out.returncode}: {out.stderr}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed} incorrect: {out.stderr}")
    samples = json.loads(next(s for s in lines if s.startswith("# samples "))[10:])
    return {k: v["value"] for k, v in result["metrics"].items()}, samples


def machine():
    import numpy
    import scipy

    cpu = next((line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo")
                if line.startswith("model name")), platform.processor())
    mem_kb = next(int(line.split()[1]) for line in open("/proc/meminfo")
                  if line.startswith("MemTotal"))
    return {"nproc": os.cpu_count(), "cpu": cpu, "mem_gb": round(mem_kb / 2**20, 1),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def commit():
    out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True)
    return out.stdout.strip() or None


def quartiles(values):
    """(median, q1, q3, spread): spread is (q3 - q1) / median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / med


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--baseline", action="store_true", help="write baseline.json")
    args = p.parse_args()
    seconds = SPEC["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    steady = True
    e2e, layers = {}, {}
    for name in sorted(WORKLOADS):
        runs, unscaled, pooled = [], [], {}
        for seed in range(RUNS):
            metrics, samples = bench(name, seed, seconds, 0)
            runs.append(metrics)
            unscaled.append({k: statistics.median(v) for k, v in samples.items()})
            for metric, values in samples.items():
                pooled.setdefault(metric, []).extend(values)
        e2e[name] = {}
        for metric, bound in bounds.items():
            values = [r[metric] for r in runs]
            med, q1, q3, share = quartiles(values)
            umed, _, _, ushare = quartiles([u[metric] for u in unscaled])
            ok = share < bound / 3
            # set-up time is held to its bound between sets, not within one
            steady = steady and (ok or metric == "setup_s")
            e2e[name][metric] = {"median": med, "q1": q1, "q3": q3,
                                 "spread": share, "values": values,
                                 "unscaled_median": umed, "unscaled_spread": ushare,
                                 "invocations": len(pooled[metric]),
                                 "unscaled_invocation_median": statistics.median(pooled[metric]),
                                 "unscaled_invocation_tail": tail(pooled[metric])}
            print(f"{name:16s} {metric:22s} median {med:12.6g}  spread {share:.4f} "
                  f"(unscaled median {umed:.6g} spread {ushare:.4f})  "
                  f"bound/3 {bound / 3:.4f}  {'ok' if ok else 'WIDE'}  "
                  f"[{', '.join(f'{v:.4g}' for v in values)}]",
                  flush=True)
        values = [u["probe_s"] for u in unscaled]
        med, q1, q3, share = quartiles(values)
        e2e[name]["probe_s"] = {"median": med, "q1": q1, "q3": q3, "spread": share,
                                "values": values, "invocations": len(pooled["probe_s"])}
        print(f"{name:16s} {'probe_s':22s} median {med:12.6g}  spread {share:.4f}  "
              f"[{', '.join(f'{v:.4g}' for v in values)}]", flush=True)
        if args.baseline:
            layers[name] = bench(name, 0, seconds, 1)[0]
    if args.baseline:
        with open(BASELINE, "w") as fh:
            json.dump({"commit": commit(), "machine": machine(),
                       "run_seconds": seconds, "runs": RUNS,
                       "end_to_end": e2e, "per_layer": layers, "layer_map": spans.LAYER_MAP},
                      fh, indent=1)
            fh.write("\n")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
