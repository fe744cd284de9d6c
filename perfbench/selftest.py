"""Self-test of the benchmark, run from the repository root:

    python3 perfbench/selftest.py

Checks that the metric and workload names in BENCHMARK.json are well
formed and unique and match the workloads and the layer map, that
spans.install wraps every binding of every target and restore puts
the originals back, and, for each workload, that two traced runs on
different seeds are correct (traced outputs bit-identical to untraced
ones, verdicts matching the reference) and report the same rng.calls,
rng.values and potentials.grad.vectors.
"""

import importlib
import json
import re
import subprocess
import sys

import spans
from run import PER_LAYER, ROOT, SPEC
from workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
REPEATING = ("rng.calls", "rng.values", "potentials.grad.vectors")


def check_names():
    workloads = [w["name"] for w in SPEC["workloads"]]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + workloads
    bad = [n for n in names if not NAME.match(n)]
    assert not bad, f"malformed names {bad}"
    assert len(set(names)) == len(names), "a name is used twice"
    assert set(workloads) == set(WORKLOADS)
    assert set(spans.LAYER_MAP) == set(PER_LAYER)


def check_install_restore():
    sys.path.insert(0, str(ROOT / "src"))
    importlib.import_module("gmsim.cli")
    mods = {k: m for k, m in sys.modules.items() if k == "gmsim" or k.startswith("gmsim.")}

    def bindings():
        snap = {(k, a): v for k, m in mods.items() for a, v in vars(m).items()}
        snap.update({("commands", c): f for c, f in mods["gmsim.cli"]._COMMANDS.items()})
        for cls in (mods["gmsim.rng"].BrownianSource, mods["gmsim.potentials"].Potential):
            snap.update({(cls.__name__, a): v for a, v in vars(cls).items()})
        return snap

    before = bindings()
    restore = spans.install(spans.Tracer())
    during = bindings()
    for key in (("gmsim.experiments", "drift"), ("gmsim.experiments", "step_batch"),
                ("gmsim.cli", "parse_config"), ("gmsim.cli", "validate_potentials"),
                ("gmsim", "drift"), ("commands", "simulate"), ("Potential", "grad"),
                ("BrownianSource", "normals"), ("gmsim.experiments", "_map_chunks")):
        assert during[key] is not before[key], f"{key} was not wrapped"
    restore()
    after = bindings()
    changed = [k for k in before if after.get(k) is not before[k]]
    assert not changed, f"not restored: {changed}"


def traced(workload, seed):
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"], f"{workload} seed {seed}: {out.stderr}"
    return result["metrics"]


def main():
    check_names()
    print("names: ok")
    check_install_restore()
    print("install/restore: ok")
    for name in sorted(WORKLOADS):
        a, b = traced(name, 1), traced(name, 2)
        for metric in REPEATING:
            assert a[metric]["value"] == b[metric]["value"], f"{name} {metric} does not repeat"
        print(f"{name}: traced outputs bit-identical, counts repeat: ok")


if __name__ == "__main__":
    main()
