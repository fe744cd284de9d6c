"""Record reference.json: each workload's verdict for every gmsim seed the
benchmark can generate. Run it at the commit whose outputs are the
reference, from the repository root:

    python3 perfbench/record_reference.py
"""

import json
import sys

from run import invoke
from workloads import REFERENCE_PATH, REFERENCE_SEEDS, WORKLOADS


def main():
    reference = {}
    for name, workload in sorted(WORKLOADS.items()):
        table = {}
        for seed in range(REFERENCE_SEEDS):
            inv = invoke(workload, seed, "run", None, timeout=600)
            if not inv.ok:
                sys.exit(f"{name} seed {seed}: {inv.problems}")
            table[str(seed)] = {"exit": inv.exit, **inv.verdict}
            print(f"{name} seed {seed}: exit {inv.exit} {inv.verdict['flags']}", flush=True)
        reference[name] = table
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
