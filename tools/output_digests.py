"""Digest everything gmsim shows a user, for byte-identity checks between
two source trees.

For every `configs/*.cfg` of a tree it runs check-potential once, and
simulate (with and without --positions) and the five experiments at each
given seed and thread count.  simulate runs on a copy of the config whose
`[output] formats` is every format, so that each config's JSONL and `.bin`
files are digested too.  No shipped config runs the quartic moment path in
d > 1, draws blocks of n d values that end in a partial Philox block of
four words, or sums pairs in d = 1, so simulate --positions also runs on
copies of simulate_small.cfg with `[dynamics] dim = 2` and with `n = 5`,
and of bump3d_decay.cfg with `dim = 1` (COPIES).
Each invocation writes into a fresh --out directory, and prints one block:
the command line, the exit code and the sha256 of stdout, of stderr and of
every file written.  The output directory's path is replaced by `OUT` in
the streams and files before they are hashed, since summaries echo it.  Two
trees behave the same exactly when their digests do:

    SEEDS=3,11,18446744073709551621
    python3 tools/output_digests.py --tree OLD --seed $SEEDS --threads 1,2 > old.txt
    python3 tools/output_digests.py --tree NEW --seed $SEEDS --threads 1,2 > new.txt
    diff old.txt new.txt

The third seed is 2^64 + 5, so the high word of the Philox key is nonzero.

gmsim runs from the tree's `src/` with this interpreter, one invocation at
a time.  Standard library only.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

EXPERIMENTS = ("decay", "chaos-scan", "uniform-moments", "exp-square-moment", "concentration")
ALL_FORMATS = "csv,jsonl,bin"
# Generated configs, by the name their command lines show: (the shipped
# config they copy, the [dynamics] key they set, its value).  simulate
# --positions runs on each.
COPIES = {"configs/simulate_small.d2.cfg": ("configs/simulate_small.cfg", "dim", 2),
          "configs/simulate_small.n5.cfg": ("configs/simulate_small.cfg", "n", 5),
          "configs/bump3d_decay.d1.cfg": ("configs/bump3d_decay.cfg", "dim", 1)}


def invocations(configs, seeds, threads):
    """gmsim command lines, without --out, in digest order."""
    for cfg in configs:
        yield ["check-potential", "--config", cfg]
        for seed in seeds:
            for t in threads:
                common = ["--config", cfg, "--seed", str(seed), "--threads", str(t)]
                yield ["simulate", *common]
                yield ["simulate", *common, "--positions"]
                for experiment in EXPERIMENTS:
                    yield [experiment, *common]
    for name, (cfg, *_) in COPIES.items():
        if cfg in configs:
            for seed in seeds:
                for t in threads:
                    yield ["simulate", "--config", name, "--seed", str(seed), "--threads", str(t),
                           "--positions"]


def with_setting(text: str, section: str, key: str, value) -> str:
    """Config text with `key = value` in [section], in place of any line
    that sets key there; the section is appended when text has none."""
    header = f"[{section}]"
    lines, current = [], None
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("["):
            current = stripped
        elif current == header and stripped.partition("=")[0].strip() == key:
            continue
        lines.append(line)
        if stripped == header:
            lines.append(f"{key} = {value}")
    if header not in (line.strip() for line in lines):
        lines += [header, f"{key} = {value}"]
    return "\n".join(lines) + "\n"


def with_all_formats(text: str) -> str:
    """Config text with `[output] formats` set to every format."""
    return with_setting(text, "output", "formats", ALL_FORMATS)


def config_text(tree: Path, cfg: str) -> str:
    """The text of a shipped config, or of the copy that COPIES names."""
    if cfg in COPIES:
        shipped, key, value = COPIES[cfg]
        return with_setting((tree / shipped).read_text(), "dynamics", key, value)
    return (tree / cfg).read_text()


def digest(tree: Path, argv) -> tuple[int, list]:
    """Run gmsim argv in tree; returns its exit code and its digest lines.
    simulate reads its config, or a copy that COPIES names, with every
    output format."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        run = list(argv)
        if argv[0] == "simulate":
            i = argv.index("--config") + 1
            run[i] = os.path.join(tmp, "simulate.cfg")
            Path(run[i]).write_text(with_all_formats(config_text(tree, argv[i])))
        extra = [] if argv[0] == "check-potential" else ["--out", out]
        proc = subprocess.run([sys.executable, "-m", "gmsim.cli", *run, *extra], cwd=tree,
                              env=env, capture_output=True)

        def sha(data: bytes) -> str:
            return hashlib.sha256(data.replace(out.encode(), b"OUT")).hexdigest()

        lines = [f"{' '.join(argv)}: exit {proc.returncode}",
                 f"  stdout {sha(proc.stdout)}", f"  stderr {sha(proc.stderr)}"]
        for path in sorted(Path(out).rglob("*")):
            if path.is_file():
                lines.append(f"  {path.relative_to(out)} {sha(path.read_bytes())}")
    return proc.returncode, lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--tree", default=str(Path(__file__).resolve().parent.parent),
                   help="source tree to run (default: the one holding this script)")
    p.add_argument("--seed", required=True, help="comma-separated seeds")
    p.add_argument("--threads", default="1", help="comma-separated thread counts")
    args = p.parse_args(argv)
    tree = Path(args.tree).resolve()
    configs = sorted(str(c.relative_to(tree)) for c in tree.glob("configs/*.cfg"))
    seeds, threads = ([int(v) for v in arg.split(",")] for arg in (args.seed, args.threads))
    exits = collections.Counter()
    for cmd in invocations(configs, seeds, threads):
        code, lines = digest(tree, cmd)
        exits[code] += 1
        print("\n".join(lines), flush=True)
    print(f"# {sum(exits.values())} invocations; "
          + ", ".join(f"exit {k}: {v}" for k, v in sorted(exits.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
