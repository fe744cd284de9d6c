"""Command-line surface.

Subcommands: check-potential, simulate, and report, and the five
experiments decay, chaos-scan, uniform-moments, exp-square-moment and
concentration, each of which writes `<experiment>-<hash>.json` and `.csv`.
Exit codes: 0 success, 1 usage/config errors, 2 experiment-bound
violations.  Human diagnostics go to stderr; machine output goes to files
and stdout only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import experiments, io as gio
from .config import (
    ConfigError, SimConfig, config_hash, declared_reports, parse_config, validate_potentials,
)
from .dynamics import IntegrationError
from .rng import SEED_LIMIT

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BOUND = 2


def _build_parser():
    p = argparse.ArgumentParser(prog="gmsim", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True, help="config file path")
        sp.add_argument("--seed", required=True, type=int, help="master seed (mandatory)")
        sp.add_argument("--threads", type=int, default=1)
        sp.add_argument("--out", default=None, help="output directory override")

    sp = sub.add_parser("check-potential", help="probe the declared conditions")
    sp.add_argument("--config", required=True, help="config file path")
    sp = sub.add_parser("simulate", help="run the particle system")
    common(sp)
    sp.add_argument("--positions", action="store_true", help="include positions in JSONL")
    common(sub.add_parser("decay", help="coupled Wasserstein-decay experiment"))
    sp = sub.add_parser("chaos-scan", help="propagation-of-chaos rate scan")
    common(sp)
    sp.add_argument("--n-values", default="8,16,32,64")
    sp.add_argument("--m-reference", type=int, default=512)
    sp.add_argument("--runs-per-n", type=int, default=32)
    sp = sub.add_parser("concentration", help="deviation-inequality suite")
    common(sp)
    sp.add_argument("--function", default="coordinate",
                    choices=sorted(experiments.LIPSCHITZ_FUNCTIONS))
    sp.add_argument("--trials", type=int, default=400)
    sp.add_argument("--time", type=float, default=None)
    common(sub.add_parser("uniform-moments", help="uniform-in-time second moment"))
    common(sub.add_parser("exp-square-moment",
                          help="exponential square moment against its closed form"))
    sp = sub.add_parser("report", help="summarize experiment outputs")
    sp.add_argument("--out", default="out", help="directory of experiment outputs")
    return p


def _read_config(path: str) -> SimConfig:
    with open(path) as fh:
        return parse_config(fh.read())


def _load_config(args) -> SimConfig:
    """The config with the run's seed and output directory, its declared
    conditions checked."""
    if args.threads < 1:
        raise ValueError(f"--threads must be >= 1, got {args.threads}")
    if not 0 <= args.seed < SEED_LIMIT:
        raise ValueError(f"--seed must be in [0, 2**128), got {args.seed}")
    cfg = replace(_read_config(args.config), seed=int(args.seed))
    if args.out:
        cfg = replace(cfg, output_dir=args.out)
    validate_potentials(cfg)
    return cfg


def _cmd_check_potential(args) -> int:
    """Print every declared condition's report; exit 2 when one fails."""
    reports = declared_reports(_read_config(args.config))
    print(json.dumps([{"potential": name, **rep.to_json()} for name, rep in reports], indent=2))
    return EXIT_OK if all(rep.satisfied for _, rep in reports) else EXIT_BOUND


def _cmd_simulate(args) -> int:
    cfg = _load_config(args)
    if args.positions and "jsonl" not in cfg.output_formats:
        raise ValueError("--positions writes positions into the JSONL snapshots, "
                         "but [output] formats has no jsonl")
    times, pos = experiments.simulate_batch(cfg, threads=args.threads)
    h = config_hash(cfg)
    os.makedirs(cfg.output_dir, exist_ok=True)
    base = os.path.join(cfg.output_dir, f"simulate-{h}")
    if "jsonl" in cfg.output_formats:
        gio.write_snapshot_jsonl(base + ".jsonl", times, pos, args.positions)
    if "csv" in cfg.output_formats:
        with np.errstate(over="ignore"):  # an overflowing square is written as inf
            second = np.mean(np.sum(pos ** 2, axis=-1), axis=(1, 2))
        rows = [(float(t), float(m), "", "simulate", "") for t, m in zip(times, second)]
        gio.write_series_csv(base + ".csv", ("time", "value", "stderr", "method", "p"), rows)
    if "bin" in cfg.output_formats:
        for r in range(pos.shape[1]):
            gio.write_positions_bin(f"{base}-run{r}.bin", pos[-1, r], float(times[-1]))
    print(base)
    return EXIT_OK


def _finish(cfg, experiment, arguments, result, rows, header) -> int:
    """Write an experiment's summary JSON and CSV series, print the JSON
    path, and exit 0 exactly when every flag the harness set in
    result["flags"] passes.  arguments holds the subcommand's options that
    change the result; they are hashed with the config."""
    json_path, _ = experiments.write_experiment_outputs(cfg, experiment, arguments, result,
                                                        rows, header)
    print(json_path)
    return EXIT_OK if all(result["flags"].values()) else EXIT_BOUND


def _cmd_decay(args) -> int:
    cfg = _load_config(args)
    res = experiments.decay_experiment(cfg, threads=args.threads)
    rows = [
        (float(t), float(v), float(s), "coupled-upper", 2)
        for t, v, s in zip(res.times, res.xi, res.xi_stderr)
    ]
    return _finish(cfg, "decay", {}, vars(res), rows,
                   ("time", "value", "stderr", "method", "p"))


def _cmd_chaos_scan(args) -> int:
    cfg = _load_config(args)
    n_values = [int(v) for v in args.n_values.split(",")]
    arguments = {"n_values": n_values, "m_reference": args.m_reference,
                 "runs_per_n": args.runs_per_n}
    res = experiments.chaos_scan(
        cfg, n_values, args.m_reference, args.runs_per_n, threads=args.threads
    )
    rows = [
        (n, e, s, "chaos-scan", 2)
        for n, e, s in zip(res.N_values, res.errors, res.stderrs)
    ]
    return _finish(cfg, "chaos-scan", arguments, vars(res), rows,
                   ("N", "value", "stderr", "method", "p"))


def _cmd_concentration(args) -> int:
    cfg = _load_config(args)
    arguments = {"function": args.function, "trials": args.trials, "time": args.time}
    res = experiments.concentration_suite(
        cfg, f_name=args.function, T=args.time, trials=args.trials, threads=args.threads
    )
    rows = [
        (float(r), float(t), "", "tail", "")
        for r, t in zip(res.r_grid, res.empirical_tail)
    ]
    return _finish(cfg, "concentration", arguments, vars(res), rows,
                   ("r", "value", "stderr", "method", "p"))


def _cmd_uniform_moments(args) -> int:
    cfg = _load_config(args)
    series, info = experiments.uniform_moment_experiment(cfg, threads=args.threads)
    rows = [
        (float(t), v, s, "moment", series.order_2k)
        for t, v, s in zip(series.times, series.values, series.stderr)
    ]
    return _finish(cfg, "uniform-moments", {}, {**vars(series), **info}, rows,
                   ("time", "value", "stderr", "method", "p"))


def _cmd_exp_square_moment(args) -> int:
    cfg = _load_config(args)
    series, info = experiments.exp_square_moment_experiment(cfg, threads=args.threads)
    rows = [
        (float(t), v, s, float(c), info["bound"])
        for t, v, s, c in zip(series.times, series.values, series.stderr, info["closed_form"])
    ]
    return _finish(cfg, "exp-square-moment", {}, {**vars(series), **info}, rows,
                   ("time", "value", "stderr", "closed_form", "bound"))


def _cmd_report(args) -> int:
    ok = True
    for name in sorted(os.listdir(args.out)):
        if not name.endswith(".json"):
            continue
        path = os.path.join(args.out, name)
        with open(path) as fh:
            summary = json.load(fh)
        if not isinstance(summary, dict):
            raise ValueError(f"{path} is not a summary: it holds a JSON "
                             f"{type(summary).__name__}, not an object")
        flags = summary.get("flags", {})
        ok = ok and all(flags.values())
        line = ", ".join(f"{k}={'pass' if v else 'FAIL'}" for k, v in flags.items())
        print(f"{summary.get('experiment', name)} [{summary.get('config_hash', '')}]: {line}")
    return EXIT_OK if ok else EXIT_BOUND


_COMMANDS = {
    "check-potential": _cmd_check_potential,
    "simulate": _cmd_simulate,
    "decay": _cmd_decay,
    "chaos-scan": _cmd_chaos_scan,
    "concentration": _cmd_concentration,
    "uniform-moments": _cmd_uniform_moments,
    "exp-square-moment": _cmd_exp_square_moment,
    "report": _cmd_report,
}


def run_cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError, IntegrationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main():
    raise SystemExit(run_cli())


if __name__ == "__main__":
    main()
