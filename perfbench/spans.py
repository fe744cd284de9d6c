"""Spans around the calls into gmsim's layers, recorded from outside the
package, and the per-layer metrics computed from them.

`install` wraps each target function in a span recorder. Names imported by
value (`from .dynamics import drift`) are separate bindings of the same
function object, so every binding in every gmsim module is replaced, and
`restore` puts every original back. A span records its layer, function,
start, end, parent span and thread; a per-thread stack supplies the parent,
and `_map_chunks` is wrapped so a chunk running on a pool thread has the
harness call that submitted it as parent.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import math
import sys
import threading
import time
from collections import defaultdict


def _count_arg(args, kwargs):
    # BrownianSource.uniforms / normals(self, stream, step, count)
    return int(args[3] if len(args) > 3 else kwargs["count"])


def _leading_dims(args, kwargs):
    # Potential.grad(self, x): one gradient vector per leading index of x
    shape = getattr(args[1] if len(args) > 1 else kwargs["x"], "shape", ())
    return math.prod(shape[:-1])


HARNESSES = ("simulate_batch", "decay_experiment", "uniform_convex_decay", "chaos_scan",
             "uniform_moment_experiment", "concentration_suite")

# (layer, module, attribute, work counter)
TARGETS = (
    ("rng", "gmsim.rng", "BrownianSource.normals", _count_arg),
    ("rng", "gmsim.rng", "BrownianSource.uniforms", _count_arg),
    ("potentials.grad", "gmsim.potentials", "Potential.grad", _leading_dims),
    ("dynamics.drift", "gmsim.dynamics", "drift", None),
    ("dynamics.noise", "gmsim.dynamics", "noise_block", None),
    ("dynamics.noise", "gmsim.dynamics", "batch_noise", None),
    ("dynamics.apply_scheme", "gmsim.dynamics", "apply_scheme", None),
    ("dynamics.step", "gmsim.dynamics", "step_batch", None),
    ("dynamics.step", "gmsim.dynamics", "coupled_step_batch", None),
    *(("experiments", "gmsim.experiments", name, None)
      for name in HARNESSES + ("coupled_batch", "write_experiment_outputs")),
    ("config", "gmsim.config", "parse_config", None),
    ("config", "gmsim.config", "validate_potentials", None),
    *(("cli", "gmsim.cli", name, None)
      for name in ("run_cli", "_cmd_check_potential", "_cmd_simulate", "_cmd_decay",
                   "_cmd_chaos_scan", "_cmd_concentration", "_cmd_report")),
    *(("io", "gmsim.io", name, None)
      for name in ("write_snapshot_jsonl", "write_positions_bin", "read_positions_bin",
                   "write_series_csv", "experiment_paths", "write_summary")),
)

CHUNK = "chunk"

# Layer metric -> (end-to-end metric, workload) pairs it should move.
LAYER_MAP = {
    "rng.calls": [["wall_s", "decay-quartic"], ["particle_steps_per_s", "decay-quartic"]],
    "rng.values": [["wall_s", "decay-quartic"], ["particle_steps_per_s", "decay-quartic"]],
    "rng.s": [["wall_s", "decay-quartic"], ["particle_steps_per_s", "decay-quartic"]],
    "potentials.grad.calls": [["wall_s", "chaos-scan"], ["wall_s", "decay-quartic"]],
    "potentials.grad.vectors": [["wall_s", "chaos-scan"], ["peak_rss_mb", "chaos-scan"],
                                ["wall_s", "decay-quartic"]],
    "potentials.grad.s": [["wall_s", "chaos-scan"], ["wall_s", "decay-quartic"],
                          ["wall_s", "simulate-bump3d"]],
    "dynamics.drift.self_s": [["wall_s", "chaos-scan"]],
    "dynamics.noise.self_s": [["wall_s", "decay-quartic"]],
    "dynamics.apply_scheme.s": [["wall_s", "decay-quartic"]],
    "dynamics.step.self_s": [["wall_s", "decay-quartic"]],
    "experiments.self_s": [["wall_s", "chaos-scan"]],
    "experiments.busy_ratio": [["wall_s", "chaos-scan"]],
    "config.load_s": [["setup_s", "decay-quartic"], ["setup_s", "chaos-scan"],
                      ["setup_s", "simulate-bump3d"]],
    "cli.self_s": [["wall_s", "simulate-bump3d"]],
    "io.s": [["wall_s", "simulate-bump3d"]],
    "io.bytes": [["wall_s", "simulate-bump3d"]],
    "trace.overhead_s": [],
}


class Tracer:
    """Span recorder; spans stay in memory until `spans` is written out."""

    def __init__(self):
        self.spans = []  # (id, parent, layer, name, thread, start, end, work)
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int:
        stack = self._stack()
        return stack[-1] if stack else 0

    def wrap(self, layer, fn, work=None, parent=0):
        """fn wrapped in a span of `layer`; `parent` is used when the calling
        thread has no open span."""
        name = fn.__name__
        spans, ids, stack_of, clock = self.spans, self._ids, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            up = stack[-1] if stack else parent
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, up, layer, name, threading.get_ident(), start, end,
                              work(args, kwargs) if work else 0))

        return traced


def install(tracer: Tracer):
    """Wrap every target in every gmsim binding; returns `restore`."""
    undo = []  # (owner, key, original); owner is a module, class or dict

    def rebind(original, wrapped):
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "gmsim" and not mod_name.startswith("gmsim."):
                continue
            for key, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, key, wrapped)
                    undo.append((mod, key, original))

    for layer, mod_name, attr, work in TARGETS:
        mod = importlib.import_module(mod_name)
        owner_name, _, fn_name = attr.rpartition(".")
        if owner_name:
            owner = getattr(mod, owner_name)
            original = vars(owner)[fn_name]
            setattr(owner, fn_name, tracer.wrap(layer, original, work))
            undo.append((owner, fn_name, original))
        else:
            original = getattr(mod, fn_name)
            rebind(original, tracer.wrap(layer, original, work))

    cli = importlib.import_module("gmsim.cli")
    for key, fn in list(cli._COMMANDS.items()):
        wrapped = getattr(cli, fn.__name__)
        if wrapped is not fn:
            cli._COMMANDS[key] = wrapped
            undo.append((cli._COMMANDS, key, fn))

    experiments = importlib.import_module("gmsim.experiments")
    map_chunks = experiments._map_chunks

    def traced_map_chunks(fn, chunks, threads):
        def chunk(c):
            return fn(c)

        return map_chunks(tracer.wrap("experiments", chunk, parent=tracer.current()),
                          chunks, threads)

    experiments._map_chunks = traced_map_chunks
    undo.append((experiments, "_map_chunks", map_chunks))

    def restore():
        for owner, key, original in reversed(undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    return restore


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def layer_metrics(spans, threads: int) -> dict:
    """Per-layer counts and times; self time is a span's duration minus the
    part of it that its child spans cover."""
    layer_of = {s[0]: s[2] for s in spans}
    children = defaultdict(list)
    for s in spans:
        children[s[1]].append((s[5], s[6]))

    def self_time(s):
        return (s[6] - s[5]) - _covered(children.get(s[0], ()))

    m = defaultdict(float)
    harness_wall = busy = 0.0
    for s in spans:
        sid, parent, layer, name, _, start, end, work = s
        dur = end - start
        nested = layer_of.get(parent) == layer
        if layer == "rng":
            if not nested:
                m["rng.calls"] += 1
                m["rng.values"] += work
                m["rng.s"] += dur
        elif layer == "potentials.grad":
            m["potentials.grad.calls"] += 1
            m["potentials.grad.vectors"] += work
            m["potentials.grad.s"] += dur
        elif layer == "dynamics.apply_scheme":
            m["dynamics.apply_scheme.s"] += dur
        elif layer.startswith("dynamics."):
            m[layer + ".self_s"] += self_time(s)
        elif layer == "experiments":
            m["experiments.self_s"] += self_time(s)
            if name == CHUNK:
                busy += dur
            elif name in HARNESSES and not nested:
                harness_wall += dur
        elif layer == "config":
            if not nested:
                m["config.load_s"] += dur
        elif layer == "cli":
            m["cli.self_s"] += self_time(s)
        elif layer == "io":
            if not nested:
                m["io.s"] += dur
    m["experiments.busy_ratio"] = busy / (harness_wall * threads) if harness_wall else 0.0
    for key in ("rng.calls", "rng.values", "potentials.grad.calls", "potentials.grad.vectors"):
        m[key] = int(m[key])
    return dict(m)
