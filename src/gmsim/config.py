"""Experiment configuration: a flat key-value tree with sections, full
validation that reports every error at once, and a canonical byte-stable
serialization used for config hashes and round-trips.
"""

from __future__ import annotations

import difflib
import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from . import potentials
from .dynamics import LAW_PARAMS, InitialLaw, StepPolicy
from .potentials import Potential
from .rng import SEED_LIMIT

# Each kinded model: the table of the parameters its kinds read, and the
# constants it declares besides, config key -> field, whose default is the
# key's (an integer default makes an integer key).
_KINDED = {
    Potential: (potentials.KIND_PARAMS, {
        "m": "growth_exponent_m", "lambda": "declared_lambda", "C": "declared_C",
        "A": "declared_A", "alpha": "declared_alpha"}),
    InitialLaw: (LAW_PARAMS, {}),
}


def _kinded_keys(cls) -> set:
    table, declared = _KINDED[cls]
    return {"kind", *declared, *(key for row in table.values() for key in row)}


_SECTIONS = {
    "potential_V": _kinded_keys(Potential),
    "potential_W": _kinded_keys(Potential),
    "dynamics": {"n", "dim", "mode", "scheme", "dt"},
    "initial_law": _kinded_keys(InitialLaw),
    "initial_law_b": _kinded_keys(InitialLaw),
    "experiment": {"horizon", "obs_stride", "obs_count", "obs_times", "seed", "runs"},
    "output": {"dir", "formats"},
}


class ConfigError(ValueError):
    """Carries the full list of validation errors."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class SimConfig:
    potential_V: Potential
    potential_W: Potential
    n: int
    dim: int
    mode: str  # raw | projected
    step_policy: StepPolicy
    horizon: float
    observation_times: tuple
    initial_law: InitialLaw
    initial_law_b: InitialLaw | None
    seed: int
    runs: int
    output_dir: str
    output_formats: tuple


def _parse_scalar(raw: str):
    s = raw.strip()
    try:
        return int(s)
    except ValueError:
        pass
    try:
        return float(s)
    except ValueError:
        pass
    return s


def _parse_tree(text: str, errors: list) -> dict:
    tree: dict = {}
    section = None
    set_on: dict = {}  # (section, key) -> the line that set it
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if section not in _SECTIONS:
                hint = _did_you_mean(section, _SECTIONS, "[{}]")
                errors.append(f"line {lineno}: unknown section [{section}]{hint}")
                section = None
            else:
                tree.setdefault(section, {})
            continue
        if "=" not in stripped:
            errors.append(f"line {lineno}: expected 'key = value', got {stripped!r}")
            continue
        if section is None:
            errors.append(f"line {lineno}: key outside any section")
            continue
        key, _, raw = stripped.partition("=")
        key = key.strip()
        valid = _SECTIONS[section]
        if key not in valid:
            hint = _did_you_mean(key, valid)
            errors.append(f"line {lineno}: unknown key {key!r} in [{section}]{hint}")
            continue
        first = set_on.setdefault((section, key), lineno)
        if first != lineno:
            errors.append(f"line {lineno}: {key!r} in [{section}] is already set on line {first}")
            continue
        if "," in raw:
            tree[section][key] = tuple(_parse_scalar(v) for v in raw.split(","))
        else:
            tree[section][key] = _parse_scalar(raw)
    return tree


def _did_you_mean(word: str, valid, form: str = "{!r}") -> str:
    near = difflib.get_close_matches(word, valid, n=1)
    return f" (did you mean {form.format(near[0])}?)" if near else ""


def _is_number(v) -> bool:
    return isinstance(v, (int, float))


def _number(sec: dict, key: str, default, errors: list, where: str, cast=float):
    """sec[key] (or default when absent) cast to a number; a value that is
    not a finite number, or not integral when cast is int, adds an error
    naming section and key and yields default.  So does an int written in
    float notation above 2**53, where floats skip integers: seed = 1e23
    would name the key 99999999999999991611392."""
    raw = sec.get(key, default)
    if not _is_number(raw):
        rule = "a number"
    elif not math.isfinite(raw):
        rule = "finite"
    elif cast is int and raw != int(raw):
        rule = "an integer"
    elif cast is int and isinstance(raw, float) and abs(raw) > 2**53:
        rule = "written without float notation above 2**53"
    else:
        return cast(raw)
    errors.append(f"[{where}] {key} must be {rule}, got {_fmt(raw)!r}")
    return default


def _numbers(sec: dict, key: str, default, errors: list, where: str):
    """sec[key] (or default when absent) as a tuple of floats, a scalar
    being a list of one; as _number for an entry that is not a finite
    number."""
    raw = sec.get(key, default)
    vals = raw if isinstance(raw, tuple) else (raw,)
    if all(_is_number(v) and math.isfinite(v) for v in vals):
        return tuple(float(v) for v in vals)
    rule = "finite numbers" if all(_is_number(v) for v in vals) else "numbers"
    errors.append(f"[{where}] {key} must be a list of {rule}, got {_fmt(raw)!r}")
    return default


def _build_kinded(cls, sec: dict, errors: list, where: str, dim: int = 1):
    """The cls (a key of _KINDED) of sec, from its kind's row of the table
    and the declared constants, checked by cls; cls() when that fails.  A
    list parameter must have 1 or dim entries (no potential kind reads a
    list, so potentials leave dim out).  cls checks the kind first, so an
    unknown kind is always reported; a known kind is checked whenever every
    value parsed and no parameter is missing, whatever unread keys or list
    lengths the section has."""
    table, declared_keys = _KINDED[cls]
    kind = str(sec.get("kind", cls.kind))
    reads = table.get(kind, {})
    reported = len(errors)
    declared = {name: _number(sec, key, getattr(cls, name), errors, where,
                              type(getattr(cls, name))) for key, name in declared_keys.items()}
    params = {key: (_numbers if isinstance(default, tuple) else _number)(
                  sec, key, default, errors, where)
              for key, default in reads.items() if key in sec or default is not None}
    missing = [key for key in reads if key not in params]
    checkable = kind not in table or (not missing and len(errors) == reported)
    errors += [f"[{where}] kind {kind!r} missing parameter {key!r}" for key in missing]
    if kind in table:
        errors += [f"[{where}] kind {kind!r} does not read {key!r}"
                   for key in sec if key not in reads and key != "kind" and key not in declared_keys]
    errors += [f"[{where}] {key} must have 1 or dim = {dim} entries, got {len(value)}"
               for key, value in params.items()
               if isinstance(value, tuple) and len(value) not in (1, dim)]
    if checkable:
        try:
            return cls(kind, params, **declared)
        except ValueError as exc:
            hint = "" if kind in table else _did_you_mean(kind, table)
            errors.append(f"[{where}] {exc}{hint}")
    return cls()


def _observation_times(exp: dict, horizon: float, dt: float, errors: list, grid_known: bool):
    """The observation times, from obs_times or from obs_stride and
    obs_count; None, with the error reported, when they cannot be formed.
    A stride or count that asks for more times than the dt grid holds in
    [0, horizon] is refused before any array is built, reported only when
    grid_known (else the horizon or dt stood in for has its own error)."""
    if "obs_times" in exp:
        both = [k for k in ("obs_stride", "obs_count") if k in exp]
        if both:
            errors.append(f"[experiment] obs_times cannot be given with {' and '.join(both)}")
        return _numbers(exp, "obs_times", None, errors, "experiment")
    stride = _number(exp, "obs_stride", max(horizon / 20.0, dt), errors, "experiment")
    if stride <= 0:
        errors.append("[experiment] obs_stride must be > 0")
        return None
    span = horizon / stride  # inf when a subnormal stride overflows it
    count = (_number(exp, "obs_count", 1, errors, "experiment", int) if "obs_count" in exp
             else round(span) + 1 if math.isfinite(span) else math.inf)
    grid = (max(horizon, 0.0) + 1e-9) / dt + 1e-9 + 1.0  # with the slack of observation_steps
    if count > grid:
        if not grid_known:
            return None
        what = f"obs_count = {count}" if "obs_count" in exp else f"obs_stride = {stride!r}"
        errors.append(f"[experiment] {what} asks for more observation times than the "
                      f"{math.floor(grid)} the dt = {dt!r} step grid holds in [0, horizon]")
        return None
    return tuple(float(t) for t in np.round(np.arange(count) * stride, 12))


def observation_time_errors(times, horizon: float, dt: float | None) -> list:
    """Errors for observation times outside [0, horizon] and, unless dt is
    None, for times off the step grid by more than the slack of
    dynamics.observation_steps, which would report the state of an earlier
    step under the requested time."""
    errors = []
    inside = [t for t in times if 0 <= t <= horizon + 1e-9]  # NaN and inf fail too
    if len(inside) < len(times):
        errors.append("observation times must lie in [0, horizon]")
    off = [t for t in inside if abs(t / dt - round(t / dt)) > 1e-9] if dt else []
    if off:
        k = off[0] / dt
        more = f"; {len(off) - 1} more times are off the grid" if len(off) > 1 else ""
        errors.append(
            f"observation time {off[0]!r} is off the dt = {dt!r} step grid; "
            f"its neighbouring grid times are {round(math.floor(k) * dt, 12)!r} and "
            f"{round(math.ceil(k) * dt, 12)!r}{more}"
        )
    return errors


def parse_config(text: str) -> SimConfig:
    """Parse and fully validate; raises ConfigError carrying every
    validation error, not just the first."""
    errors: list = []
    tree = _parse_tree(text, errors)

    pv = _build_kinded(Potential, tree.get("potential_V", {}), errors, "potential_V")
    pw = _build_kinded(Potential, tree.get("potential_W", {}), errors, "potential_W")

    dyn = tree.get("dynamics", {})
    n = _number(dyn, "n", 16, errors, "dynamics", int)
    dim = _number(dyn, "dim", 1, errors, "dynamics", int)
    mode = str(dyn.get("mode", "projected"))
    if n < 2:
        errors.append("[dynamics] n must be >= 2")
    if dim < 1:
        errors.append("[dynamics] dim must be >= 1")
    if mode not in ("raw", "projected"):
        errors.append(f"[dynamics] mode must be raw or projected, got {mode!r}")
    if mode == "projected" and not pv.is_zero:
        errors.append(
            "[dynamics] mode=projected requires potential_V kind zero "
            "(the projected system is defined only for a vanishing confinement)"
        )
    reported = len(errors)
    policy = StepPolicy()
    try:
        policy = StepPolicy(
            scheme=str(dyn.get("scheme", StepPolicy.scheme)),
            dt=_number(dyn, "dt", StepPolicy.dt, errors, "dynamics"),
        )
    except ValueError as exc:
        errors.append(f"[dynamics] {exc}")
    policy_ok = len(errors) == reported

    exp = tree.get("experiment", {})
    reported = len(errors)
    horizon = _number(exp, "horizon", 1.0, errors, "experiment")
    horizon_ok = len(errors) == reported  # else reported as not a finite number
    if horizon <= 0:
        errors.append("[experiment] horizon must be > 0")
    obs = _observation_times(exp, horizon, policy.dt, errors, horizon_ok and policy_ok)
    if obs is not None:
        if not obs:
            errors.append("[experiment] at least one observation time is required")
        if list(obs) != sorted(set(obs)):
            errors.append("[experiment] observation times must be sorted and unique")
        errors += [f"[experiment] {e}" for e in observation_time_errors(
            obs, horizon if horizon_ok else math.inf, policy.dt if policy_ok else None)]
    if "seed" not in exp:
        errors.append("[experiment] seed is required (no wall-clock default)")
    seed = _number(exp, "seed", 0, errors, "experiment", int)
    if not 0 <= seed < SEED_LIMIT:
        errors.append(f"[experiment] seed must be in [0, 2**128), got {seed}")
    runs = _number(exp, "runs", 1, errors, "experiment", int)
    if runs < 1:
        errors.append("[experiment] runs must be >= 1")

    law = _build_kinded(InitialLaw, tree.get("initial_law", {}), errors, "initial_law", dim)
    law_b = (_build_kinded(InitialLaw, tree["initial_law_b"], errors, "initial_law_b", dim)
             if "initial_law_b" in tree else None)

    out = tree.get("output", {})
    out_dir = str(out.get("dir", "out"))
    fmts = out.get("formats", ("csv",))
    if not isinstance(fmts, tuple):
        fmts = (fmts,)
    fmts = tuple(str(f) for f in fmts)
    bad = [f for f in fmts if f not in ("csv", "jsonl", "bin")]
    if bad:
        errors.append(f"[output] unknown formats {bad}")

    if errors:
        raise ConfigError(errors)
    return SimConfig(
        potential_V=pv,
        potential_W=pw,
        n=n,
        dim=dim,
        mode=mode,
        step_policy=policy,
        horizon=horizon,
        observation_times=obs,
        initial_law=law,
        initial_law_b=law_b,
        seed=seed,
        runs=runs,
        output_dir=out_dir,
        output_formats=fmts,
    )


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, tuple):
        return ",".join(_fmt(x) for x in v)
    return str(v)


def _kinded_items(obj):
    """The kind, the params sorted, then the constants obj declares."""
    return ([("kind", obj.kind)] + sorted(obj.params.items())
            + [(key, getattr(obj, name)) for key, name in _KINDED[type(obj)][1].items()])


def _result_sections(cfg: SimConfig) -> list:
    """(section, items) for every section that determines a result: all
    but [output]."""
    sections = [
        ("potential_V", _kinded_items(cfg.potential_V)),
        ("potential_W", _kinded_items(cfg.potential_W)),
        ("dynamics", [
            ("n", cfg.n),
            ("dim", cfg.dim),
            ("mode", cfg.mode),
            ("scheme", cfg.step_policy.scheme),
            ("dt", cfg.step_policy.dt),
        ]),
        ("initial_law", _kinded_items(cfg.initial_law)),
    ]
    if cfg.initial_law_b is not None:
        sections.append(("initial_law_b", _kinded_items(cfg.initial_law_b)))
    sections.append(("experiment", [
        ("horizon", cfg.horizon),
        ("obs_times", cfg.observation_times),
        ("seed", cfg.seed),
        ("runs", cfg.runs),
    ]))
    return sections


def _render(sections) -> str:
    lines = []
    for name, items in sections:
        lines.append(f"[{name}]")
        lines += [f"{k} = {_fmt(v)}" for k, v in items]
        lines.append("")
    return "\n".join(lines)


def canonical_text(cfg: SimConfig) -> str:
    """Byte-stable serialization: fixed section and key order, repr floats.
    parse_config(canonical_text(cfg)) reproduces cfg."""
    output = ("output", [("dir", cfg.output_dir), ("formats", cfg.output_formats)])
    return _render(_result_sections(cfg) + [output])


def config_hash(cfg: SimConfig, arguments: dict | None = None) -> str:
    """Hash of exactly what determines a result: the canonical config
    without its [output] section, plus the experiment's arguments (JSON
    with sorted keys; none and an empty dict hash alike)."""
    text = _render(_result_sections(cfg))
    if arguments:
        text += json.dumps(arguments, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def declared_reports(cfg: SimConfig) -> list:
    """(potential name, report) for every condition that potential_V or
    potential_W declares, probed by the condition checkers."""
    return [(name, rep)
            for name, pot in (("potential_V", cfg.potential_V), ("potential_W", cfg.potential_W))
            for rep in potentials.check_declared(pot, cfg.dim)]


def validate_potentials(cfg: SimConfig):
    """Run the condition checkers on the declared constants; returns the
    reports and raises ConfigError when any declared condition fails."""
    reports = declared_reports(cfg)
    errors = [
        f"[{name}] declared condition {rep.condition_name} violated "
        f"by {rep.worst_violation:.3g} on the probe set"
        for name, rep in reports if not rep.satisfied
    ]
    if errors:
        raise ConfigError(errors)
    return reports
