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
from .dynamics import LAW_KINDS, InitialLaw, StepPolicy

_POTENTIAL_KEYS = {
    "kind", "p", "kappa", "amplitude", "radius", "m", "lambda", "C", "A", "alpha",
}
_POTENTIAL_NUMBERS = {"p", "kappa", "amplitude", "radius"}
_DYNAMICS_KEYS = {"n", "dim", "mode", "scheme", "dt"}
_LAW_KEYS = {"kind", "mean", "sigma", "half_width", "point_a", "point_b", "weight"}
_EXPERIMENT_KEYS = {"horizon", "obs_stride", "obs_count", "obs_times", "seed", "runs"}
_OUTPUT_KEYS = {"dir", "formats"}
_SECTIONS = {
    "potential_V": _POTENTIAL_KEYS,
    "potential_W": _POTENTIAL_KEYS,
    "dynamics": _DYNAMICS_KEYS,
    "initial_law": _LAW_KEYS,
    "initial_law_b": _LAW_KEYS,
    "experiment": _EXPERIMENT_KEYS,
    "output": _OUTPUT_KEYS,
}


class ConfigError(ValueError):
    """Carries the full list of validation errors."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class SimConfig:
    potential_V: potentials.Potential
    potential_W: potentials.Potential
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

    # Run r owns the STREAM_STRIDE stream ids from STREAM_STRIDE * r: its
    # particles draw from the first, and each role below from the id at
    # its offset.
    STREAM_STRIDE = 8
    PARTNER_STREAM = 1  # the coupled partner's initial draw
    AUX_STREAM = 2  # the chaos scan's auxiliary ensemble
    HALF_AUX_STREAM = 3  # its half-size copy for the proxy-bias check

    def stream_for_run(self, run: int, role: int = 0) -> int:
        return self.STREAM_STRIDE * int(run) + role


def _parse_scalar(raw: str):
    s = raw.strip()
    if s.lower() in ("true", "false"):
        return s.lower() == "true"
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
        if "," in raw:
            tree[section][key] = tuple(_parse_scalar(v) for v in raw.split(","))
        else:
            tree[section][key] = _parse_scalar(raw)
    return tree


def _did_you_mean(word: str, valid, form: str = "{!r}") -> str:
    near = difflib.get_close_matches(word, valid, n=1)
    return f" (did you mean {form.format(near[0])}?)" if near else ""


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _number(sec: dict, key: str, default, errors: list, where: str, cast=float):
    """sec[key] (or default when absent) cast to a number; a value that is
    not one adds an error naming section and key and yields default."""
    raw = sec.get(key, default)
    if _is_number(raw):
        return cast(raw)
    errors.append(f"[{where}] {key} must be a number, got {_fmt(raw)!r}")
    return default


def _numbers(sec: dict, key: str, default, errors: list, where: str):
    """sec[key] (or default when absent) as a tuple of floats, a scalar
    being a list of one; as _number for an entry that is not a number."""
    raw = sec.get(key, default)
    vals = raw if isinstance(raw, tuple) else (raw,)
    if all(_is_number(v) for v in vals):
        return tuple(float(v) for v in vals)
    errors.append(f"[{where}] {key} must be a list of numbers, got {_fmt(raw)!r}")
    return default


def _build_potential(sec: dict, errors: list, where: str):
    kind = sec.get("kind", "zero")
    reported = len(errors)
    declared = {
        "growth_exponent_m": _number(sec, "m", 1, errors, where, int),
        "declared_lambda": _number(sec, "lambda", 0.0, errors, where),
        "declared_C": _number(sec, "C", 0.0, errors, where),
        "declared_A": _number(sec, "A", 0.0, errors, where),
        "declared_alpha": _number(sec, "alpha", 0.0, errors, where),
    }
    params = {k: _number(sec, k, None, errors, where) for k in _POTENTIAL_NUMBERS & sec.keys()}
    if len(errors) > reported:
        return potentials.zero()
    sec = {**sec, **params}
    try:
        if kind == "zero":
            return potentials.zero()
        if kind == "power_law":
            return potentials.power_law(sec["p"], **declared)
        if kind == "quadratic":
            return potentials.quadratic(sec.get("kappa", 1.0), **declared)
        if kind == "uniform_plus_bump":
            return potentials.uniform_plus_bump(
                sec["kappa"], sec["amplitude"], sec["radius"], **declared
            )
        errors.append(f"[{where}] unknown potential kind {kind!r}")
    except KeyError as exc:
        errors.append(f"[{where}] kind {kind!r} missing parameter {exc.args[0]!r}")
    except ValueError as exc:
        errors.append(f"[{where}] {exc}")
    return potentials.zero()


def _build_law(sec: dict, errors: list, where: str) -> InitialLaw:
    kind = str(sec.get("kind", "gaussian"))
    if kind not in LAW_KINDS:
        hint = _did_you_mean(kind, LAW_KINDS)
        errors.append(f"[{where}] unknown initial law kind {kind!r}{hint}")
    return InitialLaw(
        kind=kind,
        mean=_numbers(sec, "mean", (0.0,), errors, where),
        sigma=_number(sec, "sigma", 1.0, errors, where),
        half_width=_number(sec, "half_width", 1.0, errors, where),
        point_a=_numbers(sec, "point_a", (0.0,), errors, where),
        point_b=_numbers(sec, "point_b", (1.0,), errors, where),
        weight=_number(sec, "weight", 0.5, errors, where),
    )


def _observation_times(exp: dict, horizon: float, dt: float, errors: list):
    """The observation times, from obs_times or from obs_stride and
    obs_count; None, with the error reported, when they cannot be formed."""
    if "obs_times" in exp:
        return _numbers(exp, "obs_times", None, errors, "experiment")
    stride = _number(exp, "obs_stride", max(horizon / 20.0, dt), errors, "experiment")
    if stride <= 0:
        errors.append("[experiment] obs_stride must be > 0")
        return None
    count = _number(exp, "obs_count", int(round(horizon / stride)) + 1, errors, "experiment", int)
    return tuple(float(t) for t in np.round(np.arange(count) * stride, 12))


def observation_time_errors(times, horizon: float, dt: float | None) -> list:
    """Errors for observation times outside [0, horizon] and, unless dt is
    None, for times off the step grid by more than the slack of
    dynamics.observation_steps, which would report the state of an earlier
    step under the requested time."""
    errors = []
    if any(t < 0 or t > horizon + 1e-9 for t in times):
        errors.append("observation times must lie in [0, horizon]")
    off = [t for t in times if abs(t / dt - round(t / dt)) > 1e-9] if dt else []
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

    pv = _build_potential(tree.get("potential_V", {"kind": "zero"}), errors, "potential_V")
    pw = _build_potential(tree.get("potential_W", {"kind": "zero"}), errors, "potential_W")

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
            scheme=str(dyn.get("scheme", "tamed")),
            dt=_number(dyn, "dt", 0.01, errors, "dynamics"),
        )
    except ValueError as exc:
        errors.append(f"[dynamics] {exc}")
    policy_ok = len(errors) == reported

    exp = tree.get("experiment", {})
    horizon = _number(exp, "horizon", 1.0, errors, "experiment")
    horizon_ok = _is_number(exp.get("horizon", 1.0))  # else reported as not a number
    if horizon <= 0:
        errors.append("[experiment] horizon must be > 0")
    obs = _observation_times(exp, horizon, policy.dt, errors)
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
    runs = _number(exp, "runs", 1, errors, "experiment", int)
    if runs < 1:
        errors.append("[experiment] runs must be >= 1")

    law = _build_law(tree.get("initial_law", {}), errors, "initial_law")
    law_b = _build_law(tree["initial_law_b"], errors, "initial_law_b") if "initial_law_b" in tree else None

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
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, tuple):
        return ",".join(_fmt(x) for x in v)
    return str(v)


def _potential_items(p: potentials.Potential):
    items = [("kind", p.kind)] + sorted(p.params.items())
    items += [
        ("m", p.growth_exponent_m),
        ("lambda", p.declared_lambda),
        ("C", p.declared_C),
        ("A", p.declared_A),
        ("alpha", p.declared_alpha),
    ]
    return items


def _law_items(law: InitialLaw):
    items = [("kind", law.kind)]
    if law.kind == "gaussian":
        items += [("mean", law.mean), ("sigma", law.sigma)]
    elif law.kind == "uniform":
        items += [("half_width", law.half_width)]
    elif law.kind == "two_point":
        items += [("point_a", law.point_a), ("point_b", law.point_b), ("weight", law.weight)]
    return items


def _result_sections(cfg: SimConfig) -> list:
    """(section, items) for every section that determines a result: all
    but [output]."""
    sections = [
        ("potential_V", _potential_items(cfg.potential_V)),
        ("potential_W", _potential_items(cfg.potential_W)),
        ("dynamics", [
            ("n", cfg.n),
            ("dim", cfg.dim),
            ("mode", cfg.mode),
            ("scheme", cfg.step_policy.scheme),
            ("dt", cfg.step_policy.dt),
        ]),
        ("initial_law", _law_items(cfg.initial_law)),
    ]
    if cfg.initial_law_b is not None:
        sections.append(("initial_law_b", _law_items(cfg.initial_law_b)))
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
            if not pot.is_zero
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
