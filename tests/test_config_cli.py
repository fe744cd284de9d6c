"""Config parsing/validation, canonical serialization, and the CLI surface."""

import itertools
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gmsim import experiments, potentials
from gmsim.cli import EXIT_BOUND, EXIT_OK, EXIT_USAGE, run_cli
from gmsim.config import (
    ConfigError,
    canonical_text,
    config_hash,
    parse_config,
    validate_potentials,
)
from gmsim.dynamics import LAW_PARAMS, observation_steps
from gmsim.experiments import PARTNER_STREAM, run_streams
from gmsim.metrics import ExpSquareMomentSeries, MomentSeries
from gmsim.rng import BrownianSource

from conftest import config_text, make_config


# ---------------------------------------------------------------------------
# parsing and validation

def test_minimal_config_fills_defaults():
    cfg = parse_config(
        "[potential_W]\nkind = power_law\np = 4.0\n"
        "[experiment]\nhorizon = 1.0\nseed = 3\n"
    )
    assert cfg.n == 16
    assert cfg.dim == 1
    assert cfg.mode == "projected"
    assert cfg.step_policy.scheme == "tamed"
    assert cfg.potential_V.is_zero
    assert cfg.output_formats == ("csv",)


def test_projected_with_confinement_rejected():
    with pytest.raises(ConfigError, match="projected"):
        make_config(potential_V={"kind": "quadratic", "kappa": 1.0})


def test_seed_is_mandatory():
    with pytest.raises(ConfigError, match="seed"):
        parse_config("[experiment]\nhorizon = 1.0\n")


def test_unknown_key_has_nearest_hint():
    with pytest.raises(ConfigError, match="did you mean 'dt'"):
        make_config(dynamics={"dtt": 0.1})


def test_unknown_section_has_nearest_hint():
    with pytest.raises(ConfigError, match=r"did you mean \[dynamics\]"):
        parse_config("[dynamcs]\nn = 4\n[experiment]\nseed = 1\n")


def test_all_errors_reported_at_once():
    text = config_text(
        dynamics={"n": 1, "mode": "weird"},
        experiment={"horizon": -1.0, "runs": 0, "seed": None},
    ).replace("seed = None\n", "")
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    msgs = "\n".join(exc.value.errors)
    for frag in ("n must be >= 2", "mode must be", "horizon must be > 0",
                 "runs must be >= 1", "seed is required"):
        assert frag in msgs
    assert len(exc.value.errors) >= 5


def test_observation_times_validated():
    with pytest.raises(ConfigError, match="sorted"):
        make_config(experiment={"obs_times": "0.5,0.25"})
    with pytest.raises(ConfigError, match="horizon"):
        make_config(experiment={"obs_times": "0.0,2.0", "horizon": 1.0})


def test_empty_observation_list_rejected():
    with pytest.raises(ConfigError, match="at least one observation time"):
        make_config(experiment={"obs_times": None, "obs_stride": 0.5, "obs_count": 0})


def test_non_numeric_values_join_the_all_errors_report():
    text = config_text(
        potential_W={"p": "four"},
        dynamics={"n": "abc", "dt": "0.1,0.2"},
        experiment={"obs_times": "", "runs": 0},
    )
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert exc.value.errors == [
        "[potential_W] p must be a number, got 'four'",
        "[dynamics] n must be a number, got 'abc'",
        "[dynamics] dt must be a number, got '0.1,0.2'",
        "[experiment] obs_times must be a list of numbers, got ''",
        "[experiment] runs must be >= 1",
    ]
    # a horizon that is not a number does not also put the times out of range
    with pytest.raises(ConfigError) as exc:
        make_config(experiment={"horizon": "long", "obs_times": "0.0,2.0"})
    assert exc.value.errors == ["[experiment] horizon must be a number, got 'long'"]


def test_integral_numbers_load_for_integer_keys():
    cfg = make_config(potential_W={"m": 3.0}, dynamics={"n": 8.0, "dim": 2.0},
                      experiment={"obs_times": None, "obs_stride": 0.5, "obs_count": 3.0,
                                  "runs": 2.0, "seed": 5.0})
    values = (cfg.potential_W.growth_exponent_m, cfg.n, cfg.dim, cfg.runs, cfg.seed)
    assert values == (3, 8, 2, 2, 5)
    assert all(type(v) is int for v in values)
    assert cfg.observation_times == (0.0, 0.5, 1.0)


def test_duplicate_keys_join_the_all_errors_report():
    text = ("[dynamics]\nn = 16\nn = 8\n"
            "[experiment]\nseed = 3\nhorizon = 1.0\n"
            "[dynamics]\ndim = 2\n"
            "[experiment]\nseed = 4\n")
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert exc.value.errors == [
        "line 3: 'n' in [dynamics] is already set on line 2",
        "line 10: 'seed' in [experiment] is already set on line 5",
    ]
    # a repeated header that sets new keys is not a duplicate
    cfg = parse_config("[dynamics]\nn = 8\n[experiment]\nseed = 3\n[dynamics]\ndim = 2\n")
    assert (cfg.n, cfg.dim, cfg.seed) == (8, 2, 3)


@pytest.mark.parametrize("extra, named", [
    ({"obs_stride": 0.25}, "obs_stride"),
    ({"obs_count": 5}, "obs_count"),
    ({"obs_stride": 0.25, "obs_count": 5}, "obs_stride and obs_count"),
])
def test_obs_times_with_a_stride_or_count_is_a_config_error(extra, named):
    with pytest.raises(ConfigError) as exc:
        make_config(experiment={"obs_times": "0.0,0.5,1.0", **extra})
    assert exc.value.errors == [f"[experiment] obs_times cannot be given with {named}"]


def test_off_grid_observation_times_rejected():
    with pytest.raises(ConfigError) as exc:
        make_config(dynamics={"dt": 0.1}, experiment={"obs_times": "0.0,0.215,0.25"})
    assert exc.value.errors == [
        "[experiment] observation time 0.215 is off the dt = 0.1 step grid; its neighbouring "
        "grid times are 0.2 and 0.3; 1 more times are off the grid"
    ]
    with pytest.raises(ConfigError, match="0.25 is off the dt = 0.1 step grid"):
        make_config(dynamics={"dt": 0.1},
                    experiment={"obs_times": None, "obs_stride": 0.25, "obs_count": 3})
    # 0.3 / 0.1 is 2.9999999999999996, inside the slack of observation_steps
    cfg = make_config(dynamics={"dt": 0.1}, experiment={"obs_times": "0.0,0.3"})
    assert observation_steps(cfg.observation_times, 0.1) == [0, 3]


def test_removed_and_unknown_inputs_are_one_report_line_each():
    text = config_text(
        dynamics={"scheme": "adaptive", "dt_min": 1e-6, "adaptive_drift_cap": 0.5},
        initial_law={"kind": "gausian", "center_to_zero": "true"},
        initial_law_b={"kind": "sample_file"},
        potential_W={"kind": "power_lw"},
    )
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    errors = exc.value.errors
    expected = [
        "unknown key 'dt_min' in [dynamics]",
        "unknown key 'adaptive_drift_cap' in [dynamics]",
        "unknown key 'center_to_zero' in [initial_law]",
        "[dynamics] unknown scheme 'adaptive'",
        "[initial_law] unknown initial law kind 'gausian' (did you mean 'gaussian'?)",
        "[initial_law_b] unknown initial law kind 'sample_file'",
        "[potential_W] unknown potential kind 'power_lw' (did you mean 'power_law'?)",
    ]
    assert len(errors) == len(expected)
    for frag in expected:
        assert sum(frag in e for e in errors) == 1, frag


@pytest.mark.parametrize("section, law, error", [
    ("initial_law", {"mean": "1.0,2.0,3.0"},
     "[initial_law] mean must have 1 or dim = 2 entries, got 3"),
    ("initial_law", {"sigma": -1.0}, "[initial_law] sigma must be >= 0, got -1.0"),
    ("initial_law", {"kind": "uniform", "half_width": -0.5},
     "[initial_law] half_width must be >= 0, got -0.5"),
    ("initial_law_b", {"kind": "two_point", "point_b": "0.0,1.0,2.0"},
     "[initial_law_b] point_b must have 1 or dim = 2 entries, got 3"),
    ("initial_law_b", {"kind": "two_point", "point_a": "1.0,2.0", "weight": 1.5},
     "[initial_law_b] weight must be in [0, 1], got 1.5"),
    ("initial_law_b", {"kind": "two_point", "weight": -0.25},
     "[initial_law_b] weight must be in [0, 1], got -0.25"),
])
def test_bad_initial_law_fields_are_rejected_at_load(section, law, error):
    # Each parameter the law's kind reads is checked against dim and its
    # range, the list lengths here and the ranges by InitialLaw.
    with pytest.raises(ConfigError) as exc:
        make_config(dynamics={"dim": 2}, experiment={"runs": 0}, **{section: law})
    assert exc.value.errors == ["[experiment] runs must be >= 1", error]


def test_obs_stride_generates_grid():
    cfg = make_config(experiment={"obs_times": None, "obs_stride": 0.25,
                                  "obs_count": 5, "horizon": 1.0})
    assert cfg.observation_times == (0.0, 0.25, 0.5, 0.75, 1.0)


# A potential_W for every kind; quadratic leaves kappa to its default,
# which the canonical text then spells out.
ROUND_TRIP_W = {
    potentials.POWER_LAW: {"p": 3.0},
    potentials.QUADRATIC: {"p": None, "lambda": 2.0},
    potentials.UNIFORM_PLUS_BUMP: {"p": None, "kappa": 1.0, "amplitude": 0.7, "radius": 2.0},
    potentials.ZERO: {"p": None, "m": None, "A": None, "alpha": None},
}


@pytest.mark.parametrize("kind", potentials.KIND_PARAMS)
def test_round_trip_is_structural_identity(kind):
    cfg = make_config(
        potential_W={"kind": kind, **ROUND_TRIP_W[kind]},
        initial_law={"kind": "two_point", "point_a": -1.0, "point_b": 1.0},
        initial_law_b={"kind": "gaussian", "mean": 2.0, "sigma": 0.5},
    )
    text = canonical_text(cfg)
    again = parse_config(text)
    assert again == cfg
    assert canonical_text(again) == text
    assert f"[potential_W]\nkind = {kind}\n" in text
    if kind == potentials.QUADRATIC:
        assert cfg.potential_W.params == {"kappa": 1.0}
        assert "\nkappa = 1.0\n" in text


# An initial law for every kind in d = 2; uniform leaves half_width to its
# default, which the canonical text then spells out.
ROUND_TRIP_LAW = {
    "gaussian": {"mean": "2.0,-1.0", "sigma": 0.5},
    "uniform": {},
    "two_point": {"point_a": "-1.0,0.5", "point_b": "1.0,2.0", "weight": 0.25},
}


@pytest.mark.parametrize("section", ["initial_law", "initial_law_b"])
@pytest.mark.parametrize("kind", LAW_PARAMS)
def test_round_trip_covers_every_initial_law_kind(kind, section):
    cfg = make_config(dynamics={"dim": 2}, **{section: {"kind": kind, **ROUND_TRIP_LAW[kind]}})
    text = canonical_text(cfg)
    again = parse_config(text)
    assert again == cfg
    assert canonical_text(again) == text
    law = getattr(cfg, section)
    assert law.kind == kind and sorted(law.params) == sorted(LAW_PARAMS[kind])
    assert f"[{section}]\nkind = {kind}\n" in text
    if kind == "uniform":
        assert law.params == {"half_width": 1.0}
        assert "\nhalf_width = 1.0\n" in text
    if kind == "two_point":
        assert law.params["point_a"] == (-1.0, 0.5)
        assert "\npoint_a = -1.0,0.5\npoint_b = 1.0,2.0\nweight = 0.25\n" in text


def test_config_hash_stable_and_sensitive():
    a = make_config()
    b = make_config()
    c = make_config(experiment={"seed": 99})
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)
    assert len(config_hash(a)) == 12
    # the output section does not change the result, so not the hash
    d = make_config(output={"dir": "elsewhere", "formats": "csv,bin"})
    assert canonical_text(d) != canonical_text(a)
    assert config_hash(d) == config_hash(a)
    # the experiment's arguments do; no arguments hash like none at all
    assert config_hash(a, {}) == config_hash(a)
    assert config_hash(a, {"n_values": [8, 16]}) != config_hash(a)
    assert config_hash(a, {"n_values": [8, 16]}) != config_hash(a, {"n_values": [8, 32]})


def test_validate_potentials_accepts_true_constants():
    reports = validate_potentials(make_config())
    assert reports and all(rep.satisfied for _, rep in reports)


def test_validate_potentials_rejects_false_declaration():
    cfg = make_config(potential_W={"kind": "quadratic", "kappa": 1.0, "A": 10.0,
                                   "alpha": 0.0, "p": None})
    with pytest.raises(ConfigError, match="C_A_alpha"):
        validate_potentials(cfg)


@pytest.mark.parametrize(
    "path", sorted(Path(__file__).resolve().parent.parent.glob("configs/*.cfg")),
    ids=lambda p: p.name,
)
def test_shipped_config_parses_and_validates(path):
    reports = validate_potentials(parse_config(path.read_text()))
    assert all(rep.satisfied for _, rep in reports)


def test_start_up_check_imports_neither_scipy_stats_nor_scipy_optimize():
    # Both packages cost most of a fresh interpreter's start-up; the check
    # that runs before every command needs neither.
    script = (
        "import sys, gmsim.cli\n"
        "from gmsim.config import parse_config, validate_potentials\n"
        f"validate_potentials(parse_config({config_text()!r}))\n"
        "print(sorted(m for m in sys.modules"
        " if m.split('.')[:2] in (['scipy', 'stats'], ['scipy', 'optimize'])))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"


def test_potential_parameter_errors_reported():
    with pytest.raises(ConfigError, match="missing parameter"):
        make_config(potential_W={"kind": "power_law", "p": None})
    with pytest.raises(ConfigError, match=">= 2"):
        make_config(potential_W={"kind": "power_law", "p": 1.0})
    # one error for each parameter the kind needs and the config lacks
    with pytest.raises(ConfigError) as exc:
        make_config(potential_W={"kind": "uniform_plus_bump", "p": None, "amplitude": 0.7})
    assert exc.value.errors == [
        "[potential_W] kind 'uniform_plus_bump' missing parameter 'kappa'",
        "[potential_W] kind 'uniform_plus_bump' missing parameter 'radius'",
    ]


def test_a_parameter_the_kind_does_not_read_is_refused():
    # a stray key would otherwise load and be left out of the canonical text
    # and the hash
    with pytest.raises(ConfigError) as exc:
        make_config(potential_V={"kappa": 1.0}, potential_W={"kind": "quadratic"})
    assert exc.value.errors == [
        "[potential_V] kind 'zero' does not read 'kappa'",
        "[potential_W] kind 'quadratic' does not read 'p'",
    ]
    # every other key is a declared constant, which every kind reads
    cfg = make_config(potential_W={"kind": "quadratic", "p": None, "lambda": 1.0, "C": 0.5})
    assert cfg.potential_W.declared_C == 0.5


def test_a_sections_kind_check_joins_its_other_errors():
    # an unknown kind, or a range the kind refuses, is reported beside the
    # section's other errors instead of surfacing on the next load
    with pytest.raises(ConfigError) as exc:
        make_config(potential_W={"kind": "power_lw", "A": "inf"})
    assert exc.value.errors == [
        "[potential_W] A must be finite, got 'inf'",
        "[potential_W] unknown potential kind 'power_lw' (did you mean 'power_law'?)",
    ]
    with pytest.raises(ConfigError) as exc:
        make_config(initial_law={"kind": "uniform", "half_width": -1.0, "sigma": 2.0})
    assert exc.value.errors == [
        "[initial_law] kind 'uniform' does not read 'sigma'",
        "[initial_law] half_width must be >= 0, got -1.0",
    ]


def test_no_value_is_read_as_a_boolean():
    assert make_config(output={"dir": "TRUE"}).output_dir == "TRUE"
    with pytest.raises(ConfigError) as exc:
        make_config(dynamics={"mode": "true"})
    assert exc.value.errors == ["[dynamics] mode must be raw or projected, got 'true'"]
    with pytest.raises(ConfigError) as exc:
        make_config(dynamics={"n": "true"})
    assert exc.value.errors == ["[dynamics] n must be a number, got 'true'"]


def test_the_zero_potential_declares_no_constant():
    # no checker probes a zero potential, so a constant it declared would
    # reach a verdict unchecked
    with pytest.raises(ConfigError) as exc:
        make_config(potential_V={"m": 2, "lambda": 1.0, "C": 0.0, "A": 1.0, "alpha": 0.0})
    assert exc.value.errors == [
        "[potential_V] the zero potential declares no constant (m, lambda, C, A, alpha)",
    ]
    # the defaults, which the canonical text spells out, load
    assert make_config(potential_V={"m": 1, "lambda": 0.0}).potential_V == potentials.zero()


def test_negative_growth_exponent_joins_the_all_errors_report():
    # a negative m would otherwise load and silently skip the A3 check
    with pytest.raises(ConfigError) as exc:
        make_config(potential_W={"m": -1}, dynamics={"n": 1})
    assert exc.value.errors == ["[potential_W] m must be >= 0", "[dynamics] n must be >= 2"]


# ---------------------------------------------------------------------------
# CLI

def write_cfg(tmp_path, **overrides):
    path = tmp_path / "exp.cfg"
    path.write_text(config_text(**overrides))
    return str(path)


def load_summary(path):
    """The summary at path, after checking that its config echo and
    arguments hash back to its config_hash."""
    summary = json.loads(Path(path).read_text())
    echoed = parse_config(summary["config_echo"])
    assert config_hash(echoed, summary["arguments"]) == summary["config_hash"]
    return summary


def test_cli_requires_seed(tmp_path, capsys):
    path = write_cfg(tmp_path)
    assert run_cli(["simulate", "--config", path]) == EXIT_USAGE
    capsys.readouterr()


def test_cli_check_potential_json(tmp_path, capsys, monkeypatch):
    calls = []
    check_C = potentials.check_condition_C

    def counted(*args, **kwargs):
        calls.append(args)
        return check_C(*args, **kwargs)

    monkeypatch.setattr(potentials, "check_condition_C", counted)
    path = write_cfg(tmp_path)
    assert run_cli(["check-potential", "--config", path]) == EXIT_OK
    reports = json.loads(capsys.readouterr().out)
    assert {r["condition_name"] for r in reports} == {"C_A_alpha", "A3"}
    assert all(r["satisfied"] for r in reports)
    assert len(calls) == 1  # each checker runs once


def test_cli_check_potential_bound_violation(tmp_path, capsys):
    # The violated declaration is reported, not refused as a config error.
    path = write_cfg(tmp_path, potential_W={"kind": "quadratic", "kappa": 1.0,
                                            "A": 10.0, "alpha": 0.0, "p": None,
                                            "m": 1})
    code = run_cli(["check-potential", "--config", path])
    reports = json.loads(capsys.readouterr().out)
    assert code == EXIT_BOUND
    assert [(r["condition_name"], r["satisfied"]) for r in reports] == [
        ("C_A_alpha", False), ("A3", True)]


def test_cli_sampled_potential_kind_is_unknown(tmp_path, capsys):
    path = write_cfg(tmp_path, potential_W={"kind": "sampled", "p": None, "m": None,
                                            "A": None, "alpha": None})
    assert run_cli(["check-potential", "--config", path]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == "config error: [potential_W] unknown potential kind 'sampled'\n"


@pytest.mark.parametrize("radius", ["0", "-2"])
@pytest.mark.parametrize("command", ["simulate", "check-potential"])
def test_cli_bump_radius_must_be_positive(tmp_path, capsys, command, radius):
    # radius = 0 died dividing by zero mid-run; radius = -2 ran as radius 2
    # under another hash.
    out = tmp_path / "out"
    path = write_cfg(tmp_path, output={"dir": str(out)}, potential_W={
        "kind": "uniform_plus_bump", "p": None, "kappa": 1.0, "amplitude": 0.7,
        "radius": radius})
    argv = [command, "--config", path] + (["--seed", "1"] if command == "simulate" else [])
    assert run_cli(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == "config error: [potential_W] uniform_plus_bump radius must be > 0\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command, declared", [("concentration", {"lambda": 1.0}),
                                               ("decay", {"A": 4.0})])
def test_cli_zero_w_with_a_declared_constant_is_a_config_error(tmp_path, capsys, command,
                                                               declared):
    # the constant would drive the harness's bound with no checker behind it
    out = tmp_path / "out"
    path = write_cfg(tmp_path, output={"dir": str(out)}, dynamics={"mode": "raw"}, potential_W={
        "kind": "zero", "p": None, "m": None, "A": None, "alpha": None, **declared})
    assert run_cli([command, "--config", path, "--seed", "1"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == ("config error: [potential_W] the zero potential declares no "
                            "constant (m, lambda, C, A, alpha)\n")
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_cli_threads_below_one_is_a_usage_error(tmp_path, capsys, threads):
    out = tmp_path / "out"
    path = write_cfg(tmp_path, output={"dir": str(out)})
    assert run_cli(["simulate", "--config", path, "--seed", "1",
                    "--threads", threads]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == f"error: --threads must be >= 1, got {threads}\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("overrides, error", [
    # dt = inf snapped every time to step 0 and exited 0
    ({"dynamics": {"dt": "inf"}}, "[dynamics] dt must be finite, got 'inf'"),
    ({"dynamics": {"dt": "nan"}}, "[dynamics] dt must be finite, got 'nan'"),
    ({"experiment": {"obs_times": "0.0,nan,1.0"}},
     "[experiment] obs_times must be a list of finite numbers, got '0.0,nan,1.0'"),
    ({"initial_law": {"sigma": "inf"}}, "[initial_law] sigma must be finite, got 'inf'"),
    ({"experiment": {"horizon": "inf"}}, "[experiment] horizon must be finite, got 'inf'"),
    ({"potential_W": {"A": "inf"}}, "[potential_W] A must be finite, got 'inf'"),
    # a fraction for an integer key was truncated: runs = 2.7 ran 2 runs
    ({"dynamics": {"n": 16.9}}, "[dynamics] n must be an integer, got '16.9'"),
    ({"dynamics": {"dim": 1.5}}, "[dynamics] dim must be an integer, got '1.5'"),
    ({"experiment": {"runs": 2.7}}, "[experiment] runs must be an integer, got '2.7'"),
    ({"experiment": {"seed": 7.5}}, "[experiment] seed must be an integer, got '7.5'"),
    ({"potential_W": {"m": 2.7}}, "[potential_W] m must be an integer, got '2.7'"),
    ({"experiment": {"obs_times": None, "obs_stride": 0.5, "obs_count": 2.5}},
     "[experiment] obs_count must be an integer, got '2.5'"),
])
def test_cli_non_finite_numbers_are_config_errors(tmp_path, capsys, overrides, error):
    out = tmp_path / "out"
    path = write_cfg(tmp_path, output={"dir": str(out)}, **overrides)
    assert run_cli(["simulate", "--config", path, "--seed", "1"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == f"config error: {error}\n"
    assert captured.out == ""
    assert not out.exists()


def test_cli_initial_law_parameter_its_kind_does_not_read_exits_usage(tmp_path, capsys):
    # the [initial_law] alone ran and exited 0, its stray keys unread and
    # out of the hash
    out = tmp_path / "out"
    path = write_cfg(tmp_path, output={"dir": str(out)},
                     initial_law={"kind": "uniform", "sigma": -5.0, "mean": "1.0,2.0,3.0",
                                  "weight": 7},
                     initial_law_b={"kind": "two_point", "half_width": 2.0})
    assert run_cli(["simulate", "--config", path, "--seed", "1"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == "".join(f"config error: {e}\n" for e in [
        "[initial_law] kind 'uniform' does not read 'sigma'",
        "[initial_law] kind 'uniform' does not read 'mean'",
        "[initial_law] kind 'uniform' does not read 'weight'",
        "[initial_law_b] kind 'two_point' does not read 'half_width'",
    ])
    assert captured.out == ""
    assert not out.exists()


def test_cli_config_errors_exit_usage(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("[dynamics]\nn = 1\n")
    assert run_cli(["simulate", "--config", str(path), "--seed", "1"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "config error" in err


def test_cli_simulate_writes_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    path = write_cfg(
        tmp_path,
        dynamics={"n": 6, "dt": 0.05},
        experiment={"horizon": 0.2, "obs_times": "0.0,0.1,0.2", "runs": 2},
        output={"dir": str(out), "formats": "csv,jsonl,bin"},
    )
    assert run_cli(["simulate", "--config", path, "--seed", "5"]) == EXIT_OK
    base = capsys.readouterr().out.strip()
    assert os.path.exists(base + ".csv")
    assert os.path.exists(base + ".jsonl")
    assert os.path.exists(base + "-run0.bin")


def test_cli_simulate_thread_count_invariance(tmp_path, capsys):
    # same seed, 1 vs 8 threads: byte-identical outputs
    outs = []
    for threads, sub in ((1, "a"), (8, "b")):
        out = tmp_path / sub
        path = write_cfg(
            tmp_path,
            dynamics={"n": 8, "dt": 0.02},
            experiment={"horizon": 0.1, "obs_times": "0.0,0.1", "runs": 8},
            output={"dir": str(out), "formats": "csv,jsonl"},
        )
        assert run_cli(["simulate", "--config", path, "--seed", "7",
                        "--threads", str(threads)]) == EXIT_OK
        base = capsys.readouterr().out.strip()
        outs.append({ext: open(base + ext, "rb").read() for ext in (".csv", ".jsonl")})
    assert outs[0] == outs[1]


def test_cli_simulate_csv_value_is_inf_without_a_warning_when_squares_overflow(tmp_path,
                                                                                capsys):
    # Raw Euler on V = 300 |x|^2 with dt 0.01 diverges; at t = 3 the
    # positions are near 1e210, so their squares overflow.
    out = tmp_path / "out"
    path = write_cfg(
        tmp_path,
        potential_V={"kind": "quadratic", "kappa": 300.0},
        potential_W={"kind": "zero", "p": None, "m": None, "A": None, "alpha": None},
        dynamics={"n": 4, "mode": "raw", "scheme": "euler", "dt": 0.01},
        experiment={"horizon": 3.0, "obs_times": "0.0,3.0", "runs": 2},
        output={"dir": str(out), "formats": "csv"},
    )
    assert run_cli(["simulate", "--config", path, "--seed", "1"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = Path(captured.out.strip() + ".csv").read_text().splitlines()
    assert rows[-1] == "3.0,inf,,simulate,"


def test_cli_simulate_positions_without_jsonl_is_refused(tmp_path, capsys):
    out = tmp_path / "out"
    path = write_cfg(tmp_path, output={"dir": str(out), "formats": "csv,bin"})
    code = run_cli(["simulate", "--config", path, "--seed", "1", "--positions"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err.startswith("error: --positions ") and "jsonl" in captured.err
    assert captured.err.count("\n") == 1
    assert not out.exists()


def test_cli_decay_quadratic(tmp_path, capsys):
    out = tmp_path / "out"
    path = write_cfg(
        tmp_path,
        potential_W={"kind": "quadratic", "kappa": 1.0, "A": 2.0, "alpha": 0.0,
                     "m": 1, "p": None},
        dynamics={"n": 8, "dt": 0.002, "scheme": "euler"},
        experiment={"horizon": 1.0, "obs_times": None, "obs_stride": 0.05,
                    "obs_count": 21, "runs": 16},
        initial_law={"kind": "gaussian", "sigma": 1.0},
        initial_law_b={"kind": "gaussian", "mean": 1.5, "sigma": 0.5},
        output={"dir": str(out)},
    )
    assert run_cli(["decay", "--config", path, "--seed", "11"]) == EXIT_OK
    summary = load_summary(capsys.readouterr().out.strip())
    rate = summary["result"]["exp_rate"]
    assert 3.6 <= rate <= 4.4
    assert summary["arguments"] == {}


def test_cli_decay_in_d2_starts_from_the_optimal_pairing(tmp_path, capsys):
    # In d > 1 the pair is matched by an exact assignment, so the raw-mode
    # xi(0) of each run is the minimum over all n! pairings of its draws.
    n, runs = 5, 3
    path = write_cfg(
        tmp_path,
        dynamics={"n": n, "dim": 2, "mode": "raw", "dt": 0.05},
        experiment={"horizon": 0.1, "obs_times": "0.0,0.1", "runs": runs},
        initial_law_b={"kind": "gaussian", "mean": "1.5,-0.5", "sigma": 0.5},
        output={"dir": str(tmp_path / "out")},
    )
    assert run_cli(["decay", "--config", path, "--seed", "7"]) in (EXIT_OK, EXIT_BOUND)
    summary = load_summary(capsys.readouterr().out.strip())
    cfg = parse_config(Path(path).read_text())
    src, best = BrownianSource(7), []
    for s, s_b in zip(run_streams(range(runs)), run_streams(range(runs), PARTNER_STREAM)):
        xa = cfg.initial_law.sample(src, s, n, 2)
        xb = cfg.initial_law_b.sample(src, s_b, n, 2)
        best.append(min(np.mean(np.sum((xa - xb[list(p)]) ** 2, axis=-1))
                        for p in itertools.permutations(range(n))))
    assert summary["result"]["xi"][0] == pytest.approx(np.mean(best), rel=1e-12)


def test_cli_integration_error_is_one_line(tmp_path, capsys):
    path = write_cfg(
        tmp_path,
        dynamics={"n": 4, "scheme": "euler"},
        initial_law={"kind": "gaussian", "sigma": 20.0},
        output={"dir": str(tmp_path / "out")},
    )
    with np.errstate(over="ignore", invalid="ignore"):
        code = run_cli(["simulate", "--config", path, "--seed", "1"])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite drift at entry [0, 0, 0]")
    assert err.count("\n") == 1


def test_cli_uniform_and_exp_square_moments_reach_report(tmp_path, capsys):
    out = tmp_path / "out"
    moments = write_cfg(
        tmp_path,
        experiment={"horizon": 1.0, "obs_times": None, "obs_stride": 0.25,
                    "obs_count": 5, "runs": 4},
        output={"dir": str(out)},
    )
    assert run_cli(["uniform-moments", "--config", moments, "--seed", "2"]) == EXIT_OK
    ou = tmp_path / "ou.cfg"
    ou.write_text(config_text(
        potential_V={"kind": "quadratic", "kappa": 0.5, "lambda": 1.0, "C": 0.0},
        potential_W={"kind": "zero", "p": None, "m": None, "A": None, "alpha": None},
        dynamics={"n": 32, "mode": "raw", "scheme": "euler", "dt": 0.01},
        initial_law={"kind": "two_point", "point_a": 0.0, "point_b": 0.0},
        experiment={"horizon": 0.5, "obs_times": "0.25,0.5", "runs": 8},
        output={"dir": str(out)},
    ))
    assert run_cli(["exp-square-moment", "--config", str(ou), "--seed", "3"]) == EXIT_OK
    paths = capsys.readouterr().out.split()
    assert [os.path.basename(p).split("-")[0] for p in paths] == ["uniform", "exp"]
    for p in paths:
        assert load_summary(p)["arguments"] == {}
        assert os.path.exists(p[: -len(".json")] + ".csv")
    run_cli(["report", "--out", str(out)])
    report = capsys.readouterr().out
    assert "uniform-moments [" in report and "zero_trend=pass" in report
    assert "exp-square-moment [" in report
    assert "closed_form_ok=pass" in report and "below_bound=pass" in report


def _one_failing_flag(command):
    """The harness command calls, a result as that harness returns it, and
    the result's flags, of which only the last fails."""
    pair, tail = np.array([0.0, 1.0]), np.array([0.2, 0.1])
    if command == "decay":
        flags = {"monotone": True, "envelope_ok": False}
        return "decay_experiment", experiments.DecayResult(
            times=pair, xi=tail, xi_stderr=tail / 10, A_alpha=1.0, B_alpha=0.5, t1_bound=0.0,
            t1_empirical=0.0, tail_slope=-1.0, exp_rate=1.0, monotonicity_defect=0.0,
            envelope_ok=False, first_violation_time=1.0, runs=2, flags=flags), flags
    if command == "chaos-scan":
        flags = {"errors_decreasing": True, "slope_fast_enough": True, "proxy_bias_ok": False}
        return "chaos_scan", experiments.ChaosScanResult(
            N_values=[8, 16], errors=[0.2, 0.1], stderrs=[0.01, 0.01], worst_times=[0.0, 0.0],
            fitted_slope=-1.0, predicted_slope=-1.0 / 3.0, K_fitted=1.0, M_reference=512,
            runs_per_N=32, proxy_bias_warning=True, proxy_bias_ratio=0.5, flags=flags), flags
    if command == "concentration":
        flags = {"bound_holds": False}
        return "concentration_suite", experiments.ConcentrationResult(
            n=8, r_grid=pair + 0.5, empirical_tail=tail, bound=tail / 2, c_fitted=1.0,
            c_pipeline=0.5, c_fitted_over_pipeline=2.0, lipschitz_f="coordinate",
            unreliable=np.array([False, False]), trials=400, T=1.0, flags=flags), flags
    if command == "uniform-moments":
        flags = {"zero_trend": False}
        series = MomentSeries(times=[0.0, 1.0], order_2k=2, values=[1.0, 1.5],
                              stderr=[0.1, 0.1])
        return "uniform_moment_experiment", (series, {"accepted": False, "flags": flags}), flags
    flags = {"closed_form_ok": True, "below_bound": False}
    series = ExpSquareMomentSeries(times=[0.5, 1.0], delta=0.1, values=[1.2, 1.3],
                                   stderr=[0.01, 0.01], heavy_tail_flags=[False, False])
    info = {"closed_form": np.array([1.2, 1.3]), "bound": 1.25, "flags": flags}
    return "exp_square_moment_experiment", (series, info), flags


@pytest.mark.parametrize("command", ["decay", "chaos-scan", "concentration", "uniform-moments",
                                     "exp-square-moment"])
def test_cli_one_failing_flag_exits_bound(tmp_path, capsys, monkeypatch, command):
    # The handler writes the harness's flags as they are and exits 2 on any failing one.
    harness, result, flags = _one_failing_flag(command)
    monkeypatch.setattr(experiments, harness, lambda config, *args, **kwargs: result)
    path = write_cfg(tmp_path, output={"dir": str(tmp_path / "out")})
    assert run_cli([command, "--config", path, "--seed", "1"]) == EXIT_BOUND
    summary = json.loads(open(capsys.readouterr().out.strip()).read())
    assert summary["flags"] == flags
    assert "flags" not in summary["result"]


def test_cli_summary_is_strict_json_with_null_for_non_finite(tmp_path, capsys):
    # The constant function has no tail to fit, so c_fitted is NaN.
    path = Path(__file__).resolve().parent.parent / "configs" / "concentration.cfg"
    code = run_cli(["concentration", "--config", str(path), "--seed", "31",
                    "--function", "constant", "--trials", "50", "--out", str(tmp_path)])
    assert code in (EXIT_OK, EXIT_BOUND)

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    summary = json.loads(Path(capsys.readouterr().out.strip()).read_text(),
                         parse_constant=reject)
    assert summary["result"]["c_fitted"] is None


def _small_chaos_cfg(tmp_path, out):
    return write_cfg(
        tmp_path,
        dynamics={"n": 4, "dt": 0.05},
        experiment={"horizon": 0.1, "obs_times": "0.0,0.1", "runs": 2},
        output={"dir": str(out)},
    )


def test_cli_chaos_scans_with_different_n_values_keep_both_summaries(tmp_path, capsys):
    out = tmp_path / "out"
    path = _small_chaos_cfg(tmp_path, out)
    paths = []
    for n_values in ("4,8", "4,16"):
        code = run_cli(["chaos-scan", "--config", path, "--seed", "1", "--n-values", n_values,
                        "--m-reference", "128", "--runs-per-n", "2"])
        assert code in (EXIT_OK, EXIT_BOUND)
        paths.append(capsys.readouterr().out.strip())
    assert paths[0] != paths[1]
    assert sorted(p.name for p in out.glob("chaos-scan-*.json")) == sorted(
        os.path.basename(p) for p in paths)
    args = [load_summary(p)["arguments"] for p in paths]
    assert args == [{"n_values": [4, 8], "m_reference": 128, "runs_per_n": 2},
                    {"n_values": [4, 16], "m_reference": 128, "runs_per_n": 2}]


@pytest.mark.parametrize("argv", [["--n-values", "8", "--runs-per-n", "4"],
                                  ["--n-values", "4,8", "--runs-per-n", "1"],
                                  ["--n-values", "8,8", "--runs-per-n", "4"],
                                  # a 1-particle projected system is pinned at 0
                                  ["--n-values", "1,8", "--runs-per-n", "4"],
                                  ["--n-values", "0,8", "--runs-per-n", "4"],
                                  ["--n-values=-4,8", "--runs-per-n", "4"]])
def test_cli_chaos_scan_without_a_verdict_is_a_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "out"
    path = _small_chaos_cfg(tmp_path, out)
    code = run_cli(["chaos-scan", "--config", path, "--seed", "1", "--m-reference", "128",
                    *argv])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.err.startswith("error: chaos_scan needs at least two distinct N values")
    assert captured.err.count("\n") == 1
    assert not out.exists()


def test_cli_concentration_fails_against_an_over_declared_lambda(tmp_path, capsys):
    # lambda = 100 on the kappa = 0.5 quadratic gives c_pipeline ~ 0.48, while
    # the raw-mode particle mean spreads like a Brownian motion: c ~ 2 (1 + 2T)
    path = write_cfg(
        tmp_path,
        potential_W={"kind": "quadratic", "kappa": 0.5, "lambda": 100.0, "C": 0.0,
                     "A": 1.0, "alpha": 0.0, "m": 1, "p": None},
        dynamics={"n": 8, "mode": "raw", "scheme": "euler", "dt": 0.02},
        experiment={"horizon": 1.0, "obs_times": "1.0", "runs": 1},
        output={"dir": str(tmp_path / "out")},
    )
    assert run_cli(["concentration", "--config", path, "--seed", "4"]) == EXIT_USAGE
    capsys.readouterr()
    # the run the load-time check refuses, on the parsed config as is
    cfg = replace(parse_config(Path(path).read_text()), seed=4)
    res = experiments.concentration_suite(cfg, trials=200)
    assert res.flags == {"bound_holds": False}
    assert res.c_pipeline < 1.0 < res.c_fitted
    assert res.c_fitted_over_pipeline == pytest.approx(res.c_fitted / res.c_pipeline)
    assert (res.lipschitz_f, res.trials, res.T) == ("coordinate", 200, cfg.horizon)


def test_cli_concentration_needs_a_declared_lambda(tmp_path, capsys):
    # The T1 constant comes from W's declared (lambda, C) only; the default W
    # declares none, so nothing runs and nothing is written.
    out = tmp_path / "out"
    path = write_cfg(tmp_path, dynamics={"mode": "raw"}, output={"dir": str(out)})
    code = run_cli(["concentration", "--config", path, "--seed", "1"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.err.startswith("error: ") and "lambda" in captured.err
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["check-potential", "--config", "x.cfg", "--seed", "0"],
    ["report", "--seed", "0"],
    *[[cmd, "--config", "x.cfg", "--seed", "0", "--unchecked"]
      for cmd in ("check-potential", "simulate", "decay", "chaos-scan", "concentration",
                  "uniform-moments", "exp-square-moment")],
    ["report", "--unchecked"],
])
def test_cli_flags_a_subcommand_does_not_read_are_usage_errors(argv, capsys):
    assert run_cli(argv) == EXIT_USAGE
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("horizon, time", [
    (5.0, "0.005"),  # between grid times: the t = 0 state would be reported
    (5.0, "7.3"),  # past the horizon
    (5.005, None),  # the default T = horizon is off the grid
])
def test_cli_concentration_time_is_an_observation_time(tmp_path, capsys, horizon, time):
    out = tmp_path / "out"
    path = write_cfg(tmp_path, dynamics={"mode": "raw", "dt": 0.01},
                     experiment={"horizon": horizon, "obs_times": "5.0", "runs": 1},
                     output={"dir": str(out)})
    argv = ["concentration", "--config", path, "--seed", "1"]
    code = run_cli(argv + (["--time", time] if time else []))
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith("error: concentration time ") and err.count("\n") == 1
    assert not out.exists()


def test_cli_uniform_moments_needs_three_times_in_the_second_half(tmp_path, capsys):
    out = tmp_path / "out"
    path = write_cfg(tmp_path, experiment={"obs_times": "0.0,0.5,1.0"},
                     output={"dir": str(out)})
    assert run_cli(["uniform-moments", "--config", path, "--seed", "1"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: uniform_moment_experiment needs at least three "
                          "observation times in the second half")
    assert err.count("\n") == 1
    assert not out.exists()


def test_cli_report_aggregates_flags(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / "x.json").write_text(json.dumps(
        {"experiment": "decay", "config_hash": "abc", "flags": {"ok": True}}
    ))
    assert run_cli(["report", "--out", str(out)]) == EXIT_OK
    assert "decay" in capsys.readouterr().out
    (out / "y.json").write_text(json.dumps(
        {"experiment": "chaos", "config_hash": "def", "flags": {"ok": False}}
    ))
    assert run_cli(["report", "--out", str(out)]) == EXIT_BOUND
    capsys.readouterr()


def test_cli_report_rejects_a_json_that_is_not_an_object(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / "a.json").write_text(json.dumps([1, 2]))
    assert run_cli(["report", "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ") and "a.json" in err[0]


def test_cli_unknown_subcommand_is_usage_error(capsys):
    assert run_cli(["frobnicate"]) == EXIT_USAGE
    capsys.readouterr()


def test_cli_chaos_scan_rejects_raw_mode(tmp_path, capsys):
    # The scan runs projected N-systems, and its proxies' drift includes
    # -grad potential_V, which projected mode keeps zero.
    out = tmp_path / "out"
    path = write_cfg(
        tmp_path,
        potential_V={"kind": "quadratic", "kappa": 5.0},
        dynamics={"n": 4, "mode": "raw", "dt": 0.05},
        experiment={"horizon": 0.1, "obs_times": "0.0,0.1", "runs": 2},
        output={"dir": str(out)},
    )
    code = run_cli(["chaos-scan", "--config", path, "--seed", "1", "--n-values", "4,8",
                    "--m-reference", "128", "--runs-per-n", "2"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.err.startswith("error: chaos_scan needs mode = projected")
    assert captured.err.count("\n") == 1
    assert not out.exists()
