"""Shared helpers: a config-text builder with sane defaults so individual
tests only spell out what they vary."""

import numpy as np
import pytest

from gmsim import parse_config

DEFAULTS = {
    "potential_V": {"kind": "zero"},
    "potential_W": {"kind": "power_law", "p": 4.0, "m": 3, "A": 4.0, "alpha": 2.0},
    "dynamics": {"n": 16, "dim": 1, "mode": "projected", "scheme": "tamed", "dt": 0.01},
    "initial_law": {"kind": "gaussian"},
    "experiment": {"horizon": 1.0, "obs_times": "0.0,0.5,1.0", "seed": 7, "runs": 4},
    "output": {"dir": "out"},
}


def config_text(**overrides) -> str:
    """Render a config file; overrides are per-section dicts merged over the
    defaults. Set a section to None to drop it entirely."""
    sections = {k: dict(v) for k, v in DEFAULTS.items()}
    for name, sec in overrides.items():
        if sec is None:
            sections.pop(name, None)
        else:
            sections.setdefault(name, {}).update(sec)
    lines = []
    for name, sec in sections.items():
        lines.append(f"[{name}]")
        for key, val in sec.items():
            if val is None:
                continue
            lines.append(f"{key} = {val}")
        lines.append("")
    return "\n".join(lines)


def make_config(**overrides):
    return parse_config(config_text(**overrides))


@pytest.fixture
def rng():
    return np.random.default_rng(2024)
