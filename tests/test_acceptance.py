"""Acceptance gate: one test per quantitative claim, at desk scale.

Each test freezes a configuration (probed in advance for tolerance
headroom) and checks the claim at its stated tolerance, including the
runtime budget.
"""

import math
import time

import numpy as np
import pytest

from gmsim.config import parse_config
from gmsim.dynamics import InitialLaw, IntegrationError
from gmsim.experiments import (
    chaos_scan,
    concentration_suite,
    decay_experiment,
    exp_square_moment_experiment,
    simulate_batch,
    uniform_convex_decay,
    uniform_moment_experiment,
)
from gmsim.metrics import assignment_exact, exp_square_moment_bound, wasserstein_1d
from gmsim.potentials import power_law, quadratic, zero

from conftest import config_text, make_config
from test_dynamics import naive_drift
from test_metrics import brute_force_w


def test_criterion_01_quadratic_contraction_rate():
    # coupled squared distance of the projected quadratic system decays at
    # the linear-ODE rate 4; fitted rate within 10 percent
    t0 = time.monotonic()
    cfg = make_config(
        potential_W={"kind": "quadratic", "kappa": 1.0, "A": 2.0, "alpha": 0.0,
                     "m": 1, "p": None},
        dynamics={"n": 16, "dim": 1, "mode": "projected", "scheme": "euler",
                  "dt": 1e-3},
        experiment={"horizon": 1.5, "obs_times": None, "obs_stride": 0.05,
                    "obs_count": 31, "runs": 64, "seed": 11},
        initial_law={"kind": "gaussian", "sigma": 1.0},
        initial_law_b={"kind": "gaussian", "mean": 2.0, "sigma": 0.5},
    )
    res = uniform_convex_decay(cfg)
    assert 3.6 <= res.exp_rate <= 4.4, f"fitted rate {res.exp_rate}"
    assert time.monotonic() - t0 < 10.0


@pytest.fixture(scope="module")
def quartic_decay():
    cfg = make_config(
        dynamics={"n": 32, "dim": 1, "mode": "projected", "scheme": "tamed",
                  "dt": 0.005},
        experiment={"horizon": 50.0, "obs_times": None, "obs_stride": 1.0,
                    "obs_count": 51, "runs": 64, "seed": 11},
        initial_law={"kind": "gaussian", "sigma": 1.0},
        initial_law_b={"kind": "gaussian", "sigma": 0.3},
    )
    t0 = time.monotonic()
    res = decay_experiment(cfg)
    return cfg, res, time.monotonic() - t0


def test_criterion_02_quartic_polynomial_tail(quartic_decay):
    cfg, res, elapsed = quartic_decay
    assert elapsed < 120.0
    # envelope with B(2) = A (1/2)^2 = 1: xi <= (xi0^-1 + t)^-1 + 3 stderr
    xi0 = res.xi[0]
    env = (xi0**-1.0 + 1.0 * res.times) ** -1.0
    assert np.all(res.xi <= env + 3.0 * res.xi_stderr), (
        f"first envelope violation at t={res.first_violation_time}"
    )
    assert -1.2 <= res.tail_slope <= -0.8, (
        f"log-log tail slope {res.tail_slope:.3f} outside [-1.2, -0.8]; the "
        f"coupled distance decays exponentially and reaches the "
        f"floating-point floor (min xi {np.min(res.xi):.2e}) long before the "
        f"horizon, so the polynomial envelope is slack"
    )


def test_criterion_03_quartic_monotonicity(quartic_decay):
    cfg, res, _ = quartic_decay
    tol = 3.0 * float(np.max(res.xi_stderr)) + 5.0 * cfg.step_policy.dt
    assert res.monotonicity_defect <= tol, (
        f"max xi increase {res.monotonicity_defect} > {tol}"
    )


def test_criterion_04_chaos_scan_rate():
    t0 = time.monotonic()
    cfg = make_config(
        dynamics={"n": 32, "dim": 1, "mode": "projected", "scheme": "tamed",
                  "dt": 0.01},
        experiment={"horizon": 2.0, "obs_times": None, "obs_stride": 0.25,
                    "obs_count": 9, "runs": 32, "seed": 11},
        initial_law={"kind": "gaussian", "sigma": 1.0},
    )
    res = chaos_scan(cfg, [8, 16, 32, 64], M_reference=512, runs_per_N=32)
    errs = np.asarray(res.errors)
    ses = np.asarray(res.stderrs)
    assert np.all(np.diff(errs) < 2.0 * (ses[:-1] + ses[1:])), (
        f"errors not decreasing: {res.errors}"
    )
    assert res.fitted_slope <= -1.0 / 3.0 + 0.15, f"slope {res.fitted_slope}"
    assert not res.proxy_bias_warning
    assert time.monotonic() - t0 < 600.0


def test_criterion_05_uniform_moments():
    t0 = time.monotonic()
    cfg = make_config(
        dynamics={"n": 16, "dim": 1, "mode": "projected", "scheme": "tamed",
                  "dt": 0.01},
        experiment={"horizon": 100.0, "obs_times": None, "obs_stride": 1.0,
                    "obs_count": 101, "runs": 32, "seed": 12},
    )
    _, info = uniform_moment_experiment(cfg)
    assert info["accepted"], (
        f"trend {info['slope']:.2e} +- {info['slope_stderr']:.2e} rejected"
    )
    assert time.monotonic() - t0 < 60.0


def test_criterion_06_exp_square_moment_ou_benchmark():
    # drift -x, diffusion sqrt(2): X_t - Y_t for independent copies from a
    # common start is N(0, 2(1 - e^{-2t})) per coordinate
    t0 = time.monotonic()
    text = config_text(
        potential_V={"kind": "quadratic", "kappa": 0.5, "lambda": 1.0, "C": 0.0},
        potential_W={"kind": "zero", "p": None, "m": None, "A": None, "alpha": None},
        dynamics={"n": 128, "dim": 1, "mode": "raw", "scheme": "euler",
                  "dt": 0.005},
        initial_law={"kind": "two_point", "point_a": 0.0, "point_b": 0.0},
        experiment={"horizon": 2.0, "obs_times": "0.5,1.0,2.0", "runs": 128,
                    "seed": 21},
    )
    cfg = parse_config(text)
    delta = 0.1
    series, _ = exp_square_moment_experiment(cfg, delta=delta)
    bound = exp_square_moment_bound(delta, lam=1.0, C=0.0, diffusion_bound_A=2.0, dim=1)
    for t, est, se in zip(series.times, series.values, series.stderr):
        closed = (1.0 - 2.0 * delta * 2.0 * (1.0 - math.exp(-2.0 * t))) ** -0.5
        assert abs(est - closed) <= 3.0 * se, f"t={t}: {est} vs {closed} (se {se})"
        assert est < bound
    assert time.monotonic() - t0 < 30.0


def test_criterion_07_deviation_inequality():
    t0 = time.monotonic()
    results = {}
    for n in (32, 64):
        cfg = make_config(
            potential_W={"kind": "quadratic", "kappa": 0.5, "lambda": 1.0,
                         "C": 0.0, "A": 1.0, "alpha": 0.0, "m": 1, "p": None},
            dynamics={"n": n, "dim": 1, "mode": "raw", "scheme": "euler",
                      "dt": 0.01},
            experiment={"horizon": 5.0, "obs_times": "5.0", "runs": 1,
                        "seed": 31},
        )
        results[n] = concentration_suite(cfg, f_name="coordinate", T=5.0,
                                         trials=400, threads=2)
    for n, res in results.items():
        holds = res.empirical_tail <= res.bound + 1e-12
        assert np.all(holds[~res.unreliable]), f"N={n}: bound violated"
        assert np.isfinite(res.c_fitted)
    ratio = max(r.c_fitted for r in results.values()) / min(
        r.c_fitted for r in results.values()
    )
    assert ratio < 2.0, f"fitted constant ratio {ratio}"
    assert time.monotonic() - t0 < 300.0


def test_criterion_08_oracle_equivalences():
    t0 = time.monotonic()
    rng = np.random.default_rng(8)
    for _ in range(100):
        a = rng.normal(size=8)
        b = rng.normal(size=8) + rng.normal()
        assert abs(wasserstein_1d(a, b).value - assignment_exact(a, b).value) <= 1e-12
    for _ in range(50):
        a = rng.normal(size=(6, 2))
        b = rng.normal(size=(6, 2))
        assert abs(assignment_exact(a, b).value - brute_force_w(a, b)) <= 1e-10
    from gmsim.dynamics import drift

    for _ in range(50):
        x = rng.normal(size=(8, 2))
        for V, W in ((zero(), power_law(4.0)), (quadratic(0.5), quadratic(1.0))):
            assert np.max(np.abs(drift(x, V, W) - naive_drift(x, V, W))) <= 1e-12
    assert time.monotonic() - t0 < 10.0


def test_criterion_09_thread_count_determinism(tmp_path):
    from gmsim.cli import EXIT_OK, run_cli

    outputs = []
    for threads in (1, 8):
        out = tmp_path / f"t{threads}"
        path = tmp_path / "exp.cfg"
        path.write_text(config_text(
            dynamics={"n": 16, "dt": 0.01},
            experiment={"horizon": 0.5, "obs_times": "0.0,0.25,0.5", "runs": 8},
            output={"dir": str(out), "formats": "csv,jsonl,bin"},
        ))
        assert run_cli(["simulate", "--config", str(path), "--seed", "7",
                        "--threads", str(threads)]) == EXIT_OK
        # the config hash in the file names does not cover the output
        # directory, so names and bytes must both agree
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert outputs[0] == outputs[1]


def test_criterion_10_scheme_stability_contrast():
    base = dict(
        dynamics={"n": 16, "dim": 1, "mode": "projected", "dt": 0.01},
        initial_law={"kind": "uniform", "half_width": 10.0},
        experiment={"horizon": 1.0, "obs_times": "0.0,0.5,1.0", "runs": 4,
                    "seed": 41},
    )
    euler_cfg = make_config(**{**base, "dynamics": {**base["dynamics"], "scheme": "euler"}})
    with pytest.raises(IntegrationError):
        with np.errstate(over="ignore", invalid="ignore"):
            simulate_batch(euler_cfg)
    tamed_cfg = make_config(**{**base, "dynamics": {**base["dynamics"], "scheme": "tamed"}})
    _, pos = simulate_batch(tamed_cfg)
    assert np.all(np.isfinite(pos))
    for order in (2, 4, 6):
        assert np.isfinite(np.mean(np.sum(pos[-1] ** 2, axis=-1) ** (order / 2)))
