"""Experiment harnesses: decay envelopes, chaos scan, moments, deviation."""

import json
import math
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from gmsim import dynamics, experiments
from gmsim.config import config_hash, parse_config
from gmsim.dynamics import InitialLaw, observation_steps
from gmsim.experiments import (
    _chaos_walk,
    _chunks,
    _step_work,
    chaos_scan,
    concentration_suite,
    coupled_batch,
    decay_experiment,
    exp_phase_rate,
    exp_square_moment_experiment,
    fit_exp_rate,
    fit_linear_trend,
    fit_loglog_slope,
    pipeline_t1_constant,
    poly_phase_constant,
    polynomial_envelope,
    simulate_batch,
    t1_upper_bound,
    uniform_convex_decay,
    uniform_moment_experiment,
    write_experiment_outputs,
)
from gmsim.potentials import Potential, zero
from gmsim.rng import INIT_STEP, BrownianSource

from conftest import make_config


# ---------------------------------------------------------------------------
# decay constants

def test_exp_phase_rate_formula():
    # (3A/4) (1/2)^alpha
    assert exp_phase_rate(4.0, 2.0) == pytest.approx(0.75)
    assert exp_phase_rate(2.0, 0.0) == pytest.approx(1.5)


def test_poly_phase_constant_formula():
    # B(alpha) = A (alpha/(2+alpha))^(1+alpha/2)
    assert poly_phase_constant(4.0, 2.0) == pytest.approx(4.0 * 0.5**2)
    assert poly_phase_constant(1.0, 1.0) == pytest.approx((1.0 / 3.0) ** 1.5)
    assert poly_phase_constant(5.0, 0.0) == 0.0


def test_t1_upper_bound_formula():
    # (2^(2+alpha)/3) log(xi0) / A
    assert t1_upper_bound(4.0, 2.0, math.e) == pytest.approx(16.0 / 12.0)
    assert t1_upper_bound(4.0, 2.0, 0.5) == 0.0


def test_polynomial_envelope_endpoints():
    t = np.array([0.0, 1.0])
    env = polynomial_envelope(t, xi0=1.0, A=4.0, alpha=2.0)
    assert env[0] == pytest.approx(1.0)
    assert env[1] == pytest.approx(1.0 / (1.0 + poly_phase_constant(4.0, 2.0)))
    with pytest.raises(ValueError):
        polynomial_envelope(t, 1.0, 4.0, 0.0)


# ---------------------------------------------------------------------------
# fit helpers

def test_fit_linear_trend_recovers_slope(rng):
    t = np.linspace(0, 10, 50)
    v = 3.0 * t + 1.0 + rng.normal(scale=0.01, size=t.size)
    slope, se = fit_linear_trend(t, v)
    assert slope == pytest.approx(3.0, abs=0.01)
    assert se < 0.01


def test_fit_loglog_slope_recovers_power():
    t = np.linspace(1.0, 100.0, 40)
    assert fit_loglog_slope(t, 5.0 * t**-1.5) == pytest.approx(-1.5)


def test_fit_exp_rate_recovers_rate_and_floor():
    t = np.linspace(0, 5, 40)
    v = np.exp(-2.0 * t)
    assert fit_exp_rate(t, v) == pytest.approx(2.0)
    v_floored = np.maximum(v, 1e-3)
    assert fit_exp_rate(t, v_floored, floor=1e-3) == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# batched drivers

QUARTIC_W = Potential("power_law", {"p": 4.0})
BUMP_W = Potential("uniform_plus_bump", {"kappa": 1.0, "amplitude": 0.7, "radius": 2.0})


def test_chunks_follow_the_work():
    # The moment path touches n x d elements per ensemble, the pairwise
    # path its n x n x d pair temporary at half weight; a zero force forms
    # no pairs.
    assert _step_work(QUARTIC_W, [64], 3) == 64 * 3
    assert _step_work(zero(), [64], 3) == 64 * 3
    assert _step_work(BUMP_W, [64], 3) == 64 * 64 * 3 // 2
    # The benchmark's chaos-scan: N in {8, 16, 32, 64}, M = 512, d = 1,
    # 8 runs on 2 threads, too little work per chunk to pool.
    small = _step_work(QUARTIC_W, [512, 256, 8, 16, 32, 64], 1)
    assert _chunks(8, 2, small) == [list(range(8))]
    # N in {512, 4096}, M = 32768, 8 runs on 2 threads: two chunks.
    large = _step_work(QUARTIC_W, [32768, 16384, 512, 4096], 1)
    assert _chunks(8, 2, large) == [[0, 1, 2, 3], [4, 5, 6, 7]]
    for n_runs in range(1, 11):
        for threads in range(1, 6):
            for work in (0, 1, 10**3, 2 * experiments.MIN_CHUNK_WORK // 3,
                         experiments.MIN_CHUNK_WORK, 10**9):
                chunks = _chunks(n_runs, threads, work)
                assert 1 <= len(chunks) <= min(threads, n_runs)
                assert sum(chunks, []) == list(range(n_runs))
                sizes = [len(c) for c in chunks]
                assert max(sizes) - min(sizes) <= 1
                assert len(chunks) == 1 or min(sizes) * work >= experiments.MIN_CHUNK_WORK


def test_pooled_chunks_give_identical_runs(monkeypatch):
    # With every chunk worth pooling, 3 threads split 8 runs unevenly into
    # (2, 3, 3) on the pool; each run still reads only its own stream.
    monkeypatch.setattr(experiments, "MIN_CHUNK_WORK", 1)
    map_chunks, seen = experiments._map_chunks, []

    def spy(fn, chunks, threads):
        seen.append([len(c) for c in chunks])
        return map_chunks(fn, chunks, threads)

    monkeypatch.setattr(experiments, "_map_chunks", spy)
    cfg = make_config(
        dynamics={"n": 8, "dt": 0.02},
        initial_law_b={"kind": "gaussian", "mean": 1.0, "sigma": 0.5},
        experiment={"horizon": 0.2, "obs_times": "0.0,0.1,0.2", "runs": 8},
    )
    bump = make_config(
        potential_W={"kind": "uniform_plus_bump", "kappa": 1.0, "amplitude": 0.7,
                     "radius": 2.0, "m": 2, "p": None, "A": None, "alpha": None},
        dynamics={"n": 8, "dim": 2, "dt": 0.02},
        experiment={"horizon": 0.2, "obs_times": "0.0,0.1,0.2", "runs": 8},
    )
    runs = {
        "simulate": lambda t: simulate_batch(cfg, threads=t)[1],
        "simulate pairwise": lambda t: simulate_batch(bump, threads=t)[1],
        "coupled": lambda t: coupled_batch(cfg, threads=t)[1],
        "chaos": lambda t: vars(chaos_scan(cfg, [4, 8], 64, 8, threads=t)),
    }
    for name, run in runs.items():
        seen.clear()
        one, pooled = run(1), run(3)
        assert seen == [[8], [2, 3, 3]], name
        if name == "chaos":
            assert one == pooled
        else:
            np.testing.assert_array_equal(one, pooled, err_msg=name)


def _harness_runs(threads=1):
    # 8 runs of 8 particles in d = 1, 10 steps, the last observation at
    # step 7: a chunk's system draws 64 increments per step
    cfg = make_config(
        dynamics={"n": 8, "dt": 0.02},
        initial_law_b={"kind": "gaussian", "mean": 1.0, "sigma": 0.5},
        experiment={"horizon": 0.2, "obs_times": "0.0,0.06,0.14", "runs": 8},
    )
    return {
        "simulate": lambda: simulate_batch(cfg, threads=threads)[1],
        "coupled": lambda: coupled_batch(cfg, threads=threads)[1],
        "chaos": lambda: _chaos_walk(cfg, BrownianSource(cfg.seed), range(8), [4, 8], 64,
                                     observation_steps(cfg.observation_times, 0.02)),
    }


@pytest.mark.parametrize("values", [1, 3 * 64], ids=["one_step", "three_steps"])
def test_noise_windows_do_not_change_results(monkeypatch, values):
    # At the default every stream set draws its 7 steps in one window; one
    # step per window, or three (7 = 3 + 3 + 1 for the systems), must give
    # the same bits.
    want = {name: run() for name, run in _harness_runs().items()}
    monkeypatch.setattr(dynamics, "NOISE_WINDOW_VALUES", values)
    for name, run in _harness_runs().items():
        np.testing.assert_array_equal(run(), want[name], err_msg=name)


def test_no_noise_window_reaches_the_last_observed_step(monkeypatch):
    # Windows of three steps over the 7 steps before the last observed
    # one: each stream set draws steps 0 .. 6 once and never step 7 or on.
    monkeypatch.setattr(dynamics, "NOISE_WINDOW_VALUES", 3 * 64)
    normals, drawn = BrownianSource.normals, []

    def spy(self, stream, step, count, out=None):
        drawn.extend(int(k) for k in np.ravel(step) if k != INIT_STEP)
        return normals(self, stream, step, count, out=out)

    monkeypatch.setattr(BrownianSource, "normals", spy)
    # the chaos walk draws for its systems and its two auxiliary ensembles
    for (name, run), sets in zip(_harness_runs().items(), (1, 1, 3)):
        drawn.clear()
        run()
        assert Counter(drawn) == {k: sets for k in range(7)}, name


@pytest.mark.parametrize("threads", [1, 2], ids=["inline", "split"])
def test_each_harness_draws_from_its_runs_role_streams(monkeypatch, threads):
    # Run r owns stream ids 8r .. 8r + 7: its particles draw from 8r, the
    # coupled partner's initial state from 8r + 1, the chaos scan's two
    # auxiliary ensembles from 8r + 2 and 8r + 3.  On two threads every
    # chunk is worth pooling, so 4 runs split (2, 2).
    monkeypatch.setattr(experiments, "MIN_CHUNK_WORK", 1)
    map_chunks, raw, seen, drawn = experiments._map_chunks, BrownianSource._raw, [], set()

    def spy_map(fn, chunks, threads):
        seen.append([len(c) for c in chunks])
        return map_chunks(fn, chunks, threads)

    def spy_raw(self, stream, step, count, out=None):
        initial = np.ndim(step) == 0 and step == INIT_STEP
        drawn.update((int(s), initial) for s in np.ravel(stream))
        return raw(self, stream, step, count, out=out)

    monkeypatch.setattr(experiments, "_map_chunks", spy_map)
    monkeypatch.setattr(BrownianSource, "_raw", spy_raw)
    cfg = make_config(
        dynamics={"n": 8, "dt": 0.02},
        initial_law_b={"kind": "gaussian", "mean": 1.0, "sigma": 0.5},
        experiment={"horizon": 0.2, "obs_times": "0.0,0.1,0.2", "runs": 4},
    )

    def streams(*roles):  # (role, initial draw) pairs of every run
        return {(8 * r + role, initial) for r in range(4) for role, initial in roles}

    runs = {
        "simulate": (lambda: simulate_batch(cfg, threads), streams((0, True), (0, False))),
        "coupled": (lambda: coupled_batch(cfg, threads),
                    streams((0, True), (1, True), (0, False))),
        "chaos": (lambda: chaos_scan(cfg, [4, 8], 64, 4, threads),
                  streams(*((role, i) for role in (0, 2, 3) for i in (True, False)))),
    }
    for name, (run, want) in runs.items():
        seen.clear()
        drawn.clear()
        run()
        assert seen == [[4] if threads == 1 else [2, 2]], name
        assert drawn == want, name


def test_natural_chunk_split_gives_identical_runs(monkeypatch):
    # Sizes at which _chunks splits 2 ways on its own: 64 x 64 x 2 bump pair
    # temporaries, 16 runs, and M = 16384 auxiliary particles, 4 runs.
    map_chunks, seen = experiments._map_chunks, []

    def spy(fn, chunks, threads):
        seen.append([len(c) for c in chunks])
        return map_chunks(fn, chunks, threads)

    monkeypatch.setattr(experiments, "_map_chunks", spy)
    bump = make_config(
        potential_W={"kind": "uniform_plus_bump", "kappa": 1.0, "amplitude": 0.7,
                     "radius": 2.0, "m": 2, "p": None, "A": None, "alpha": None},
        dynamics={"n": 64, "dim": 2, "dt": 0.02},
        initial_law_b={"kind": "gaussian", "mean": 1.0, "sigma": 0.5},
        experiment={"horizon": 0.1, "obs_times": "0.0,0.06,0.1", "runs": 16},
    )
    quartic = make_config(dynamics={"n": 8, "dt": 0.02},
                          experiment={"horizon": 0.1, "obs_times": "0.0,0.06,0.1"})
    runs = {
        "simulate": (lambda t: simulate_batch(bump, threads=t)[1], [8, 8]),
        "coupled": (lambda t: coupled_batch(bump, threads=t)[1], [8, 8]),
        "chaos": (lambda t: vars(chaos_scan(quartic, [4, 8], 16384, 4, threads=t)), [2, 2]),
    }
    for name, (run, split) in runs.items():
        seen.clear()
        one, two = run(1), run(2)
        assert seen == [[sum(split)], split], name
        if name == "chaos":
            assert one == two
        else:
            np.testing.assert_array_equal(one, two, err_msg=name)


def test_observations_snapping_to_one_step_are_all_filled():
    # at dt = 0.1, 0.21 and 0.25 both snap to step 2, the step of t = 0.2;
    # parse_config rejects such times, so they are set after loading
    on_grid = make_config(
        dynamics={"n": 6, "dt": 0.1},
        experiment={"horizon": 1.0, "obs_times": "0.0,0.2,1.0", "runs": 2},
        initial_law_b={"kind": "gaussian", "sigma": 0.5},
    )
    cfg = replace(on_grid, observation_times=(0.0, 0.21, 0.25, 1.0))
    _, pos = simulate_batch(cfg)
    _, pos_grid = simulate_batch(on_grid)
    np.testing.assert_array_equal(pos, pos_grid[[0, 1, 1, 2]])
    _, xi = coupled_batch(cfg)
    _, xi_grid = coupled_batch(on_grid)
    np.testing.assert_array_equal(xi, xi_grid[[0, 1, 1, 2]])


# ---------------------------------------------------------------------------
# decay experiments

def quadratic_decay_config(kappa=1.0, seed=11):
    # declared A is the contraction rate 2*kappa of the quadratic interaction
    return make_config(
        potential_W={"kind": "quadratic", "kappa": kappa, "A": 2.0 * kappa,
                     "alpha": 0.0, "m": 1, "p": None},
        dynamics={"n": 8, "scheme": "euler", "dt": 0.002},
        experiment={"horizon": 1.0, "obs_times": None, "obs_stride": 0.05,
                    "obs_count": 21, "runs": 16, "seed": seed},
        initial_law={"kind": "gaussian", "sigma": 1.0},
        initial_law_b={"kind": "gaussian", "mean": 1.5, "sigma": 0.5},
    )


def test_uniform_convex_decay_rate_near_four():
    res = uniform_convex_decay(quadratic_decay_config())
    assert 3.6 <= res.exp_rate <= 4.4
    assert res.flags == {"monotone": True, "envelope_ok": True}


def test_uniform_convex_decay_rate_scales_with_kappa():
    r1 = uniform_convex_decay(quadratic_decay_config(kappa=1.0)).exp_rate
    r_half = uniform_convex_decay(quadratic_decay_config(kappa=0.5)).exp_rate
    assert r_half == pytest.approx(2.0, rel=0.15)
    assert r1 / r_half == pytest.approx(2.0, rel=0.2)


def test_uniform_convex_decay_zero_start_skips_fit():
    point = InitialLaw("two_point", {"point_a": (0.0,), "point_b": (0.0,), "weight": 0.5})
    cfg = replace(quadratic_decay_config(), initial_law=point, initial_law_b=point)
    res = uniform_convex_decay(cfg)
    assert np.all(res.xi == 0.0)
    assert math.isnan(res.exp_rate)


def test_uniform_convex_decay_requires_alpha_zero():
    with pytest.raises(ValueError, match="alpha"):
        uniform_convex_decay(make_config())


def test_decay_experiment_requires_declared_constants():
    cfg = make_config(potential_W={"kind": "power_law", "p": 4.0, "A": None,
                                   "alpha": None},
                      initial_law_b={"kind": "gaussian", "sigma": 0.5})
    with pytest.raises(ValueError, match="declared"):
        decay_experiment(cfg)


def test_decay_exp_until_is_the_first_time_the_fit_leaves_out():
    # alpha = 0: no point falls below 1e-10 xi(0), so the fit runs to the end
    res = uniform_convex_decay(quadratic_decay_config())
    assert res.xi[-1] > 1e-10 * res.xi[0]
    assert res.fit_windows["exp_until"] is None
    # alpha > 0: the fit stops where xi first reaches 1
    cfg = make_config(
        dynamics={"n": 16, "scheme": "tamed", "dt": 0.005},
        experiment={"horizon": 2.0, "obs_times": None, "obs_stride": 0.25,
                    "obs_count": 9, "runs": 8},
        initial_law={"kind": "gaussian", "sigma": 1.0},
        initial_law_b={"kind": "gaussian", "sigma": 3.0},
    )
    res = decay_experiment(cfg)
    assert res.xi[0] > 1.0 and res.t1_empirical > 0.0
    assert res.fit_windows["exp_until"] == res.t1_empirical


def test_decay_experiment_quartic_envelopes():
    cfg = make_config(
        dynamics={"n": 16, "scheme": "tamed", "dt": 0.005},
        experiment={"horizon": 5.0, "obs_times": None, "obs_stride": 0.25,
                    "obs_count": 21, "runs": 16},
        initial_law={"kind": "gaussian", "sigma": 1.0},
        initial_law_b={"kind": "gaussian", "sigma": 0.3},
    )
    res = decay_experiment(cfg)
    assert res.envelope_ok
    assert res.first_violation_time is None
    assert res.A_alpha == pytest.approx(0.75)
    assert res.B_alpha == pytest.approx(1.0)
    assert res.flags == {"monotone": True, "envelope_ok": True}
    assert res.xi[0] < 1.0 and res.t1_empirical == 0.0


# ---------------------------------------------------------------------------
# chaos scan

def test_chaos_scan_preconditions():
    cfg = make_config()
    with pytest.raises(ValueError, match="M_reference"):
        chaos_scan(cfg, [8, 16], M_reference=32, runs_per_N=4)
    quad = make_config(potential_W={"kind": "quadratic", "kappa": 1.0, "A": 2.0,
                                    "alpha": 0.0, "m": 1, "p": None})
    with pytest.raises(ValueError, match="alpha"):
        chaos_scan(quad, [4, 8], M_reference=64, runs_per_N=4)


def test_chaos_scan_small_run():
    cfg = make_config(
        dynamics={"n": 8, "dt": 0.02},
        experiment={"horizon": 1.0, "obs_times": "0.0,0.5,1.0", "runs": 16},
    )
    res = chaos_scan(cfg, [4, 8, 16], M_reference=128, runs_per_N=16)
    assert res.N_values == [4, 8, 16]
    assert all(e > 0 for e in res.errors)
    assert len(res.worst_times) == 3 and set(res.worst_times) <= {0.0, 0.5, 1.0}
    assert res.errors[0] > res.errors[-1]
    assert res.fitted_slope < 0
    assert res.predicted_slope == pytest.approx(-1.0 / 3.0)
    assert isinstance(res.proxy_bias_warning, bool)


def test_chaos_walk_error_matches_the_linear_closed_form():
    # W = kappa |x|^2, V = 0, Euler, projected: the projected ensembles have
    # mean 0, so D = Y^1 - Xbar^1 obeys D_{k+1} = a D_k - sqrt(2 dt) xibar_k
    # with a = 1 - 2 kappa dt, D_0 = -mean(x0) and xibar the mean of the N
    # increments: E|D_k|^2 = (d/N) [sigma^2 a^{2k} + 2 dt (1 - a^{2k}) / (1 - a^2)].
    # chaos_scan rejects alpha = 0, so the walk is called directly.
    kappa, dt, d, sigma, runs = 1.0, 0.05, 2, 1.5, 1000
    times = (0.0, 0.1, 0.5, 1.0)
    cfg = make_config(
        potential_W={"kind": "quadratic", "kappa": kappa, "A": 2.0, "alpha": 0.0,
                     "m": 1, "p": None},
        dynamics={"n": 16, "dim": d, "scheme": "euler", "dt": dt},
        initial_law={"kind": "gaussian", "sigma": sigma},
        experiment={"horizon": 1.0, "obs_times": ",".join(map(str, times)), "runs": runs},
    )
    obs = observation_steps(times, dt)
    err = _chaos_walk(cfg, BrownianSource(cfg.seed), range(runs), [4, 16], 8, obs)
    a = 1.0 - 2.0 * kappa * dt
    a2k = a ** (2 * np.asarray(obs))
    for n, err_n in zip([4, 16], err):
        expected = d / n * (sigma**2 * a2k + 2.0 * dt * (1.0 - a2k) / (1.0 - a**2))
        se = err_n.std(axis=1, ddof=1) / np.sqrt(runs)
        assert np.all(np.abs(err_n.mean(axis=1) - expected) <= 4.0 * se)


def test_chaos_scan_memory_does_not_grow_with_the_horizon():
    def peak(horizon):
        cfg = make_config(experiment={"horizon": horizon, "obs_times": None,
                                      "obs_stride": 0.25, "obs_count": int(horizon / 0.25) + 1})
        tracemalloc.start()
        try:
            chaos_scan(cfg, [8, 16], M_reference=256, runs_per_N=4)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(4.0) <= 1.5 * peak(0.5)


# ---------------------------------------------------------------------------
# uniform moments

def test_uniform_moment_quadratic_accepts_zero_trend():
    cfg = make_config(
        potential_W={"kind": "quadratic", "kappa": 1.0, "A": 2.0, "alpha": 0.0,
                     "m": 1, "p": None},
        dynamics={"n": 8, "scheme": "euler", "dt": 0.01},
        experiment={"horizon": 10.0, "obs_times": None, "obs_stride": 0.5,
                    "obs_count": 21, "runs": 16, "seed": 7},
    )
    series, info = uniform_moment_experiment(cfg)
    assert info["accepted"]
    assert info["window_from"] == 5.0
    assert len(series.values) == 21


# ---------------------------------------------------------------------------
# exponential square moment

def ou_config(**overrides):
    sections = dict(
        potential_V={"kind": "quadratic", "kappa": 1.0, "lambda": 2.0, "C": 0.0},
        potential_W={"kind": "zero", "p": None, "m": None, "A": None, "alpha": None},
        dynamics={"n": 64, "mode": "raw", "scheme": "euler", "dt": 0.005},
        initial_law={"kind": "two_point", "point_a": 0.5, "point_b": 0.5},
        experiment={"horizon": 1.0, "obs_times": "0.25,1.0", "runs": 16, "seed": 5},
    )
    for name, sec in overrides.items():
        sections[name] = {**sections[name], **sec}
    return make_config(**sections)


def test_exp_square_moment_experiment_matches_closed_form_at_kappa_one():
    # V = |x|^2: X_t - Y_t is N(0, 1 - e^{-4t}) per coordinate from any point mass
    delta = 0.1
    series, info = exp_square_moment_experiment(ou_config(), delta=delta)
    assert series.delta == delta
    for t, est, se, closed in zip(series.times, series.values, series.stderr,
                                  info["closed_form"]):
        expect = (1.0 - 2.0 * delta * (1.0 - math.exp(-4.0 * t))) ** -0.5
        assert closed == pytest.approx(expect, rel=1e-12)
        assert abs(est - expect) <= 4.0 * se
    assert info["bound"] > max(series.values)


def test_exp_square_moment_experiment_runs_at_the_largest_seed():
    # The second copy's seed wraps to 0 rather than leaving the key range.
    cfg = ou_config(experiment={"runs": 2, "seed": 2**128 - 1})
    series, _ = exp_square_moment_experiment(cfg)
    assert np.all(np.isfinite(series.values))


def test_exp_square_moment_experiment_rejects_configs_without_closed_form():
    for overrides in (
        {"initial_law": {"point_b": 1.0}},
        {"initial_law": {"kind": "gaussian", "sigma": 1.0, "point_a": None, "point_b": None}},
        {"potential_W": {"kind": "quadratic", "kappa": 1.0}},
        {"potential_V": {"kind": "power_law", "p": 4.0, "kappa": None,
                         "lambda": None}},
    ):
        with pytest.raises(ValueError, match="point-mass"):
            exp_square_moment_experiment(ou_config(**overrides))
    with pytest.raises(ValueError, match="lambda"):
        exp_square_moment_experiment(ou_config(potential_V={"lambda": 0.2}))


# ---------------------------------------------------------------------------
# concentration

def test_pipeline_t1_constant_from_declared():
    cfg = make_config(
        potential_W={"kind": "quadratic", "kappa": 0.5, "lambda": 1.0, "C": 0.0,
                     "A": 1.0, "alpha": 0.0, "m": 1, "p": None},
        dynamics={"mode": "raw"},
    )
    c = pipeline_t1_constant(cfg)
    from gmsim.metrics import exp_square_moment_bound

    delta = 1.0 / 8.0
    expect = 2.0 * (1.0 + math.log(exp_square_moment_bound(delta, 1.0, 0.0, 2.0, 1))) / delta
    assert c == pytest.approx(expect)


def test_pipeline_t1_constant_infinite_without_convexity():
    # no declared lambda, no T_1 constant: the bound is refused, not inferred
    cfg = make_config(potential_W={"kind": "zero", "p": None, "m": None, "A": None, "alpha": None})
    with pytest.raises(ValueError, match="lambda"):
        pipeline_t1_constant(cfg)


def test_concentration_constant_function_has_zero_tail():
    cfg = make_config(
        # W = |x|^4 is convex at infinity with (lambda, C) = (1, 1/4) in d = 1
        potential_W={"lambda": 1.0, "C": 0.25},
        dynamics={"n": 8, "dt": 0.02},
        experiment={"horizon": 0.2, "obs_times": "0.2", "runs": 1},
    )
    res = concentration_suite(cfg, f_name="constant", T=0.2, trials=8)
    assert np.all(res.empirical_tail == 0.0)


def test_concentration_requires_enough_trials():
    cfg = make_config()
    with pytest.raises(ValueError, match="trials"):
        concentration_suite(cfg, f_name="coordinate", trials=50)
    for trials in (0, -5):  # the constant function has no tail, but still needs a trial
        with pytest.raises(ValueError, match="trials must be >= 1"):
            concentration_suite(cfg, f_name="constant", trials=trials)
    with pytest.raises(ValueError, match="unknown"):
        concentration_suite(cfg, f_name="parabola")


def test_concentration_tail_monotone_in_r():
    cfg = make_config(
        dynamics={"n": 8, "mode": "raw", "scheme": "euler", "dt": 0.02},
        potential_W={"kind": "quadratic", "kappa": 0.5, "lambda": 1.0, "C": 0.0,
                     "A": 1.0, "alpha": 0.0, "m": 1, "p": None},
        experiment={"horizon": 1.0, "obs_times": "1.0", "runs": 1},
    )
    res = concentration_suite(cfg, f_name="coordinate", T=1.0, trials=200)
    assert np.all(np.diff(res.empirical_tail) <= 0)
    assert res.trials == 200


@pytest.mark.parametrize("T", [0.5, 2.0, 5.0])
def test_concentration_tail_matches_the_gaussian_centre_of_mass(T):
    # With V = kappa_v |x|^2, a quadratic W, raw mode and Euler steps, the
    # pair forces cancel in the coordinate's particle average S, an exact
    # Gaussian AR(1): S_{k+1} = a S_k + sqrt(2 dt) xi_k with
    # a = 1 - 2 kappa_v dt, xi_k ~ N(0, 1/N) and S_0 ~ N(0, sigma0^2 / N).
    # sigma0 = 0.5 keeps every particle far inside the clamp at 10, so the
    # tail is erfc(r / sqrt(2 Var S_T)) / 2.
    kappa_v, n, dt, sigma0, trials = 0.5, 8, 0.01, 0.5, 1000
    cfg = make_config(
        potential_V={"kind": "quadratic", "kappa": kappa_v},
        # (lambda, C) = (1, 0), which c_pipeline needs
        potential_W={"kind": "quadratic", "kappa": 0.5, "lambda": 1.0, "C": 0.0,
                     "A": None, "alpha": None, "m": 1, "p": None},
        dynamics={"n": n, "mode": "raw", "scheme": "euler", "dt": dt},
        initial_law={"kind": "gaussian", "sigma": sigma0},
        experiment={"horizon": 5.0, "obs_times": "5.0", "runs": 1},
    )
    res = concentration_suite(cfg, f_name="coordinate", T=T, trials=trials)
    a2 = (1.0 - 2.0 * kappa_v * dt) ** 2
    a2k = a2 ** round(T / dt)
    var = (a2k * sigma0**2 + 2.0 * dt * (1.0 - a2k) / (1.0 - a2)) / n
    exact = np.array([0.5 * math.erfc(r / math.sqrt(2.0 * var)) for r in res.r_grid])
    se = np.sqrt(exact * (1.0 - exact) / trials)
    keep = ~res.unreliable
    assert keep.sum() >= 3
    assert np.all(np.abs(res.empirical_tail - exact)[keep] <= 4.0 * se[keep])


# ---------------------------------------------------------------------------
# summaries

def test_write_experiment_outputs_round_trip(tmp_path):
    cfg = make_config(output={"dir": str(tmp_path / "out")})
    res = uniform_convex_decay(quadratic_decay_config())
    jp, cp = write_experiment_outputs(
        cfg, "decay", {"note": "any"}, {**vars(res), "flags": {"ok": np.bool_(True)}},
        [(0.0, 1.0, 0.1, "coupled-upper", 2)],
        ("time", "value", "stderr", "method", "p"),
    )
    summary = json.loads(open(jp).read())
    assert summary["flags"] == {"ok": True}  # lifted out of the result, as bools
    assert summary["arguments"] == {"note": "any"}
    assert summary["result"]["envelope_ok"] is True and "fit_windows" in summary["result"]
    assert "flags" not in summary["result"]
    echoed = parse_config(summary["config_echo"])
    assert config_hash(echoed, summary["arguments"]) == summary["config_hash"]
    assert open(cp).readline().strip() == "time,value,stderr,method,p"
