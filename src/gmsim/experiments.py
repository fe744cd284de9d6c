"""Pre-built experiment harnesses: synchronous-coupling decay, the
propagation-of-chaos scan against a mean-field proxy, uniform moment
tracking, the exponential square-moment benchmark, and the
concentration/deviation suite.

Each harness returns its series, fitted constants and pass/fail flags;
write_experiment_outputs writes them as a JSON summary plus a CSV series
named `<experiment>-<confighash>`.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import stdtrit

from . import io as gio
from .config import SimConfig, canonical_text, config_hash, observation_time_errors
from .dynamics import (
    couple_initial,
    drift,
    apply_scheme,
    noise_window,
    observation_schedule,
    observation_steps,
    project,
    step_batch,
)
from .metrics import _mc_mean, exp_square_moment, exp_square_moment_bound, moment
from .potentials import QUADRATIC
from .rng import BrownianSource


# ---------------------------------------------------------------------------
# deterministic run chunks, the stream map and the stepping walk

# Fewest elements a chunk must touch per step before running chunks on pool
# threads beats one chunk inline: smaller numpy calls cost more in dispatch
# and GIL contention than the threads win back.  Measured on a 2-core host
# with chaos_scan, N in {8, 64}, 8 runs, 2 threads: the pool lost at 12.6 k
# elements per chunk, tied at 25 k and won from 37 k on.  For a pairwise W
# (simulate_batch, uniform_plus_bump, 8 runs, 2 threads, d in {1, 2, 3}) it
# lost up to 62 k n x n x d pair-temporary elements per chunk in d = 3,
# 51 k in d = 2 and 50 k in d = 1, and won from 77 k, 74 k and 66 k on; so
# a pair-temporary element counts as half an element.
MIN_CHUNK_WORK = 2**15


def _step_work(W, sizes, dim: int) -> int:
    """Elements one run's step touches for ensembles of the given sizes:
    half the n x n x d pair temporary when W's mean_grad sums pairs, else
    the n x d positions."""
    return sum(n * n * dim // 2 if W.sums_pairs else n * dim for n in sizes)


def _chunks(n_runs: int, threads: int, work_per_run: int):
    """Split runs 0 .. n_runs - 1 into consecutive chunks of near-equal
    size, as many as threads allows and no more than leave every chunk
    MIN_CHUNK_WORK elements per step; at least one."""
    min_runs = -(-MIN_CHUNK_WORK // max(1, work_per_run))
    k = max(1, min(threads, n_runs // min_runs))
    return [list(range(i * n_runs // k, (i + 1) * n_runs // k)) for i in range(k)]


def _map_chunks(fn, chunks, threads: int):
    """Apply fn to each chunk, on up to `threads` pool threads when there is
    more than one chunk and inline otherwise; aggregation order is fixed by
    chunk order, and each run depends only on its own stream, so neither
    the thread count nor the chunking changes the result."""
    if threads <= 1 or len(chunks) == 1:
        return [fn(c) for c in chunks]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(fn, chunks))


# Roles besides role 0, the one a run's particles draw in.
PARTNER_STREAM = 1  # the coupled partner's initial draw
AUX_STREAM = 2  # the chaos scan's auxiliary ensemble
HALF_AUX_STREAM = 3  # its half-size copy for the proxy-bias check


def run_streams(runs, role: int = 0) -> list[int]:
    """The stream ids the given runs draw from in the given role: run r
    owns the 8 ids from 8r, a role the id at its offset."""
    return [8 * int(r) + role for r in runs]


def _over_runs(config: SimConfig, runs: int, threads: int, sizes, run_chunk):
    """run_chunk(source, chunk, obs) over runs 0 .. runs - 1 in chunks, with
    the source keyed on config's seed and the observation times snapped to
    steps; each run advances ensembles of the given sizes.  Returns the
    chunks' results in chunk order."""
    source = BrownianSource(config.seed)
    obs = observation_steps(config.observation_times, config.step_policy.dt)
    work = _step_work(config.potential_W, sizes, config.dim)
    return _map_chunks(lambda chunk: run_chunk(source, chunk, obs),
                       _chunks(runs, threads, work), threads)


def _walk(config: SimConfig, source, chunk, obs, x):
    """observation_schedule over the chunk's positions x (..., runs, N, d),
    recentred in projected mode, yielding (i, positions) once per
    observation; each step is a step_batch on the next increments of the
    chunk's runs from noise_window, and leading axes share them."""
    projected = config.mode == "projected"
    noise = noise_window(source, run_streams(chunk), config.n, config.dim, max(obs))

    def advance(x):
        return step_batch(x, config.potential_V, config.potential_W, config.step_policy,
                          next(noise), projected)

    return observation_schedule(obs, project(x) if projected else x, advance)


# ---------------------------------------------------------------------------
# decay constants from the degenerate-convexity parameters

def exp_phase_rate(A: float, alpha: float) -> float:
    """Rate of the initial exponential phase: (3A/4) (1/2)^alpha."""
    return (3.0 * A / 4.0) * 0.5**alpha


def poly_phase_constant(A: float, alpha: float) -> float:
    """B(alpha) = A (alpha/(2+alpha))^(1+alpha/2), the constant of the
    polynomial envelope."""
    if alpha == 0.0:
        return 0.0
    return A * (alpha / (2.0 + alpha)) ** (1.0 + alpha / 2.0)


def t1_upper_bound(A: float, alpha: float, xi0: float) -> float:
    """Bound on the crossing time of xi = 1: (2^(2+alpha)/3) log(xi0) / A."""
    if xi0 <= 1.0:
        return 0.0
    return (2.0 ** (2.0 + alpha) / 3.0) * math.log(xi0) / A


def polynomial_envelope(t: np.ndarray, xi0: float, A: float, alpha: float) -> np.ndarray:
    """All-t envelope (xi0^(-alpha/2) + B(alpha) t)^(-2/alpha)."""
    if alpha <= 0.0:
        raise ValueError("polynomial envelope requires alpha > 0")
    B = poly_phase_constant(A, alpha)
    return (xi0 ** (-alpha / 2.0) + B * np.asarray(t)) ** (-2.0 / alpha)


# ---------------------------------------------------------------------------
# fitting helpers

def fit_linear_trend(times, values):
    """OLS slope and its standard error."""
    t = np.asarray(times, float)
    v = np.asarray(values, float)
    (slope, _), cov = np.polyfit(t, v, 1, cov=True)
    return float(slope), float(np.sqrt(cov[0, 0]))


def fit_loglog_slope(times, values):
    t = np.asarray(times, float)
    v = np.asarray(values, float)
    keep = (t > 0) & (v > 0)
    if keep.sum() < 2:
        return float("nan")
    return float(np.polyfit(np.log(t[keep]), np.log(v[keep]), 1)[0])


def fit_exp_rate(times, values, floor: float = 0.0):
    """Rate r with values ~ exp(-r t); ignores entries at or below floor."""
    t = np.asarray(times, float)
    v = np.asarray(values, float)
    keep = v > floor
    if keep.sum() < 2:
        return float("nan")
    return float(-np.polyfit(t[keep], np.log(v[keep]), 1)[0])


# ---------------------------------------------------------------------------
# batched simulation drivers

def simulate_batch(config: SimConfig, threads: int = 1):
    """Simulate independent runs; returns (times, positions) with positions
    of shape (n_obs, runs, N, d)."""
    n, dim = config.n, config.dim
    out = np.empty((len(config.observation_times), config.runs, n, dim))

    def run_chunk(source, chunk, obs):
        # chunks are consecutive runs, so each writes its own basic slice
        part = out[:, chunk[0]:chunk[-1] + 1]
        x = config.initial_law.sample(source, run_streams(chunk), n, dim)
        for i, x in _walk(config, source, chunk, obs, x):
            part[i] = x

    _over_runs(config, config.runs, threads, [n], run_chunk)
    return np.asarray(config.observation_times), out


def coupled_batch(config: SimConfig, threads: int = 1):
    """Pairs started from initial_law and initial_law_b, coupled by
    couple_initial and advanced on shared noise; returns (times, xi_runs)
    with xi_runs of shape (n_obs, runs)."""
    n, dim = config.n, config.dim
    xi = np.empty((len(config.observation_times), config.runs))

    def run_chunk(source, chunk, obs):
        xa = config.initial_law.sample(source, run_streams(chunk), n, dim)
        xb = config.initial_law_b.sample(source, run_streams(chunk, PARTNER_STREAM), n, dim)
        # the pair axis leads: (2, runs, N, d)
        pair = np.stack([couple_initial(a, b) for a, b in zip(xa, xb)], axis=1)
        for i, (xa, xb) in _walk(config, source, chunk, obs, pair):
            xi[i, chunk[0]:chunk[-1] + 1] = np.mean(np.sum((xa - xb) ** 2, axis=-1), axis=-1)

    _over_runs(config, config.runs, threads, [n, n], run_chunk)
    return np.asarray(config.observation_times), xi


# ---------------------------------------------------------------------------
# coupled-decay experiments

@dataclass
class DecayResult:
    times: np.ndarray
    xi: np.ndarray
    xi_stderr: np.ndarray
    A_alpha: float
    B_alpha: float
    t1_bound: float
    t1_empirical: float | None
    tail_slope: float
    exp_rate: float
    monotonicity_defect: float
    envelope_ok: bool
    first_violation_time: float | None
    runs: int
    flags: dict
    fit_windows: dict = field(default_factory=dict)


def decay_experiment(config: SimConfig, threads: int = 1) -> DecayResult:
    """Average coupled squared distance xi(t) over runs against the decay
    envelopes implied by the declared degenerate-convexity constants.  The
    exponential rate is fitted on the whole series above 1e-10 xi(0) when
    alpha = 0, and before xi first reaches 1 otherwise; fit_windows'
    exp_until is the first observation time the fit leaves out, None when
    it runs to the end."""
    W = config.potential_W
    if W.declared_A <= 0.0:
        raise ValueError("decay_experiment needs declared (A, alpha) on potential_W")
    if config.initial_law_b is None:
        raise ValueError("decay_experiment needs a second initial law")
    A, alpha, runs = W.declared_A, W.declared_alpha, config.runs
    times, xi_runs = coupled_batch(config, threads)
    xi, se = _mc_mean(xi_runs.T)
    xi0 = float(xi[0])

    defect = float(np.max(np.diff(xi))) if xi.size > 1 else 0.0
    below_one = np.nonzero(xi <= 1.0)[0]
    t1_emp = float(times[below_one[0]]) if below_one.size else None

    tail_window = times >= times[-1] / 10.0
    tail_slope = fit_loglog_slope(times[tail_window], xi[tail_window])
    window = times < t1_emp if alpha > 0.0 and t1_emp else np.ones(times.shape, bool)
    floor = xi0 * 1e-10 if alpha == 0.0 else 0.0
    exp_rate = fit_exp_rate(times[window], xi[window], floor)
    left_out = np.nonzero(~window | (xi <= floor))[0]

    if alpha > 0 and xi0 > 0:
        bad = xi > polynomial_envelope(times, xi0, A, alpha) + 3.0 * se
        env_ok = not bool(np.any(bad))
        first_bad = float(times[np.nonzero(bad)[0][0]]) if not env_ok else None
    else:
        env_ok = True
        first_bad = None
    monotone = defect <= 3.0 * float(np.max(se)) + 5.0 * config.step_policy.dt
    return DecayResult(
        times=times,
        xi=xi,
        xi_stderr=se,
        A_alpha=exp_phase_rate(A, alpha),
        B_alpha=poly_phase_constant(A, alpha),
        t1_bound=t1_upper_bound(A, alpha, xi0),
        t1_empirical=t1_emp,
        tail_slope=tail_slope,
        exp_rate=exp_rate,
        monotonicity_defect=defect,
        envelope_ok=env_ok,
        first_violation_time=first_bad,
        runs=runs,
        flags={"monotone": monotone, "envelope_ok": env_ok},
        fit_windows={
            "tail_from": float(times[tail_window][0]) if np.any(tail_window) else None,
            "exp_until": float(times[left_out[0]]) if left_out.size else None,
        },
    )


def uniform_convex_decay(config: SimConfig, threads: int = 1) -> DecayResult:
    """Decay experiment for the uniformly convex case C(A, 0), whose
    squared distances decay at the rate 2A."""
    if config.potential_W.declared_alpha != 0.0:
        raise ValueError("uniform_convex_decay requires declared alpha == 0")
    return decay_experiment(config, threads)


# ---------------------------------------------------------------------------
# propagation-of-chaos scan

@dataclass
class ChaosScanResult:
    N_values: list
    errors: list
    stderrs: list
    worst_times: list
    fitted_slope: float
    predicted_slope: float
    K_fitted: float
    M_reference: int
    runs_per_N: int
    proxy_bias_warning: bool
    proxy_bias_ratio: float
    flags: dict


def _chaos_walk(config, source, chunk, N_values, M_reference, obs):
    """Run errors |Y^1_t - Xbar^1_t|^2, (len(N_values) + 1, n_obs, runs), of
    each projected N-system's tagged particle against the proxy fed by the
    auxiliary ensemble of M_reference particles, then of the largest
    N-system's against the proxy fed by the half-size ensemble.  One walk
    advances them all, so memory does not grow with the horizon.  Draws are
    prefix-stable, so the walk draws the initial state and each step's
    increments once, for the largest N, and the n-system takes their first
    n rows.  Each ensemble takes its increments from its own noise_window
    generator, which draws them a window of steps at a time, none past the
    last observed step; observation_schedule yields the state once per
    observation.  Every particle moves under the one mean-field drift: the
    auxiliary ensembles and the N-systems step on their own empirical
    measures with step_batch in projected mode, and a proxy steps with
    apply_scheme on drift against its ensemble, which stands for u_t and is
    read at the start of the step.  A proxy starts at row 0 of the
    unprojected initial draw and steps on row 0 of the unprojected
    increments, so one proxy per ensemble serves every N."""
    V, W, policy, dim = config.potential_V, config.potential_W, config.step_policy, config.dim
    streams = run_streams(chunk)
    aux_streams = [run_streams(chunk, role) for role in (AUX_STREAM, HALF_AUX_STREAM)]
    sizes, end = (M_reference, M_reference // 2), max(obs)
    aux_noise = [noise_window(source, ss, m, dim, end) for m, ss in zip(sizes, aux_streams)]
    system_noise = noise_window(source, streams, N_values[-1], dim, end)

    def advance(state):
        ensembles, systems, proxies = state
        xi = next(system_noise)
        proxies = [apply_scheme(xbar, drift(xbar, V, W, aux), xi[:, :1], policy)
                   for xbar, aux in zip(proxies, ensembles)]
        ensembles = [step_batch(aux, V, W, policy, next(noise), projected=True)
                     for aux, noise in zip(ensembles, aux_noise)]
        systems = [step_batch(y, V, W, policy, xi[:, :n], projected=True)
                   for y, n in zip(systems, N_values)]
        return ensembles, systems, proxies

    ensembles = [project(config.initial_law.sample(source, ss, m, dim))
                 for m, ss in zip(sizes, aux_streams)]
    x0 = config.initial_law.sample(source, streams, N_values[-1], dim)
    state = (ensembles, [project(x0[:, :n]) for n in N_values], [x0[:, :1]] * 2)
    err = np.empty((len(N_values) + 1, len(obs), len(chunk)))
    for i, (_, systems, (xbar, xbar_half)) in observation_schedule(obs, state, advance):
        pairs = [(y, xbar) for y in systems] + [(systems[-1], xbar_half)]
        for j, (y, x) in enumerate(pairs):
            err[j, i] = np.sum((y[:, 0, :] - x[:, 0, :]) ** 2, axis=-1)
    return err


def chaos_scan(
    config: SimConfig,
    N_values,
    M_reference: int,
    runs_per_N: int,
    threads: int = 1,
) -> ChaosScanResult:
    """Couple a tagged particle of the projected N-system with a proxy of
    the nonlinear flow driven by the same increments; the mean-field drift
    of the proxy is read off an independent auxiliary ensemble of size
    M_reference.  Fits the log-log slope of the error against N, and checks
    the proxy's bias against a second ensemble of size M_reference / 2."""
    N_values = sorted(int(n) for n in N_values)
    if len(set(N_values)) < 2 or N_values[0] < 2 or runs_per_N < 2:
        raise ValueError(
            "chaos_scan needs at least two distinct N values, each >= 2 (a slope), "
            "and runs_per_N >= 2 (a standard error)"
        )
    if M_reference < 8 * max(N_values):
        raise ValueError("M_reference must be at least 8 * max(N_values)")
    if config.potential_W.declared_alpha <= 0.0:
        raise ValueError("chaos_scan needs declared alpha > 0 on potential_W")
    if config.mode != "projected":
        raise ValueError("chaos_scan needs mode = projected: it runs projected N-systems "
                         "and a proxy without potential_V")
    alpha = config.potential_W.declared_alpha
    err = np.concatenate(_over_runs(
        config, runs_per_N, threads, [M_reference, M_reference // 2, *N_values],
        lambda source, chunk, obs: _chaos_walk(config, source, chunk, N_values, M_reference, obs),
    ), axis=-1)
    errors, stderrs, worst_times = [], [], []
    for err_runs in err[:-1]:
        mean_t, se_t = _mc_mean(err_runs.T)
        worst = int(np.argmax(mean_t))
        errors.append(float(mean_t[worst]))
        stderrs.append(float(se_t[worst]))
        worst_times.append(float(config.observation_times[worst]))

    err_half = float(err[-1].mean(axis=1).max())
    bias_ratio = abs(err_half - errors[-1]) / max(errors[-1], 1e-300)

    logn = np.log(np.asarray(N_values, float))
    loge = np.log(np.asarray(errors))
    slope, intercept = np.polyfit(logn, loge, 1)
    slope, predicted = float(slope), -1.0 / (1.0 + alpha)
    ses, bias_warning = np.asarray(stderrs), bias_ratio >= 0.2
    return ChaosScanResult(
        N_values=list(N_values),
        errors=errors,
        stderrs=stderrs,
        worst_times=worst_times,
        fitted_slope=slope,
        predicted_slope=predicted,
        K_fitted=float(np.exp(intercept)),
        M_reference=M_reference,
        runs_per_N=runs_per_N,
        proxy_bias_warning=bias_warning,
        proxy_bias_ratio=float(bias_ratio),
        flags={"errors_decreasing": bool(np.all(np.diff(errors) <= 2.0 * (ses[:-1] + ses[1:]))),
               "slope_fast_enough": slope <= predicted + 0.15,
               "proxy_bias_ok": not bias_warning},
    )


# ---------------------------------------------------------------------------
# uniform-in-time moments

def uniform_moment_experiment(config: SimConfig, threads: int = 1):
    """Tracks E|Y^1|^2 over the horizon and tests the second half of the
    series, t >= t_last / 2, for a zero linear trend at 95%."""
    times = np.asarray(config.observation_times)
    half = times >= times[-1] / 2.0
    if half.sum() < 3:
        raise ValueError(
            "uniform_moment_experiment needs at least three observation times in the "
            "second half of the series, t >= t_last / 2, to fit a trend and its standard error"
        )
    _, pos = simulate_batch(config, threads=threads)
    series = moment(pos, 2, times=list(times))
    slope, se = fit_linear_trend(times[half], np.asarray(series.values)[half])
    df = int(half.sum()) - 2
    crit = float(stdtrit(df, 0.975))
    accepted = bool(abs(slope) <= crit * se)
    return series, {
        "slope": slope,
        "slope_stderr": se,
        "t_critical": crit,
        "accepted": accepted,
        "window_from": float(times[half][0]),
        "flags": {"zero_trend": accepted},
    }


# ---------------------------------------------------------------------------
# exponential square moment

# Squared Hilbert-Schmidt norm of the sqrt(2) unit diffusion per coordinate:
# the A of the exponential square-moment bound.
DIFFUSION_BOUND_A = 2.0


def exp_square_moment_experiment(config: SimConfig, delta: float = 0.1, threads: int = 1):
    """E exp(delta |X_t - Y_t|^2) for two independent copies, the second at
    seed + 1; returns the estimated series and its closed form and the
    a-priori bound from the declared (lambda, C) of potential_V.

    The closed form needs independent linear-drift particles from a point
    mass: V = kappa |x|^2, no interaction, raw mode.  Then X_t - Y_t is
    N(0, (1 - e^{-4 kappa t}) / kappa) per coordinate, and
    E exp(delta |X_t - Y_t|^2) = (1 - 2 delta (1 - e^{-4 kappa t}) / kappa)^{-d/2}.
    """
    V, law = config.potential_V, config.initial_law
    if not (V.kind == QUADRATIC and config.potential_W.is_zero and config.mode == "raw"
            and law.kind == "two_point" and law.params["point_a"] == law.params["point_b"]):
        raise ValueError(
            "exp_square_moment_experiment needs a quadratic potential_V, a zero "
            "potential_W, mode = raw and a point-mass two_point initial law"
        )
    lam = V.declared_lambda
    bound = exp_square_moment_bound(delta, lam, V.declared_C, DIFFUSION_BOUND_A, config.dim)
    times, pos_x = simulate_batch(config, threads=threads)
    _, pos_y = simulate_batch(replace(config, seed=config.seed + 1), threads=threads)
    sq = np.sum((pos_x - pos_y) ** 2, axis=-1).reshape(len(times), -1)
    series = exp_square_moment(sq, delta, times=list(times))
    kappa = V.params["kappa"]
    spread = (1.0 - np.exp(-4.0 * kappa * times)) / kappa
    closed = (1.0 - 2.0 * delta * spread) ** (-config.dim / 2.0)
    est, se = np.asarray(series.values), np.asarray(series.stderr)
    return series, {
        "closed_form": closed,
        "bound": float(bound),
        "flags": {"closed_form_ok": bool(np.all(np.abs(est - closed) <= 3.0 * se)),
                  "below_bound": bool(np.all(est < float(bound)))},
    }


# ---------------------------------------------------------------------------
# concentration / deviation suite

LIPSCHITZ_FUNCTIONS = {
    # Each has Lipschitz constant <= 1; the coordinate is clamped at 10.
    "coordinate": lambda x: np.clip(x[..., 0], -10.0, 10.0),
    "constant": lambda x: np.zeros(x.shape[:-1]),
}


@dataclass
class ConcentrationResult:
    n: int
    r_grid: np.ndarray
    empirical_tail: np.ndarray
    bound: np.ndarray
    c_fitted: float
    c_pipeline: float
    c_fitted_over_pipeline: float
    lipschitz_f: str
    unreliable: np.ndarray
    trials: int
    T: float
    flags: dict


def pipeline_t1_constant(config: SimConfig) -> float:
    """Per-particle T_1 constant derived from the declared convexity-at-
    infinity constants (lambda, C) of potential_W and the exponential
    square-moment bound (Gaussian-integrability route to T_1; the N-scaling
    of the full system is the extra factor N carried by the caller)."""
    W = config.potential_W
    lam, C = W.declared_lambda, W.declared_C
    if lam <= 0.0:
        raise ValueError("the concentration bound needs a declared lambda > 0 on potential_W "
                         "(convexity at infinity, with its C)")
    delta = lam / (4.0 * DIFFUSION_BOUND_A)
    bound = exp_square_moment_bound(delta, lam, C, DIFFUSION_BOUND_A, config.dim)
    return 2.0 * (1.0 + math.log(bound)) / delta


def concentration_suite(
    config: SimConfig,
    f_name: str = "coordinate",
    T: float | None = None,
    trials: int = 400,
    threads: int = 1,
) -> ConcentrationResult:
    """Tail of the deviation of the particle average of a 1-Lipschitz
    observable against the a-priori Gaussian bound exp(-N r^2 / c_pipeline)
    of the T1 route (Djellout, Guillin and Wu 2004).  c_fitted, the
    smallest c under which every reliable tail point holds, is descriptive
    only: it holds on its own data by construction.  c_pipeline needs a
    declared lambda > 0 on potential_W; without one nothing is simulated."""
    if f_name not in LIPSCHITZ_FUNCTIONS:
        raise ValueError(f"unknown test function {f_name!r}")
    least_trials = 1 if f_name == "constant" else 200
    if trials < least_trials:
        raise ValueError(f"trials must be >= {least_trials} for a usable tail estimate")
    T = config.horizon if T is None else T
    errors = observation_time_errors((T,), config.horizon, config.step_policy.dt)
    if errors:
        raise ValueError(f"concentration time {T!r}: " + "; ".join(errors))
    c_pipeline = pipeline_t1_constant(config)
    cfg = replace(config, runs=trials, observation_times=(T,))
    _, pos = simulate_batch(cfg, threads)
    f = LIPSCHITZ_FUNCTIONS[f_name]
    values = f(pos[0])  # (trials, N)
    S = values.mean(axis=1)
    ref = float(S.mean())
    dev = S - ref
    scale = float(dev.std(ddof=1)) if trials > 1 else 1.0
    r_grid = np.linspace(0.5, 4.0, 8) * max(scale, 1e-12)
    counts = np.array([(dev >= r).sum() for r in r_grid])
    tail = counts / trials
    unreliable = counts < 5

    usable = (~unreliable) & (tail > 0) & (tail < 1) & (r_grid > 0)
    if np.any(usable):
        c_fitted = float(np.max(cfg.n * r_grid[usable] ** 2 / (-np.log(tail[usable]))))
    else:
        c_fitted = float("nan")
    bound = np.exp(-cfg.n * r_grid**2 / c_pipeline)
    return ConcentrationResult(
        n=cfg.n,
        r_grid=r_grid,
        empirical_tail=tail,
        bound=bound,
        c_fitted=c_fitted,
        c_pipeline=c_pipeline,
        c_fitted_over_pipeline=c_fitted / c_pipeline,
        lipschitz_f=f_name,
        unreliable=unreliable,
        trials=trials,
        T=T,
        flags={"bound_holds": bool(np.all((tail <= bound + 1e-12)[~unreliable]))},
    )


# ---------------------------------------------------------------------------
# summaries

def write_experiment_outputs(config: SimConfig, experiment: str, arguments: dict, result,
                             series_rows, series_header):
    """JSON summary (fitted constants, the flags lifted out of result,
    config echo, the experiment's arguments and the hash of config and
    arguments) plus the CSV time series; returns the two paths."""
    h = config_hash(config, arguments)
    json_path, csv_path = gio.experiment_paths(config.output_dir, experiment, h)
    summary = {
        "experiment": experiment,
        "config_hash": h,
        "config_echo": canonical_text(config),
        "arguments": arguments,
        "flags": {k: bool(v) for k, v in result["flags"].items()},
        "result": {k: v for k, v in result.items() if k != "flags"},
    }
    gio.write_summary(json_path, summary)
    gio.write_series_csv(csv_path, series_header, series_rows)
    return json_path, csv_path
