"""Pre-built experiment harnesses: synchronous-coupling decay, the
propagation-of-chaos scan against a mean-field proxy, uniform moment
tracking, the exponential square-moment benchmark, and the
concentration/deviation suite.

Each harness returns its series and fitted constants; the CLI derives the
pass/fail flags and writes them with write_experiment_outputs as a JSON
summary plus a CSV series named `<experiment>-<confighash>`.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import stats

from . import io as gio
from .config import SimConfig, canonical_text, config_hash, observation_time_errors
from .dynamics import (
    batch_noise,
    couple_initial,
    drift,
    apply_scheme,
    initial_batch,
    observation_schedule,
    observation_steps,
    step_batch,
)
from .metrics import exp_square_moment, exp_square_moment_bound, moment
from .potentials import QUADRATIC, check_convexity_at_infinity
from .rng import BrownianSource


# ---------------------------------------------------------------------------
# deterministic run-chunk parallelism

def _chunks(n_runs: int, threads: int):
    idx = list(range(n_runs))
    size = math.ceil(len(idx) / max(1, threads))
    return [idx[i : i + size] for i in range(0, len(idx), size)]


def _map_chunks(fn, chunks, threads: int):
    """Apply fn to each chunk; aggregation order is fixed by chunk order,
    so the thread count never changes the result."""
    if threads <= 1 or len(chunks) == 1:
        return [fn(c) for c in chunks]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(fn, chunks))


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

def simulate_batch(config: SimConfig, runs: int | None = None, threads: int = 1):
    """Simulate independent runs; returns (times, positions) with positions
    of shape (n_obs, runs, N, d)."""
    runs = config.runs if runs is None else runs
    source = BrownianSource(config.seed)
    projected = config.mode == "projected"
    obs = observation_steps(config.observation_times, config.step_policy.dt)

    def run_chunk(chunk):
        streams = [config.stream_for_run(r) for r in chunk]
        x = initial_batch(lambda s: config.initial_law.sample(source, s, config.n, config.dim),
                          streams, projected)

        def advance(x, k):
            return step_batch(x, config.potential_V, config.potential_W, config.step_policy,
                              source, streams, k, projected)

        out = np.empty((len(obs), len(chunk), config.n, config.dim))
        for slots, x in observation_schedule(obs, x, advance):
            out[slots] = x
        return out

    parts = _map_chunks(run_chunk, _chunks(runs, threads), threads)
    return np.asarray(config.observation_times), np.concatenate(parts, axis=1)


def coupled_batch(config: SimConfig, threads: int = 1):
    """Pairs started from initial_law and initial_law_b, coupled by
    couple_initial and advanced on shared noise; returns (times, xi_runs)
    with xi_runs of shape (n_obs, runs)."""
    source = BrownianSource(config.seed)
    projected = config.mode == "projected"
    obs = observation_steps(config.observation_times, config.step_policy.dt)
    n, dim = config.n, config.dim

    def run_chunk(chunk):
        streams = [config.stream_for_run(r) for r in chunk]
        pair = initial_batch(
            lambda s: couple_initial(
                config.initial_law.sample(source, s, n, dim),
                config.initial_law_b.sample(source, s + config.PARTNER_STREAM, n, dim)),
            streams, projected,
        )

        def advance(pair, k):
            return step_batch(pair, config.potential_V, config.potential_W,
                              config.step_policy, source, streams, k, projected)

        xi_out = np.empty((len(obs), len(chunk)))
        for slots, (xa, xb) in observation_schedule(obs, pair, advance):
            xi_out[slots] = np.mean(np.sum((xa - xb) ** 2, axis=-1), axis=-1)
        return xi_out

    parts = _map_chunks(run_chunk, _chunks(config.runs, threads), threads)
    return np.asarray(config.observation_times), np.concatenate(parts, axis=1)


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
    xi = xi_runs.mean(axis=1)
    se = xi_runs.std(axis=1, ddof=1) / np.sqrt(runs) if runs > 1 else np.zeros_like(xi)
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


def _chaos_walk(config, source, chunk, N_values, M_reference, obs):
    """Run errors |Y^1_t - Xbar^1_t|^2, (len(N_values) + 1, n_obs, runs), of
    each projected N-system's tagged particle against the proxy fed by the
    auxiliary ensemble of M_reference particles, then of the largest
    N-system's against the proxy fed by the half-size ensemble.  One walk
    advances them all, so memory does not grow with the horizon.  A proxy
    starts at row 0 of the run's unprojected initial draw and steps on
    particle 0's unprojected increments, prefixes of the run's stream, so
    one proxy per ensemble serves every N; its drift, the convolution of
    grad W with u_t, reads its ensemble at the start of the step."""
    V, W, policy, dim = config.potential_V, config.potential_W, config.step_policy, config.dim
    streams = [config.stream_for_run(r) for r in chunk]
    aux_streams = [[config.stream_for_run(r, role) for r in chunk]
                   for role in (config.AUX_STREAM, config.HALF_AUX_STREAM)]

    def draw(n, ss, projected=True):
        return initial_batch(lambda s: config.initial_law.sample(source, s, n, dim), ss,
                             projected)

    def advance(state, k):
        ensembles, systems, proxies = state
        bx = [-W.mean_grad(xbar, aux) for xbar, aux in zip(proxies, ensembles)]
        ensembles = [step_batch(aux, V, W, policy, source, ss, k, projected=True)
                     for aux, ss in zip(ensembles, aux_streams)]
        xi = [batch_noise(source, streams, k, n, dim) for n in N_values]
        systems = [apply_scheme(y, drift(y, V, W), x, policy.dt, policy.scheme, projected=True)
                   for y, x in zip(systems, xi)]
        proxies = [apply_scheme(xbar, b, xi[-1][:, :1, :], policy.dt, policy.scheme)
                   for xbar, b in zip(proxies, bx)]
        return ensembles, systems, proxies

    ensembles = [draw(m, ss) for m, ss in zip((M_reference, M_reference // 2), aux_streams)]
    state = (ensembles, [draw(n, streams) for n in N_values], [draw(1, streams, False)] * 2)
    err = np.empty((len(N_values) + 1, len(obs), len(chunk)))
    for slots, (_, systems, (xbar, xbar_half)) in observation_schedule(obs, state, advance):
        pairs = [(y, xbar) for y in systems] + [(systems[-1], xbar_half)]
        for i, (y, x) in enumerate(pairs):
            err[i, slots] = np.sum((y[:, 0, :] - x[:, 0, :]) ** 2, axis=-1)
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
    if len(set(N_values)) < 2 or runs_per_N < 2:
        raise ValueError(
            "chaos_scan needs at least two distinct N values (a slope) and "
            "runs_per_N >= 2 (a standard error)"
        )
    if M_reference < 8 * max(N_values):
        raise ValueError("M_reference must be at least 8 * max(N_values)")
    if config.potential_W.declared_alpha <= 0.0:
        raise ValueError("chaos_scan needs declared alpha > 0 on potential_W")
    if config.mode != "projected":
        raise ValueError("chaos_scan needs mode = projected: it runs projected N-systems "
                         "and a proxy without potential_V")
    alpha = config.potential_W.declared_alpha
    obs = observation_steps(config.observation_times, config.step_policy.dt)
    source = BrownianSource(config.seed)

    def run_chunk(chunk):
        return _chaos_walk(config, source, chunk, N_values, M_reference, obs)

    err = np.concatenate(_map_chunks(run_chunk, _chunks(runs_per_N, threads), threads), axis=-1)
    errors, stderrs, worst_times = [], [], []
    for err_runs in err[:-1]:
        mean_t = err_runs.mean(axis=1)
        worst = int(np.argmax(mean_t))
        errors.append(float(mean_t[worst]))
        stderrs.append(float(err_runs[worst].std(ddof=1) / np.sqrt(err_runs.shape[1])))
        worst_times.append(float(config.observation_times[worst]))

    err_half = float(err[-1].mean(axis=1).max())
    bias_ratio = abs(err_half - errors[-1]) / max(errors[-1], 1e-300)

    logn = np.log(np.asarray(N_values, float))
    loge = np.log(np.asarray(errors))
    slope, intercept = np.polyfit(logn, loge, 1)
    return ChaosScanResult(
        N_values=list(N_values),
        errors=errors,
        stderrs=stderrs,
        worst_times=worst_times,
        fitted_slope=float(slope),
        predicted_slope=-1.0 / (1.0 + alpha),
        K_fitted=float(np.exp(intercept)),
        M_reference=M_reference,
        runs_per_N=runs_per_N,
        proxy_bias_warning=bias_ratio >= 0.2,
        proxy_bias_ratio=float(bias_ratio),
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
    crit = float(stats.t.ppf(0.975, df))
    accepted = abs(slope) <= crit * se
    return series, {
        "slope": slope,
        "slope_stderr": se,
        "t_critical": crit,
        "accepted": bool(accepted),
        "window_from": float(times[half][0]),
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
            and law.kind == "two_point" and law.point_a == law.point_b):
        raise ValueError(
            "exp_square_moment_experiment needs a quadratic potential_V, a zero "
            "potential_W, mode = raw and a point-mass two_point initial law"
        )
    lam = V.declared_lambda
    bound = exp_square_moment_bound(delta, lam, V.declared_C, DIFFUSION_BOUND_A, config.dim)
    times, pos_x = simulate_batch(config, threads=threads)
    _, pos_y = simulate_batch(replace(config, seed=config.seed + 1), threads=threads)
    sq = np.sum((pos_x - pos_y) ** 2, axis=-1).reshape(len(times), -1)
    series = exp_square_moment(sq, delta, times=list(times), lambda_hat=lam,
                               diffusion_bound_A=DIFFUSION_BOUND_A)
    kappa = V.params["kappa"]
    spread = (1.0 - np.exp(-4.0 * kappa * times)) / kappa
    return series, {
        "closed_form": (1.0 - 2.0 * delta * spread) ** (-config.dim / 2.0),
        "bound": float(bound),
    }


# ---------------------------------------------------------------------------
# concentration / deviation suite

LIPSCHITZ_FUNCTIONS = {
    # Each has Lipschitz constant <= 1; the unbounded ones are clamped at 10.
    "coordinate": lambda x: np.clip(x[..., 0], -10.0, 10.0),
    "norm": lambda x: np.minimum(np.linalg.norm(x, axis=-1), 10.0),
    "sine": lambda x: np.sin(x[..., 0]),
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


def pipeline_t1_constant(config: SimConfig) -> float:
    """Per-particle T_1 constant derived from the fitted convexity-at-
    infinity constants and the exponential square-moment bound (Gaussian-
    integrability route to T_1; the N-scaling of the full system is the
    extra factor N carried by the caller)."""
    W = config.potential_W
    if W.declared_lambda > 0.0:
        lam, C = W.declared_lambda, W.declared_C
    else:
        rep = check_convexity_at_infinity(W, config.dim)
        lam, C = rep.fitted_constants["lambda"], rep.fitted_constants["C"]
    if lam <= 0.0:
        return float("inf")
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
    only: it holds on its own data by construction."""
    if f_name not in LIPSCHITZ_FUNCTIONS:
        raise ValueError(f"unknown test function {f_name!r}")
    if trials < 200 and f_name != "constant":
        raise ValueError("trials must be >= 200 for a usable tail estimate")
    T = config.horizon if T is None else T
    errors = observation_time_errors((T,), config.horizon, config.step_policy.dt)
    if errors:
        raise ValueError(f"concentration time {T!r}: " + "; ".join(errors))
    cfg = replace(config, observation_times=(T,))
    _, pos = simulate_batch(cfg, trials, threads)
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
    c_pipeline = pipeline_t1_constant(config)
    return ConcentrationResult(
        n=cfg.n,
        r_grid=r_grid,
        empirical_tail=tail,
        bound=np.exp(-cfg.n * r_grid**2 / c_pipeline),
        c_fitted=c_fitted,
        c_pipeline=c_pipeline,
        c_fitted_over_pipeline=c_fitted / c_pipeline,
        lipschitz_f=f_name,
        unreliable=unreliable,
        trials=trials,
        T=T,
    )


# ---------------------------------------------------------------------------
# summaries

def write_experiment_outputs(config: SimConfig, experiment: str, arguments: dict, result,
                             flags: dict, series_rows, series_header):
    """JSON summary (fitted constants, flags, config echo, the experiment's
    arguments and the hash of config and arguments) plus the CSV time
    series; returns the two paths."""
    h = config_hash(config, arguments)
    json_path, csv_path = gio.experiment_paths(config.output_dir, experiment, h)
    summary = {
        "experiment": experiment,
        "config_hash": h,
        "config_echo": canonical_text(config),
        "arguments": arguments,
        "flags": {k: bool(v) for k, v in flags.items()},
        "result": result,
    }
    gio.write_summary(json_path, summary)
    gio.write_series_csv(csv_path, series_header, series_rows)
    return json_path, csv_path
