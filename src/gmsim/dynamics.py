"""Particle-system dynamics: drift evaluation, Euler-type steppers with
drift taming, the zero-mean projected system, and the synchronous coupling.

Positions always carry a leading run axis, (runs, N, d); a single run is a
batch of one.  Independent Monte Carlo runs advance in lockstep, step 0,
1, 2, ... in order.  A chunk of runs takes its noise from a generator
(noise_window) that yields each step's increments in turn and draws them a
window of consecutive steps at a time, with one batch_noise call per window
giving a (steps, runs, N, d) block in which run r reads its own
counter-based stream; each step then makes one update with apply_scheme,
keyed by the StepPolicy, which projects the noise and recentres the
ensemble in projected mode and rejects non-finite states.
observation_schedule walks the steps and yields the state once per
observation.  Every block is a pure function of (seed, stream,
step), so results are bit-identical whatever the windows, the batching or
the thread count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .potentials import Potential
from .rng import INIT_STEP, BrownianSource

EULER = "euler"
TAMED = "tamed"
# The parameters each InitialLaw kind reads, each with the default a config
# may leave out; a tuple default makes a list of 1 or dim entries.
LAW_PARAMS = {"gaussian": {"mean": (0.0,), "sigma": 1.0}, "uniform": {"half_width": 1.0},
              "two_point": {"point_a": (0.0,), "point_b": (1.0,), "weight": 0.5}}


class IntegrationError(RuntimeError):
    """Non-finite state or gradient encountered while stepping."""


@dataclass(frozen=True)
class StepPolicy:
    scheme: str = TAMED
    dt: float = 0.01

    def __post_init__(self):
        if self.scheme not in (EULER, TAMED):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.dt <= 0:
            raise ValueError("dt must be > 0")


@dataclass(frozen=True)
class InitialLaw:
    """Initial distribution for the particle positions.

    kind, a key of LAW_PARAMS (gaussian by default, the standard normal),
    selects the law; params holds the parameters LAW_PARAMS lists for it.
    sample draws one ensemble (n, dim) for one stream, or a batch
    (runs, n, dim) for a list of streams in one call on the source, row r
    bit-identical to the draw of streams[r] alone.  Projected runs recentre
    the draw with project.
    """

    kind: str = "gaussian"
    params: dict = field(default_factory=LAW_PARAMS["gaussian"].copy)

    def __post_init__(self):
        if self.kind not in LAW_PARAMS:
            raise ValueError(f"unknown initial law kind {self.kind!r}")
        for key, value in self.params.items():
            if key == "weight" and not 0.0 <= value <= 1.0:
                raise ValueError(f"weight must be in [0, 1], got {value!r}")
            if key in ("sigma", "half_width") and not value >= 0.0:
                raise ValueError(f"{key} must be >= 0, got {value!r}")

    def sample(self, source: BrownianSource, stream, n: int, dim: int) -> np.ndarray:
        shape = (n, dim) if np.ndim(stream) == 0 else (len(stream), n, dim)
        p = self.params
        if self.kind == "gaussian":
            xi = source.normals(stream, INIT_STEP, n * dim).reshape(shape)
            x = np.asarray(p["mean"], float) + p["sigma"] * xi
        elif self.kind == "uniform":
            u = source.uniforms(stream, INIT_STEP, n * dim).reshape(shape)
            x = (2.0 * u - 1.0) * p["half_width"]
        else:  # two_point
            u = source.uniforms(stream, INIT_STEP, n).reshape(shape[:-1] + (1,))
            x = np.where(u < p["weight"], np.asarray(p["point_a"], float),
                         np.asarray(p["point_b"], float))
        return np.broadcast_to(x, shape).astype(float)


def drift(
    positions: np.ndarray, V: Potential, W: Potential, law: np.ndarray | None = None,
) -> np.ndarray:
    """Mean-field drift b(x, mu) = -grad V(x) - (grad W * mu)(x) at each row
    x_i of positions (..., N, d): -grad V(x_i) - (1/M) sum_j grad W(x_i - y_j)
    over the sample y (..., M, d) of mu that law holds.

    law defaults to the positions themselves, the particle system's own
    empirical measure, where the j = i term contributes grad W(0) = 0 for
    every built-in kind.  A proxy of the nonlinear flow passes an ensemble
    that stands for u_t.
    """
    x = np.asarray(positions, dtype=float)
    b = -W.mean_grad(x, x if law is None else law)
    if not V.is_zero:
        b = b - V.grad(x)
    if not np.all(np.isfinite(b)):
        bad = np.argwhere(~np.isfinite(b))
        raise IntegrationError(f"non-finite drift at entry {bad[0].tolist()}")
    return b


def noise_block(
    source: BrownianSource, stream: int, step_index: int, n: int, dim: int
) -> np.ndarray:
    """Standard normal increments for one step of one run, shape (n, dim),
    a pure function of (seed, stream, step_index).  The steppers draw
    through batch_noise; the name stays only because the benchmark's span
    tracer wraps it."""
    return source.normals(stream, step_index, n * dim).reshape(n, dim)


def project(x: np.ndarray) -> np.ndarray:
    """Remove the ensemble mean over the particle axis: the projection onto
    the zero-mean hyperplane, of positions or of the increments, where it
    realizes the projected system's driving noise sqrt(2)(dB^i - mean_j dB^j)."""
    return x - x.mean(axis=-2, keepdims=True)


def apply_scheme(
    x: np.ndarray, b: np.ndarray, xi: np.ndarray, policy: StepPolicy, projected: bool = False,
) -> np.ndarray:
    """One update of positions x (..., N, d) under drift b, driven by the
    standard normal increments xi, with policy's scheme and dt.  In
    projected mode the increments lose their ensemble mean and the result is
    recentred on the zero-mean hyperplane; a non-finite result raises
    IntegrationError."""
    if projected:
        xi = project(xi)
    dt = policy.dt
    if policy.scheme == EULER:
        x_new = x + b * dt + np.sqrt(2.0 * dt) * xi
    else:  # TAMED
        bnorm = np.linalg.norm(b, axis=-1, keepdims=True)
        x_new = x + b * dt / (1.0 + dt * bnorm) + np.sqrt(2.0 * dt) * xi
    if not np.all(np.isfinite(x_new)):
        bad = np.argwhere(~np.isfinite(x_new))
        raise IntegrationError(f"non-finite position at entry {bad[0].tolist()}")
    return project(x_new) if projected else x_new


def observation_steps(obs_times, dt: float) -> list[int]:
    """Snap observation times to the step grid (nearest step not after)."""
    return [int(np.floor(t / dt + 1e-9)) for t in obs_times]


def observation_schedule(obs_steps, state, advance):
    """Walk the step grid from step 0, yielding (i, state) once per
    observation i in order, state being the one after obs_steps[i] steps;
    observations that share a step get the same state.  obs_steps must not
    decrease, and advance(state) takes one step."""
    k = 0
    for i, step in enumerate(obs_steps):
        while k < step:
            state = advance(state)
            k += 1
        yield i, state


# Most increments one noise window holds: a chunk of runs draws the noise
# of max(1, NOISE_WINDOW_VALUES // (runs * N * d)) consecutive steps in one
# call, so a step's share of the generator set-up and of the ufunc calls
# shrinks, while a window stays at 256 KiB of float64 at most (unless one
# step alone is larger).
NOISE_WINDOW_VALUES = 2**15


def batch_noise(source: BrownianSource, streams, steps, n: int, dim: int) -> np.ndarray:
    """Per-run noise blocks of one step, stacked to (runs, n, dim), or of a
    sequence of steps, stacked to (len(steps), runs, n, dim), drawn in one
    call on the source; run r's block at a step depends only on its own
    stream and that step, never on the batch or window composition."""
    shape = np.shape(steps) + (len(streams), n, dim)
    return source.normals(streams, steps, n * dim).reshape(shape)


def noise_window(source: BrownianSource, streams, n: int, dim: int, end: int):
    """Yield the (runs, n, dim) increments of steps 0, 1, ..., end - 1 in
    turn.  They are drawn with one batch_noise call per window of
    NOISE_WINDOW_VALUES // (runs n dim) steps (at least one), none at or
    past end, and one window is held at a time."""
    width = max(1, NOISE_WINDOW_VALUES // (len(streams) * n * dim))
    for start in range(0, end, width):
        yield from batch_noise(source, streams, range(start, min(start + width, end)), n, dim)


def step_batch(
    x: np.ndarray,
    V: Potential,
    W: Potential,
    policy: StepPolicy,
    xi: np.ndarray,
    projected: bool = False,
) -> np.ndarray:
    """Advance independent runs, positions (..., runs, N, d), by one step
    driven by that step's increments xi (runs, N, d), row r those of run r.
    A single run is runs = 1, and row r never depends on the other rows.
    Leading axes share each run's increments: a coupled pair (2, runs, N, d)
    advances on identical Brownian increments, so its difference process
    sees no noise."""
    return apply_scheme(x, drift(x, V, W), xi, policy, projected)


# The synchronous coupling is step_batch on a stacked pair; the name stays
# because the benchmark's span tracer wraps it.
coupled_step_batch = step_batch


def couple_initial(xa: np.ndarray, xb: np.ndarray):
    """Pair two initial ensembles (N, d) particle by particle: sorted in
    d = 1, the quantile coupling that is optimal for convex costs, and by a
    minimum-cost assignment for d > 1, exact for the empirical measures."""
    if xa.shape[-1] == 1:
        return np.sort(xa, axis=0), np.sort(xb, axis=0)
    from scipy.optimize import linear_sum_assignment  # kept out of start-up

    rows, cols = linear_sum_assignment(np.sum((xa[:, None, :] - xb[None, :, :]) ** 2, axis=-1))
    return xa[rows], xb[cols]
