"""Particle-system dynamics: drift evaluation, Euler-type steppers with
drift taming, the zero-mean projected system, and the synchronous coupling.

Positions always carry a leading run axis, (runs, N, d); a single run is a
batch of one.  Independent Monte Carlo runs advance in lockstep: each step
draws its noise with one batch_noise call, a single (runs, N, d) block in
which run r reads its own counter-based stream, and makes one update with
apply_scheme, which projects the noise and recentres the ensemble in
projected mode and rejects non-finite states.  Results are therefore
bit-identical whatever the batching or thread count.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .potentials import Potential
from .rng import INIT_STEP, BrownianSource

EULER = "euler"
TAMED = "tamed"
LAW_KINDS = ("gaussian", "uniform", "two_point")


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

    kinds (LAW_KINDS): gaussian (mean, sigma), uniform (half_width),
    two_point (point_a, point_b, weight).  Projected runs recentre the draw
    through initial_batch.
    """

    kind: str = "gaussian"
    mean: tuple = (0.0,)
    sigma: float = 1.0
    half_width: float = 1.0
    point_a: tuple = (0.0,)
    point_b: tuple = (1.0,)
    weight: float = 0.5

    def sample(self, source: BrownianSource, stream: int, n: int, dim: int) -> np.ndarray:
        if self.kind == "gaussian":
            xi = source.normals(stream, INIT_STEP, n * dim).reshape(n, dim)
            x = np.broadcast_to(np.asarray(self.mean, float), (n, dim)) + self.sigma * xi
        elif self.kind == "uniform":
            u = source.uniforms(stream, INIT_STEP, n * dim).reshape(n, dim)
            x = (2.0 * u - 1.0) * self.half_width
        elif self.kind == "two_point":
            u = source.uniforms(stream, INIT_STEP, n).reshape(n, 1)
            a = np.broadcast_to(np.asarray(self.point_a, float), (n, dim))
            b = np.broadcast_to(np.asarray(self.point_b, float), (n, dim))
            x = np.where(u < self.weight, a, b).astype(float)
        else:
            raise ValueError(f"unknown initial law kind {self.kind!r}")
        return np.array(x, dtype=float)


def drift(positions: np.ndarray, V: Potential, W: Potential) -> np.ndarray:
    """Mean-field drift rows -grad V(x_i) - (1/N) sum_j grad W(x_i - x_j).

    positions may carry leading batch axes: (..., N, d).  The j = i term
    contributes grad W(0) = 0 for every built-in kind.
    """
    x = np.asarray(positions, dtype=float)
    b = -W.mean_grad(x, x)
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


def initial_batch(draw, streams, projected: bool = False) -> np.ndarray:
    """Initial state of a batch of runs: draw(stream) for each run's
    stream, stacked on a run axis in front of the (N, d) axes and projected
    in projected mode.  When draw returns a coupled pair of ensembles, the
    pair axis leads: (2, runs, N, d)."""
    x = np.stack([draw(s) for s in streams], axis=-3)
    return project(x) if projected else x


def apply_scheme(
    x: np.ndarray, b: np.ndarray, xi: np.ndarray, dt: float, scheme: str,
    projected: bool = False,
) -> np.ndarray:
    """One update of positions x (..., N, d) under drift b, driven by the
    standard normal increments xi.  In projected mode the increments lose
    their ensemble mean and the result is recentred on the zero-mean
    hyperplane; a non-finite result raises IntegrationError."""
    if projected:
        xi = project(xi)
    if scheme == EULER:
        x_new = x + b * dt + np.sqrt(2.0 * dt) * xi
    elif scheme == TAMED:
        bnorm = np.linalg.norm(b, axis=-1, keepdims=True)
        x_new = x + b * dt / (1.0 + dt * bnorm) + np.sqrt(2.0 * dt) * xi
    else:
        raise ValueError(f"apply_scheme does not handle {scheme!r}")
    if not np.all(np.isfinite(x_new)):
        bad = np.argwhere(~np.isfinite(x_new))
        raise IntegrationError(f"non-finite position at entry {bad[0].tolist()}")
    return project(x_new) if projected else x_new


def observation_steps(obs_times, dt: float) -> list[int]:
    """Snap observation times to the step grid (nearest step not after)."""
    return [int(np.floor(t / dt + 1e-9)) for t in obs_times]


def observation_schedule(obs_steps, state, advance):
    """Walk the step grid from step 0 to the last observed step, yielding
    (slots, state) at every step that some observation snaps to; slots
    lists those observations' indices, several when times share a step.
    advance(state, k) takes the state after k steps to the one after k+1."""
    slots = defaultdict(list)
    for i, k in enumerate(obs_steps):
        slots[k].append(i)
    for k in range(max(slots, default=0) + 1):
        if k:
            state = advance(state, k - 1)
        if k in slots:
            yield slots[k], state


def batch_noise(source: BrownianSource, streams, step_index: int, n: int, dim: int) -> np.ndarray:
    """Per-run noise blocks stacked to (runs, n, dim), drawn in one call on
    the source; run r's block depends only on its own stream, never on the
    batch composition."""
    return source.normals(streams, step_index, n * dim).reshape(len(streams), n, dim)


def step_batch(
    x: np.ndarray,
    V: Potential,
    W: Potential,
    policy: StepPolicy,
    source: BrownianSource,
    streams,
    step_index: int,
    projected: bool = False,
) -> np.ndarray:
    """Advance independent runs, positions (..., runs, N, d), from step
    step_index to step_index + 1; run r draws from streams[r].  A single
    run is runs = 1, and row r never depends on the other rows.  Leading
    axes share each run's draw: a coupled pair (2, runs, N, d) advances on
    identical Brownian increments, so its difference process sees no
    noise."""
    xi = batch_noise(source, streams, step_index, x.shape[-2], x.shape[-1])
    return apply_scheme(x, drift(x, V, W), xi, policy.dt, policy.scheme, projected)


# The synchronous coupling is step_batch on a stacked pair; the name stays
# because the benchmark's span tracer wraps it.
coupled_step_batch = step_batch


def couple_initial(xa: np.ndarray, xb: np.ndarray):
    """Pair two initial ensembles (N, d) particle by particle: sorted in
    d = 1, the quantile coupling that is optimal for convex costs, and by a
    minimum-cost assignment for d > 1, exact for the empirical measures."""
    if xa.shape[-1] == 1:
        return np.sort(xa, axis=0), np.sort(xb, axis=0)
    rows, cols = linear_sum_assignment(np.sum((xa[:, None, :] - xb[None, :, :]) ** 2, axis=-1))
    return xa[rows], xb[cols]
