"""Empirical observables and Wasserstein distance estimators.

Moments are plain Monte Carlo averages with run-to-run standard errors.
Distances are exact between equal-size empirical measures: the 1-d
quantile coupling, and an optimal assignment for small samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

ASSIGNMENT_CAP = 64


@dataclass
class MomentSeries:
    times: list
    order_2k: int
    values: list
    stderr: list

    def __post_init__(self):
        if not (len(self.times) == len(self.values) == len(self.stderr)):
            raise ValueError("times, values and stderr must have equal length")


def _mc_mean(per_run: np.ndarray):
    """Mean and stderr over the run axis (axis 0)."""
    m = per_run.mean(axis=0)
    if per_run.shape[0] > 1:
        se = per_run.std(axis=0, ddof=1) / np.sqrt(per_run.shape[0])
    else:
        se = np.zeros_like(m)
    return m, se


def moment(positions: np.ndarray, order_2k: int, times) -> MomentSeries:
    """E |X^i|^{2k} averaged over particles and runs at each of the times,
    from positions of shape (n_times, runs, n, d)."""
    if order_2k < 2 or order_2k % 2:
        raise ValueError("order must be an even integer >= 2")
    x = np.asarray(positions, dtype=float)
    sq = np.sum(x * x, axis=-1)
    per_run = (sq ** (order_2k / 2)).mean(axis=-1)  # (n_times, runs)
    vals, ses = _mc_mean(per_run.T)
    return MomentSeries(list(times), order_2k, [float(v) for v in vals], [float(s) for s in ses])


def _as_points(samples) -> np.ndarray:
    a = np.asarray(samples, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    return a


def wasserstein_1d(samples_a, samples_b, p: int = 2):
    """Quantile-coupling W_p between equal-size one-dimensional samples."""
    a = _as_points(samples_a)
    b = _as_points(samples_b)
    if a.shape[1] != 1 or b.shape[1] != 1:
        raise ValueError("wasserstein_1d requires one-dimensional samples")
    if a.shape[0] != b.shape[0]:
        raise ValueError("wasserstein_1d requires equal sample counts")
    av = np.sort(a[:, 0])
    bv = np.sort(b[:, 0])
    value = float(np.mean(np.abs(av - bv) ** p) ** (1.0 / p))
    return SimpleNamespace(method="exact-1d", p=p, value=value, samples_per_side=av.size)


def assignment_exact(samples_a, samples_b, p: int = 2):
    """Exact optimal-transport distance between equal-weight empirical
    measures via minimum-cost perfect matching (count capped)."""
    a = _as_points(samples_a)
    b = _as_points(samples_b)
    if a.shape[0] != b.shape[0]:
        raise ValueError("assignment_exact requires equal sample counts")
    if a.shape[0] > ASSIGNMENT_CAP:
        raise ValueError(f"assignment_exact capped at {ASSIGNMENT_CAP} samples")
    from scipy.optimize import linear_sum_assignment  # kept out of start-up

    cost = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=-1) ** p
    rows, cols = linear_sum_assignment(cost)
    value = float((cost[rows, cols].mean()) ** (1.0 / p))
    return SimpleNamespace(method="assignment-exact", p=p, value=value,
                           samples_per_side=a.shape[0])


def exp_square_moment(sq_distances: np.ndarray, delta: float, times):
    """MC estimate of E exp(delta |X_t - Y_t|^2) from squared distances of
    independent coupled copies, shape (n_times, runs).

    The bound it is compared with holds only for delta < lambda / (2 A),
    A the Hilbert-Schmidt diffusion bound; exp_square_moment_bound refuses
    other deltas.  A time is flagged heavy-tailed when its largest sample
    carries more than half of the sum.
    """
    z = np.asarray(sq_distances, dtype=float)
    w = np.exp(delta * z)
    vals, ses = _mc_mean(w.T)
    flags = (w.max(axis=1) / np.maximum(w.sum(axis=1), 1e-300)) > 0.5
    return SimpleNamespace(
        times=list(times), delta=float(delta), values=[float(v) for v in vals],
        stderr=[float(s) for s in ses], heavy_tail_flags=[bool(f) for f in flags],
    )


def exp_square_moment_bound(delta: float, lam: float, C: float, diffusion_bound_A: float, dim: int) -> float:
    """Uniform-in-time bound 1 + (Ad+C+1) exp(delta (Ad+C+1)/(lambda-2 delta A))
    valid for delta < lambda / (2A)."""
    A = diffusion_bound_A
    if delta >= lam / (2.0 * A):
        raise ValueError("bound requires delta < lambda / (2 A)")
    k = A * dim + C + 1.0
    return 1.0 + k * np.exp(delta * k / (lam - 2.0 * delta * A))
