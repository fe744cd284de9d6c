"""Moment estimators and Wasserstein distances against exact oracles."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gmsim.metrics import (
    ASSIGNMENT_CAP,
    MomentSeries,
    assignment_exact,
    exp_square_moment,
    exp_square_moment_bound,
    moment,
    wasserstein_1d,
)

SAMPLES_1D = st.lists(
    st.floats(min_value=-50.0, max_value=50.0, allow_nan=False), min_size=2, max_size=10
)


def brute_force_w(a, b, p=2):
    """Oracle: exact OT by enumerating all permutations."""
    n = a.shape[0]
    best = math.inf
    for perm in itertools.permutations(range(n)):
        cost = np.mean(np.linalg.norm(a - b[list(perm)], axis=-1) ** p)
        best = min(best, cost)
    return best ** (1.0 / p)


# ---------------------------------------------------------------------------
# moments

def test_moment_all_zero():
    assert moment(np.zeros((1, 4, 8, 2)), 2, [0.0]).values == [0.0]


def test_moment_rejects_odd_order():
    with pytest.raises(ValueError):
        moment(np.zeros((1, 2, 4, 1)), 3, [0.0])


def test_moment_gaussian_oracle(rng):
    # analytic moments of |X|^{2k} for X ~ N(0,1) in d=1: 1, 3, 15
    x = rng.normal(size=(1, 64, 500, 1))
    for order, expect in ((2, 1.0), (4, 3.0), (6, 15.0)):
        series = moment(x, order, [0.0])
        assert abs(series.values[0] - expect) < 4 * series.stderr[0]


def test_moment_stationary_projected_quadratic():
    # projected linear dynamics: stationary E|Y^1|^2 = (d/2)(1 - 1/N)
    from conftest import make_config
    from gmsim.experiments import simulate_batch

    n = 8
    cfg = make_config(
        potential_W={"kind": "quadratic", "kappa": 1.0, "p": None},
        dynamics={"n": n, "scheme": "euler", "dt": 0.005},
        experiment={"horizon": 4.0, "obs_times": "2.0,2.5,3.0,3.5,4.0", "runs": 64},
    )
    times, pos = simulate_batch(cfg)
    series = moment(pos, 2, times)
    expect = 0.5 * (1.0 - 1.0 / n)
    est = np.mean(series.values)
    assert abs(est - expect) < 4 * np.max(series.stderr)


def test_moment_series_length_validation():
    with pytest.raises(ValueError):
        MomentSeries([0.0], 2, [1.0, 2.0], [0.0])


# ---------------------------------------------------------------------------
# 1-d Wasserstein

def test_w1d_identical_zero(rng):
    a = rng.normal(size=12)
    assert wasserstein_1d(a, a).value == 0.0


def test_w1d_shift_by_one():
    est = wasserstein_1d([0.0, 1.0], [1.0, 2.0], p=2)
    assert est.value == pytest.approx(1.0)
    assert est.method == "exact-1d"


def test_w1d_matches_assignment(rng):
    for _ in range(100):
        a = rng.normal(size=8)
        b = rng.normal(size=8) + rng.normal()
        assert abs(wasserstein_1d(a, b).value - assignment_exact(a, b).value) < 1e-12


def test_w1d_unequal_counts_rejected(rng):
    with pytest.raises(ValueError, match="equal sample counts"):
        wasserstein_1d(rng.normal(size=5), rng.normal(size=9))


# ---------------------------------------------------------------------------
# assignment

def test_assignment_identical_zero(rng):
    a = rng.normal(size=(6, 2))
    assert assignment_exact(a, a).value == 0.0


def test_assignment_permuted_points_zero():
    a = np.array([[0.0, 0.0], [1.0, 0.0]])
    b = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert assignment_exact(a, b).value == 0.0


def test_assignment_matches_permutation_enumeration(rng):
    for _ in range(50):
        a = rng.normal(size=(6, 2))
        b = rng.normal(size=(6, 2))
        assert assignment_exact(a, b).value == pytest.approx(brute_force_w(a, b), abs=1e-12)


def test_assignment_cap():
    a = np.zeros((ASSIGNMENT_CAP + 1, 1))
    with pytest.raises(ValueError, match="capped"):
        assignment_exact(a, a)


def test_assignment_unequal_counts_rejected():
    with pytest.raises(ValueError):
        assignment_exact(np.zeros((3, 1)), np.zeros((4, 1)))


# ---------------------------------------------------------------------------
# metric properties

@given(
    a=SAMPLES_1D.filter(lambda v: len(v) == 6),
    b=SAMPLES_1D.filter(lambda v: len(v) == 6),
    c=SAMPLES_1D.filter(lambda v: len(v) == 6),
)
@settings(max_examples=40, deadline=None)
def test_triangle_inequality_1d(a, b, c):
    wab = wasserstein_1d(a, b).value
    wbc = wasserstein_1d(b, c).value
    wac = wasserstein_1d(a, c).value
    assert wac <= wab + wbc + 1e-9


@given(a=SAMPLES_1D, s=st.floats(min_value=-4.0, max_value=4.0, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_scale_equivariance_1d(a, s):
    a = np.asarray(a)
    b = a + 1.0
    scaled = wasserstein_1d(s * a, s * b).value
    assert scaled == pytest.approx(abs(s) * wasserstein_1d(a, b).value, abs=1e-9)


def test_coupled_upper_bound_dominates_exact(rng):
    # any coupling (here: paired rows) upper-bounds the optimal distance
    for _ in range(20):
        a = rng.normal(size=(12, 1))
        b = rng.normal(size=(12, 1)) + 0.5
        coupled = np.sqrt(np.mean(np.sum((a - b) ** 2, axis=-1)))
        assert coupled >= assignment_exact(a, b).value - 1e-12


# ---------------------------------------------------------------------------
# exponential square moments

def test_exp_square_moment_at_zero_distance():
    series = exp_square_moment(np.zeros((1, 32)), 0.1, [0.0])
    assert series.values == [1.0]
    assert series.stderr == [0.0]


def test_exp_square_moment_heavy_tail_flag():
    z = np.zeros((1, 100))
    z[0, 0] = 80.0  # exp(0.1 * 80) dominates the sum
    series = exp_square_moment(z, 0.1, [0.0])
    assert series.heavy_tail_flags == [True]
    calm = exp_square_moment(np.ones((1, 100)), 0.1, [0.0])
    assert calm.heavy_tail_flags == [False]


def test_exp_square_moment_gaussian_oracle(rng):
    # Z ~ N(0, v) in d=1: E exp(delta Z^2) = (1 - 2 delta v)^{-1/2}
    v, delta = 1.5, 0.1
    z = rng.normal(scale=np.sqrt(v), size=(1, 40000)) ** 2
    series = exp_square_moment(z, delta, [0.0])
    expect = (1 - 2 * delta * v) ** -0.5
    assert abs(series.values[0] - expect) < 3 * series.stderr[0] + 1e-3


def test_exp_square_moment_bound_formula():
    # 1 + (Ad + C + 1) exp(delta (Ad + C + 1) / (lambda - 2 delta A))
    val = exp_square_moment_bound(0.1, 1.0, 0.0, 2.0, 1)
    k = 2.0 * 1 + 0.0 + 1.0
    assert val == pytest.approx(1.0 + k * np.exp(0.1 * k / (1.0 - 0.4)))
    with pytest.raises(ValueError):
        exp_square_moment_bound(0.3, 1.0, 0.0, 2.0, 1)
