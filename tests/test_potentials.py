"""Potential gradients and the structural-condition checkers."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import qmc

from gmsim.potentials import (
    EXTENT,
    PROBES,
    ZERO,
    ConditionReport,
    Potential,
    _probe_pairs,
    check_condition_C,
    check_convexity_at_infinity,
    check_polynomial_growth,
    check_declared,
    particle_mean,
    power_law,
    quadratic,
    sq_norm,
    uniform_plus_bump,
    zero,
)

FINITE = st.floats(min_value=-8.0, max_value=8.0, allow_nan=False)


# ---------------------------------------------------------------------------
# gradients

def test_quadratic_gradient_value():
    assert quadratic(1.0).grad(np.array([3.0])) == pytest.approx([6.0])


def test_power_law_gradient_value():
    # 4 * |2|^2 * 2
    assert power_law(4.0).grad(np.array([2.0])) == pytest.approx([32.0])


def test_power_law_gradient_vanishes_at_origin():
    g = power_law(3.0).grad(np.array([0.0, 0.0]))
    np.testing.assert_array_equal(g, [0.0, 0.0])


def test_gradient_zero_at_origin_all_kinds():
    kinds = [
        quadratic(2.0),
        power_law(4.0),
        power_law(2.0),
        uniform_plus_bump(1.0, -0.5, 2.0),
        zero(),
    ]
    for pot in kinds:
        np.testing.assert_array_equal(pot.grad(np.zeros(2)), np.zeros(2))


@given(x=st.lists(FINITE, min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_gradient_oddness_exact(x):
    x = np.asarray(x)
    for pot in (quadratic(1.5), power_law(4.0), power_law(2.5),
                uniform_plus_bump(1.0, 2.0, 3.0)):
        np.testing.assert_array_equal(pot.grad(-x), -pot.grad(x))


@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(2, 4),
    n=st.integers(1, 400),
    batch=st.lists(st.integers(1, 3), max_size=2),
    specials=st.lists(st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]), max_size=3),
    share=st.floats(0.0, 1.0),
)
@settings(max_examples=120, deadline=None)
@example(seed=0, d=3, n=16, batch=[64], specials=[-0.0], share=1.0)
@example(seed=1, d=2, n=100, batch=[4], specials=[np.inf, -np.inf, np.nan], share=0.05)
def test_particle_sums_keep_the_bits_of_numpy_reductions(seed, d, n, batch, specials, share):
    # numpy's own reductions are the oracle, to the bit: sum over the
    # particle axis for the mean, add.reduce over the coordinates for the
    # squared norm; signed zeros and non-finite entries included.
    gen = np.random.default_rng(seed)
    shape = (*batch, n, d)
    a = gen.normal(size=shape) * 10.0 ** gen.integers(-3, 4, size=shape)
    for value in specials:
        a[gen.random(shape) < share / len(specials)] = value
    with np.errstate(invalid="ignore", over="ignore"):
        want = (a.sum(axis=-2, keepdims=True) / n, np.add.reduce(a * a, axis=-1, keepdims=True))
        got = (particle_mean(a), sq_norm(a))
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert g.tobytes() == w.tobytes()


def test_power_law_exponent_below_two_rejected():
    with pytest.raises(ValueError):
        power_law(1.0)


@pytest.mark.parametrize("radius", [0.0, -2.0])
def test_bump_radius_must_be_positive(radius):
    with pytest.raises(ValueError, match="radius must be > 0"):
        uniform_plus_bump(1.0, 0.7, radius)


def test_a_potential_reads_exactly_its_kinds_row():
    # Built from Python, a kind takes its defaults and refuses another kind's keys.
    assert Potential("quadratic").params == {"kappa": 1.0}
    with pytest.raises(ValueError, match="^kind 'power_law' missing parameter 'p'$"):
        Potential("power_law")
    with pytest.raises(ValueError, match="^kind 'quadratic' does not read 'p'$"):
        Potential("quadratic", {"kappa": 1.0, "p": 3.0})
    with pytest.raises(ValueError, match="missing parameter 'radius'; kind 'uniform_plus_bump' "
                                         "does not read 'p'"):
        Potential("uniform_plus_bump", {"kappa": 1.0, "amplitude": 0.7, "p": 4.0})


def test_the_zero_potential_declares_no_constant():
    with pytest.raises(ValueError, match="zero potential declares no constant"):
        Potential(ZERO, declared_lambda=1.0)
    with pytest.raises(ValueError, match="zero potential declares no constant"):
        Potential(growth_exponent_m=3)
    assert Potential() == zero()


def test_finite_difference_order_two():
    # central difference of value() vs grad(): error slope ~ h^2
    hs = np.array([1e-1, 1e-2, 1e-3])
    for pot in (power_law(3.0), power_law(4.0), power_law(6.0),
                uniform_plus_bump(1.0, 0.7, 2.0)):
        x = np.array([1.3, -0.6])
        e = np.zeros(2)
        e[0] = 1.0
        errs = []
        for h in hs:
            fd = (pot.value(x + h * e) - pot.value(x - h * e)) / (2.0 * h)
            errs.append(abs(fd - pot.grad(x)[0]) + 1e-16)
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert slope > 1.7, (pot.kind, errs)


def test_finite_difference_exact_for_quadratic():
    # zero third derivative: the central difference is exact up to roundoff
    pot = quadratic(1.5)
    x = np.array([1.3, -0.6])
    e = np.array([1.0, 0.0])
    for h in (1e-1, 1e-2):
        fd = (pot.value(x + h * e) - pot.value(x - h * e)) / (2.0 * h)
        assert abs(fd - pot.grad(x)[0]) < 1e-11


# ---------------------------------------------------------------------------
# condition C(A, alpha)

def test_condition_C_power_law_cubic():
    rep = check_condition_C(power_law(3.0), A=1.0, alpha=1.0)
    assert rep.satisfied
    assert rep.condition_name == "C_A_alpha"


def test_condition_C_power_law_quartic():
    assert check_condition_C(power_law(4.0), A=4.0, alpha=2.0).satisfied


def test_condition_C_quadratic_equality_case():
    # (x-y).2(x-y) = 2|x-y|^2 >= 2(|x-y|^2 - eps^2) with equality as eps -> 0
    assert check_condition_C(quadratic(1.0), A=2.0, alpha=0.0).satisfied


def test_condition_C_concave_well_fails_with_oracle():
    # A potential with a concave region near the origin cannot satisfy the
    # degenerate-convexity condition for any A > 0.
    pot = uniform_plus_bump(0.05, 2.0, 2.0)
    rep = check_condition_C(pot, A=0.5, alpha=1.0)
    assert not rep.satisfied
    assert rep.worst_violation > 0
    # independent oracle: dense 1-d grid scan of the inequality
    xs = np.linspace(-4.0, 4.0, 201)[:, None]
    g = pot.grad(xs)
    diff = xs[:, None, 0] - xs[None, :, 0]
    dot = diff * (g[:, None, 0] - g[None, :, 0])
    eps = 0.1
    bound = 0.5 * eps * (diff**2 - eps**2)
    assert np.max(bound - dot) > 0


# ---------------------------------------------------------------------------
# convexity at infinity

def test_convexity_quadratic_equality():
    # (x-y).(grad W(x)-grad W(y)) = 2 |x-y|^2 exactly for W = |x|^2
    rep = check_convexity_at_infinity(quadratic(1.0), lam=2.0, C=0.0)
    assert rep.declared_constants == {"lambda": 2.0, "C": 0.0}
    assert rep.fitted_constants == {}
    assert rep.satisfied
    assert not check_convexity_at_infinity(quadratic(1.0), lam=2.1, C=0.0).satisfied


def test_convexity_power_law_with_grid_oracle():
    # oracle: the smallest C for lambda = 1 on an independent exhaustive 1-d
    # grid; a C above it holds on the probe set, a C well below it does not
    lam = 1.0
    xs = np.linspace(-4.0, 4.0, 321)[:, None]
    g = power_law(4.0).grad(xs)
    diff = xs[:, None, 0] - xs[None, :, 0]
    dot = diff * (g[:, None, 0] - g[None, :, 0])
    C_grid = float(np.max(lam * diff**2 - dot))
    assert C_grid > 0
    assert check_convexity_at_infinity(power_law(4.0), lam, 1.01 * C_grid).satisfied
    assert not check_convexity_at_infinity(power_law(4.0), lam, 0.5 * C_grid).satisfied


def test_condition_checkers_agree_on_quadratic():
    # alpha = 0 degenerate convexity and convexity at infinity with C = 0
    # accept the same rate 2 for W = |x|^2, and both reject 2.1
    for rate, holds in ((2.0, True), (2.1, False)):
        assert check_condition_C(quadratic(1.0), A=rate, alpha=0.0).satisfied is holds
        assert check_convexity_at_infinity(quadratic(1.0), rate, 0.0).satisfied is holds


# ---------------------------------------------------------------------------
# polynomial growth (A3)

def test_growth_power_law_m3_satisfied():
    rep = check_polynomial_growth(power_law(4.0), m=3)
    assert rep.satisfied
    assert rep.declared_constants == {"m": 3.0}
    assert set(rep.fitted_constants) == {"C_hat", "C_hat_inner"}
    assert np.isfinite(rep.fitted_constants["C_hat"])


def test_growth_power_law_m1_flagged():
    # m too small: the fitted constant grows with the probe extent
    rep = check_polynomial_growth(power_law(4.0), m=1)
    assert not rep.satisfied
    # oracle: ratio on collinear pairs x = t e1, y = (t+1) e1 grows in t
    ts = np.array([1.0, 2.0, 4.0])
    x = ts[:, None]
    y = ts[:, None] + 1.0
    num = np.abs(power_law(4.0).grad(x) - power_law(4.0).grad(y))[:, 0]
    den = 1.0 * (1.0 + ts**1 + (ts + 1.0) ** 1)
    ratio = num / den
    assert ratio[-1] > 2.0 * ratio[0]


def test_growth_quadratic_m1_satisfied():
    assert check_polynomial_growth(quadratic(1.0), m=1).satisfied


def test_growth_clamp_needs_linear_factor_even_for_quadratic():
    # with the (|x-y| ^ 1) clamp, a globally Lipschitz gradient still needs
    # m >= 1 to cover widely separated pairs
    assert not check_polynomial_growth(quadratic(1.0), m=0).satisfied


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("pot, m", [
    (quadratic(1.0), 1),
    (uniform_plus_bump(1.0, 0.7, 2.0), 1),
    (power_law(3.0), 2),
    (power_law(4.0), 3),
    (power_law(6.0), 5),
], ids=["quadratic", "bump", "p3", "p4", "p6"])
def test_growth_accepts_the_true_degree_and_rejects_one_less(pot, m, dim):
    # |grad W(x) - grad W(y)| grows like |x|^(p-1) |x-y| for |x|^p, and
    # like |x-y| for a gradient that is Lipschitz; the verdict must not
    # depend on the dimension the pairs are probed in.
    assert check_polynomial_growth(pot, m, dim).satisfied
    assert not check_polynomial_growth(pot, m - 1, dim).satisfied


# ---------------------------------------------------------------------------
# report plumbing

def test_report_determinism():
    a = check_condition_C(power_law(4.0), 4.0, 2.0)
    b = check_condition_C(power_law(4.0), 4.0, 2.0)
    assert a.to_json() == b.to_json()


def test_report_json_fields():
    rep = check_condition_C(quadratic(1.0), 2.0, 0.0)
    js = rep.to_json()
    assert set(js) == {
        "condition_name", "declared_constants", "fitted_constants", "worst_violation",
        "probe_count", "probe_extent", "tolerance", "satisfied",
    }
    assert js["satisfied"] is True


def test_satisfied_is_tolerance_comparison():
    rep = ConditionReport("A3", {}, fitted_constants={}, worst_violation=0.5, probe_count=1,
                          probe_extent=1.0, tolerance=1.0)
    assert rep.satisfied
    rep2 = ConditionReport("A3", {}, fitted_constants={}, worst_violation=2.0, probe_count=1,
                           probe_extent=1.0, tolerance=1.0)
    assert not rep2.satisfied


def test_check_declared_covers_declared_constants():
    pot = power_law(4.0, growth_exponent_m=3, declared_A=4.0, declared_alpha=2.0)
    names = [r.condition_name for r in check_declared(pot)]
    assert names == ["C_A_alpha", "A3"]
    assert all(r.satisfied for r in check_declared(pot))


def test_with_dim_probes_in_higher_dimension():
    rep = check_condition_C(power_law(4.0), 4.0, 2.0, dim=2)
    assert rep.satisfied


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 10])
def test_probe_points_are_shifted_halton_points(dim):
    # scipy.stats is the independent oracle: the unscrambled Halton
    # sequence, shifted by 1/2 mod 1 so that the first pair is the origin.
    unit = (qmc.Halton(d=2 * dim, scramble=False).random(PROBES) + 0.5) % 1
    oracle = unit * (2 * EXTENT) - EXTENT
    x, y = _probe_pairs(dim)
    np.testing.assert_allclose(x[:PROBES], oracle[:, :dim], rtol=0, atol=1e-14)
    np.testing.assert_allclose(y[:PROBES], oracle[:, dim:], rtol=0, atol=1e-14)
    assert not np.any(x[0]) and not np.any(y[0])
    assert _probe_pairs(dim)[0] is x
    assert not x.flags.writeable and not y.flags.writeable


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0])
def test_growth_fit_of_a_quadratic_is_its_closed_form_sup(kappa, dim):
    # |grad W(x) - grad W(y)| = 2 kappa |x - y|, so below distance 1 the
    # ratio is 2 kappa / (1 + |x| + |y|), largest at the pair
    # (0, 1e-3 EXTENT e_k); further apart it stays below that in the box.
    c_hat = check_polynomial_growth(quadratic(kappa), 1, dim).fitted_constants["C_hat"]
    assert c_hat == pytest.approx(2.0 * kappa / (1.0 + 1e-3 * EXTENT), rel=1e-12, abs=0)
