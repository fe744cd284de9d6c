"""Potential gradients and the structural-condition checkers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gmsim.potentials import (
    ConditionReport,
    check_condition_C,
    check_convexity_at_infinity,
    check_polynomial_growth,
    check_declared,
    power_law,
    quadratic,
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


def test_power_law_exponent_below_two_rejected():
    with pytest.raises(ValueError):
        power_law(1.0)


def test_finite_difference_order_two():
    # central difference of value() vs grad(): error slope ~ h^2
    hs = np.array([1e-1, 1e-2, 1e-3])
    for pot in (power_law(4.0), uniform_plus_bump(1.0, 0.7, 2.0)):
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
    rep = check_convexity_at_infinity(quadratic(1.0))
    lam = rep.fitted_constants["lambda"]
    assert 1.7 <= lam <= 2.0 + 1e-9
    assert rep.fitted_constants["C"] <= 1e-9
    assert rep.satisfied


def test_convexity_power_law_with_grid_oracle():
    rep = check_convexity_at_infinity(power_law(4.0))
    lam = rep.fitted_constants["lambda"]
    C = rep.fitted_constants["C"]
    assert lam > 0 and C > 0
    assert rep.satisfied
    # oracle: the fitted constants hold on an independent exhaustive 1-d
    # grid, up to a small slack reflecting the finite probe set of the fit
    xs = np.linspace(-4.0, 4.0, 321)[:, None]
    g = power_law(4.0).grad(xs)
    diff = xs[:, None, 0] - xs[None, :, 0]
    dot = diff * (g[:, None, 0] - g[None, :, 0])
    assert np.max(lam * diff**2 - C - dot) <= 0.01 * lam


def test_convexity_zero_potential_gets_lambda_zero():
    rep = check_convexity_at_infinity(zero())
    assert rep.fitted_constants["lambda"] == 0.0
    assert rep.fitted_constants["C"] == 0.0


def test_condition_checkers_agree_on_quadratic():
    # alpha = 0 degenerate-convexity and the convexity fit see the same rate
    lam = check_convexity_at_infinity(quadratic(1.0)).fitted_constants["lambda"]
    assert check_condition_C(quadratic(1.0), A=lam, alpha=0.0).satisfied


# ---------------------------------------------------------------------------
# polynomial growth (A3)

def test_growth_power_law_m3_satisfied():
    rep = check_polynomial_growth(power_law(4.0), m=3)
    assert rep.satisfied
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
        "condition_name", "fitted_constants", "worst_violation",
        "probe_count", "probe_extent", "tolerance", "satisfied",
    }
    assert js["satisfied"] is True


def test_satisfied_is_tolerance_comparison():
    rep = ConditionReport("A3", {}, worst_violation=0.5, probe_count=1,
                          probe_extent=1.0, tolerance=1.0)
    assert rep.satisfied
    rep2 = ConditionReport("A3", {}, worst_violation=2.0, probe_count=1,
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
