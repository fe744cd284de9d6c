"""Confinement/interaction potentials and numerical assumption checkers.

A :class:`Potential` bundles an analytic gradient with the structural
constants the theory asks for (polynomial growth degree m, convexity at
infinity (lambda, C), degenerate convexity (A, alpha)).  The checkers
probe the corresponding inequalities on a finite sample of point pairs and
report the worst violation; they are surrogates for global statements and
are labeled as such.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.stats import qmc

POWER_LAW = "power_law"
QUADRATIC = "quadratic"
UNIFORM_PLUS_BUMP = "uniform_plus_bump"
ZERO = "zero"

_KINDS = (POWER_LAW, QUADRATIC, UNIFORM_PLUS_BUMP, ZERO)


@dataclass(frozen=True)
class Potential:
    """Radially symmetric potential with an analytic gradient.

    kind selects the functional form; params holds its numeric parameters.
    The declared_* fields carry the constants the user asserts for the
    structural conditions; checkers verify them, they are never inferred.
    """

    kind: str
    params: dict = field(default_factory=dict)
    growth_exponent_m: int = 1
    declared_lambda: float = 0.0
    declared_C: float = 0.0
    declared_A: float = 0.0
    declared_alpha: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if self.kind == POWER_LAW and self.params["p"] < 2:
            raise ValueError("power_law exponent must be >= 2")
        if self.kind == QUADRATIC and self.params["kappa"] <= 0:
            raise ValueError("quadratic stiffness must be > 0")
        if self.growth_exponent_m < 0:
            raise ValueError("m must be >= 0")

    @property
    def is_zero(self) -> bool:
        return self.kind == ZERO

    def grad(self, x: np.ndarray) -> np.ndarray:
        """Gradient at x, shape (..., d).  Odd in x for every built-in kind."""
        x = np.asarray(x, dtype=float)
        if self.kind == ZERO:
            return np.zeros_like(x)
        if self.kind == QUADRATIC:
            return 2.0 * self.params["kappa"] * x
        if self.kind == POWER_LAW:
            p = self.params["p"]
            r = np.linalg.norm(x, axis=-1, keepdims=True)
            # 0**0 == 1 under numpy, so p == 2 falls out exactly; for p > 2
            # the prefactor vanishes at the origin.
            return p * r ** (p - 2.0) * x
        if self.kind == UNIFORM_PLUS_BUMP:
            kappa = self.params["kappa"]
            a = self.params["amplitude"]
            rho = self.params["radius"]
            s = np.sum(x * x, axis=-1, keepdims=True) / rho**2
            inside = s < 1.0
            bump = np.where(inside, -(6.0 * a / rho**2) * (1.0 - s) ** 2, 0.0)
            return 2.0 * kappa * x + bump * x
        raise AssertionError(self.kind)

    def mean_grad(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """(1/M) sum_j grad W(x_i - y_j) for x (..., N, d) and y (..., M, d).

        For the quadratic kind and power_law p in {2, 4} the sum expands
        exactly in the moments of y about its mean ybar, in O((N + M) d^2):
        with u = x - ybar, v = y - ybar and S = E[v v^T], p = 4 gives
        4 (|u|^2 u + 2 S u + tr(S) u - E[|v|^2 v]) and the quadratic kind
        2 kappa u.  Every other kind sums all N x M pair gradients.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        p = self.params.get("p")
        if self.kind != QUADRATIC and not (self.kind == POWER_LAW and p in (2.0, 4.0)):
            return self.grad(x[..., :, None, :] - y[..., None, :, :]).mean(axis=-2)
        # ybar = y_0 + mean(y - y_0) is never formed: u and v are taken
        # from differences to the sample point y_0, so their rounding
        # scales with the spread of y, not with its offset, and they are
        # exactly 0 when every point coincides (identical particles feel
        # no drift).
        m = y.shape[-2]
        y0 = y[..., :1, :]
        v = y - y0
        shift = v.sum(axis=-2, keepdims=True) / m
        u = (x - y0) - shift
        if p != 4.0:  # quadratic, or power_law p = 2 with kappa = 1
            return 2.0 * self.params.get("kappa", 1.0) * u
        v = v - shift
        vv = np.sum(v * v, axis=-1, keepdims=True)
        S = np.swapaxes(v, -1, -2) @ v / m
        trace = vv.sum(axis=-2, keepdims=True) / m
        skew = (vv * v).sum(axis=-2, keepdims=True) / m
        uu = np.sum(u * u, axis=-1, keepdims=True)
        return 4.0 * ((uu + trace) * u + 2.0 * u @ S - skew)

    def value(self, x: np.ndarray) -> np.ndarray:
        """Potential value at x."""
        x = np.asarray(x, dtype=float)
        if self.kind == ZERO:
            return np.zeros(x.shape[:-1])
        if self.kind == QUADRATIC:
            return self.params["kappa"] * np.sum(x * x, axis=-1)
        if self.kind == POWER_LAW:
            r = np.linalg.norm(x, axis=-1)
            return r ** self.params["p"]
        if self.kind == UNIFORM_PLUS_BUMP:
            kappa = self.params["kappa"]
            a = self.params["amplitude"]
            rho = self.params["radius"]
            s = np.sum(x * x, axis=-1) / rho**2
            bump = np.where(s < 1.0, a * (1.0 - s) ** 3, 0.0)
            return kappa * np.sum(x * x, axis=-1) + bump
        raise AssertionError(self.kind)


def power_law(p: float, **declared) -> Potential:
    """W(x) = |x|^p, p >= 2."""
    return Potential(POWER_LAW, {"p": float(p)}, **declared)


def quadratic(kappa: float = 1.0, **declared) -> Potential:
    """W(x) = kappa |x|^2, gradient 2 kappa x."""
    return Potential(QUADRATIC, {"kappa": float(kappa)}, **declared)


def zero() -> Potential:
    return Potential(ZERO)


def uniform_plus_bump(kappa: float, amplitude: float, radius: float, **declared) -> Potential:
    """kappa |x|^2 plus a compactly supported C^2 bump of the given
    amplitude and radius (negative amplitude digs a well at the origin)."""
    return Potential(
        UNIFORM_PLUS_BUMP,
        {"kappa": float(kappa), "amplitude": float(amplitude), "radius": float(radius)},
        **declared,
    )


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of probing one structural condition on a finite point set.

    worst_violation is the max over probes of (required lower bound -
    observed value); the condition is deemed satisfied on the probe set
    when it does not exceed the tolerance.
    """

    condition_name: str
    fitted_constants: dict
    worst_violation: float
    probe_count: int
    probe_extent: float
    tolerance: float

    @property
    def satisfied(self) -> bool:
        return self.worst_violation <= self.tolerance

    def to_json(self) -> dict:
        return {
            "condition_name": self.condition_name,
            "fitted_constants": dict(self.fitted_constants),
            "worst_violation": self.worst_violation,
            "probe_count": self.probe_count,
            "probe_extent": self.probe_extent,
            "tolerance": self.tolerance,
            "satisfied": self.satisfied,
        }


def default_tolerance(bound_scale: float = 0.0) -> float:
    # Relative so that exact equality cases (quadratic) pass in floats.
    return 1e-9 * (1.0 + abs(bound_scale))


# Probe set of every checker: PROBES Sobol points (seed 0) in the box
# [-EXTENT, EXTENT]^(2 dim), plus near-diagonal pairs; the degenerate-
# convexity bound is probed at each eps of EPS_GRID.  The convexity-at-
# infinity fit uses FIT_PROBES points, and its fitted lambda depends on
# that count.
PROBES = 256
FIT_PROBES = 512
EXTENT = 4.0
EPS_GRID = np.array([0.05, 0.1, 0.25, 0.5, 0.75, 0.95])


def _probe_pairs(dim: int, probes: int = PROBES):
    """Low-discrepancy (x, y) pairs in the box, augmented with
    near-diagonal pairs y = x + delta e_k where degenerate convexity
    concentrates.  Deterministic."""
    eng = qmc.Sobol(d=2 * dim, scramble=True, seed=0)
    pts = eng.random(probes) * (2.0 * EXTENT) - EXTENT
    x = pts[:, :dim]
    y = pts[:, dim:]
    extra_x = []
    extra_y = []
    base = x[: probes // 4]
    for delta in (1e-3, 1e-2, 1e-1):
        for k in range(dim):
            e = np.zeros(dim)
            e[k] = delta * EXTENT
            extra_x.append(base)
            extra_y.append(base + e)
    x = np.concatenate([x] + extra_x, axis=0)
    y = np.concatenate([y] + extra_y, axis=0)
    return x, y


def _pair_products(potential: Potential, x: np.ndarray, y: np.ndarray):
    gx = potential.grad(x)
    gy = potential.grad(y)
    diff = x - y
    sq = np.sum(diff * diff, axis=-1)
    dot = np.sum(diff * (gx - gy), axis=-1)
    return sq, dot


def check_condition_C(
    potential: Potential, A: float, alpha: float, dim: int = 1
) -> ConditionReport:
    """Probe (x-y).(grad W(x)-grad W(y)) >= A eps^alpha (|x-y|^2 - eps^2)
    on pairs in R^dim."""
    x, y = _probe_pairs(dim)
    sq, dot = _pair_products(potential, x, y)
    # bound[e, pair] = A eps^alpha (|x-y|^2 - eps^2)
    bound = A * EPS_GRID[:, None] ** alpha * (sq[None, :] - EPS_GRID[:, None] ** 2)
    violation = bound - dot[None, :]
    return ConditionReport(
        condition_name="C_A_alpha",
        fitted_constants={"A": float(A), "alpha": float(alpha)},
        worst_violation=float(np.max(violation)),
        probe_count=x.shape[0],
        probe_extent=EXTENT,
        tolerance=default_tolerance(float(np.max(np.abs(bound)))),
    )


def check_convexity_at_infinity(potential: Potential, dim: int = 1) -> ConditionReport:
    """Fit (lambda, C) with (x-y).(grad W(x)-grad W(y)) >= lambda|x-y|^2 - C
    on FIT_PROBES pairs in R^dim.

    For each candidate lambda (0 and 121 log-spaced values in [1e-3, 1e3]),
    C(lambda) is the smallest admissible offset.  The reported lambda is the
    largest candidate whose offset stays below 0.05 lambda EXTENT^2, which
    keeps the fit empirically meaningful: the zero potential gets
    lambda = 0 rather than a huge C.
    """
    x, y = _probe_pairs(dim, FIT_PROBES)
    sq, dot = _pair_products(potential, x, y)
    best_lambda = 0.0
    best_C = max(0.0, float(np.max(-dot)))
    for lam in np.geomspace(1e-3, 1e3, 121):
        C_lam = max(0.0, float(np.max(lam * sq - dot)))
        if C_lam <= 0.05 * lam * EXTENT**2:
            best_lambda = lam
            best_C = C_lam
    return _a4_report(sq, dot, best_lambda, best_C)


def _a4_report(sq, dot, lam, C) -> ConditionReport:
    """A4 report for (lambda, C) from the probe products of _pair_products."""
    bound = lam * sq - C
    return ConditionReport(
        condition_name="A4_conv_at_infinity",
        fitted_constants={"lambda": float(lam), "C": float(C)},
        worst_violation=float(np.max(bound - dot)),
        probe_count=sq.shape[0],
        probe_extent=EXTENT,
        tolerance=default_tolerance(float(np.max(np.abs(bound)))),
    )


def check_polynomial_growth(potential: Potential, m: int, dim: int = 1) -> ConditionReport:
    """Fit the smallest C with
    |grad W(x) - grad W(y)| <= C (|x-y| ^ 1)(1 + |x|^m + |y|^m)
    on pairs in R^dim.

    A declared m that is too small shows up as the fitted constant growing
    with the probe extent; we detect it by comparing the fit at full extent
    with 1.25 times the fit restricted to the inner half box.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    x, y = _probe_pairs(dim)
    gx = potential.grad(x)
    gy = potential.grad(y)
    num = np.linalg.norm(gx - gy, axis=-1)
    dist = np.linalg.norm(x - y, axis=-1)
    den = np.minimum(dist, 1.0) * (
        1.0 + np.linalg.norm(x, axis=-1) ** m + np.linalg.norm(y, axis=-1) ** m
    )
    keep = dist > 1e-12
    ratio = num[keep] / den[keep]
    c_full = float(np.max(ratio)) if ratio.size else 0.0
    inner = keep & (np.linalg.norm(x, axis=-1) <= EXTENT / 2) & (
        np.linalg.norm(y, axis=-1) <= EXTENT / 2
    )
    ratio_inner = num[inner] / den[inner]
    c_inner = float(np.max(ratio_inner)) if ratio_inner.size else c_full
    return ConditionReport(
        condition_name="A3",
        fitted_constants={"C_hat": c_full, "C_hat_inner": c_inner, "m": float(m)},
        worst_violation=c_full - 1.25 * c_inner,
        probe_count=x.shape[0],
        probe_extent=EXTENT,
        tolerance=default_tolerance(c_full),
    )


def check_declared(potential: Potential, dim: int = 1):
    """Reports for whichever structural constants the potential declares,
    probed in R^dim."""
    reports = []
    if potential.declared_A > 0.0:
        reports.append(
            check_condition_C(potential, potential.declared_A, potential.declared_alpha, dim)
        )
    if potential.declared_lambda > 0.0:
        sq, dot = _pair_products(potential, *_probe_pairs(dim))
        reports.append(_a4_report(sq, dot, potential.declared_lambda, potential.declared_C))
    if potential.kind != ZERO:
        reports.append(check_polynomial_growth(potential, potential.growth_exponent_m, dim))
    return reports
