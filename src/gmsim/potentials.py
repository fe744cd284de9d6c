"""Confinement/interaction potentials and numerical assumption checkers.

A :class:`Potential` bundles an analytic gradient with the structural
constants the theory asks for (polynomial growth degree m, convexity at
infinity (lambda, C), degenerate convexity (A, alpha)).  The checkers
probe the corresponding inequalities on a finite sample of point pairs and
report the worst violation; they are surrogates for global statements and
are labeled as such.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from functools import cache

import numpy as np

POWER_LAW = "power_law"
QUADRATIC = "quadratic"
UNIFORM_PLUS_BUMP = "uniform_plus_bump"
ZERO = "zero"

# The parameters each kind reads, each with the default a config may leave
# out, or None when the config must give it.
KIND_PARAMS = {
    POWER_LAW: {"p": None}, QUADRATIC: {"kappa": 1.0}, ZERO: {},
    UNIFORM_PLUS_BUMP: {"kappa": None, "amplitude": None, "radius": None},
}


def row_params(table: dict, kind: str, params: dict, model: str) -> dict:
    """params checked against kind's row of table (KIND_PARAMS or
    LAW_PARAMS): the row's keys in row order, each with its given value or
    the row's default.  ValueError for an unknown kind, and one naming each
    required key not given and each key the row does not list."""
    if kind not in table:
        raise ValueError(f"unknown {model} kind {kind!r}")
    row = table[kind]
    wrong = ([f"kind {kind!r} missing parameter {key!r}"
              for key, default in row.items() if key not in params and default is None]
             + [f"kind {kind!r} does not read {key!r}" for key in params if key not in row])
    if wrong:
        raise ValueError("; ".join(wrong))
    return {key: params.get(key, default) for key, default in row.items()}


@dataclass(frozen=True)
class Potential:
    """Radially symmetric potential with an analytic gradient.

    kind, a key of KIND_PARAMS (zero by default), selects the functional
    form; params holds the parameters KIND_PARAMS lists for it, defaults
    filled in (a missing required or an unread key is refused).  The later
    fields carry the constants asserted for the structural conditions, never
    inferred: checkers verify them, and the zero potential, meeting none, declares none.
    """

    kind: str = ZERO
    params: dict = field(default_factory=dict)
    growth_exponent_m: int = 1
    declared_lambda: float = 0.0
    declared_C: float = 0.0
    declared_A: float = 0.0
    declared_alpha: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "params",
                           row_params(KIND_PARAMS, self.kind, self.params, "potential"))
        if self.kind == POWER_LAW and self.params["p"] < 2:
            raise ValueError("power_law exponent must be >= 2")
        if self.kind == QUADRATIC and self.params["kappa"] <= 0:
            raise ValueError("quadratic stiffness must be > 0")
        if self.kind == UNIFORM_PLUS_BUMP and self.params["radius"] <= 0:
            raise ValueError("uniform_plus_bump radius must be > 0")
        if self.growth_exponent_m < 0:
            raise ValueError("m must be >= 0")
        if self.is_zero and any(getattr(self, f.name) != f.default for f in fields(self)[2:]):
            raise ValueError("the zero potential declares no constant (m, lambda, C, A, alpha)")

    @property
    def is_zero(self) -> bool:
        return self.kind == ZERO

    @property
    def sums_pairs(self) -> bool:
        """Whether mean_grad sums over all N x M pairs, one N x M plane of
        squared distances and weights per tile of the ensemble; False for
        the zero force and for the kinds whose sum expands exactly in the
        moments of the ensemble."""
        return not (self.kind in (QUADRATIC, ZERO)
                    or (self.kind == POWER_LAW and self.params["p"] in (2.0, 4.0)))

    def grad(self, x: np.ndarray) -> np.ndarray:
        """Gradient at x, shape (..., d): mean_grad of the points of x, as
        one ensemble, against the one point at the origin, so that every
        gradient comes from the moment expansion or the pair weight.  Odd
        in x for every built-in kind."""
        x = np.asarray(x, dtype=float)
        d = x.shape[-1]
        return self.mean_grad(x.reshape(-1, d), np.zeros((1, d))).reshape(x.shape)

    def mean_grad(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """(1/M) sum_j grad W(x_i - y_j) for x (..., N, d) and y (..., M, d).

        For the quadratic kind and power_law p in {2, 4} the sum expands
        exactly in the moments of y about its mean ybar, in O((N + M) d^2):
        with u = x - ybar, v = y - ybar and S = E[v v^T], p = 4 gives
        4 (|u|^2 u + 2 S u + tr(S) u - E[|v|^2 v]) and the quadratic kind
        2 kappa u.  Past the differences to y, every step works in place on
        an array made here, so x and y are never written.  In d = 1 the
        coordinate sum |v|^2 is v * v and the 1 x 1 product 2 u @ S is
        (2 u) * S + 0.0, each with the bits of the general form.  The zero
        kind returns +0.0 without forming pairs.

        Every other kind is radial, grad W(z) = g(|z|^2) z, and is summed
        over pairs by _pair_mean_grad in (..., N, T) planes, with no
        (..., N, M, d) array.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if self.kind == ZERO:
            return np.zeros(np.broadcast_shapes(x.shape, y[..., :1, :].shape))
        if self.sums_pairs:
            return self._pair_mean_grad(x, y)
        # ybar = y_0 + mean(y - y_0) is never formed: u and v are taken
        # from differences to the sample point y_0, so their rounding
        # scales with the spread of y, not with its offset, and they are
        # exactly 0 when every point coincides (identical particles feel
        # no drift).  When y is x (the particle drift), u and v come from
        # the same operations, so v and |v|^2 serve as u and |u|^2.
        m, same = y.shape[-2], x is y
        y0 = y[..., :1, :]
        v = y - y0
        shift = particle_mean(v)
        u = v if same else x - y0
        u -= shift
        if self.params.get("p") != 4.0:  # quadratic, or power_law p = 2 with kappa = 1
            u *= 2.0 * self.params.get("kappa", 1.0)
            return u
        if not same:
            v -= shift
        vv = sq_norm(v)
        S = np.swapaxes(v, -1, -2) @ v
        S /= m
        trace = particle_mean(vv)
        skew = particle_mean(vv * v)
        uu = vv if same else sq_norm(u)
        uu += trace
        out = uu * u
        if u.shape[-1] == 1:
            # The 1 x 1 gemm adds the product (2 u) S to a +0.0 start, so
            # a -0.0 product comes out +0.0.
            us = 2.0 * u
            us *= S
            us += 0.0
        else:
            us = 2.0 * u @ S
        out += us
        out -= skew
        out *= 4.0
        return out

    def _pair_mean_grad(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """mean_grad summed over pairs, M tile by M tile, with x and y
        centred on y_0.  Each tile of T = pair_tile_width(N, M) points of
        y builds s = |x_i - y_j|^2 a coordinate at a time into one
        (..., N, T) plane, turns it into g(s) in place, and adds its share
        of the contraction sum_j g_ij (x_i - y_j) = x_i sum_j g_ij - (g @ y)_i,
        both terms from one matmul of g with the rows (y, 1).  The tiles
        depend on N and M alone, and the matmul treats each leading index
        alone, so a run's bits do not depend on the runs beside it."""
        n, m, d = x.shape[-2], y.shape[-2], x.shape[-1]
        y0 = y[..., :1, :]
        yc = y - y0
        xc = yc if x is y else x - y0
        # Coordinate k of the centred y is row k, so each plane's
        # subtraction reads it contiguously; row d is all ones.
        rows = np.ones(y.shape[:-2] + (d + 1, m))
        rows[..., :d, :] = np.swapaxes(yc, -1, -2)
        width = pair_tile_width(n, m)
        s = np.empty(np.broadcast_shapes(x.shape[:-2], y.shape[:-2]) + (n, width))
        sq = np.empty_like(s) if d > 1 else None
        acc = np.zeros(s.shape[:-1] + (d + 1,))
        for j in range(0, m, width):
            tile = rows[..., j:j + width]
            plane = s[..., :tile.shape[-1]]
            np.subtract(xc[..., :1], tile[..., :1, :], out=plane)
            plane *= plane
            for k in range(1, d):
                term = sq[..., :tile.shape[-1]]
                np.subtract(xc[..., k:k + 1], tile[..., k:k + 1, :], out=term)
                term *= term
                plane += term
            acc += self._pair_weight(plane) @ np.swapaxes(tile, -1, -2)
        out = xc * acc[..., d:]
        out -= acc[..., :d]
        out /= m
        return out

    def _pair_weight(self, s: np.ndarray) -> np.ndarray:
        """The radial weight g(s) with grad W(z) = g(|z|^2) z, written over
        s = |z|^2 in place, for the kinds that sum pairs."""
        if self.kind == POWER_LAW:
            p = self.params["p"]
            s **= (p - 2.0) / 2.0
            s *= p
            return s
        if self.kind == UNIFORM_PLUS_BUMP:
            # 2 kappa - (6 a / rho^2) (1 - s / rho^2)^2 inside the radius and
            # 2 kappa outside, where the clamp makes the bump term 0.
            rho = self.params["radius"]
            s /= rho**2
            np.subtract(1.0, s, out=s)
            np.maximum(s, 0.0, out=s)
            s *= s
            s *= -6.0 * self.params["amplitude"] / rho**2
            s += 2.0 * self.params["kappa"]
            return s
        raise AssertionError(self.kind)

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


# The pair sum's tiles: T = min(M, max(PAIR_TILE_COLUMNS,
# PAIR_TILE_VALUES // N)) points of y each, so that a run's (N, T) plane
# holds 2^15 values (256 KiB of float64), or 64 columns when N > 512,
# whatever M is.
PAIR_TILE_VALUES = 2**15
PAIR_TILE_COLUMNS = 64


def pair_tile_width(n: int, m: int) -> int:
    """Points of y per tile of the pair sum of N points against M."""
    return min(m, max(PAIR_TILE_COLUMNS, PAIR_TILE_VALUES // max(n, 1)))


def particle_mean(a: np.ndarray) -> np.ndarray:
    """Mean over the particle axis -2, kept as an axis of length 1.  The
    sum adds the particles in order, as sum(axis=-2) does in d >= 2; in
    d = 1, where that sum is pairwise, it is sum(axis=-2) itself."""
    if a.shape[-1] == 1:
        mean = a.sum(axis=-2, keepdims=True)
    else:
        mean = np.einsum("...nd->...d", a)[..., None, :]
    mean /= a.shape[-2]
    return mean


def sq_norm(a: np.ndarray) -> np.ndarray:
    """|a|^2 over the last axis, kept as an axis of length 1: the
    coordinate squares added in order, the bits of np.add.reduce, whose
    pairwise sum starts at 8 terms.  In d = 1 it is a * a itself."""
    sq = a * a
    d = a.shape[-1]
    if d == 1:
        return sq
    if d >= 8:
        return np.add.reduce(sq, axis=-1, keepdims=True)
    out = sq[..., :1] + sq[..., 1:2]
    for k in range(2, d):
        out += sq[..., k:k + 1]
    return out


def power_law(p: float, **declared) -> Potential:
    """W(x) = |x|^p, p >= 2."""
    return Potential(POWER_LAW, {"p": float(p)}, **declared)


def quadratic(kappa: float = KIND_PARAMS[QUADRATIC]["kappa"], **declared) -> Potential:
    """W(x) = kappa |x|^2, gradient 2 kappa x."""
    return Potential(QUADRATIC, {"kappa": float(kappa)}, **declared)


def zero() -> Potential:
    return Potential()


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

    declared_constants are the constants under test, as declared;
    fitted_constants are those the checker estimates from the probes
    (only A3 fits any).  worst_violation is the max over probes of
    (required lower bound - observed value); the condition is deemed
    satisfied on the probe set when it does not exceed the tolerance.
    """

    condition_name: str
    declared_constants: dict
    fitted_constants: dict
    worst_violation: float
    probe_count: int
    probe_extent: float
    tolerance: float

    @property
    def satisfied(self) -> bool:
        return self.worst_violation <= self.tolerance

    def to_json(self) -> dict:
        return {**asdict(self), "satisfied": self.satisfied}


def default_tolerance(bound_scale: float = 0.0) -> float:
    # Relative so that exact equality cases (quadratic) pass in floats.
    return 1e-9 * (1.0 + abs(bound_scale))


# Probe set of every checker: the first PROBES points of the Halton
# sequence in 2 dim coordinates, each shifted by 1/2 mod 1 so that point 0
# is the box centre, mapped to the box [-EXTENT, EXTENT]^(2 dim); plus
# near-diagonal pairs.  The degenerate-convexity bound is probed at each
# eps of EPS_GRID.
PROBES = 256
EXTENT = 4.0
EPS_GRID = np.array([0.05, 0.1, 0.25, 0.5, 0.75, 0.95])


def _halton(d: int, n: int) -> np.ndarray:
    """The first n points of the Halton sequence in d coordinates, shifted
    by 1/2 mod 1: coordinate k is the radical inverse of the point index
    in the k-th prime (Halton 1960)."""
    primes, p = [], 1
    while len(primes) < d:
        p += 1
        if all(p % q for q in primes):
            primes.append(p)
    points = np.zeros((n, d))
    for k, b in enumerate(primes):
        i, scale = np.arange(n), 1.0
        while i.any():
            scale /= b
            points[:, k] += scale * (i % b)
            i //= b
    return (points + 0.5) % 1.0


@cache
def _probe_pairs(dim: int):
    """Low-discrepancy (x, y) pairs in the box, the first at the origin,
    augmented with near-diagonal pairs y = x + delta e_k where degenerate
    convexity concentrates.  Deterministic; computed once per dim and
    read-only."""
    pts = _halton(2 * dim, PROBES) * (2.0 * EXTENT) - EXTENT
    x = pts[:, :dim]
    y = pts[:, dim:]
    extra_x = []
    extra_y = []
    base = x[: PROBES // 4]
    for delta in (1e-3, 1e-2, 1e-1):
        for k in range(dim):
            e = np.zeros(dim)
            e[k] = delta * EXTENT
            extra_x.append(base)
            extra_y.append(base + e)
    x = np.concatenate([x] + extra_x, axis=0)
    y = np.concatenate([y] + extra_y, axis=0)
    x.setflags(write=False)
    y.setflags(write=False)
    return x, y


def _check_monotonicity(
    potential: Potential, dim: int, bound_of, name: str, constants: dict
) -> ConditionReport:
    """Probe (x-y).(grad W(x)-grad W(y)) >= bound_of(|x-y|^2) on pairs in
    R^dim; the bound may carry leading axes of its own."""
    x, y = _probe_pairs(dim)
    diff = x - y
    dot = np.sum(diff * (potential.grad(x) - potential.grad(y)), axis=-1)
    bound = bound_of(np.sum(diff * diff, axis=-1))
    return ConditionReport(
        condition_name=name,
        declared_constants=constants,
        fitted_constants={},
        worst_violation=float(np.max(bound - dot)),
        probe_count=x.shape[0],
        probe_extent=EXTENT,
        tolerance=default_tolerance(float(np.max(np.abs(bound)))),
    )


def check_condition_C(
    potential: Potential, A: float, alpha: float, dim: int = 1
) -> ConditionReport:
    """Probe (x-y).(grad W(x)-grad W(y)) >= A eps^alpha (|x-y|^2 - eps^2)
    on pairs in R^dim, at each eps of EPS_GRID."""
    eps = EPS_GRID[:, None]
    return _check_monotonicity(
        potential, dim, lambda sq: A * eps**alpha * (sq - eps**2),
        "C_A_alpha", {"A": float(A), "alpha": float(alpha)})


def check_convexity_at_infinity(
    potential: Potential, lam: float, C: float, dim: int = 1
) -> ConditionReport:
    """Probe (x-y).(grad W(x)-grad W(y)) >= lambda |x-y|^2 - C on pairs in
    R^dim."""
    return _check_monotonicity(
        potential, dim, lambda sq: lam * sq - C,
        "A4_conv_at_infinity", {"lambda": float(lam), "C": float(C)})


def check_polynomial_growth(potential: Potential, m: int, dim: int = 1) -> ConditionReport:
    """Fit the smallest C with
    |grad W(x) - grad W(y)| <= C (|x-y| ^ 1)(1 + |x|^m + |y|^m)
    on pairs in R^dim.

    A declared m that is too small shows up as the fitted constant growing
    with the probe extent; we detect it by comparing the fit at full extent
    with 1.25 times the fit on the same pairs scaled by 1/2, which probe
    the inner half box as densely as the full box in every dim.
    """
    if m < 0:
        raise ValueError("m must be >= 0")

    def fit(x, y):
        dist = np.linalg.norm(x - y, axis=-1)
        num = np.linalg.norm(potential.grad(x) - potential.grad(y), axis=-1)
        den = np.minimum(dist, 1.0) * (
            1.0 + np.linalg.norm(x, axis=-1) ** m + np.linalg.norm(y, axis=-1) ** m
        )
        keep = dist > 1e-12
        return float(np.max(num[keep] / den[keep]))

    x, y = _probe_pairs(dim)
    c_full = fit(x, y)
    c_inner = fit(x / 2, y / 2)
    return ConditionReport(
        condition_name="A3",
        declared_constants={"m": float(m)},
        worst_violation=c_full - 1.25 * c_inner,
        probe_count=x.shape[0],
        probe_extent=EXTENT,
        tolerance=default_tolerance(c_full),
        fitted_constants={"C_hat": c_full, "C_hat_inner": c_inner},
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
        reports.append(check_convexity_at_infinity(
            potential, potential.declared_lambda, potential.declared_C, dim))
    if potential.kind != ZERO:
        reports.append(check_polynomial_growth(potential, potential.growth_exponent_m, dim))
    return reports
