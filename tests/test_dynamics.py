"""Drift, steppers, projection, couplings and the determinism contract."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gmsim import dynamics
from gmsim.dynamics import (
    LAW_PARAMS,
    InitialLaw,
    IntegrationError,
    StepPolicy,
    apply_scheme,
    batch_noise,
    couple_initial,
    drift,
    noise_block,
    noise_window,
    observation_schedule,
    observation_steps,
    project,
    step_batch,
)
from gmsim.experiments import coupled_batch, run_streams, simulate_batch
from gmsim import potentials
from gmsim.potentials import pair_tile_width, power_law, quadratic, uniform_plus_bump, zero
from gmsim.rng import BrownianSource

from conftest import make_config


def closed_form_grad(W, z):
    """grad W(z) at one point z, written out per kind: the oracle for the
    moment expansion and the pair weight, which compute every gradient
    the package steps with."""
    if W.kind == "quadratic":
        return 2.0 * W.params["kappa"] * z
    r = np.linalg.norm(z)
    if W.kind == "power_law":
        return W.params["p"] * r ** (W.params["p"] - 2.0) * z
    # kappa |z|^2 + a (1 - |z|^2 / rho^2)^3 inside the radius rho
    kappa, a, rho = (W.params[k] for k in ("kappa", "amplitude", "radius"))
    bump = -6.0 * a / rho**2 * (1.0 - r * r / rho**2) ** 2 if r < rho else 0.0
    return (2.0 * kappa + bump) * z


def naive_drift(x, V, W, y=None):
    """Oracle: direct double loop over particles of the closed-form
    gradients, the interaction averaged over the M points of y (by default
    the particles themselves)."""
    y = x if y is None else y
    n, d = x.shape
    out = np.zeros_like(x)
    for i in range(n):
        acc = np.zeros(d)
        for j in range(y.shape[0]):
            acc += closed_form_grad(W, x[i] - y[j])
        out[i] = -acc / y.shape[0]
        if not V.is_zero:
            out[i] -= closed_form_grad(V, x[i])
    return out


# ---------------------------------------------------------------------------
# drift

def test_drift_quadratic_centered_is_minus_2x(rng):
    x = rng.normal(size=(8, 2))
    x -= x.mean(axis=0)
    np.testing.assert_allclose(drift(x, zero(), quadratic(1.0)), -2.0 * x, atol=1e-12)


def test_drift_coincident_particles_is_zero():
    x = np.ones((5, 3)) * 1.7
    np.testing.assert_array_equal(drift(x, zero(), power_law(4.0)), np.zeros((5, 3)))


def test_drift_two_particle_quartic():
    x = np.array([[1.0], [-1.0]])
    np.testing.assert_allclose(drift(x, zero(), power_law(4.0)), [[-16.0], [16.0]])


def test_drift_matches_double_loop(rng):
    for _ in range(10):
        x = rng.normal(size=(6, 2))
        for V, W in ((zero(), power_law(4.0)), (quadratic(0.5), quadratic(1.0))):
            np.testing.assert_allclose(drift(x, V, W), naive_drift(x, V, W), atol=1e-12)


def test_drift_sums_to_zero_without_confinement(rng):
    x = rng.normal(size=(16, 3)) * 2.0
    total = drift(x, zero(), power_law(4.0)).sum(axis=0)
    np.testing.assert_allclose(total, np.zeros(3), atol=1e-10)


def test_drift_permutation_equivariance(rng):
    x = rng.normal(size=(7, 2))
    perm = rng.permutation(7)
    b = drift(x, quadratic(0.3), power_law(4.0))
    b_perm = drift(x[perm], quadratic(0.3), power_law(4.0))
    np.testing.assert_allclose(b_perm, b[perm], atol=1e-12)


MOMENT_KINDS = (quadratic(0.7), power_law(2.0), power_law(4.0))


@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(range(len(MOMENT_KINDS))),
    d=st.integers(1, 3),
    batch=st.lists(st.integers(1, 3), max_size=2),
    n=st.integers(1, 6),
    m=st.integers(1, 9),
    offset=st.floats(-1e3, 1e3),
    spread=st.floats(1e-3, 10.0),
)
@settings(max_examples=80, deadline=None)
def test_mean_grad_moment_path_matches_double_loop(seed, kind, d, batch, n, m, offset, spread):
    # Clouds far from the origin check that the expansion is centred
    # before it is taken: raw moments would cancel catastrophically.
    W = MOMENT_KINDS[kind]
    gen = np.random.default_rng(seed)
    x = offset + spread * gen.normal(size=(*batch, n, d))
    y = offset + spread * gen.normal(size=(*batch, m, d))
    want = np.empty_like(x)
    largest = 0.0
    for idx in np.ndindex(*batch):
        want[idx] = -naive_drift(x[idx], zero(), W, y[idx])
        for xi in x[idx]:
            for yj in y[idx]:
                largest = max(largest, float(np.max(np.abs(closed_form_grad(W, xi - yj)))))
    np.testing.assert_allclose(W.mean_grad(x, y), want, rtol=0, atol=1e-12 * largest)


@pytest.mark.parametrize("W", MOMENT_KINDS, ids=lambda W: f"{W.kind}{W.params.get('p', '')}")
@pytest.mark.parametrize("shape", [(5, 1), (2, 3, 7, 2)])
def test_mean_grad_of_a_cloud_with_itself_takes_the_same_bits(W, shape):
    # The drift passes one array as x and y, and the moment path then
    # reuses v as u; an equal copy takes the general path.
    x = 1e3 + np.random.default_rng(6).normal(size=shape)
    np.testing.assert_array_equal(W.mean_grad(x, x), W.mean_grad(x, x.copy()))


def quartic_moment_reference(x, y):
    """The p = 4 moment expansion in its general form, one fresh array per
    operation, |v|^2 as a coordinate sum and 2 u S as a matmul: the
    reference whose bits mean_grad keeps in every d."""
    m, same = y.shape[-2], x is y
    y0 = y[..., :1, :]
    v = y - y0
    shift = v.sum(axis=-2, keepdims=True) / m
    u = (v if same else x - y0) - shift
    v = u if same else v - shift
    vv = np.sum(v * v, axis=-1, keepdims=True)
    S = np.swapaxes(v, -1, -2) @ v / m
    trace = vv.sum(axis=-2, keepdims=True) / m
    skew = (vv * v).sum(axis=-2, keepdims=True) / m
    uu = vv if same else np.sum(u * u, axis=-1, keepdims=True)
    return 4.0 * ((uu + trace) * u + 2.0 * u @ S - skew)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("scale", [1.0, 1e-103, 0.0])
def test_mean_grad_quartic_keeps_the_bits_of_the_general_form(d, scale):
    # Spreads near 1e-103 put 2 u S below the smallest normal, where
    # 2 (u S) and (2 u) S round apart; signed zeros give -0.0 products,
    # which the 1 x 1 matmul returns as +0.0.
    gen = np.random.default_rng(d)
    W = power_law(4.0)
    x = scale * gen.normal(size=(2, 3, 5, d))
    y = scale * gen.normal(size=(2, 3, 7, d))
    signed = gen.choice([0.0, -0.0, 1.0, -1.0], size=x.shape)
    for a, b in ((x, x), (x, y), (x[:, :1], y), (signed, signed), (signed, -signed)):
        assert W.mean_grad(a, b).tobytes() == quartic_moment_reference(a, b).tobytes()
    zeros = np.zeros((1, d))
    for point in (x, signed):
        want = quartic_moment_reference(point[..., None, :], zeros)[..., 0, :]
        assert W.grad(point).tobytes() == want.tobytes()


def test_mean_grad_quartic_against_two_points_closed_form():
    # The chaos proxy's call: one point per run against an auxiliary
    # ensemble, here the two points -a and a in d = 1.
    a, b = 0.7, 1.3
    aux = np.array([[[-a], [a]]])
    W = power_law(4.0)
    np.testing.assert_array_equal(W.mean_grad(np.zeros((1, 1, 1)), aux), np.zeros((1, 1, 1)))
    np.testing.assert_allclose(
        W.mean_grad(np.full((1, 1, 1), b), aux), [[[4.0 * (b**3 + 3.0 * a * a * b)]]], rtol=1e-14
    )
    # The proxy steps on drift against its ensemble, confinement included;
    # without a law, drift reads the positions themselves, to the bit.
    kappa = 0.35
    V = quadratic(kappa)
    np.testing.assert_allclose(
        drift(np.full((1, 1, 1), b), V, W, aux),
        [[[-2.0 * kappa * b - 4.0 * (b**3 + 3.0 * a * a * b)]]], rtol=1e-14,
    )
    x = np.array([[[-a], [a], [b]]])
    np.testing.assert_array_equal(drift(x, V, W), drift(x, V, W, x))


PAIR_KINDS = (uniform_plus_bump(0.5, 2.0, 1.5), power_law(3.0), power_law(5.0),
              power_law(6.0))


@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(range(len(PAIR_KINDS))),
    d=st.integers(1, 3),
    batch=st.lists(st.integers(1, 3), max_size=2),
    n=st.integers(1, 6),
    m=st.integers(1, 9),
    offset=st.floats(-1e3, 1e3),
    spread=st.floats(1e-3, 10.0),
    columns=st.sampled_from([None, 1, 2, 4]),
)
@settings(max_examples=100, deadline=None)
def test_mean_grad_pair_path_matches_double_loop(seed, kind, d, batch, n, m, offset, spread,
                                                 columns):
    # Spreads on both sides of the bump radius put pairs inside and
    # outside it; the oracle sums the closed-form gradient pair by pair.
    # A narrow tile width makes the sum run over several tiles of y, the
    # last of them partial.
    W = PAIR_KINDS[kind]
    assert W.sums_pairs
    gen = np.random.default_rng(seed)
    x = offset + spread * gen.normal(size=(*batch, n, d))
    y = offset + spread * gen.normal(size=(*batch, m, d))
    want = np.empty_like(x)
    largest = 0.0
    for idx in np.ndindex(*batch):
        want[idx] = -naive_drift(x[idx], zero(), W, y[idx])
        for xi in x[idx]:
            for yj in y[idx]:
                largest = max(largest, float(np.max(np.abs(closed_form_grad(W, xi - yj)))))
    with pytest.MonkeyPatch.context() as mp:
        if columns is not None:
            mp.setattr(potentials, "PAIR_TILE_VALUES", 1)
            mp.setattr(potentials, "PAIR_TILE_COLUMNS", columns)
            assert pair_tile_width(n, m) == min(m, columns)
        got = W.mean_grad(x, y)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * largest)


def test_pair_tile_width_depends_on_n_and_m_alone():
    # A run's (N, T) plane holds 2^15 values, or 64 columns past N = 512,
    # and one tile spans all of a smaller M.
    assert pair_tile_width(16, 16) == 16
    assert pair_tile_width(64, 4096) == 512
    assert pair_tile_width(512, 4096) == 64
    assert pair_tile_width(4096, 4096) == 64
    assert pair_tile_width(1, 40000) == 2**15


def test_mean_grad_bump_two_particles_closed_form():
    # kappa = 0.5, amplitude 1, radius 2: grad W(z) = (1 - 1.5 (1 - |z|^2/4)^2) z
    # inside the radius and z outside.  Run 0's pair sits at distance 1
    # (weight 1 - 1.5 * 0.75^2 = 0.15625), run 1's at distance 3 (weight 1);
    # each particle averages its pair force with its own zero force.
    W = uniform_plus_bump(0.5, 1.0, 2.0)
    x = np.array([[[0.5, 0.0, 0.0], [-0.5, 0.0, 0.0]],
                  [[0.0, 1.5, 0.0], [0.0, -1.5, 0.0]]])
    want = [[[0.078125, 0.0, 0.0], [-0.078125, 0.0, 0.0]],
            [[0.0, 1.5, 0.0], [0.0, -1.5, 0.0]]]
    np.testing.assert_allclose(W.mean_grad(x, x), want, rtol=1e-15, atol=0)


@pytest.mark.parametrize("W", PAIR_KINDS, ids=lambda W: f"{W.kind}{W.params.get('p', '')}")
def test_mean_grad_pair_forces_sum_to_zero(rng, W):
    # Newton's third law: grad W is odd, so with y = x the pair forces
    # cancel and the mean gradients sum to zero over the particles.
    x = rng.normal(size=(3, 24, 3)) * 1.5
    g = W.mean_grad(x, x)
    scale = np.max(np.abs(g))
    assert scale > 0
    np.testing.assert_allclose(g.sum(axis=-2), np.zeros((3, 3)), rtol=0, atol=1e-13 * scale)


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _pair_bound(runs, n, m, d):
    """Two (runs, N, T) float64 planes, plus four arrays of runs x (N + M)
    x (d + 1) values for the centred points, the rows (y, 1), the
    contraction and the result: no runs x N x M x d term."""
    return 8 * (2 * runs * n * pair_tile_width(n, m) + 4 * runs * (n + m) * (d + 1))


def test_mean_grad_bump_peak_memory():
    # M = 512 in eight tiles of 64; the N x N x d differences alone would
    # take 25 MB.
    x = np.random.default_rng(0).normal(size=(4, 512, 3))
    W = uniform_plus_bump(1.0, 2.0, 1.5)
    assert _peak_bytes(W.mean_grad, x, x) < _pair_bound(4, 512, 512, 3)
    assert _pair_bound(4, 512, 512, 3) < (4 * 512 * 512 * 3 * 8) // 8


def test_mean_grad_pair_peak_memory_does_not_grow_with_the_tile_count():
    # 16 and 128 tiles of 64 points: the planes are the same, and only the
    # copies of y, a few times y's own size, grow with M.
    W = uniform_plus_bump(1.0, 2.0, 1.5)
    gen = np.random.default_rng(0)
    x = gen.normal(size=(2, 512, 3))
    peaks = []
    for m in (1024, 8192):
        y = gen.normal(size=(2, m, 3))
        peaks.append(_peak_bytes(W.mean_grad, x, y))
        assert peaks[-1] < _pair_bound(2, 512, m, 3)
    assert peaks[1] - peaks[0] < 3 * 8 * 2 * (8192 - 1024) * 3


def test_mean_grad_zero_forms_no_pairs():
    # A zero force returns +0.0, which drift negates to -0.0, without the
    # runs x N x N pair temporary.
    x = np.random.default_rng(0).normal(size=(4, 512, 1))
    tracemalloc.start()
    try:
        g = zero().mean_grad(x, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.shape == x.shape
    assert not np.any(g) and not np.any(np.signbit(g))
    assert peak < (4 * 512 * 512 * 8) // 64


def test_drift_raises_on_nonfinite():
    x = np.array([[1.0], [np.inf]])
    with pytest.warns(RuntimeWarning), pytest.raises(IntegrationError):
        drift(x, zero(), quadratic(1.0))


# ---------------------------------------------------------------------------
# stepping

def test_step_zero_potentials_is_pure_brownian():
    src = BrownianSource(3)
    policy = StepPolicy(scheme="euler", dt=0.25)
    out = step_batch(np.zeros((1, 4, 2)), zero(), zero(), policy, batch_noise(src, [0], 0, 4, 2))
    xi = noise_block(src, 0, 0, 4, 2)
    np.testing.assert_array_equal(out[0], np.sqrt(2 * 0.25) * xi)


def test_tamed_close_to_euler_for_small_drift(rng):
    x = rng.normal(size=(6, 1)) * 0.1
    b = drift(x, zero(), quadratic(1.0))
    xi = np.zeros_like(x)
    dt = 1e-3
    eu = apply_scheme(x, b, xi, StepPolicy("euler", dt))
    ta = apply_scheme(x, b, xi, StepPolicy("tamed", dt))
    assert np.max(np.abs(eu - ta)) <= np.max(dt * np.abs(b)) * np.max(dt * np.abs(b))


@pytest.mark.parametrize("projected", [False, True])
def test_tamed_step_in_3d_against_its_closed_form(projected):
    # x + b dt / (1 + dt |b|) + sqrt(2 dt) xi with |b| = 5 for both
    # particles and dt = 0.5: the drift step is b / 7 and sqrt(2 dt) = 1.
    # Taming each coordinate by its own |b_k| would give other values.
    x = np.array([[[1.0, 2.0, 3.0], [-1.0, 0.0, 2.0]]])
    b = np.array([[[3.0, 4.0, 0.0], [0.0, -3.0, 4.0]]])
    xi = np.array([[[1.0, -1.0, 0.5], [0.0, 2.0, -1.0]]])
    out = apply_scheme(x, b, xi, StepPolicy("tamed", 0.5), projected)
    if projected:
        expected = [[[12 / 7, 0.0, 27 / 28], [-12 / 7, 0.0, -27 / 28]]]
        np.testing.assert_allclose(out.sum(axis=-2), 0.0, atol=1e-15)
    else:
        expected = [[[2 + 3 / 7, 1 + 4 / 7, 3.5], [-1.0, 2 - 3 / 7, 1 + 4 / 7]]]
    np.testing.assert_allclose(out, expected, rtol=1e-15, atol=1e-15)


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("projected", [False, True])
@pytest.mark.parametrize("scheme", ["euler", "tamed"])
def test_a_step_writes_into_none_of_its_inputs(rng, d, projected, scheme):
    # xi is a view of a noise window, as in the chaos walk, which hands the
    # same window to its proxies and to every N-system; a proxy's law is an
    # ensemble that is not its positions
    window = rng.normal(size=(3, 8, d))
    xi = window[:, :5]
    x = rng.normal(size=(2, 3, 5, d))
    xbar, law = x[0, :, :1], rng.normal(size=(3, 7, d))
    V, policy = quadratic(0.35), StepPolicy(scheme, 0.01)
    inputs = (window, x, law)
    before = tuple(a.copy() for a in inputs)
    for W in (power_law(4.0), quadratic(1.0), uniform_plus_bump(1.0, -0.5, 1.0)):
        b, b_law = drift(x, V, W), drift(xbar, V, W, law)
        drifts = (b, b_law)
        kept = tuple(a.copy() for a in drifts)
        apply_scheme(x, b, xi, policy, projected)
        apply_scheme(xbar, b_law, window[:, :1], policy, projected)
        step_batch(x, V, W, policy, xi, projected)
        for now, then in zip(inputs + drifts, before + kept):
            assert now.tobytes() == then.tobytes()


def test_euler_blows_up_tamed_does_not():
    src = BrownianSource(11)
    x0 = np.array([[[10.0], [-10.0]]])
    policy_e = StepPolicy(scheme="euler", dt=0.01)
    policy_t = StepPolicy(scheme="tamed", dt=0.01)
    x = x0.copy()
    with pytest.warns(RuntimeWarning), pytest.raises(IntegrationError):
        for k in range(100):
            x = step_batch(x, zero(), power_law(4.0), policy_e, batch_noise(src, [0], k, 2, 1))
    x = x0.copy()
    for k in range(1000):
        x = step_batch(x, zero(), power_law(4.0), policy_t, batch_noise(src, [0], k, 2, 1))
    assert np.all(np.isfinite(x))


def test_step_policy_validation():
    with pytest.raises(ValueError):
        StepPolicy(scheme="rk4")
    with pytest.raises(ValueError, match="unknown scheme 'adaptive'"):
        StepPolicy(scheme="adaptive")
    with pytest.raises(ValueError):
        StepPolicy(dt=-0.1)


# ---------------------------------------------------------------------------
# projection

def recentre(x):
    # a projected update without drift or noise only recentres
    still = np.zeros_like(x)
    return apply_scheme(x, still, still, StepPolicy("euler", 0.01), projected=True)


def test_project_subtracts_mean():
    out = recentre(np.array([[[1.0], [2.0], [3.0]]]))
    np.testing.assert_allclose(out, [[[-1.0], [0.0], [1.0]]])


def test_project_idempotent(rng):
    once = recentre(rng.normal(size=(1, 9, 2)))
    np.testing.assert_allclose(recentre(once), once, atol=1e-15)


def test_projected_step_keeps_mean_zero():
    cfg = make_config(dynamics={"n": 12, "scheme": "tamed"})
    src = BrownianSource(cfg.seed)
    x = recentre(np.arange(12.0)[None, :, None])
    for k in range(20):
        x = step_batch(x, cfg.potential_V, cfg.potential_W, cfg.step_policy,
                       batch_noise(src, [0], k, 12, 1), projected=True)
    assert abs(x.mean()) < 12 * np.finfo(float).eps * np.max(np.abs(x))


def test_projected_quadratic_difference_contracts_exactly():
    # shared noise, drift -2Y: one euler step scales the difference by 1-2dt
    rng = np.random.default_rng(0)
    ya = rng.normal(size=(6, 1))
    ya -= ya.mean(axis=0)
    yb = rng.normal(size=(6, 1))
    yb -= yb.mean(axis=0)
    dt = 0.01
    xa, xb = step_batch(
        np.stack((ya[None], yb[None])), zero(), quadratic(1.0),
        StepPolicy(scheme="euler", dt=dt), batch_noise(BrownianSource(1), [0], 0, 6, 1),
        projected=True,
    )
    np.testing.assert_allclose(xa[0] - xb[0], (1 - 2 * dt) * (ya - yb), atol=1e-14)


# ---------------------------------------------------------------------------
# noise plumbing

def test_project_noise_zero_mean(rng):
    xi = rng.normal(size=(5, 8, 2))
    out = project(xi)
    np.testing.assert_allclose(out.mean(axis=-2), 0.0, atol=1e-15)


def test_batch_noise_rows_match_single_blocks():
    src = BrownianSource(9)
    streams = [0, 8, 16]
    xi = batch_noise(src, streams, 4, 6, 2)
    for r, s in enumerate(streams):
        np.testing.assert_array_equal(xi[r], noise_block(src, s, 4, 6, 2))


def test_run_in_batch_is_bit_identical_to_run_alone():
    cfg = make_config(dynamics={"n": 8, "scheme": "tamed", "dt": 0.01})
    V, W, policy = cfg.potential_V, cfg.potential_W, cfg.step_policy
    src = BrownianSource(cfg.seed)
    streams = run_streams(range(3))
    x0 = np.stack([cfg.initial_law.sample(src, s, 8, 1) for s in streams])
    x0 -= x0.mean(axis=-2, keepdims=True)

    def run(rows):
        x, xa, xb = x0[rows], x0[rows], 0.5 * x0[rows]
        s = [streams[r] for r in rows]
        for k in range(5):
            xi = batch_noise(src, s, k, 8, 1)
            x = step_batch(x, V, W, policy, xi, projected=True)
            xa, xb = step_batch(np.stack((xa, xb)), V, W, policy, xi, projected=True)
        return x, xa, xb

    batch = run([0, 1, 2])
    for r in range(3):
        for in_batch, alone in zip(batch, run([r])):
            np.testing.assert_array_equal(in_batch[r], alone[0])


def test_coupled_difference_is_noise_free():
    # euler update of the difference contains only the drift difference
    rng = np.random.default_rng(3)
    xa = rng.normal(size=(1, 5, 1))
    xb = rng.normal(size=(1, 5, 1))
    policy = StepPolicy(scheme="euler", dt=0.02)
    na, nb = step_batch(np.stack((xa, xb)), zero(), power_law(4.0), policy,
                        batch_noise(BrownianSource(7), [0], 0, 5, 1))
    ba = drift(xa, zero(), power_law(4.0))
    bb = drift(xb, zero(), power_law(4.0))
    np.testing.assert_allclose(na - nb, (xa - xb) + (ba - bb) * 0.02, atol=1e-15)


@pytest.mark.parametrize("W", [quadratic(1.0), power_law(4.0)], ids=["quadratic", "quartic"])
@pytest.mark.parametrize("d", [1, 2])
def test_raw_coupled_centre_of_mass_offset_is_conserved_without_confinement(W, d):
    # With V = 0 the pair forces cancel in each copy's centre of mass and
    # both copies share the noise, so mean(xa) - mean(xb) never moves and
    # xi = mean |xa_i - xb_i|^2 stays at or above its square (Jensen).  Euler
    # keeps the cancellation exact; taming rescales each force on its own.
    rng = np.random.default_rng(5)
    runs, n = 3, 6
    x = np.stack((rng.normal(size=(runs, n, d)), 2.0 + 0.5 * rng.normal(size=(runs, n, d))))
    offset = x[0].mean(axis=-2) - x[1].mean(axis=-2)
    src, policy = BrownianSource(11), StepPolicy(scheme="euler", dt=0.01)
    for k in range(100):
        x = step_batch(x, zero(), W, policy, batch_noise(src, run_streams(range(runs)), k, n, d))
        np.testing.assert_allclose(x[0].mean(axis=-2) - x[1].mean(axis=-2), offset,
                                   rtol=0, atol=1e-13)
        xi = np.mean(np.sum((x[0] - x[1]) ** 2, axis=-1), axis=-1)
        assert np.all(xi >= np.sum(offset**2, axis=-1) * (1 - 1e-12))


# ---------------------------------------------------------------------------
# initial laws and couplings

def law_of(kind, **values):
    """The law of kind with the values it reads, LAW_PARAMS' defaults for
    the rest."""
    return InitialLaw(kind, {key: values.get(key, default)
                             for key, default in LAW_PARAMS[kind].items()})


def test_an_initial_law_reads_exactly_its_kinds_row():
    # The default params belong to the gaussian; another kind takes its own row.
    law = InitialLaw("uniform")
    assert law.params == {"half_width": 1.0}
    x = law.sample(BrownianSource(4), 0, 200, 2)
    assert np.all(np.abs(x) <= 1.0) and np.ptp(x) > 1.0
    with pytest.raises(ValueError, match="^kind 'uniform' does not read 'sigma'$"):
        InitialLaw("uniform", {"sigma": 1.0})


def test_initial_law_two_point_support():
    law = InitialLaw("two_point", {"point_a": (-1.0,), "point_b": (2.0,), "weight": 0.5})
    x = law.sample(BrownianSource(4), 0, 200, 1)
    assert set(np.unique(x)) == {-1.0, 2.0}


@pytest.mark.parametrize("kind", LAW_PARAMS)
@pytest.mark.parametrize("d", [1, 3])
def test_first_particle_draws_are_the_same_for_every_n(kind, d):
    # The chaos walk rests on this: it draws the initial state and each
    # step's increments once, for the largest n, and hands the n-system the
    # first n rows and both proxies row 0.  So every n-row draw must be the
    # n-row prefix of a larger one.
    src, streams = BrownianSource(5), [0, 8, 40]
    law = law_of(kind, mean=(0.5,), sigma=2.0, half_width=3.0, weight=0.4)
    for s in streams:
        full = law.sample(src, s, 17, d)
        for n in (1, 2, 16):
            np.testing.assert_array_equal(law.sample(src, s, n, d), full[:n])
    for k in (0, 3):
        full = batch_noise(src, streams, k, 17, d)
        for n in (1, 2, 16):
            np.testing.assert_array_equal(batch_noise(src, streams, k, n, d), full[:, :n])


@pytest.mark.parametrize("kind", LAW_PARAMS)
@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("full", [False, True], ids=["one_entry", "d_entries"])
def test_batched_draw_stacks_the_draws_of_each_stream(kind, d, full):
    point = tuple(0.5 + np.arange(d if full else 1))
    law = law_of(kind, mean=point, sigma=0.7, half_width=1.5, point_a=point,
                 point_b=tuple(-p for p in point), weight=0.3)
    src, streams = BrownianSource(9), [0, 1, 8, 41]
    want = np.stack([law.sample(src, s, 5, d) for s in streams])
    np.testing.assert_array_equal(law.sample(src, streams, 5, d), want)


def test_couple_initial_comonotone_sorts():
    src = BrownianSource(1)
    xa = law_of("gaussian", sigma=1.0).sample(src, 0, 16, 1)
    xb = law_of("gaussian", sigma=2.0).sample(src, 1, 16, 1)
    xa, xb = couple_initial(xa, xb)
    assert np.all(np.diff(xa[:, 0]) >= 0)
    assert np.all(np.diff(xb[:, 0]) >= 0)


def test_couple_initial_optimal_matches_sorted_in_1d():
    # The assignment used for d > 1, on points of a line embedded in d = 2,
    # finds the monotone pairing: the optimal one for squared cost in 1-d.
    src = BrownianSource(2)
    xa = law_of("gaussian", sigma=1.0).sample(src, 0, 12, 1)
    xb = law_of("gaussian", mean=(1.0,), sigma=0.5).sample(src, 1, 12, 1)
    ya, yb = couple_initial(xa, xb)
    za, zb = couple_initial(*(np.hstack([x, np.zeros_like(x)]) for x in (xa, xb)))
    assert np.sum((za - zb) ** 2) == pytest.approx(np.sum((ya - yb) ** 2), rel=1e-12)


# ---------------------------------------------------------------------------
# observation schedule and drivers

def test_observation_snapping():
    assert observation_steps([0.0, 0.1, 0.1999, 1.0], 0.1) == [0, 1, 1, 10]


def test_observation_schedule_fills_every_slot_of_a_shared_step():
    # the state counts the steps taken; observations 1 and 2 share step 2
    calls = []

    def advance(state):
        calls.append(state)
        return state + 1

    seen = list(observation_schedule([0, 2, 2, 5], 0, advance))
    assert seen == [(0, 0), (1, 2), (2, 2), (3, 5)]
    assert len(calls) == 5


@pytest.mark.parametrize("width,end", [(1, 5), (3, 7), (8, 7), (3, 0)],
                         ids=["one_step", "three_steps", "one_window", "no_steps"])
def test_noise_window_yields_each_step_in_turn(monkeypatch, width, end):
    # a window of `width` steps of 2 runs x 3 particles x 2 coordinates
    monkeypatch.setattr(dynamics, "NOISE_WINDOW_VALUES", width * 2 * 3 * 2)
    src, streams = BrownianSource(5), [0, 8]
    # a row lasts only until the generator passes its window
    got = [xi.copy() for xi in noise_window(src, streams, 3, 2, end)]
    want = batch_noise(src, streams, range(end), 3, 2)
    assert len(got) == end
    for k, xi in enumerate(got):
        np.testing.assert_array_equal(xi, want[k])


@pytest.mark.parametrize("n,dim", [(3, 2), (32, 1), (64, 1)], ids=["kernel", "quartic", "rekey"])
def test_noise_window_draws_every_window_into_one_buffer(monkeypatch, n, dim):
    # windows of 2 steps over 5 steps (2 + 2 + 1): step k is drawn into
    # the buffer slot that step k % 2 of the first window used
    monkeypatch.setattr(dynamics, "NOISE_WINDOW_VALUES", 2 * 2 * n * dim)
    src, streams = BrownianSource(5), [0, 8]
    rows, want = [], batch_noise(src, streams, range(5), n, dim)
    for k, xi in enumerate(noise_window(src, streams, n, dim, 5)):
        np.testing.assert_array_equal(xi, want[k])
        rows.append(xi)
    assert all(np.shares_memory(xi, rows[k % 2]) for k, xi in enumerate(rows))
    assert not np.shares_memory(rows[0], rows[1])


def test_simulate_horizon_zero_emits_initial_only():
    cfg = make_config(experiment={"horizon": 1.0, "obs_times": "0.0"})
    times, pos = simulate_batch(replace(cfg, runs=1))
    assert times.tolist() == [0.0]
    x0 = cfg.initial_law.sample(BrownianSource(cfg.seed), run_streams([0])[0], cfg.n, cfg.dim)
    np.testing.assert_array_equal(pos[0, 0], x0 - x0.mean(axis=-2, keepdims=True))


def test_unprojected_mean_is_brownian():
    # V=0 and gradient oddness cancel the drift of the ensemble mean, which
    # is then a Brownian motion of per-coordinate variance 2t/N
    cfg = make_config(
        dynamics={"n": 8, "mode": "raw", "scheme": "euler", "dt": 0.01},
        experiment={"horizon": 0.5, "obs_times": "0.5", "runs": 256},
    )
    _, pos = simulate_batch(cfg)
    means = pos[0].mean(axis=1)[:, 0]  # (runs,)
    init = cfg.initial_law.sample(BrownianSource(cfg.seed), run_streams(range(256)), 8, 1)
    init = init.mean(axis=1)[:, 0]
    incr = means - init
    var = incr.var(ddof=1)
    expect = 2.0 * 0.5 / 8
    se = expect * np.sqrt(2.0 / 255)
    assert abs(var - expect) < 4 * se


def test_coupled_simulate_identical_start_stays_zero():
    cfg = make_config(
        dynamics={"n": 6, "scheme": "euler", "dt": 0.01},
        experiment={"horizon": 0.2, "obs_times": "0.0,0.1,0.2", "runs": 1},
        initial_law={"kind": "two_point", "point_a": 0.0, "point_b": 0.0},
        initial_law_b={"kind": "two_point", "point_a": 0.0, "point_b": 0.0},
    )
    _, xi = coupled_batch(cfg)
    assert xi[:, 0].tolist() == [0.0, 0.0, 0.0]


def test_coupled_simulate_quadratic_matches_linear_ode():
    cfg = make_config(
        potential_W={"kind": "quadratic", "kappa": 1.0, "p": None},
        dynamics={"n": 16, "scheme": "euler", "dt": 1e-3},
        experiment={"horizon": 0.5, "obs_times": "0.0,0.25,0.5", "runs": 1},
        initial_law={"kind": "gaussian", "sigma": 1.0},
        initial_law_b={"kind": "gaussian", "mean": 2.0, "sigma": 0.5},
    )
    times, xi = coupled_batch(cfg)
    for t, v in zip(times[1:], xi[1:, 0]):
        # difference solves dZ/dt = -2Z exactly; squared distance decays at 4
        assert v == pytest.approx(xi[0, 0] * np.exp(-4.0 * t), rel=0.02)


def test_coupled_simulate_quartic_nonincreasing():
    cfg = make_config(
        dynamics={"n": 16, "scheme": "tamed", "dt": 0.005},
        experiment={"horizon": 1.0, "obs_times": "0.0,0.25,0.5,0.75,1.0", "runs": 1},
        initial_law_b={"kind": "gaussian", "sigma": 0.4},
    )
    _, xi = coupled_batch(cfg)
    xis = xi[:, 0].tolist()
    assert all(b <= a + 5 * 0.005 for a, b in zip(xis, xis[1:]))
