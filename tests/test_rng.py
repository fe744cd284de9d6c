"""Counter-based noise source: purity, prefix stability, distribution."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.random import Philox
from scipy.special import ndtri

from gmsim.rng import INIT_STEP, MIN_REKEY_WORDS, SEED_LIMIT, BrownianSource, _to_uniform

SEEDS = st.integers(min_value=0, max_value=SEED_LIMIT - 1)
# Block lengths on both sides of the switch from the vectorised kernel to
# the re-keyed compiled generator.
COUNTS = st.integers(1, 2 * MIN_REKEY_WORDS)
STREAMS = st.integers(min_value=0, max_value=2**31)
STEPS = st.integers(min_value=0, max_value=2**40)
# small stream ids make repeated streams within one call common
STREAM_LISTS = st.lists(st.one_of(st.integers(0, 3), STREAMS), min_size=1, max_size=8)
STEP_LISTS = st.lists(st.one_of(st.integers(0, 3), STEPS, st.just(INIT_STEP)),
                      min_size=1, max_size=5)


def _oracle_uniforms(seed, stream, step, count):
    # A freshly constructed Philox per block, mapped to (0, 1) as documented:
    # the top 53 bits of each word, offset by half a unit.
    words = Philox(key=seed, counter=[0, 0, step, stream]).random_raw(count)
    return ((words >> np.uint64(11)).astype(np.float64) + 0.5) / 2.0**53


@given(seed=SEEDS, step=st.one_of(STEPS, st.just(INIT_STEP)), streams=STREAM_LISTS,
       count=COUNTS)
@example(seed=SEED_LIMIT - 1, step=INIT_STEP, streams=[0, 2**31], count=MIN_REKEY_WORDS - 1)
@example(seed=2**64, step=0, streams=[1, 1], count=MIN_REKEY_WORDS)
@settings(max_examples=100, deadline=None)
def test_batched_rows_match_a_fresh_philox_per_stream(seed, step, streams, count):
    src = BrownianSource(seed)
    u = src.uniforms(streams, step, count)
    z = src.normals(streams, step, count)
    assert u.shape == z.shape == (len(streams), count)
    for r, stream in enumerate(streams):
        expected = _oracle_uniforms(seed, stream, step, count)
        np.testing.assert_array_equal(u[r], expected)
        np.testing.assert_array_equal(z[r], ndtri(expected))
        np.testing.assert_array_equal(src.normals(stream, step, count), z[r])


@given(seed=SEEDS, steps=STEP_LISTS, streams=STREAM_LISTS, count=COUNTS)
@example(seed=2**63 - 1, steps=[INIT_STEP, 0, 0, 5], streams=[3, 3, 0], count=7)
@example(seed=2**70 + 12345, steps=[INIT_STEP, 2**40, 1], streams=[3, 0],
         count=MIN_REKEY_WORDS - 1)
@example(seed=SEED_LIMIT - 1, steps=[0, 1], streams=[2**31, 0], count=MIN_REKEY_WORDS)
@example(seed=2**64 - 1, steps=[5, 0], streams=[0, 7], count=MIN_REKEY_WORDS + 2)
@settings(max_examples=100, deadline=None)
def test_window_rows_match_a_fresh_philox_per_step_and_stream(seed, steps, streams, count):
    src = BrownianSource(seed)
    u = src.uniforms(streams, steps, count)
    z = src.normals(streams, steps, count)
    assert u.shape == z.shape == (len(steps), len(streams), count)
    for i, step in enumerate(steps):
        for r, stream in enumerate(streams):
            expected = _oracle_uniforms(seed, stream, step, count)
            np.testing.assert_array_equal(u[i, r], expected)
            np.testing.assert_array_equal(z[i, r], ndtri(expected))


@given(seed=SEEDS, step=st.one_of(STEPS, st.just(INIT_STEP)), streams=STREAM_LISTS,
       count=COUNTS)
@settings(max_examples=50, deadline=None)
def test_one_step_is_a_window_of_one(seed, step, streams, count):
    src = BrownianSource(seed)
    for draw in (src.normals, src.uniforms):
        np.testing.assert_array_equal(draw(streams, step, count),
                                      draw(streams, [step], count)[0])
        np.testing.assert_array_equal(draw(streams[0], step, count),
                                      draw(streams[0], range(step, step + 1), count)[0])


def test_frozen_values():
    # Recorded from the one-generator-per-block implementation; a change in
    # numpy's Philox or in the transform fails here.
    src = BrownianSource(20240611)
    np.testing.assert_array_equal(src.normals(3, 17, 5), [
        0.5168821459327875, -2.676294799133514, 2.8847476115993724,
        -1.018482978596714, -0.28618200743228556])
    np.testing.assert_array_equal(src.uniforms(3, 17, 5), [
        0.6973807841389106, 0.003722056747590907, 0.9980413621514148,
        0.15422424294434228, 0.3873693618477381])
    src = BrownianSource(7)
    np.testing.assert_array_equal(src.normals([0], INIT_STEP, 5), [[
        -1.3122428823622725, 3.0002047960128464, 0.2605546810050618,
        1.1082945396309778, -1.098741427035506]])
    np.testing.assert_array_equal(src.uniforms([0], INIT_STEP, 5), [[
        0.094719098617633, 0.998651009314488, 0.6027820290041248,
        0.8661326835522727, 0.1359404336153322]])
    # A seed >= 2^64 puts a nonzero high word in the key.
    src = BrownianSource(2**70 + 12345)
    np.testing.assert_array_equal(src.normals(3, 17, 5), [
        0.6058398970933486, 0.25676846094887196, 1.6680759614394074,
        -0.5886886429217335, 1.0202918850941858])
    np.testing.assert_array_equal(src.uniforms(3, 17, 5), [
        0.7276894632588804, 0.6013212407646849, 0.9523496757774703,
        0.2780350789264409, 0.846204974605971])
    np.testing.assert_array_equal(src.normals([0], INIT_STEP, 5), [[
        2.0405855368173413, -0.5690606497300158, 0.6279004288096143,
        -0.5195512504004279, 0.8411935910425586]])
    np.testing.assert_array_equal(BrownianSource(SEED_LIMIT - 1).normals(1, 2, 3), [
        0.8423538542929779, -0.746679885349223, -0.12411188556574197])


def test_source_holds_no_generator():
    # Pool threads share one source, so a call must leave nothing behind.
    src = BrownianSource(5)
    src.normals([0, 1], 3, 8)
    assert vars(src) == {"seed": 5}


@pytest.mark.parametrize("seed", [-1, SEED_LIMIT, SEED_LIMIT + 5])
def test_seed_outside_the_key_range_is_refused(seed):
    # The kernel would wrap such a seed silently; the compiled generator
    # refuses it only on the first long draw.
    with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*128\)"):
        BrownianSource(seed)


def test_block_is_pure_function_of_seed_stream_step():
    a = BrownianSource(123).normals(5, 17, 64)
    b = BrownianSource(123).normals(5, 17, 64)
    np.testing.assert_array_equal(a, b)
    c = BrownianSource(124).normals(5, 17, 64)
    assert np.any(a != c)


@given(seed=SEEDS, stream=STREAMS, step=STEPS, short=st.integers(1, MIN_REKEY_WORDS),
       extra=st.integers(1, MIN_REKEY_WORDS))
@example(seed=SEED_LIMIT - 1, stream=2, step=INIT_STEP, short=MIN_REKEY_WORDS - 1, extra=1)
@settings(max_examples=50, deadline=None)
def test_prefix_stability(seed, stream, step, short, extra):
    src = BrownianSource(seed)
    long_block = src.normals(stream, step, short + extra)
    short_block = src.normals(stream, step, short)
    np.testing.assert_array_equal(long_block[:short], short_block)


def test_streams_and_steps_are_decorrelated():
    src = BrownianSource(9)
    base = src.normals(0, 0, 32)
    assert np.any(base != src.normals(1, 0, 32))
    assert np.any(base != src.normals(0, 1, 32))
    assert np.any(base != src.normals(0, INIT_STEP, 32))


def test_uniforms_lie_in_open_interval():
    u = BrownianSource(1).uniforms(3, 2, 10_000)
    assert u.min() > 0.0
    assert u.max() < 1.0


def test_top_word_maps_below_one():
    # Both words carry the top 53-bit value 2^53 - 1, whose half-unit
    # offset rounds up to 2^53: unclamped it would give u = 1, ndtri = inf.
    top = np.array([2**64 - 1, 2**64 - 2**11], dtype=np.uint64)
    u = _to_uniform(top)
    assert np.all(u < 1.0)
    np.testing.assert_array_equal(u, np.nextafter(1.0, 0.0))
    assert np.all(np.isfinite(ndtri(u)))
    # The next word down and the bottom one map exactly as unclamped.
    rest = np.array([2**64 - 2**12, 0], dtype=np.uint64)
    np.testing.assert_array_equal(_to_uniform(rest), [(2**53 - 2) / 2**53, 0.5 / 2**53])


def test_normals_match_standard_moments():
    x = BrownianSource(42).normals(0, 0, 200_000)
    n = x.size
    assert abs(x.mean()) < 4.0 / np.sqrt(n)
    assert abs(x.var() - 1.0) < 4.0 * np.sqrt(2.0 / n)
    # tail sanity: fraction beyond 2 sigma near the normal value 0.0455
    frac = np.mean(np.abs(x) > 2.0)
    assert abs(frac - 0.0455) < 0.005


def test_draw_order_independence():
    # Drawing a block in one call or reading a longer block gives the same
    # values at the same indices; there is no hidden generator state.
    src = BrownianSource(77)
    first = src.normals(2, 11, 8)
    src.normals(3, 99, 1000)  # unrelated draws in between
    again = src.normals(2, 11, 8)
    np.testing.assert_array_equal(first, again)
