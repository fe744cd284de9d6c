"""Counter-based Gaussian noise for reproducible parallel simulation.

Every increment is a pure function of (seed, stream, step, index): the block
of standard normals for a given (stream, step) is the output of a Philox
bit generator keyed on the seed with the (step, stream) pair in the counter,
so the value at a given index never depends on how many values were drawn,
in which order, or on how work is split across threads.  Prefix stability
(the first k values of a block are the same whatever the block length) is
what lets a mean-field proxy particle reuse the increments of particle 0
of an N-particle block.

A call may ask for several streams and a window of several steps at once,
and yields exactly the words a fresh Philox(key=seed, counter=[0, 0, step,
stream]) would for each (step, stream).  Blocks of fewer than
MIN_REKEY_WORDS words are computed by _philox, Philox4x64-10 in numpy on
every (step, stream, block) counter of the call at once.  Longer blocks
come from numpy's compiled generator: one generator local to the call,
re-keyed for each (step, stream) by setting its counter.  Both paths write
each word's top 53 bits, as the fraction (w >> 11) / 2^53, straight into
one float64 array, the caller's `out` when it passes one; the uniform map
and the inverse CDF then run in place on it, so the uniforms and the
normals of a call take no array besides it.  No generator outlives the
call, so threads may share a source.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox
from scipy.special import ndtri

# Counter slot used when drawing initial conditions, so that time-step
# blocks (step = 0, 1, 2, ...) can never collide with them.
INIT_STEP = 2**62
# Seeds are Philox keys: integers in [0, 2^128).
SEED_LIMIT = 2**128

# Fewest words per (step, stream) block for which re-keying the compiled
# generator beats _philox.  The kernel's cost grows with the words of the
# whole call, the re-key loop's mostly with its (step, stream) pairs.
# Measured on a 2-core host with windows of 2^15 words, for 8 and for 64
# streams: re-key time over kernel time was 5.7 and 5.5 at 8 words per
# block, 1.9 and 1.6 at 32, 1.2 and 1.15 at 48, 1.1 and 0.87 at 56, 0.98
# and 0.79 at 64, and 0.32 and 0.24 at 512.
MIN_REKEY_WORDS = 64

_INV_2_53 = 2.0**-53
_HALF_UNIT = 2.0**-54
# The largest double below 1.
_U_MAX = 1.0 - 2.0**-53

# Philox4x64-10 (Salmon et al., SC'11): round multipliers and key bumps.
_MASK64 = 2**64 - 1
_MULTIPLIERS = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_BUMPS = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_SHIFT11 = np.uint64(11)


class BrownianSource:
    """Stateless source of standard normal increments.

    Gaussians come from the inverse normal CDF applied to 53-bit uniforms,
    offset to the open interval (0, 1).  `stream` is one stream or a
    sequence of streams, and `step` one step or a sequence of steps; the
    result has shape step's shape + stream's shape + (count,), so its
    row [i, r] is the block of (step[i], stream[r]) and a single step of a
    single stream gives (count,).
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        if not 0 <= self.seed < SEED_LIMIT:
            raise ValueError(f"seed must be in [0, 2**128), got {self.seed}")

    def _raw(self, stream, step, count: int, out=None) -> np.ndarray:
        """The fractions (w >> 11) / 2^53 of the block words w, written
        into out (a C-contiguous float64 array of the result's size, which
        keeps its own shape) or into a new array of the result's shape."""
        shape = np.shape(step) + np.shape(stream) + (count,)
        steps = [step] if np.ndim(step) == 0 else step
        streams = [stream] if np.ndim(stream) == 0 else stream
        if out is None:
            out = np.empty(shape)
        elif out.dtype != np.float64 or not out.flags.c_contiguous:
            raise ValueError("out must be a C-contiguous float64 array")
        # a view, since out is C-contiguous
        frac = out.reshape(len(steps), len(streams), count)
        if count < MIN_REKEY_WORDS:
            _philox(self.seed, steps, streams, frac)
            return out
        streams = [int(s) for s in streams]
        bg = Philox(key=self.seed)
        # The state of a fresh generator, buffer exhausted, held as plain
        # ints; restoring it with another counter makes the next draw start
        # exactly where a fresh Philox(key=seed, counter=...) would.
        # Generator.random writes (w >> 11) / 2^53 of each next word.
        state = bg.state
        counter = [0, 0, 0, 0]
        state["state"] = {"counter": counter, "key": [int(k) for k in state["state"]["key"]]}
        state["buffer"] = [0, 0, 0, 0]
        gen = Generator(bg)
        for i, k in enumerate(steps):
            counter[2] = int(k)
            for r, s in enumerate(streams):
                counter[3] = s
                bg.state = state
                gen.random(out=frac[i, r])
        return out

    def uniforms(self, stream, step, count: int) -> np.ndarray:
        """Uniform variates in the open interval (0, 1)."""
        return _to_uniform(self._raw(stream, step, count))

    def normals(self, stream, step, count: int, out=None) -> np.ndarray:
        """Standard normal variates, element i of a (stream, step) block
        being a pure function of (seed, stream, step, i).  Given out, a
        C-contiguous float64 array of the result's size, they are drawn in
        place into it, and out is returned in its own shape."""
        u = _to_uniform(self._raw(stream, step, count, out=out))
        return ndtri(u, out=u)


def _mulhilo(a: int, b: np.ndarray):
    """The low and high 64-bit words of the 128-bit products a * b, for a
    64-bit constant a.  The high word is summed from products of 32-bit
    halves, none of whose partial sums exceeds 2^64 - 1.  The temporaries
    are reused in place: on a 2-core host that made a call of 4000 streams
    of 8 blocks a quarter faster."""
    a_lo, a_hi = np.uint64(a & 0xFFFFFFFF), np.uint64(a >> 32)
    b_lo, b_hi = b & _LOW32, b >> _SHIFT32
    t = a_lo * b_lo
    t >>= _SHIFT32
    t += np.multiply(a_hi, b_lo, out=b_lo)
    w = t & _LOW32
    w += np.multiply(a_lo, b_hi, out=b_lo)
    w >>= _SHIFT32
    t >>= _SHIFT32
    t += w
    t += np.multiply(a_hi, b_hi, out=b_hi)
    return np.multiply(np.uint64(a), b, out=b_lo), t


def _philox(seed: int, steps, streams, out: np.ndarray) -> None:
    """Write into out (len(steps), len(streams), count) the fractions
    (w >> 11) / 2^53 of the words w of Philox4x64-10 keyed on (seed mod
    2^64, seed >> 64), block b of (step, stream) being the four words at
    counter [b, 0, step, stream], b = 1, 2, ...: those of a fresh
    Philox(key=seed, counter=[0, 0, step, stream]), which increments its
    counter before each block.  Each counter word broadcasts over its own
    axis (x0 over blocks, x2 over steps, x3 over streams, x1 = 0), so the
    first two rounds run on small arrays, and by the fourth every word is a
    fresh (steps, streams, blocks) array.  Word j of every block goes to
    out[..., j::4], which a partial last block leaves one short."""
    blocks = -(-out.shape[-1] // 4)
    x0 = np.arange(1, blocks + 1, dtype=np.uint64)
    x1 = np.zeros(1, dtype=np.uint64)
    x2 = np.array(steps, dtype=np.uint64)[:, None, None]
    x3 = np.array(streams, dtype=np.uint64)[:, None]
    k0, k1 = seed & _MASK64, seed >> 64
    for i in range(10):
        if i:
            k0, k1 = (k0 + _BUMPS[0]) & _MASK64, (k1 + _BUMPS[1]) & _MASK64
        lo0, hi0 = _mulhilo(_MULTIPLIERS[0], x0)
        lo1, hi1 = _mulhilo(_MULTIPLIERS[1], x2)
        x0, x1, x2, x3 = hi1 ^ x1 ^ np.uint64(k0), lo1, hi0 ^ x3 ^ np.uint64(k1), lo0
    for j, x in enumerate((x0, x1, x2, x3)):
        dst = out[..., j::4]
        x >>= _SHIFT11
        np.multiply(x[..., :dst.shape[-1]], _INV_2_53, out=dst)


def _to_uniform(frac: np.ndarray) -> np.ndarray:
    """Map the fractions v / 2^53 of 53-bit integers v, in place, to
    (v + 1/2) / 2^53 in (0, 1).  Scaling by 2^-53 is exact, so adding
    2^-54 rounds as v + 1/2 would.  For the top value 2^53 - 1 that sum
    rounds up to 1, so that one value is clamped to the largest double
    below 1; every other fraction maps as if unclamped."""
    frac += _HALF_UNIT
    return np.minimum(frac, _U_MAX, out=frac)
