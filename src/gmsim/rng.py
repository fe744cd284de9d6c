"""Counter-based Gaussian noise for reproducible parallel simulation.

Every increment is a pure function of (seed, stream, step, index): the block
of standard normals for a given (stream, step) is the output of a Philox
bit generator keyed on the seed with the (step, stream) pair in the counter,
so the value at a given index never depends on how many values were drawn,
in which order, or on how work is split across threads.  Prefix stability
(the first k values of a block are the same whatever the block length) is
what lets a mean-field proxy particle reuse the increments of particle 0
of an N-particle block.

A call may ask for several streams and a window of several steps at once.
It builds one generator, local to the call, and re-keys it for each
(step, stream) by setting its counter, which yields exactly the words a
fresh Philox(key=seed, counter=[0, 0, step, stream]) would; the stacked
words then go through one uniform map and one inverse-CDF call.  No
generator outlives the call, so threads may share a source.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Philox
from scipy.special import ndtri

# Counter slot used when drawing initial conditions, so that time-step
# blocks (step = 0, 1, 2, ...) can never collide with them.
INIT_STEP = 2**62

_INV_2_53 = 2.0**-53
# The largest double below 1.
_U_MAX = 1.0 - 2.0**-53


class BrownianSource:
    """Stateless source of standard normal increments.

    Gaussians come from the inverse normal CDF applied to 53-bit uniforms,
    offset to the open interval (0, 1).  `stream` is one stream or a
    sequence of streams, and `step` one step or a sequence of steps; the
    result has shape step's shape + stream's shape + (count,), so
    out[i, r] is the block of (step[i], stream[r]) and a single step of a
    single stream gives (count,).
    """

    def __init__(self, seed: int):
        self.seed = int(seed)

    def _raw(self, stream, step, count: int) -> np.ndarray:
        steps = [step] if np.ndim(step) == 0 else step
        streams = [int(s) for s in ([stream] if np.ndim(stream) == 0 else stream)]
        bg = Philox(key=self.seed)
        # The state of a fresh generator, buffer exhausted, held as plain
        # ints; restoring it with another counter makes the next draw start
        # exactly where a fresh Philox(key=seed, counter=...) would.
        state = bg.state
        counter = [0, 0, 0, 0]
        state["state"] = {"counter": counter, "key": [int(k) for k in state["state"]["key"]]}
        state["buffer"] = [0, 0, 0, 0]
        raw = np.empty((len(steps), len(streams), count), dtype=np.uint64)
        for i, k in enumerate(steps):
            counter[2] = int(k)
            for r, s in enumerate(streams):
                counter[3] = s
                bg.state = state
                raw[i, r] = bg.random_raw(count)
        return raw.reshape(np.shape(step) + np.shape(stream) + (count,))

    def uniforms(self, stream, step, count: int) -> np.ndarray:
        """Uniform variates in the open interval (0, 1)."""
        return _to_uniform(self._raw(stream, step, count))

    def normals(self, stream, step, count: int) -> np.ndarray:
        """Standard normal variates, element i of a (stream, step) block
        being a pure function of (seed, stream, step, i)."""
        u = self.uniforms(stream, step, count)
        return ndtri(u, out=u)


def _to_uniform(raw: np.ndarray) -> np.ndarray:
    """Map 64-bit words to (0, 1): the top 53 bits, offset by half a unit.
    For the top value 2^53 - 1 the offset rounds the sum up to 2^53, so
    that one value is clamped to the largest double below 1; every other
    word maps as if unclamped."""
    u = ((raw >> 11) + 0.5) * _INV_2_53
    return np.minimum(u, _U_MAX, out=u)
