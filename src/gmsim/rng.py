"""Counter-based Gaussian noise for reproducible parallel simulation.

Every increment is a pure function of (seed, stream, step, index): the block
of standard normals for a given (stream, step) is the output of a Philox
bit generator keyed on the seed with the (step, stream) pair in the counter,
so the value at a given index never depends on how many values were drawn,
in which order, or on how work is split across threads.  Prefix stability
(the first k values of a block are the same whatever the block length) is
what lets a mean-field proxy particle reuse the increments of particle 0
of an N-particle block.

A call may ask for several streams at once.  It builds one generator, local
to the call, and re-keys it for each stream by setting its counter, which
yields exactly the words a fresh Philox(key=seed, counter=[0, 0, step,
stream]) would; the stacked block then goes through one uniform map and one
inverse-CDF call.  No generator outlives the call, so threads may share a
source.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Philox
from scipy.special import ndtri

# Counter slot used when drawing initial conditions, so that time-step
# blocks (step = 0, 1, 2, ...) can never collide with them.
INIT_STEP = 2**62

_INV_2_53 = 2.0**-53


class BrownianSource:
    """Stateless source of standard normal increments.

    Gaussians come from the inverse normal CDF applied to 53-bit uniforms,
    offset to the open interval (0, 1).  `stream` is one stream, giving
    shape (count,), or a sequence of streams, giving (len(streams), count)
    with row r the block of streams[r].
    """

    def __init__(self, seed: int):
        self.seed = int(seed)

    def _raw(self, stream, step: int, count: int) -> np.ndarray:
        single = np.ndim(stream) == 0
        streams = [stream] if single else stream
        bg = Philox(key=self.seed)
        # The state of a fresh generator, buffer exhausted; restoring it with
        # another counter makes the next draw start exactly where a fresh
        # Philox(key=seed, counter=...) would.
        state = bg.state
        inner, step = state["state"], int(step)
        raw = np.empty((len(streams), count), dtype=np.uint64)
        for r, s in enumerate(streams):
            inner["counter"] = [0, 0, step, int(s)]
            bg.state = state
            raw[r] = bg.random_raw(count)
        return raw[0] if single else raw

    def uniforms(self, stream, step: int, count: int) -> np.ndarray:
        """Uniform variates in the open interval (0, 1)."""
        raw = self._raw(stream, step, count)
        return ((raw >> 11) + 0.5) * _INV_2_53

    def normals(self, stream, step: int, count: int) -> np.ndarray:
        """Standard normal variates, element i of a stream's block being a
        pure function of (seed, stream, step, i)."""
        return ndtri(self.uniforms(stream, step, count))
